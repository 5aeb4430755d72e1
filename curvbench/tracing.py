"""Spans at curvlab's module boundaries, recorded from outside the library.

``Tracer.install`` replaces each public function listed in ``TARGETS`` by a
wrapper at every place curvlab binds it: the defining module, every curvlab
module that imported the name, and the package namespace.  Calls between
layers (``cli`` -> ``identities`` -> ``operators`` -> ``spaces``) therefore
pass through the wrappers as well.  Each span records its parent, its start
and end, and its self time (duration minus the time covered by its child
spans).  The solve layers also record their ``tracemalloc`` peak, during the
first operation of each process only: ``tracemalloc`` slows every allocation,
and over a long in-process run its cost would swamp the self times.

Spans of the first ``SPAN_LOG_OPS`` operations are kept in memory and written
out once, when the run ends; the totals cover every operation.  Only calls
made while ``Tracer.active`` is true are recorded, so set-up is excluded.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

TARGETS = (
    ("cli", "main"),
    ("modelio", "load_model"),
    ("modelio", "save_model"),
    ("tensors", "curvature_space_basis"),
    ("tensors", "validate_or_project"),
    ("spaces", "spanning_lines"),
    ("spaces", "complex_line"),
    ("operators", "complex_jacobi"),
    ("operators", "complex_curvature_operator"),
    ("operators", "q_quartic"),
    ("identities", "check_compatibility"),
    ("identities", "check_vanhecke"),
    ("identities", "check_sato"),
    ("identities", "lemma23_battery"),
    ("identities", "gray_classify"),
    ("identities", "check_gray_yano"),
    ("identities", "arranged"),
    ("identities", "subspace_coordinate_basis"),
    ("constructions", "reconstruct_from_complex_jacobi"),
)

SPAN_LOG_OPS = 50

SOLVE_LAYERS = frozenset(
    {
        "tensors.curvature_space_basis",
        "identities.subspace_coordinate_basis",
        "constructions.reconstruct_from_complex_jacobi",
    }
)

# Per-layer metrics in report order: (name, unit, source, field).  ``source``
# is a span name or a counter; ``field`` is summed over the run and divided by
# the operation count, except ``peak_alloc_mb``, the largest peak of any span.
LAYER_METRICS = (
    ("cli.main.self_ms", "ms", "cli.main", "self_ms"),
    ("cli.import_ms", "ms", "counter", "import_ms"),
    ("modelio.load_model.self_ms", "ms", "modelio.load_model", "self_ms"),
    ("modelio.save_model.self_ms", "ms", "modelio.save_model", "self_ms"),
    ("modelio.bytes_read", "bytes", "counter", "bytes_read"),
    ("modelio.bytes_written", "bytes", "counter", "bytes_written"),
    ("tensors.curvature_space_basis.self_ms", "ms", "tensors.curvature_space_basis", "self_ms"),
    ("tensors.curvature_space_basis.calls", "count", "tensors.curvature_space_basis", "calls"),
    ("tensors.curvature_space_basis.computed", "count", "counter", "basis_computed"),
    ("tensors.curvature_space_basis.peak_alloc_mb", "MB", "tensors.curvature_space_basis", "peak_alloc_mb"),
    ("tensors.validate_or_project.self_ms", "ms", "tensors.validate_or_project", "self_ms"),
    ("spaces.spanning_lines.calls", "count", "spaces.spanning_lines", "calls"),
    ("spaces.spanning_lines.self_ms", "ms", "spaces.spanning_lines", "self_ms"),
    ("spaces.complex_line.calls", "count", "spaces.complex_line", "calls"),
    ("operators.complex_jacobi.calls", "count", "operators.complex_jacobi", "calls"),
    ("operators.complex_jacobi.self_ms", "ms", "operators.complex_jacobi", "self_ms"),
    ("operators.complex_curvature_operator.calls", "count", "operators.complex_curvature_operator", "calls"),
    ("operators.complex_curvature_operator.self_ms", "ms", "operators.complex_curvature_operator", "self_ms"),
    ("operators.q_quartic.calls", "count", "operators.q_quartic", "calls"),
    ("operators.q_quartic.self_ms", "ms", "operators.q_quartic", "self_ms"),
    ("identities.check_compatibility.calls", "count", "identities.check_compatibility", "calls"),
    ("identities.check_compatibility.self_ms", "ms", "identities.check_compatibility", "self_ms"),
    ("identities.check_vanhecke.self_ms", "ms", "identities.check_vanhecke", "self_ms"),
    ("identities.check_sato.self_ms", "ms", "identities.check_sato", "self_ms"),
    ("identities.lemma23_battery.self_ms", "ms", "identities.lemma23_battery", "self_ms"),
    ("identities.gray_classify.self_ms", "ms", "identities.gray_classify", "self_ms"),
    ("identities.check_gray_yano.self_ms", "ms", "identities.check_gray_yano", "self_ms"),
    ("identities.arranged.calls", "count", "identities.arranged", "calls"),
    ("identities.arranged.self_ms", "ms", "identities.arranged", "self_ms"),
    ("identities.subspace_coordinate_basis.self_ms", "ms", "identities.subspace_coordinate_basis", "self_ms"),
    ("identities.subspace_coordinate_basis.peak_alloc_mb", "MB", "identities.subspace_coordinate_basis", "peak_alloc_mb"),
    ("constructions.reconstruct_from_complex_jacobi.self_ms", "ms", "constructions.reconstruct_from_complex_jacobi", "self_ms"),
    ("constructions.reconstruct_from_complex_jacobi.peak_alloc_mb", "MB", "constructions.reconstruct_from_complex_jacobi", "peak_alloc_mb"),
)


class Tracer:
    """Wraps curvlab's layer functions and records one span per call."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []  # (id, parent, name, op, start, end, self_s, peak_bytes)
        self.stats: dict[str, dict] = {}
        self.counters = {"import_ms": 0.0, "bytes_read": 0, "bytes_written": 0, "basis_computed": 0}
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._solve: list[list] = []  # [base bytes, highest bytes seen, started tracemalloc]
        self._basis_cache = None
        self._next_id = 0

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "curvlab" or name.startswith("curvlab.")
        }
        for module, func in TARGETS:
            home = modules.get(f"curvlab.{module}")
            if home is None:
                continue
            original = getattr(home, func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            if func == "curvature_space_basis":
                self._basis_cache = original

    def _wrap(self, name, func):
        tracer = self
        solve = name in SOLVE_LAYERS

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            return tracer._call(name, solve and tracer.op == 0, func, args, kwargs)

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def _call(self, name, solve, func, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        if solve:
            self._enter_solve()
        if name == "tensors.curvature_space_basis":
            misses = self._basis_cache.cache_info().misses
        frame = [span_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            self_s = duration - frame[3]
            if self._stack:
                self._stack[-1][3] += duration
            peak = self._exit_solve() if solve else 0
            stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "peak_bytes": 0})
            stat["calls"] += 1
            stat["self_s"] += self_s
            stat["peak_bytes"] = max(stat["peak_bytes"], peak)
            if self.op < SPAN_LOG_OPS:
                self.spans.append((span_id, parent, name, self.op, frame[2], end, self_s, peak))
            if name == "tensors.curvature_space_basis":
                self.counters["basis_computed"] += self._basis_cache.cache_info().misses - misses
            elif name == "modelio.load_model":
                self.counters["bytes_read"] += _size(args[0] if args else kwargs.get("path"))
            elif name == "modelio.save_model":
                self.counters["bytes_written"] += _size(args[1] if len(args) > 1 else kwargs.get("path"))

    def _enter_solve(self) -> None:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._solve:
            self._solve[-1][1] = max(self._solve[-1][1], peak)
        tracemalloc.reset_peak()
        self._solve.append([current, current, started])

    def _exit_solve(self) -> int:
        base, seen, started = self._solve.pop()
        seen = max(seen, tracemalloc.get_traced_memory()[1])
        if self._solve:
            self._solve[-1][1] = max(self._solve[-1][1], seen)
        if started:
            tracemalloc.stop()
        return seen - base

    def summary(self) -> dict:
        """Totals over the run, in a form that sums across processes."""
        return {"stats": self.stats, "counters": self.counters}

    def write_spans(self, path) -> None:
        """One JSON array per line; the first line names the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "name", "op", "start", "end", "self_s", "peak_bytes"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def merge(summaries) -> dict:
    """Sum per-process summaries; peaks take the maximum."""
    stats: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, stat in summary["stats"].items():
            into = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "peak_bytes": 0})
            into["calls"] += stat["calls"]
            into["self_s"] += stat["self_s"]
            into["peak_bytes"] = max(into["peak_bytes"], stat["peak_bytes"])
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"stats": stats, "counters": counters}


def layer_metrics(summary: dict, ops: int, processes: int) -> dict:
    """Per-operation layer metrics; ``cli.import_ms`` is per process that imported curvlab."""
    out = {}
    for metric, unit, source, field in LAYER_METRICS:
        if source == "counter":
            total = summary["counters"].get(field, 0)
            value = total / processes if field == "import_ms" else total / ops
        else:
            stat = summary["stats"].get(source, {"calls": 0, "self_s": 0.0, "peak_bytes": 0})
            if field == "peak_alloc_mb":
                value = stat["peak_bytes"] / 2**20
            elif field == "calls":
                value = stat["calls"] / ops
            else:
                value = 1000.0 * stat["self_s"] / ops
        out[metric] = {"value": value, "unit": unit}
    return out
