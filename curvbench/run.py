#!/usr/bin/env python3
"""curvlab benchmark: one closed-loop client, one workload per run.

    python3 curvbench/run.py --workload battery|reconstruct-cold|reconstruct-warm
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; curvlab is imported from ``src/``.
Inputs are generated from ``--seed`` by the benchmark's own code and written
under ``curvbench/_work/``; curvlab sees only those files.  Every output is
checked against a computation made apart from curvlab.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``).  See README.md for the workloads, the
metrics and the layer-to-metric map.
"""

from __future__ import annotations

import os

# Fixed BLAS thread count, set before numpy loads here and inherited by every
# child process.  One thread: on a shared two-core machine a second BLAS
# thread contends with the Python thread and with neighbours, which widens the
# run-to-run spread more than it shortens the dense solves (see README.md).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Model dimension and number of distinct models per workload (see README.md).
WORKLOADS = {
    "battery": {"m": 8, "models": 8},
    "reconstruct-cold": {"m": 6, "models": None},  # a fresh model for every operation
    "reconstruct-warm": {"m": 6, "models": 16},
}
# Set-up is measured this many times per run (fresh processes) and reported as the median.
SETUP_SAMPLES = {"battery": 9, "reconstruct-cold": 9, "reconstruct-warm": 3}
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# A hung child is killed, so that a run ends within three minutes.
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log_path, timeout=CHILD_TIMEOUT_S):
    """Run one process to completion; returns (exit code, wall seconds, peak RSS in MB).

    The peak RSS comes from ``os.wait4``, so it is the child's own.  A child
    that outlives ``timeout`` is killed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def crashed(code: int, log_path) -> bool:
    """A child that died on a signal or printed a traceback failed; it did not answer."""
    return code < 0 or b"Traceback (most recent call last)" in Path(log_path).read_bytes()


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, m: int):
        self.workload, self.seed, self.seconds, self.trace, self.m = workload, seed, seconds, trace, m
        self.work = HERE / "_work" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.j = inputs.standard_j(m)
        self.latencies: list[float] = []
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.peak_rss = 0.0
        self.summaries: list[dict] = []
        self.processes = 0

    def path(self, name: str) -> str:
        return str(self.work / name)

    def model_file(self, index: int, make) -> tuple[str, np.ndarray]:
        a = make(inputs.model_rng(self.seed, self.workload, index), self.m)
        name = self.path(f"model{index}.json")
        inputs.write_model(name, self.j, a, kind=self.workload)
        return name, a

    # -- in-process workloads -------------------------------------------------
    def in_process(self) -> None:
        count = WORKLOADS[self.workload]["models"]
        battery = self.workload == "battery"
        make = inputs.battery_model if battery else inputs.kaehler_product
        items = []
        for index in range(-1, count):
            path, a = self.model_file(index, make)
            if battery:
                probe_rng = inputs.model_rng(self.seed, "battery-probes", index)
                item = {
                    "path": path,
                    "argv": ["check", path, *checks.IDENTITIES, "--output", "json"],
                    "expected": checks.expected_battery(a, self.j, probe_rng),
                }
            else:
                item = {"path": path, "tensor": a.tolist()}
            items.append(item)
        manifest = {
            "workload": self.workload,
            "seconds": self.seconds,
            "trace": self.trace,
            "spans": self.path("spans.jsonl"),
            "warmup": items[0],
            "items": items[1:],
        }
        manifest_path = self.path("manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        worker = [sys.executable, str(HERE / "worker.py"), manifest_path]
        if not self.trace:
            for k in range(SETUP_SAMPLES[self.workload] - 1):
                out = self.path(f"setup{k}.json")
                code, _, _ = run_child(worker + [out, "--setup-only"], self.path(f"setup{k}.log"))
                self.require(code == 0, f"set-up probe exited {code}", f"setup{k}.log")
                self.setup.append(_read_json(out)["setup_s"])
        out = self.path("worker.json")
        code, _, rss = run_child(worker + [out], self.path("worker.log"), self.seconds + CHILD_TIMEOUT_S)
        self.require(code == 0, f"worker exited {code}", "worker.log")
        result = _read_json(out)
        self.setup.append(result["setup_s"])
        self.peak_rss = rss
        self.latencies = result["latencies"]
        self.attempted, self.failed, self.wrong = result["attempted"], result["failed"], result["wrong"]
        self.problems = result["problems"]
        if self.trace:
            result["trace"]["counters"]["import_ms"] = result["import_ms"]
            self.summaries.append(result["trace"])
            self.processes = 1

    # -- one fresh curvlab process per operation ------------------------------
    def cold(self) -> None:
        if not self.trace:
            for k in range(SETUP_SAMPLES[self.workload]):
                code, wall, _ = run_child([sys.executable, "-c", "import curvlab.cli"], self.path("setup.log"))
                self.require(code == 0, f"import of curvlab.cli exited {code}", "setup.log")
                self.setup.append(wall)
        started = time.perf_counter()
        index = 0
        while True:
            src, a = self.model_file(index, inputs.kaehler_product)
            out, log = self.path(f"recon{index}.json"), self.path(f"recon{index}.log")
            args = ["reconstruct", src, "--mode", "complex-jacobi", "--out", out]
            if self.trace:
                summary = self.path(f"trace{index}.json")
                argv = [sys.executable, str(HERE / "traced_cli.py"), summary, self.path(f"spans{index}.jsonl")]
            else:
                argv = [sys.executable, "-m", "curvlab.cli"]
            code, wall, rss = run_child(argv + args, log)
            self.attempted += 1
            self.peak_rss = max(self.peak_rss, rss)
            if crashed(code, log):
                self.failed += 1
                self.problems.append(f"op {index} crashed with exit code {code}, see {log}")
            else:
                self.latencies.append(wall)
                found = checks.check_reconstruct_exit(code)
                if not found:
                    found = checks.check_tensor(a, inputs.read_entries(out))
                self.wrong += bool(found)
                self.problems.extend(f"op {index}: {p}" for p in found)
                if self.trace:
                    self.summaries.append(_read_json(summary))
                    self.processes += 1
            for name in (src, out):
                if os.path.exists(name):
                    os.remove(name)
            index += 1
            if time.perf_counter() - started >= self.seconds:
                break

    def require(self, ok: bool, message: str, log: str) -> None:
        if not ok:
            raise SystemExit(f"error: {message}; see {self.path(log)}")

    def report(self) -> dict:
        if not self.latencies:
            raise SystemExit(f"error: no operation completed: {self.problems[:3]}")
        if self.trace:
            metrics = tracing.layer_metrics(
                tracing.merge(self.summaries), len(self.latencies), max(self.processes, 1)
            )
        else:
            values = {
                "ops_per_s": len(self.latencies) / sum(self.latencies),
                "latency_p50_ms": 1000.0 * statistics.median(self.latencies),
                "peak_rss_mb": self.peak_rss,
                "setup_s": statistics.median(self.setup),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return {
            "correct": self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "curvlab" / "cli.py").is_file():
        print(f"error: no curvlab sources under {SRC}; run from a curvlab checkout", file=sys.stderr)
        return 2
    m = WORKLOADS[args.workload]["m"]
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), m)
    print(
        f"workload {args.workload}: m={m}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}, BLAS threads {BLAS_THREADS}",
        file=sys.stderr,
    )
    if args.workload == "reconstruct-cold":
        run.cold()
    else:
        run.in_process()
    result = run.report()
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    with open(run.path("result.json"), "w") as fh:
        record = {**result, "blas_threads": BLAS_THREADS, "m": m, "seed": args.seed, "setup_s": run.setup}
        json.dump({**record, "latencies_ms": [1000.0 * t for t in run.latencies]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
