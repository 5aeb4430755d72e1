"""In-process workloads: one long-lived curvlab session, one closed-loop client.

Run by ``run.py`` as a child process, so that its peak RSS is curvlab's alone
and so that set-up starts from a fresh interpreter every time.

    python3 curvbench/worker.py <manifest.json> <result.json> [--setup-only]

The manifest names the workload, the run length, the model files and what
each operation must return.  The result holds the set-up time, one latency
per completed operation, the failure count, any output that failed its check
and, when traced, the layer totals.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _check_op(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def main(argv) -> int:
    manifest_path, result_path = argv[0], argv[1]
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    battery = manifest["workload"] == "battery"

    # Set-up: import curvlab (numpy included), then one untimed operation on
    # the warm-up model; for reconstruct-warm that fills the curvature basis
    # and the eight-term subspace caches.
    t0 = time.perf_counter()
    if battery:
        import curvlab.cli as cli

        import_s = time.perf_counter() - t0
        _check_op(cli, manifest["warmup"]["argv"])
    else:
        import curvlab

        import_s = time.perf_counter() - t0

        def reconstruct(model):
            return curvlab.reconstruct_from_complex_jacobi(curvlab.ComplexJacobiOracle.from_model(model))

        reconstruct(curvlab.load_model(manifest["warmup"]["path"]).model)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "import_ms": 1000.0 * import_s}
    if "--setup-only" in argv:
        _write(result_path, result)
        return 0

    import numpy as np

    import checks

    items = manifest["items"]
    if battery:

        def op(k):
            return _check_op(cli, items[k]["argv"])

        def verify(out, k):
            code, text = out
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                report = None
            return checks.check_battery(items[k]["expected"], report, code)

    else:
        # Inputs reach curvlab through its own loader, outside the timed loop.
        models = [curvlab.load_model(item["path"]).model for item in items]
        expected = [np.asarray(item["tensor"], dtype=float) for item in items]

        def op(k):
            return reconstruct(models[k])

        def verify(out, k):
            return checks.check_tensor(expected[k], out.entries)

    tracer = None
    if manifest["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    latencies, problems, failed, wrong = [], [], 0, 0
    deadline = time.perf_counter() + manifest["seconds"]
    index = 0
    while True:
        k = index % len(items)
        if tracer:
            tracer.op, tracer.active = index, True
        start = time.perf_counter()
        try:
            out = op(k)
        except Exception as exc:  # an operation that raises is counted as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.active = False
        if out is None:
            failed += 1
            problems.append(f"op {index} failed: {error}")
        else:
            latencies.append(elapsed)
            found = verify(out, k)
            wrong += bool(found)
            problems.extend(f"op {index} ({items[k]['path']}): {p}" for p in found)
        index += 1
        if time.perf_counter() >= deadline:
            break
    result.update({"attempted": index, "failed": failed, "wrong": wrong, "latencies": latencies, "problems": problems[:20]})
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write_spans(manifest["spans"])
    _write(result_path, result)
    return 0


def _write(path, result) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
