"""Traced stand-in for the ``curvlab`` command, one process per call.

    python3 curvbench/traced_cli.py <summary.json> <spans.jsonl> <curvlab arguments...>

Imports ``curvlab.cli`` (timed as ``cli.import_ms``), installs the layer
wrappers of ``tracing.py``, runs ``curvlab.cli.main`` on the remaining
arguments, writes the layer totals and spans, and exits with main's code.
"""

from __future__ import annotations

import json
import sys
import time

if __name__ == "__main__":
    summary_path, spans_path, cli_argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import curvlab.cli

    import_ms = 1000.0 * (time.perf_counter() - t0)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.counters["import_ms"] = import_ms
    tracer.op, tracer.active = 0, True
    try:
        code = curvlab.cli.main(cli_argv)
    finally:
        tracer.active = False
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write_spans(spans_path)
    sys.exit(code)
