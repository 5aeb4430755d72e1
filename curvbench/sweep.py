#!/usr/bin/env python3
"""Reference sweep of the dense solves over m, measured once for README.md.

    python3 curvbench/sweep.py

For each m in M_VALUES, three fresh processes measure wall time and peak RSS of
``curvature_space_basis(m)``, of ``subspace_dimension(a1,a2,a3,a2perp)`` and of
a cold ``curvlab reconstruct --mode complex-jacobi``.  A probe whose memory
estimate exceeds BUDGET_GB is recorded as skipped and never attempted.  The
estimates are lower bounds: the 3m^4 x m^4 constraint matrix of the basis SVD
plus its equally large U factor, and for the four-tag subspace solve also the
square U factor, twice over for workspace, that ``svd(full_matrices=True)``
builds over its 4m^4 design rows.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS thread count for the children

import inputs

M_VALUES = (4, 6, 8, 10, 12)
BUDGET_GB = 3.0


def basis_gb(m: int) -> float:
    return 2 * 3 * m**8 * 8 / 1e9


def subspace_gb(m: int) -> float:
    return basis_gb(m) + 2 * (4 * m**4) ** 2 * 8 / 1e9


PROBES = {
    "curvature_space_basis": (
        basis_gb,
        "import time; t0 = time.perf_counter(); from curvlab.tensors import curvature_space_basis; "
        "curvature_space_basis({m}); print(time.perf_counter() - t0)",
    ),
    "subspace_dimension(a1,a2,a3,a2perp)": (
        subspace_gb,
        "import time; t0 = time.perf_counter(); "
        "from curvlab import subspace_dimension, standard_complex_structure; "
        "print(subspace_dimension(['a1', 'a2', 'a3', 'a2perp'], {m}, standard_complex_structure({m})), "
        "file=__import__('sys').stderr); print(time.perf_counter() - t0)",
    ),
    "curvlab reconstruct (cold)": (basis_gb, None),
}


def main() -> int:
    work = run.HERE / "_work" / "sweep"
    work.mkdir(parents=True, exist_ok=True)
    rows = []
    for m in M_VALUES:
        for index, (name, (estimate, code)) in enumerate(PROBES.items()):
            need = estimate(m)
            if need > BUDGET_GB:
                rows.append({"m": m, "what": name, "skipped": f"needs >= {need:.1f} GB, budget {BUDGET_GB:g} GB"})
            else:
                if code is None:
                    src, out = work / f"model{m}.json", work / f"recon{m}.json"
                    a = inputs.kaehler_product(inputs.model_rng(0, "sweep", m), m)
                    inputs.write_model(src, inputs.standard_j(m), a, "sweep")
                    argv = ["-m", "curvlab.cli", "reconstruct", str(src), "--mode", "complex-jacobi", "--out", str(out)]
                else:
                    argv = ["-c", code.format(m=m)]
                log = work / f"probe{index}-m{m}.log"
                rc, wall, rss = run.run_child([sys.executable, *argv], log, timeout=900)
                rows.append({"m": m, "what": name, "exit": rc, "wall_s": wall, "peak_rss_mb": rss})
            print(json.dumps(rows[-1]), flush=True)
    with open(work / "sweep.json", "w") as fh:
        json.dump({"blas_threads": run.BLAS_THREADS, "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
