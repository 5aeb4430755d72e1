#!/usr/bin/env python3
"""Print the brute-force cross-check of the tabulated operator values.

Two constants quoted alongside the quaternionic and twistor constructions do
not match direct contraction of the tensors they describe; this report shows
the computed values next to the tabulated ones.  The headline conclusions (a
nonzero tensor with vanishing complex Jacobi operator; a curvature tensor
moved by an isometry that preserves all complex Jacobi data) are unaffected,
which the test suite verifies separately.

Usage: python3 scripts/discrepancy_audit.py [--m 4] [--json]
"""

import argparse
import json

import numpy as np

from curvlab import (
    build_quaternion_triple,
    complex_jacobi,
    complex_line,
    counterexample_model,
    jacobi,
    twistor_point_model,
)


def discrepancy_audit(m: int = 4, seed: int = 0) -> dict:
    """Brute-force cross-check of two tabulated operator values, reported, not asserted.

    For the quaternionic model the coefficient c in J(x)Kx = c Kx at unit x is
    recomputed by direct contraction, and for the twistor-point model the
    complex Jacobi eigenvalue on Span{x, Jx} is recomputed the same way; both
    are compared against the values the constructions are usually quoted with.
    The remaining twistor eigenvalues (5 on the swapped quaternionic plane, 2
    on the complement) are cross-checked as well.
    """
    rng = np.random.default_rng(seed)
    triple = build_quaternion_triple(m)
    counter = counterexample_model(m)
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    kx = triple.j2.apply(x)
    coeff = float(kx @ (jacobi(counter.tensor, x) @ kx))

    twistor, _ = twistor_point_model(m)
    line = complex_line(x, twistor.structure)
    op = complex_jacobi(twistor.tensor, twistor.structure, line)
    j2x = twistor.structure.apply(x)
    plane_vals = (float(x @ (op @ x)), float(j2x @ (op @ j2x)))
    j1x = triple.j1.apply(x)
    j3x = triple.j3.apply(x)
    swapped_vals = (float(j1x @ (op @ j1x)), float(j3x @ (op @ j3x)))
    # Complement direction: orthogonalize a random vector against the quaternionic 4-plane.
    comp_val = None
    if m > 4:
        v = rng.standard_normal(m)
        for b in (x, j1x, j2x, j3x):
            v -= (v @ b) * b
        v /= np.linalg.norm(v)
        comp_val = float(v @ (op @ v))
    report = {
        "jacobi_K_coefficient": {
            "description": "coefficient c in J(x)Kx = c*Kx for the quaternionic model at unit x",
            "computed": coeff,
            "tabulated": 1.0,
            "agrees": bool(abs(coeff - 1.0) <= 1e-8),
        },
        "twistor_plane_eigenvalue": {
            "description": "complex Jacobi eigenvalue on Span{x, Jx} for the twistor-point model",
            "computed": plane_vals[0],
            "computed_at_Jx": plane_vals[1],
            "tabulated": 4.0,
            "agrees": bool(abs(plane_vals[0] - 4.0) <= 1e-8),
        },
        "twistor_swapped_plane_eigenvalue": {
            "description": "complex Jacobi eigenvalue on the swapped quaternionic directions",
            "computed": swapped_vals[0],
            "computed_at_other": swapped_vals[1],
            "tabulated": 5.0,
            "agrees": bool(abs(swapped_vals[0] - 5.0) <= 1e-8),
        },
    }
    if comp_val is not None:
        report["twistor_complement_eigenvalue"] = {
            "description": "complex Jacobi eigenvalue orthogonal to the quaternionic 4-plane",
            "computed": comp_val,
            "tabulated": 2.0,
            "agrees": bool(abs(comp_val - 2.0) <= 1e-8),
        }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=4, help="dimension, a multiple of 4")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    report = discrepancy_audit(args.m, seed=args.seed)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"discrepancy audit at m = {args.m} (documented report, not a failure)")
    for key, entry in report.items():
        flag = "agrees" if entry["agrees"] else "DISAGREES"
        print(f"  {key}: computed {entry['computed']:.6g}, tabulated {entry['tabulated']:.6g}  [{flag}]")
        print(f"    {entry['description']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
