"""Expected outputs and output checks, computed apart from curvlab.

Battery verdicts come from how a model was built (symmetries, compatibility
and the Vanhecke identity hold by construction) and from evaluating each
identity as a multilinear form at seeded random vectors.  A linear identity
that fails on a tensor fails at random vectors with probability one, so a
handful of vectors decides it.  Reconstructions are compared entry by entry
with the tensor that generated the input.
"""

from __future__ import annotations

import numpy as np

IDENTITIES = (
    "symmetries",
    "compatibility",
    "vanhecke",
    "sato1",
    "sato2",
    "lemma23",
    "gray-classify",
    "gray-yano",
)
GRAY_CLASSES = ("a1", "a2", "a3", "a2perp")

# A form that vanishes identically evaluates to rounding noise (~1e-15); one
# that does not is O(1) at unit vectors.
EVAL_TOL = 1e-8
RECON_REL_TOL = 1e-8
PROBES = 6


def form(a: np.ndarray, x, y, z, w) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", a, x, y, z, w))


def _slot_identity(terms):
    """Defect sum(coef * A(args)) for args written as x, y, z, w or Jx, Jy, ..."""

    def defect(a, j, vecs):
        total = 0.0
        for coef, args in terms:
            vals = [j @ vecs[s[-1]] if s.startswith("J") else vecs[s] for s in args]
            total += coef * form(a, *vals)
        return total

    return defect


# Gray's classes, the flip subspace and the eight-term (Gray) identity.
SLOT_IDENTITIES = {
    "a1": _slot_identity([(1, "xyzw"), (-1, ("Jx", "Jy", "z", "w"))]),
    "a2": _slot_identity(
        [
            (1, "xyzw"),
            (-1, ("Jx", "Jy", "z", "w")),
            (-1, ("Jx", "y", "Jz", "w")),
            (-1, ("Jx", "y", "z", "Jw")),
        ]
    ),
    "a3": _slot_identity([(1, "xyzw"), (-1, ("Jx", "Jy", "Jz", "Jw"))]),
    "a2perp": _slot_identity([(1, "xyzw"), (1, ("Jx", "Jy", "z", "w"))]),
    "gray-yano": _slot_identity(
        [
            (1, "xyzw"),
            (1, ("Jx", "Jy", "Jz", "Jw")),
            (-1, ("Jx", "Jy", "z", "w")),
            (-1, ("x", "y", "Jz", "Jw")),
            (-1, ("Jx", "y", "Jz", "w")),
            (-1, ("x", "Jy", "z", "Jw")),
            (-1, ("Jx", "y", "z", "Jw")),
            (-1, ("x", "Jy", "Jz", "w")),
        ]
    ),
}


def _unit(rng, m):
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


def _q(a, j, v):
    jv = j @ v
    return form(a, v, jv, jv, v)


def _vanhecke_defect(a, j, x, y):
    """32 A(x,y,y,x) minus its polarization through Q and lambda (Vanhecke)."""

    def lam(u, v):
        return form(a, u, v, v, u) - form(a, u, v, j @ v, j @ u)

    jy = j @ y
    rhs = (
        3 * _q(a, j, x + jy)
        + 3 * _q(a, j, x - jy)
        - _q(a, j, x + y)
        - _q(a, j, x - y)
        - 4 * _q(a, j, x)
        - 4 * _q(a, j, y)
        + 4 * (5 * lam(x, y) + lam(x, jy))
    )
    return 32 * form(a, x, y, y, x) - rhs


def expected_battery(a: np.ndarray, j: np.ndarray, rng: np.random.Generator) -> dict:
    """Expected ``holds`` per identity, gray-classify flags and exit code of ``check``.

    The battery models are compatible by construction (the generator checks
    the symmetries); the evaluations below confirm compatibility and decide
    everything else.
    """
    m = j.shape[0]
    scale = 1.0 + float(np.max(np.abs(a)))
    probes = [{k: _unit(rng, m) for k in "xyzw"} for _ in range(PROBES)]

    def vanishes(values) -> bool:
        return max(abs(v) for v in values) <= EVAL_TOL * scale

    gray = {
        name: vanishes(SLOT_IDENTITIES[name](a, j, p) for p in probes)
        for name in (*GRAY_CLASSES, "gray-yano")
    }
    if not gray["a3"]:
        raise AssertionError("battery model is not compatible")
    q_values = [_q(a, j, p["x"]) for p in probes]
    q_constant = vanishes(q - q_values[0] for q in q_values)
    if q_constant:
        raise AssertionError("constant-Q models need the sato1 identity evaluated; not generated")
    # lemma23: complex Jacobi operator J(x) + J(Jx), <J(x)y, z> = A(y, x, x, z).
    cj_zero = vanishes(
        form(a, p["y"], p["x"], p["x"], p["z"]) + form(a, p["y"], j @ p["x"], j @ p["x"], p["z"])
        for p in probes
    )
    holds = {
        "symmetries": True,
        "compatibility": True,
        "vanhecke": vanishes(_vanhecke_defect(a, j, p["x"], p["y"]) for p in probes),
        "sato1": False,
        "sato2": vanishes(q_values),
        "lemma23": cj_zero,
        "gray-classify": gray["a3"],
        "gray-yano": gray["gray-yano"],
    }
    return {
        "holds": holds,
        "gray": {name: gray[name] for name in GRAY_CLASSES},
        "exit_code": 0 if all(holds.values()) else 1,
    }


def check_battery(expected: dict, report: dict | None, exit_code: int) -> list[str]:
    """Differences between a ``check --output json`` report and the expectation."""
    problems = []
    if exit_code != expected["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit_code']}")
    if report is None:
        return problems + ["no JSON report"]
    if report.get("status") != expected["exit_code"]:
        problems.append(f"status {report.get('status')}, expected {expected['exit_code']}")
    results = report.get("results", [])
    names = [r.get("name") for r in results]
    if names != list(IDENTITIES):
        return problems + [f"results are {names}, expected {list(IDENTITIES)}"]
    for res in results:
        want = expected["holds"][res["name"]]
        if res["holds"] is not want:
            problems.append(f"{res['name']} holds={res['holds']}, expected {want}")
    flags = dict(tuple(item) for item in results[IDENTITIES.index("gray-classify")]["witness"])
    if flags != expected["gray"]:
        problems.append(f"gray classes {flags}, expected {expected['gray']}")
    return problems


def check_tensor(expected: np.ndarray, got) -> list[str]:
    """Relative Frobenius distance of a reconstruction from its generating tensor."""
    got = np.asarray(got, dtype=float)
    if got.shape != expected.shape:
        return [f"tensor shape {got.shape}, expected {expected.shape}"]
    rel = float(np.linalg.norm(got - expected)) / float(np.linalg.norm(expected))
    if not rel <= RECON_REL_TOL:
        return [f"relative error {rel:.3e} exceeds {RECON_REL_TOL:.0e}"]
    return []


def check_reconstruct_exit(exit_code: int) -> list[str]:
    return [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
