"""Benchmark inputs built with the benchmark's own numpy formulas.

Nothing here imports curvlab: the models are made from closed-form tensors,
written with the benchmark's own JSON writer in curvlab's documented model
file format, and every property the checks rely on is verified here before a
file is written.

Conventions match curvlab's: a rank-4 tensor ``A[i, j, k, l]`` is the form
``A(e_i, e_j, e_k, e_l)``, and ``J`` acts on vectors as ``J @ x``.
"""

from __future__ import annotations

import json

import numpy as np

# Tolerance for "this tensor has the property": the properties are exact up to
# rounding, so residuals sit near 1e-15 and anything that fails is O(1).
BUILD_TOL = 1e-11


def standard_j(m: int) -> np.ndarray:
    """Block-diagonal complex structure with 2x2 blocks [[0, -1], [1, 0]]."""
    return np.kron(np.eye(m // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))


def a_sym(s: np.ndarray) -> np.ndarray:
    """A_S(x, y, z, w) = <Sx, w><Sy, z> - <Sx, z><Sy, w> for symmetric S."""
    return np.einsum("il,jk->ijkl", s, s) - np.einsum("ik,jl->ijkl", s, s)


def a_skew(p: np.ndarray) -> np.ndarray:
    """A_P(x, y, z, w) = <x, Pw><y, Pz> - <x, Pz><y, Pw> - 2<x, Py><z, Pw>."""
    return (
        np.einsum("il,jk->ijkl", p, p)
        - np.einsum("ik,jl->ijkl", p, p)
        - 2.0 * np.einsum("ij,kl->ijkl", p, p)
    )


def j_invariant_symmetric(rng: np.random.Generator, j: np.ndarray) -> np.ndarray:
    """Random symmetric S with SJ = JS, by averaging S with J S J^-1 = -J S J."""
    g = rng.standard_normal(j.shape)
    s = 0.5 * (g + g.T)
    return 0.5 * (s - j @ s @ j)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Realified random n x n unitary, a 2n x 2n orthogonal map commuting with standard_j."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    real = np.zeros((2 * n, 2 * n))
    real[0::2, 0::2] = u.real
    real[0::2, 1::2] = -u.imag
    real[1::2, 0::2] = u.imag
    real[1::2, 1::2] = u.real
    return real


def pull_back(a: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(theta^* A)(x, y, z, w) = A(theta x, theta y, theta z, theta w)."""
    return np.einsum("abcd,ai,bj,ck,dl->ijkl", a, theta, theta, theta, theta, optimize=True)


def symmetry_defect(a: np.ndarray) -> float:
    """Largest violation of antisymmetry, pair swap and first Bianchi over all entries."""
    return max(
        float(np.max(np.abs(a + a.transpose(1, 0, 2, 3)))),
        float(np.max(np.abs(a - a.transpose(2, 3, 0, 1)))),
        float(np.max(np.abs(a + a.transpose(1, 2, 0, 3) + a.transpose(2, 0, 1, 3)))),
    )


def eight_term_defect(a: np.ndarray, j: np.ndarray) -> float:
    """Largest entry of A + A(J,J,J,J) minus the six two-J terms of the Gray identity.

    Computed by transforming whole slots with J, independently of curvlab's
    slot-pattern contractions.
    """

    def with_j(slots):
        out = a
        for axis in slots:
            out = np.moveaxis(np.tensordot(out, j, axes=([axis], [0])), -1, axis)
        return out

    defect = (
        a
        + with_j((0, 1, 2, 3))
        - with_j((0, 1))
        - with_j((2, 3))
        - with_j((0, 2))
        - with_j((1, 3))
        - with_j((0, 3))
        - with_j((1, 2))
    )
    return float(np.max(np.abs(defect)))


def battery_model(rng: np.random.Generator, m: int) -> np.ndarray:
    """Generic compatible tensor: three A_S with J-invariant S plus a multiple of A_J."""
    j = standard_j(m)
    a = sum(a_sym(j_invariant_symmetric(rng, j)) for _ in range(3))
    a = a + rng.uniform(0.5, 2.0) * a_skew(j)
    if symmetry_defect(a) > BUILD_TOL * (1.0 + np.max(np.abs(a))):
        raise AssertionError("battery model is not a curvature tensor")
    return a


def kaehler_product(rng: np.random.Generator, m: int) -> np.ndarray:
    """Kaehler product tensor pulled back by a random unitary map.

    C^(m/2) is cut into blocks of random complex sizes; each block carries
    constant holomorphic sectional curvature c/4 (A_P + A_(JP) on its
    projector P) with c drawn from [0.5, 2].  The sum is then pulled back by a
    random unitary map, so no coordinate direction is special.  The result
    satisfies the eight-term identity, which is checked here.
    """
    n = m // 2
    j = standard_j(m)
    sizes = []
    left = n
    while left:
        size = int(rng.integers(1, left + 1))
        sizes.append(size)
        left -= size
    a = np.zeros((m,) * 4)
    start = 0
    for size in sizes:
        proj = np.zeros((m, m))
        idx = np.arange(2 * start, 2 * (start + size))
        proj[idx, idx] = 1.0
        a += 0.25 * rng.uniform(0.5, 2.0) * (a_sym(proj) + a_skew(j @ proj))
        start += size
    a = pull_back(a, random_unitary(rng, n))
    scale = 1.0 + float(np.max(np.abs(a)))
    if symmetry_defect(a) > BUILD_TOL * scale:
        raise AssertionError("Kaehler product is not a curvature tensor")
    if eight_term_defect(a, j) > BUILD_TOL * scale:
        raise AssertionError("Kaehler product fails the eight-term identity")
    return a


def model_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    """Generator for model ``index`` of a workload; a warm-up model uses index -1."""
    tag = sum(ord(c) for c in workload)
    return np.random.default_rng([seed, tag, index + 1])


def write_model(path, j: np.ndarray, a: np.ndarray, kind: str) -> int:
    """Write a dense model file; returns the bytes written.

    Floats are written with ``repr`` precision by ``json``, so the tensor
    round-trips bit-exactly.
    """
    doc = {
        "dim": int(j.shape[0]),
        "J": j.tolist(),
        "A": {"storage": "dense", "entries": a.tolist()},
        "metadata": {"kind": kind},
    }
    text = json.dumps(doc)
    with open(path, "w") as fh:
        fh.write(text)
    return len(text)


def read_entries(path) -> np.ndarray:
    """Tensor entries of a dense model file, read with plain json."""
    with open(path) as fh:
        doc = json.load(fh)
    return np.asarray(doc["A"]["entries"], dtype=float)
