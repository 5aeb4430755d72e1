"""Operator- and scalar-valued contractions of a curvature tensor.

Jacobi and complex Jacobi operators, the complex curvature operator, the
Ricci and star-Ricci contractions, the quartic Q(x) = A(x,Jx,Jx,x), and
spectrum reporting with merged multiplicities.  Every operator is returned as
its m x m matrix, or for a sequence of L lines as the (L, m, m) stack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, LineStructureMismatchError, NonFiniteEntryError
from .spaces import ComplexLine, ComplexStructure, SpanningLines
from .tensors import AlgebraicCurvatureTensor, _slot_image

SPECTRUM_MERGE_TOL = 1e-8  # relative to the scale of merged_spectrum


def _check_structure(owner: ComplexStructure, structure: ComplexStructure) -> None:
    """Raise unless the line's structure matches ``structure`` within 1e-12.

    The same object, or an equal matrix (a model loaded again, a cached
    sweep), passes on a byte comparison, which costs a fraction of the
    elementwise check on every per-line call.
    """
    if owner is structure or owner.matrix.tobytes() == structure.matrix.tobytes():
        return
    if owner.matrix.shape != structure.matrix.shape or (
        float(np.max(np.abs(owner.matrix - structure.matrix))) > 1e-12
    ):
        raise LineStructureMismatchError("line was built for a different complex structure")


def _jacobi_stack(entries: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """M[..., l, a, b] = sum_ij A[..., b, i, j, a] F[l, i, j] for a stack of forms F.

    The one Jacobi-type contraction: the middle slots of A (and of every tensor
    in a leading stack) paired with each form.  F = x x^T gives the Jacobi
    matrix at x, and F = y z^T gives M[a, b] = A(e_b, y, z, e_a).
    """
    m = entries.shape[-1]
    out = forms.reshape(-1, m * m) @ entries.reshape(entries.shape[:-4] + (m, m * m, m))
    # (..., b, l, a) -> (..., l, a, b); np.moveaxis takes ten times as long, a
    # share of every per-line operator call
    return out.swapaxes(-3, -2).swapaxes(-2, -1)


def _curvature_stack(entries: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """M[l, a, b] = sum_ij A(e_i, e_j, e_b, e_a) P[l, i, j] for a stack of forms P.

    The one curvature-operator contraction: the first slot pair of A paired
    with each form, taken without assuming any symmetry of the tensor.
    P = x y^T gives <M z, w> = A(x, y, z, w).
    """
    m = entries.shape[-1]
    return (pairs.reshape(-1, m * m) @ entries.reshape(m * m, m * m)).reshape(-1, m, m).swapaxes(1, 2)


def jacobi(tensor: AlgebraicCurvatureTensor, x) -> np.ndarray:
    """Jacobi matrix M[a, b] = A(e_b, x, x, e_a); symmetric and annihilates x."""
    v = np.asarray(x, dtype=float)
    if v.shape != (tensor.dim,):
        raise DimensionMismatchError(f"vector of shape {v.shape} does not match dimension {tensor.dim}")
    return _jacobi_stack(tensor.entries, np.outer(v, v))[0]


def _line_array(tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, line, field: str) -> np.ndarray:
    """The line's representative or projector, or for a sequence of lines all of
    them stacked, after checking that the lines belong to the structure.

    A ``SpanningLines`` sweep already holds both stacks, so they are not rebuilt.
    """
    if tensor.dim != structure.dim:
        raise DimensionMismatchError(f"dimensions differ: {tensor.dim} vs {structure.dim}")
    if isinstance(line, ComplexLine):
        _check_structure(line.structure, structure)
        return getattr(line, field)
    if isinstance(line, SpanningLines):
        _check_structure(line.structure, structure)
        return getattr(line, field + "s")
    for owner in {ln.structure for ln in line}:  # one structure object per sweep
        _check_structure(owner, structure)
    return np.array([getattr(ln, field) for ln in line])


def complex_jacobi(
    tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, line
) -> np.ndarray:
    """J(pi) = J(x) + J(Jx) for a unit x of the line pi.

    Its matrix is M[a, b] = sum_ij A(e_b, e_i, e_j, e_a) P[i, j] with the line
    projector P = x x^T + Jx Jx^T, so it does not depend on the representative.
    For a sequence of L lines the matrix is the (L, m, m) stack, from one
    kernel call.
    """
    mats = _jacobi_stack(tensor.entries, _line_array(tensor, structure, line, "projector"))
    return mats[0] if isinstance(line, ComplexLine) else mats


def complex_curvature_operator(
    tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, line
) -> np.ndarray:
    """R(pi) = R(x, Jx) for the line's representative x: <R(pi) z, w> = A(x, Jx, z, w).

    Its matrix is the first-pair contraction of A with x (x) Jx.  Rotating the
    representative inside the line leaves it unchanged because
    x' wedge Jx' = x wedge Jx.  For a sequence of L lines the matrix is the
    (L, m, m) stack, from one product with the stacked x (x) Jx.
    """
    m = tensor.dim
    xs = _line_array(tensor, structure, line, "representative").reshape(-1, m)
    mats = _curvature_stack(tensor.entries, xs[:, :, None] * (xs @ structure.matrix.T)[:, None, :])
    return mats[0] if isinstance(line, ComplexLine) else mats


def ricci(tensor: AlgebraicCurvatureTensor) -> np.ndarray:
    """rho[a, b] = sum_i A(e_i, e_a, e_b, e_i); always symmetric."""
    return np.einsum("iabi->ab", tensor.entries)


def star_ricci(tensor: AlgebraicCurvatureTensor, structure: ComplexStructure) -> np.ndarray:
    """rho*[a, b] = sum_i A(e_a, J e_i, J e_b, e_i), the trace of A with J on
    slots 1 and 2 over its second and last slots.

    Symmetry is measured, never enforced: it holds on compatible models but
    fails in general.
    """
    if tensor.dim != structure.dim:
        raise DimensionMismatchError(f"dimensions differ: {tensor.dim} vs {structure.dim}")
    return np.einsum("aibi->ab", _slot_image(tensor.entries, structure.matrix, (1, 2), None))


def q_quartic(tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, v) -> float | np.ndarray:
    """Quartic form Q(v) = A(v, Jv, Jv, v) = v^T J(Jv) v at a not-necessarily-unit vector.

    For an (n, m) array of vectors, one per row, the n values come from one batch;
    one vector is a batch of one.
    """
    v = np.asarray(v, dtype=float)
    vs = v[None] if v.ndim == 1 else v
    if vs.ndim != 2 or vs.shape[1] != tensor.dim or structure.dim != tensor.dim:
        raise DimensionMismatchError(
            f"vectors of shape {v.shape} and a {structure.dim}-dimensional structure "
            f"do not match dimension {tensor.dim}"
        )
    vj = vs @ structure.matrix.T
    mats = _jacobi_stack(tensor.entries, vj[:, :, None] * vj[:, None, :])  # J(Jv_n)
    values = np.sum(vs * (mats @ vs[:, :, None])[:, :, 0], axis=1)
    return float(values[0]) if v.ndim == 1 else values


def merged_spectrum(
    op, tol: float = SPECTRUM_MERGE_TOL, scale: float | None = None
) -> tuple[tuple[float, int], ...]:
    """Eigenvalues of a symmetric operator, ascending, with multiplicities merged.

    Groups are formed greedily: a new eigenvalue starts a group when it sits
    more than ``tol * scale`` above the running group mean.  ``scale``
    defaults to max|M|, so the grouping does not depend on the size of M; a
    caller that knows the size of the tensor behind M passes that instead, so
    an operator that vanishes up to rounding reads as one zero group.  The
    work is done at scale 2^-e, for the least e with max|M| < 2^e: scaling by
    a power of two changes no digit, and an operator near the float range
    does not overflow.
    A non-finite entry, or an eigenvalue beyond the float range, raises
    ``NonFiniteEntryError``.
    """
    mat = np.asarray(op, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise NonFiniteEntryError("operator has a non-finite entry")
    largest, e = math.frexp(float(np.max(np.abs(mat))))
    scaled = np.ldexp(mat, -e)
    vals = np.linalg.eigvalsh(0.5 * (scaled + scaled.T))
    try:
        tol *= largest if scale is None else math.ldexp(scale, -e)  # in units of 2^e
    except OverflowError:  # scale > 2^1024 max|M|, so the whole spectrum is one group
        tol = math.inf
    groups: list[list[float]] = []
    for v in vals:
        if groups and abs(v - np.mean(groups[-1])) <= tol:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    try:
        return tuple((math.ldexp(float(np.mean(g)), e), len(g)) for g in groups)
    except OverflowError:
        raise NonFiniteEntryError("operator has an eigenvalue beyond the float range") from None
