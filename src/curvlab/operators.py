"""Operator- and scalar-valued contractions of a curvature tensor.

Jacobi and complex Jacobi operators, curvature operators on planes, the Ricci
and star-Ricci contractions, holomorphic sectional curvature, and spectrum
reporting with merged multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, LineStructureMismatchError, NonFiniteEntryError
from .spaces import ComplexLine, ComplexStructure, SpanningLines
from .tensors import AlgebraicCurvatureTensor

SPECTRUM_MERGE_TOL = 1e-8  # relative to the scale of merged_spectrum


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """m x m matrix of a curvature-derived operator, tagged by its kind.

    The line operators, given a sequence of L lines, hold the (L, m, m) stack.
    """

    matrix: np.ndarray
    kind: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def _as_vector(x, m: int) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (m,):
        raise DimensionMismatchError(f"vector of shape {v.shape} does not match dimension {m}")
    return v


def _check_structure(owner: ComplexStructure, structure: ComplexStructure) -> None:
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
    out = np.reshape(forms, (-1, m * m)) @ entries.reshape(*entries.shape[:-4], m, m * m, m)
    # (..., b, l, a) -> (..., l, a, b); np.moveaxis takes ten times as long, a
    # share of every per-line operator call
    return out.swapaxes(-3, -2).swapaxes(-2, -1)


def jacobi_matrix(tensor: AlgebraicCurvatureTensor, x) -> np.ndarray:
    """Raw matrix M[a, b] = A(e_b, x, x, e_a); symmetric and annihilates x."""
    v = _as_vector(x, tensor.dim)
    return _jacobi_stack(tensor.entries, np.outer(v, v))[0]


def jacobi(tensor: AlgebraicCurvatureTensor, x) -> OperatorMatrix:
    return OperatorMatrix(jacobi_matrix(tensor, x), "jacobi")


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
) -> OperatorMatrix:
    """J(pi) = J(x) + J(Jx) for a unit x of the line pi.

    Its matrix is M[a, b] = sum_ij A(e_b, e_i, e_j, e_a) P[i, j] with the line
    projector P = x x^T + Jx Jx^T, so it does not depend on the representative.
    For a sequence of L lines the matrix is the (L, m, m) stack, from one
    kernel call.
    """
    mats = _jacobi_stack(tensor.entries, _line_array(tensor, structure, line, "projector"))
    return OperatorMatrix(mats[0] if isinstance(line, ComplexLine) else mats, "complex_jacobi")


def curvature_operator_matrix(tensor: AlgebraicCurvatureTensor, x, y) -> np.ndarray:
    """Raw matrix M with <M z, w> = A(x, y, z, w); antisymmetric."""
    m = tensor.dim
    pair = np.outer(_as_vector(x, m), _as_vector(y, m)).ravel()
    return (pair @ tensor.entries.reshape(m * m, m * m)).reshape(m, m).T


def curvature_operator(tensor: AlgebraicCurvatureTensor, x, y) -> OperatorMatrix:
    return OperatorMatrix(curvature_operator_matrix(tensor, x, y), "curvature_op")


def complex_curvature_operator(
    tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, line
) -> OperatorMatrix:
    """R(pi) = R(x, Jx) for the line's representative x: <R(pi) z, w> = A(x, Jx, z, w).

    Its matrix is one product of the first slot pair of A with x (x) Jx, taken
    without assuming any symmetry of the tensor.  Rotating the representative
    inside the line leaves it unchanged because x' wedge Jx' = x wedge Jx.
    For a sequence of L lines the matrix is the (L, m, m) stack, from one
    product with the stacked x (x) Jx.
    """
    m = tensor.dim
    xs = _line_array(tensor, structure, line, "representative").reshape(-1, m)
    pairs = (xs[:, :, None] * (xs @ structure.matrix.T)[:, None, :]).reshape(-1, m * m)
    mats = np.swapaxes((pairs @ tensor.entries.reshape(m * m, m * m)).reshape(-1, m, m), 1, 2)
    return OperatorMatrix(mats[0] if isinstance(line, ComplexLine) else mats, "complex_curvature_op")


def ricci(tensor: AlgebraicCurvatureTensor) -> OperatorMatrix:
    """rho[a, b] = sum_i A(e_i, e_a, e_b, e_i); always symmetric."""
    return OperatorMatrix(np.einsum("iabi->ab", tensor.entries), "ricci")


def star_ricci(tensor: AlgebraicCurvatureTensor, structure: ComplexStructure) -> OperatorMatrix:
    """rho*[a, b] = sum_i A(e_a, J e_i, J e_b, e_i).

    Symmetry is measured, never enforced: it holds on compatible models but
    fails in general.
    """
    if tensor.dim != structure.dim:
        raise DimensionMismatchError(f"dimensions differ: {tensor.dim} vs {structure.dim}")
    j = structure.matrix
    mat = np.einsum("apqi,pi,qb->ab", tensor.entries, j, j, optimize=True)
    return OperatorMatrix(mat, "star_ricci")


def q_quartic(tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, v) -> float | np.ndarray:
    """Quartic form Q(v) = A(v, Jv, Jv, v) = v^T J(Jv) v at a not-necessarily-unit vector.

    For an (n, m) array of vectors, one per row, the n values come from one batch.
    """
    vs = np.asarray(v, dtype=float)
    if vs.ndim == 2:
        if vs.shape[1] != tensor.dim or structure.dim != tensor.dim:
            raise DimensionMismatchError(
                f"vectors of shape {vs.shape} and a {structure.dim}-dimensional structure "
                f"do not match dimension {tensor.dim}"
            )
        vj = vs @ structure.matrix.T
        mats = _jacobi_stack(tensor.entries, vj[:, :, None] * vj[:, None, :])  # J(Jv_n)
        return np.sum(vs * (mats @ vs[:, :, None])[:, :, 0], axis=1)
    x = _as_vector(v, tensor.dim)
    return float(x @ jacobi_matrix(tensor, structure.apply(x)) @ x)


def holomorphic_sectional_curvature(
    tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, line
) -> float | np.ndarray:
    """Q of the line, evaluated at its unit representative; for a sequence of
    lines, the array of their Q values, from one batch."""
    return q_quartic(tensor, structure, _line_array(tensor, structure, line, "representative"))


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
    mat = op.matrix if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=float)
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
