"""Inner-product spaces carrying complex and quaternionic structure.

Everything lives in R^m with the standard dot product and the standard
orthonormal basis, so structures and isometries are plain dense matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CommutationError,
    DimensionMismatchError,
    DimensionNotMultipleOf4Error,
    InvalidVectorError,
    NonFiniteEntryError,
    NotAntiInvolutionError,
    NotOrthogonalError,
    NotSquareError,
    OddDimensionError,
)

DEFAULT_TOL = 1e-10
LINE_EQ_TOL = 1e-8


def _freeze(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """Orthogonal anti-involution: J @ J = -I and J.T @ J = I."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v


def _require_orthogonal(mat: np.ndarray, name: str, tol: float) -> None:
    """Raise ``NotOrthogonalError`` unless max |M.T@M - I| <= tol.

    An entry above sqrt(1 + tol) in magnitude alone breaks that bound, so it is
    rejected before M.T@M is formed, where a huge entry would overflow.
    """
    largest = float(np.max(np.abs(mat)))
    if largest > math.sqrt(1.0 + tol):
        raise NotOrthogonalError(
            f"{name} has an entry of magnitude {largest:.3e}; an orthogonal matrix has none above 1"
        )
    orth = float(np.max(np.abs(mat.T @ mat - np.eye(mat.shape[0]))))
    if orth > tol:
        raise NotOrthogonalError(f"max |{name}.T@{name} - I| = {orth:.3e} exceeds tol {tol:.1e}")


def validate_complex_structure(matrix, tol: float = DEFAULT_TOL) -> ComplexStructure:
    """Validate the anti-involution and orthogonality residuals of ``matrix``."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NonFiniteEntryError("a complex structure must be finite; found NaN or infinity")
    m = mat.shape[0]
    if m % 2:
        raise OddDimensionError(f"complex structures need even dimension, got m={m}")
    _require_orthogonal(mat, "J", tol)
    anti = float(np.max(np.abs(mat @ mat + np.eye(m))))
    if anti > tol:
        raise NotAntiInvolutionError(f"max |J@J + I| = {anti:.3e} exceeds tol {tol:.1e}")
    return ComplexStructure(_freeze(mat))


def standard_complex_structure(m: int) -> ComplexStructure:
    """Block-diagonal structure with 2x2 blocks [[0, -1], [1, 0]]."""
    if m < 2 or m % 2:
        raise OddDimensionError(f"need even m >= 2, got m={m}")
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    return ComplexStructure(_freeze(np.kron(np.eye(m // 2), block)))


# Left multiplication by i, j, k on R^4 identified with the quaternions.
_QUAT_I = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
_QUAT_J = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
_QUAT_K = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


@dataclass(frozen=True, eq=False)
class QuaternionTriple:
    """Anticommuting structures j1, j2 together with j3 = j1 @ j2."""

    j1: ComplexStructure
    j2: ComplexStructure
    j3: ComplexStructure

    @property
    def dim(self) -> int:
        return self.j1.dim


def build_quaternion_triple(m: int) -> QuaternionTriple:
    """Replicate the 4x4 quaternion blocks along the diagonal of an m x m space.

    The blocks are integer matrices, so the multiplication table and the
    anticommutation relations hold exactly.
    """
    if m <= 0 or m % 4:
        raise DimensionNotMultipleOf4Error(f"quaternionic structure needs m = 4n, got m={m}")
    reps = np.eye(m // 4, dtype=int)
    mats = [np.kron(reps, block) for block in (_QUAT_I, _QUAT_J, _QUAT_K)]
    assert (mats[0] @ mats[1] == mats[2]).all()
    for a in range(3):
        assert (mats[a] @ mats[a] == -np.eye(m, dtype=int)).all()
        for b in range(a + 1, 3):
            assert (mats[a] @ mats[b] + mats[b] @ mats[a] == 0).all()
    j1, j2, j3 = (ComplexStructure(_freeze(mat)) for mat in mats)
    return QuaternionTriple(j1, j2, j3)


@dataclass(frozen=True, eq=False)
class ComplexIsometry:
    """Orthogonal matrix commuting with an attached complex structure."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v


def validate_complex_isometry(
    matrix,
    j_domain: ComplexStructure,
    j_target: ComplexStructure | None = None,
    tol: float = DEFAULT_TOL,
) -> ComplexIsometry:
    """Check orthogonality and the intertwining relation theta @ J1 = J2 @ theta."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] != j_domain.dim:
        raise DimensionMismatchError(
            f"isometry is {mat.shape[0]}-dimensional, structure is {j_domain.dim}-dimensional"
        )
    if not np.all(np.isfinite(mat)):
        raise NonFiniteEntryError("an isometry must be finite; found NaN or infinity")
    _require_orthogonal(mat, "theta", tol)
    target = j_domain if j_target is None else j_target
    if target.dim != j_domain.dim:
        raise DimensionMismatchError(
            f"target structure is {target.dim}-dimensional, domain structure is {j_domain.dim}-dimensional"
        )
    comm = float(np.max(np.abs(mat @ j_domain.matrix - target.matrix @ mat)))
    if comm > tol:
        raise CommutationError(f"max |theta@J1 - J2@theta| = {comm:.3e} exceeds tol {tol:.1e}")
    return ComplexIsometry(_freeze(mat))


def theta_map(triple: QuaternionTriple) -> ComplexIsometry:
    """The isometry (I + j2)/sqrt(2).

    It commutes with j2, squares to j2, and swaps the roles of j1 and j3 up to
    sign: theta @ j1 = -j3 @ theta and theta @ j3 = j1 @ theta.
    """
    m = triple.dim
    return ComplexIsometry(_freeze((np.eye(m) + triple.j2.matrix) / np.sqrt(2.0)))


@dataclass(frozen=True, eq=False)
class ComplexLine:
    """J-invariant 2-plane Span{x, Jx}, stored with a canonical unit representative.

    Lines compare equal through their orthogonal projectors, never through the
    representative: any unit vector in the plane spans the same line.
    """

    representative: np.ndarray
    structure: ComplexStructure
    projector: np.ndarray

    @property
    def dim(self) -> int:
        return self.representative.shape[0]

    def same_line(self, other: "ComplexLine", tol: float = LINE_EQ_TOL) -> bool:
        if self.projector.shape != other.projector.shape:
            return False
        return float(np.max(np.abs(self.projector - other.projector))) <= tol


def complex_line(vector, structure: ComplexStructure, tol: float = DEFAULT_TOL) -> ComplexLine:
    """Build the line through ``vector``, normalizing and sign-canonicalizing it."""
    x = np.asarray(vector, dtype=float)
    if x.shape != (structure.dim,):
        raise DimensionMismatchError(
            f"vector of shape {x.shape} does not match dimension {structure.dim}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidVectorError(f"cannot span a complex line with the non-finite vector {x.tolist()}")
    nrm = float(np.linalg.norm(x))
    if nrm < 1e-12:
        raise InvalidVectorError("cannot span a complex line with a (near-)zero vector")
    x = x / nrm
    # Deterministic tie-break: first coordinate of visible size is made positive.
    lead = int(np.argmax(np.abs(x) > 1e-9))
    if x[lead] < 0:
        x = -x
    jx = structure.apply(x)
    projector = np.outer(x, x) + np.outer(jx, jx)
    return ComplexLine(_freeze(x), structure, _freeze(projector))


def cached_by_key(cache: dict, bound: int, key, build):
    """``build()``, cached in ``cache`` under ``key``.

    At most ``bound`` entries, the oldest evicted first; a ``build`` that
    raises stores nothing, so it runs again on the next call.
    """
    value = cache.get(key)
    if value is None:
        value = build()
        if len(cache) >= bound:
            del cache[next(iter(cache))]
        cache[key] = value
    return value


def cached_by_j(cache: dict, bound: int, structure: ComplexStructure, build, *extra):
    """``cached_by_key`` under the key (m, J bytes, *extra).

    Keyed by the value of J, so structures validated separately from equal
    matrices share an entry.
    """
    return cached_by_key(cache, bound, (structure.dim, structure.matrix.tobytes(), *extra), build)


_lines_cache: dict = {}  # (m, J bytes) -> lines


def _line_candidates(jmat: np.ndarray) -> np.ndarray:
    """Rows e_i, then e_i + e_j and e_i + J e_j for each pair i < j, degenerate ones dropped."""
    m = jmat.shape[0]
    eye = np.eye(m)
    first, second = np.triu_indices(m, 1)
    pairs = np.stack([eye[first] + eye[second], eye[first] + jmat[:, second].T], axis=1).reshape(-1, m)
    nondegenerate = np.ones(len(pairs), dtype=bool)
    nondegenerate[1::2] = np.linalg.norm(pairs[1::2], axis=1) > 1e-8
    return np.vstack([eye, pairs[nondegenerate]])


class SpanningLines(tuple):
    """The spanning lines of one structure: a tuple of ``ComplexLine``, which
    also holds their representatives and projectors as read-only (L, m) and
    (L, m, m) stacks, so the line operators take them without restacking.

    ``probed`` holds the ascending indices of the lines through the
    polarization probes e_i + e_j (e_i on the diagonal), and the (m, m)
    ``probe_index[i, j]`` the position in ``probed`` of the line through
    e_i + e_j.  A slice is a plain tuple of lines.
    """

    def __new__(cls, structure: ComplexStructure, representatives: np.ndarray, projectors: np.ndarray):
        lines = super().__new__(
            cls, (ComplexLine(rep, structure, proj) for rep, proj in zip(representatives, projectors))
        )
        lines.structure = structure
        lines.representatives = representatives
        lines.projectors = projectors
        # u^T P u = P_ii + P_jj + 2 P_ij at u = e_i + e_j is at most |u|^2, with
        # equality on the one line through u
        diag = np.diagonal(projectors, axis1=1, axis2=2)
        nearest = np.argmax(diag[:, :, None] + diag[:, None, :] + 2.0 * projectors, axis=0)
        used = np.zeros(len(projectors), dtype=bool)
        used[nearest] = True
        lines.probed, lines.probe_index = np.flatnonzero(used), (np.cumsum(used) - 1)[nearest]
        lines.probed.setflags(write=False)
        lines.probe_index.setflags(write=False)
        return lines

    def __getnewargs__(self):  # copy and pickle rebuild the lines from these
        return self.structure, self.representatives, self.projectors


def _sweep(structure: ComplexStructure) -> SpanningLines:
    """The lines of all candidates at once, normalized and signed as complex_line does."""
    xs = _line_candidates(structure.matrix)
    xs = xs / np.linalg.norm(xs, axis=1)[:, None]
    leads = xs[np.arange(len(xs)), np.argmax(np.abs(xs) > 1e-9, axis=1)]
    xs[leads < 0] *= -1.0
    jxs = xs @ structure.matrix.T
    projectors = xs[:, :, None] * xs[:, None, :] + jxs[:, :, None] * jxs[:, None, :]
    flat = projectors.reshape(len(xs), -1)
    # |P - Q|_F^2 = 4 - 2 <P, Q> for rank-2 projectors, so lines within
    # LINE_EQ_TOL entrywise have <P, Q> near 2: only pairs above 1.5 need the
    # entrywise comparison
    later, earlier = np.nonzero(np.tril(flat @ flat.T > 1.5, -1))
    same = np.max(np.abs(flat[later] - flat[earlier]), axis=1) <= LINE_EQ_TOL
    # a candidate is dropped when it equals a line kept before it; pairs come
    # ordered by the later candidate, so every earlier verdict is final
    dropped = np.zeros(len(xs), dtype=bool)
    for index, before in zip(later[same].tolist(), earlier[same].tolist()):
        if not dropped[before]:
            dropped[index] = True
    return SpanningLines(structure, _freeze(xs[~dropped]), _freeze(projectors[~dropped]))


def spanning_lines(structure: ComplexStructure) -> SpanningLines:
    """Complex lines through e_i, (e_i + e_j)/sqrt2 and (e_i + J e_j)/sqrt2, deduplicated.

    Any operator- or scalar-valued map that is quadratic in the line
    representative and vanishes on this set vanishes on every complex line:
    the e_i values pin the diagonal coefficients and the e_i + e_j values
    polarize the mixed ones.  Candidates that degenerate to the zero vector
    (possible when J e_j = -e_i) are skipped.  The lines come in candidate
    order, each with the representative ``complex_line`` would give it, and a
    candidate is dropped when its projector is within ``LINE_EQ_TOL`` of a
    line kept before it.

    Cached per value of J, (m, J bytes), so models loaded separately with the
    same J share one sweep; the cache is small so that a long run over many
    structures does not keep every structure's lines alive.
    """
    return cached_by_j(_lines_cache, 8, structure, lambda: _sweep(structure))


def random_unit_vector(m: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized standard normal sample; rejection-free."""
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


def random_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix from a QR factorization with fixed sign convention."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))
