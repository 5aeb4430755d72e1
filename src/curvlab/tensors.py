"""Dense rank-4 curvature tensors.

Storage, symmetry validation/projection, the canonical constant-curvature
builders, orthogonal pullbacks, and an orthonormal basis of the full solution
space of the curvature symmetries, held as its nonzeros (about one entry in
1,400 at m = 12) rather than as a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
import numpy as np

from .errors import DimensionMismatchError, NonFiniteEntryError, SymmetryViolationError
from .spaces import (
    DEFAULT_TOL,
    ComplexIsometry,
    ComplexStructure,
    _freeze,
    _require_orthogonal,
    cached_by_key,
    validate_complex_structure,
)

@dataclass(frozen=True, eq=False)
class AlgebraicCurvatureTensor:
    """Rank-4 array with the antisymmetry, pair-swap and first-Bianchi symmetries."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __add__(self, other: "AlgebraicCurvatureTensor") -> "AlgebraicCurvatureTensor":
        return AlgebraicCurvatureTensor(_freeze(self.entries + other.entries))

    def __sub__(self, other: "AlgebraicCurvatureTensor") -> "AlgebraicCurvatureTensor":
        return AlgebraicCurvatureTensor(_freeze(self.entries - other.entries))

    def __neg__(self) -> "AlgebraicCurvatureTensor":
        return AlgebraicCurvatureTensor(_freeze(-self.entries))

    def __mul__(self, scalar: float) -> "AlgebraicCurvatureTensor":
        return AlgebraicCurvatureTensor(_freeze(self.entries * float(scalar)))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class ComplexModel:
    """Bundle of a complex structure and a curvature tensor on the same space."""

    structure: ComplexStructure
    tensor: AlgebraicCurvatureTensor

    def __post_init__(self):
        if self.structure.dim != self.tensor.dim:
            raise DimensionMismatchError(
                f"structure is {self.structure.dim}-dimensional, "
                f"tensor is {self.tensor.dim}-dimensional"
            )

    @property
    def dim(self) -> int:
        return self.structure.dim


def _with_j_on(image: np.ndarray, jmat: np.ndarray, slot: int) -> np.ndarray:
    """``image`` with the m x m matrix J applied on one more slot, its axes
    still in slot order.

    A(.., J v, ..) = sum_p A(.., e_p, ..) J[p, i] v_i, so J acts from the right
    on the last slot and as J^T from the left on any other, with the later
    slots flattened into one axis.  The library applies a matrix to a tensor
    slot nowhere else.
    """
    if slot == 3:
        return image @ jmat
    m = jmat.shape[0]
    return (jmat.T @ image.reshape(*image.shape[:slot], m, m ** (3 - slot))).reshape(image.shape)


def _slot_image(entries: np.ndarray, jmat: np.ndarray, with_j: tuple[int, ...], memo: dict | None) -> np.ndarray:
    """A with J applied on each slot of ``with_j`` (ascending), axes in slot order.

    Starts from the image on the longest prefix of ``with_j`` found in
    ``memo`` and applies J on the remaining slots one at a time, keeping each
    new image in ``memo``; without a memo only two images are alive at once.
    """
    cached = memo or {}
    done = len(with_j)
    while done and with_j[:done] not in cached:
        done -= 1
    image = cached[with_j[:done]] if done else entries
    for n in range(done, len(with_j)):
        image = _with_j_on(image, jmat, with_j[n])
        if memo is not None:
            image.setflags(write=False)  # callers get views of it
            memo[with_j[: n + 1]] = image
    return image


def symmetry_residuals(entries: np.ndarray) -> dict[str, tuple[float, tuple[int, int, int, int]]]:
    """Max violation and worst quadruple for each of the three symmetry families."""
    a = entries
    defects = {
        "antisymmetry": a + a.transpose(1, 0, 2, 3),
        "pair_swap": a - a.transpose(2, 3, 0, 1),
        "bianchi": a + a.transpose(1, 2, 0, 3) + a.transpose(2, 0, 1, 3),
    }
    out = {}
    for name, d in defects.items():
        magnitudes = np.abs(d)
        flat = int(np.argmax(magnitudes))
        idx = np.unravel_index(flat, d.shape)
        out[name] = (float(magnitudes.flat[flat]), tuple(int(v) for v in idx))
    return out


# tensor -> its symmetry residuals, for the last 8 tensors that strict
# validation returned (held as keys, so no other tensor is taken for one)
_validated: dict = {}


def _symmetry_residuals_of(tensor: AlgebraicCurvatureTensor) -> dict:
    """``symmetry_residuals`` of the tensor's entries, read from strict
    validation when it returned this tensor."""
    kept = _validated.get(tensor)
    return symmetry_residuals(tensor.entries) if kept is None else kept


def validate_or_project(raw, mode: str = "strict", tol: float = DEFAULT_TOL) -> AlgebraicCurvatureTensor:
    """Accept a rank-4 array as a curvature tensor, or project it onto the space of them.

    In strict mode the three symmetry families must hold within ``tol``
    (relative to 1 + the largest entry); their residuals, taken on the
    read-only entries the tensor gets, are kept with it for the symmetry
    check.  Otherwise the orthogonal projection onto the solution space of
    the symmetries is returned, which is idempotent and the identity on
    already-valid input.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 4 or len(set(arr.shape)) != 1:
        raise DimensionMismatchError(f"expected an m^4 array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntryError("curvature entries must be finite; found NaN or infinity")
    if mode == "strict":
        entries = _freeze(arr)
        scale = 1.0 + float(np.max(np.abs(entries))) if entries.size else 1.0
        residuals = symmetry_residuals(entries)
        name = max(residuals, key=lambda k: residuals[k][0])
        worst, quadruple = residuals[name]
        if worst > tol * scale:
            raise SymmetryViolationError(
                f"{name} violated at quadruple {quadruple}: residual {worst:.3e}",
                quadruple=quadruple,
                residual=worst,
            )
        tensor = AlgebraicCurvatureTensor(entries)
        cached_by_key(_validated, 8, tensor, lambda: residuals)
        return tensor
    if mode == "project":
        return curvature_space_basis(arr.shape[0]).project(arr)
    raise ValueError(f"unknown mode {mode!r}, expected 'strict' or 'project'")


def build_A0(m: int) -> AlgebraicCurvatureTensor:
    """Constant sectional curvature +1 tensor: <x,w><y,z> - <x,z><y,w>."""
    if m < 2:
        raise DimensionMismatchError(f"need m >= 2, got m={m}")
    eye = np.eye(m)
    entries = np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    return AlgebraicCurvatureTensor(_freeze(entries))


def build_APhi(phi) -> AlgebraicCurvatureTensor:
    """Curvature tensor <x,Pw><y,Pz> - <x,Pz><y,Pw> - 2<x,Py><z,Pw> of a structure P.

    Quadratic in P, so P and -P give the same tensor.
    """
    if isinstance(phi, ComplexStructure):
        p = phi.matrix
    else:
        p = validate_complex_structure(phi).matrix
    entries = (
        np.einsum("il,jk->ijkl", p, p)
        - np.einsum("ik,jl->ijkl", p, p)
        - 2.0 * np.einsum("ij,kl->ijkl", p, p)
    )
    return AlgebraicCurvatureTensor(_freeze(entries))


def pullback(theta, tensor: AlgebraicCurvatureTensor, tol: float = DEFAULT_TOL) -> AlgebraicCurvatureTensor:
    """(theta*A)(x,y,z,w) = A(theta x, theta y, theta z, theta w) for orthogonal theta."""
    mat = theta.matrix if isinstance(theta, ComplexIsometry) else np.asarray(theta, dtype=float)
    if mat.shape != (tensor.dim, tensor.dim):
        raise DimensionMismatchError(
            f"map of shape {mat.shape} cannot pull back a {tensor.dim}-dimensional tensor"
        )
    _require_orthogonal(mat, "theta", tol)
    return AlgebraicCurvatureTensor(_freeze(_slot_image(tensor.entries, mat, (0, 1, 2, 3), None)))


def curvature_space_dim(m: int) -> int:
    """Dimension m^2 (m^2 - 1) / 12 of the space of curvature tensors."""
    return m * m * (m * m - 1) // 12


@dataclass(frozen=True, eq=False)
class CurvatureBasis:
    """Orthonormal basis of the space of curvature tensors, as the nonzeros of
    its (count, m**4) matrix M of flattened rows: ``M[rows, cols] = weights``,
    each (row, col) pair once."""

    dim: int
    count: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def from_coordinates(self, coords) -> AlgebraicCurvatureTensor:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.count,):
            raise DimensionMismatchError(f"expected {self.count} coordinates, got {coords.shape}")
        m = self.dim
        entries = np.bincount(self.cols, self.weights * coords[self.rows], m**4)
        return AlgebraicCurvatureTensor(_freeze(entries.reshape(m, m, m, m)))

    def coordinates(self, raw) -> np.ndarray:
        """Coordinates of the orthogonal projection of an m^4 array onto the space."""
        arr = np.asarray(raw, dtype=float)
        return np.bincount(self.rows, self.weights * arr.ravel()[self.cols], self.count)

    def project(self, raw) -> AlgebraicCurvatureTensor:
        return self.from_coordinates(self.coordinates(raw))


# The eight index images of a pair entry (ij, kl) and their signs under
# first-pair antisymmetry, second-pair antisymmetry and pair swap; the sparse
# model files of modelio store one entry per such orbit.
_PAIR_ENTRY_IMAGES = (
    ((0, 1, 2, 3), 1.0),
    ((1, 0, 2, 3), -1.0),
    ((0, 1, 3, 2), -1.0),
    ((1, 0, 3, 2), 1.0),
    ((2, 3, 0, 1), 1.0),
    ((3, 2, 0, 1), -1.0),
    ((2, 3, 1, 0), -1.0),
    ((3, 2, 1, 0), 1.0),
)


@lru_cache(maxsize=None)
def curvature_space_basis(m: int) -> CurvatureBasis:
    """Closed-form orthonormal basis of the space of curvature tensors.

    In pair coordinates R_{ij,kl} (i < j, k < l) the symmetries leave a
    symmetric matrix over pairs on which the first Bianchi identity is one
    relation R_{ij,kl} - R_{ik,jl} + R_{il,jk} = 0 per 4-subset i<j<k<l.  The
    rows are: one per diagonal pair entry (4 tensor entries of weight 1/2);
    one per off-diagonal pair entry whose pairs share an index (8 entries of
    weight 1/sqrt 8); and, per 4-subset, two orthonormal vectors of the
    Bianchi plane over its three pair entries.  Distinct pair entries touch
    disjoint tensor entries, so the rows are orthonormal in the m^4 inner
    product; the count is checked against m^2 (m^2 - 1) / 12.  The basis is
    returned as the nonzeros of those rows, 1,140 at m = 6 and 25,344 at
    m = 12; no dense matrix is written.
    """
    first, second = np.triu_indices(m, 1)
    npairs = first.size
    pairs = np.stack([first, second], axis=1)
    p, q = np.triu_indices(npairs, 1)
    # off-diagonal entries over 4 distinct indices belong to the Bianchi rows below
    shares_index = (pairs[p, :, None] == pairs[q, None, :]).any(axis=(1, 2))
    p, q = p[shares_index], q[shares_index]
    quad = np.array(list(combinations(range(m), 4)), dtype=np.intp).reshape(-1, 4)
    a, b, c, d = quad.T
    nquad = quad.shape[0]
    # Bianchi plane of (x, y, z) = (R_{ab,cd}, R_{ac,bd}, R_{ad,bc}), normal (1, -1, 1)
    plane_u = 1.0 / np.sqrt(2.0)
    plane_v = 1.0 / np.sqrt(6.0)
    off = 1.0 / np.sqrt(8.0)

    diag_rows = np.arange(npairs)
    shared_rows = npairs + np.arange(p.size)
    u_rows = npairs + p.size + 2 * np.arange(nquad)
    v_rows = u_rows + 1
    # one term per (row, pair entry): the row's coefficient on that entry's
    # unit vector, spread over the entry's index images; a diagonal entry
    # (ij, ij) is its own pair swap, so its last four images repeat the first
    # four and are left out
    terms = [
        (diag_rows, np.stack([first, second, first, second]), 0.5, _PAIR_ENTRY_IMAGES[:4]),
        (shared_rows, np.stack([first[p], second[p], first[q], second[q]]), off, _PAIR_ENTRY_IMAGES),
        (u_rows, np.stack([a, b, c, d]), off * plane_u, _PAIR_ENTRY_IMAGES),
        (u_rows, np.stack([a, c, b, d]), off * plane_u, _PAIR_ENTRY_IMAGES),
        (v_rows, np.stack([a, b, c, d]), off * plane_v, _PAIR_ENTRY_IMAGES),
        (v_rows, np.stack([a, c, b, d]), -off * plane_v, _PAIR_ENTRY_IMAGES),
        (v_rows, np.stack([a, d, b, c]), -2.0 * off * plane_v, _PAIR_ENTRY_IMAGES),
    ]
    rows, cols, weights = [], [], []
    for row, index, weight, images in terms:
        for perm, sign in images:
            rows.append(row)
            cols.append(np.ravel_multi_index(index[list(perm)], (m,) * 4))
            weights.append(np.full(row.size, sign * weight))
    count = npairs + p.size + 2 * nquad
    if count != curvature_space_dim(m):
        raise RuntimeError(
            f"closed-form basis has {count} rows, not the expected "
            f"dimension {curvature_space_dim(m)} at m={m}"
        )
    triples = [np.concatenate(t) for t in (rows, cols, weights)]
    for arr in triples:
        arr.setflags(write=False)
    return CurvatureBasis(m, count, *triples)


def random_curvature_tensor(m: int, seed: int) -> AlgebraicCurvatureTensor:
    """Reproducible random curvature tensor.

    The coordinates in the closed-form orthonormal basis of
    ``curvature_space_basis`` are drawn from a seeded standard normal, an
    isotropic Gaussian on the space of curvature tensors.
    """
    basis = curvature_space_basis(m)
    return basis.from_coordinates(np.random.default_rng(seed).standard_normal(basis.count))
