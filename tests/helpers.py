"""Brute-force oracles kept independent of the library's code paths, and seeded random fixtures."""

import functools
import importlib.util
from pathlib import Path

import numpy as np

RANK_TOL = 1e-8


def load_repo_module(relative_path):
    """The Python file at ``relative_path`` from the repository root, imported
    by path: ``scripts/`` and ``curvbench/`` are not packages."""
    path = Path(__file__).resolve().parents[1] / relative_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_unit_vector(m, rng):
    """A normalized standard normal sample."""
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


def random_orthogonal(m, rng):
    """A Haar-distributed orthogonal matrix: the Q of a QR factorization, its signs fixed by R."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def contract(entries, x, y, z, w):
    """Plain-loop evaluation of A(x, y, z, w)."""
    m = entries.shape[0]
    total = 0.0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    total += entries[i, j, k, l] * x[i] * y[j] * z[k] * w[l]
    return total


def jacobi_loop(entries, x):
    """Plain-loop Jacobi matrix M[a, b] = A(e_b, x, x, e_a)."""
    m = entries.shape[0]
    eye = np.eye(m)
    out = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            out[a, b] = contract(entries, eye[b], x, x, eye[a])
    return out


def a_phi_loop(p):
    """Plain-loop evaluation of the structure-built tensor."""
    m = p.shape[0]
    out = np.zeros((m,) * 4)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    out[i, j, k, l] = p[i, l] * p[j, k] - p[i, k] * p[j, l] - 2.0 * p[i, j] * p[k, l]
    return out


def spans_equal(rows_a, rows_b, tol=1e-8):
    """Two sets of row vectors span the same subspace: equal dims plus mutual containment."""
    rows_a = np.atleast_2d(rows_a)
    rows_b = np.atleast_2d(rows_b)
    if np.linalg.matrix_rank(rows_a, tol=tol) != np.linalg.matrix_rank(rows_b, tol=tol):
        return False

    def contained(rows, others):
        q, _ = np.linalg.qr(others.T)
        for row in rows:
            resid = row - q @ (q.T @ row)
            if np.linalg.norm(resid) > tol * (1.0 + np.linalg.norm(row)):
                return False
        return True

    return contained(rows_a, rows_b) and contained(rows_b, rows_a)


def constraint_nullspace_basis(m, rank_tol=1e-8):
    """Orthonormal rows spanning the nullspace of the stacked symmetry constraints.

    The three families (first-pair antisymmetry, pair swap, first Bianchi) are
    written as one dense 3 m^4 x m^4 system and solved by SVD: a slow but
    construction-free reference for the closed-form curvature basis.
    """
    m4 = m**4
    idx = np.arange(m4).reshape(m, m, m, m)
    rows = np.arange(m4)
    constraints = np.zeros((3 * m4, m4))
    constraints[rows, rows] += 1.0
    constraints[rows, idx.transpose(1, 0, 2, 3).ravel()] += 1.0
    constraints[m4 + rows, rows] += 1.0
    constraints[m4 + rows, idx.transpose(2, 3, 0, 1).ravel()] -= 1.0
    constraints[2 * m4 + rows, rows] += 1.0
    constraints[2 * m4 + rows, idx.transpose(1, 2, 0, 3).ravel()] += 1.0
    constraints[2 * m4 + rows, idx.transpose(2, 0, 1, 3).ravel()] += 1.0
    _, svals, vh = np.linalg.svd(constraints, full_matrices=False)
    rank = int(np.sum(svals > rank_tol * svals[0]))
    return vh[rank:]


def numerical_rank(svals):
    """Number of singular values (descending) above RANK_TOL times the largest; 0 for none."""
    return int(np.sum(svals > RANK_TOL * svals[0])) if svals.size and svals[0] > 0 else 0


@functools.lru_cache(maxsize=None)
def dense_basis(m):
    """The closed-form curvature basis as a read-only dense (count, m^4)
    matrix of flattened orthonormal rows, scattered from its nonzeros."""
    from curvlab.tensors import curvature_space_basis

    basis = curvature_space_basis(m)
    dense = np.zeros((basis.count, m**4))
    dense[basis.rows, basis.cols] = basis.weights
    dense.setflags(write=False)
    return dense


def basis_tensors(m):
    """The rows of ``dense_basis(m)`` as a (count, m, m, m, m) stack of tensors."""
    return dense_basis(m).reshape(-1, m, m, m, m)


# constraint tag -> the row of ``identities._ROWS`` whose sum cuts out its subspace
CONSTRAINT_ROWS = {tag: tag for tag in ("a1", "a2", "a3", "a2perp", "gray-yano")} | {"compatibility": "a3"}


@functools.lru_cache(maxsize=32)
def _constraint_block(row, m, jbytes):
    """The defects of row ``row`` on each basis tensor, as the (m^4, count)
    design column by column, compressed to S V^T of its SVD.  The block has
    the design's Gram matrix, so a stack of blocks has the singular values and
    right singular vectors of the stack of their designs."""
    from curvlab.identities import _defect

    jmat = np.frombuffer(jbytes).reshape(m, m).copy()
    design = np.array([_defect(row, tensor, jmat).ravel() for tensor in basis_tensors(m)]).T
    _, svals, vh = np.linalg.svd(design, full_matrices=False)
    return svals[:, None] * vh


def constraint_subspace_basis(constraints, m, structure):
    """Orthonormal rows spanning, in curvature-basis coordinates, the subspace
    cut out by the listed constraint tags: the nullspace of the design holding
    each tag's row defects on every basis tensor, by SVD.  A reference for the
    library's eigendecomposition of K'.

    Unit basis tensors, an orthogonal J and unit coefficients make every
    nonzero singular value of order 1, so the rank counts those above
    RANK_TOL itself; relative to the largest, rounding noise in a design that
    vanishes (m = 2, J rotated up to rounding) would count as rank.
    """
    rows = sorted({CONSTRAINT_ROWS[tag] for tag in constraints})
    count = dense_basis(m).shape[0]
    if not rows:
        return np.eye(count)
    jbytes = structure.matrix.tobytes()
    design = np.vstack([_constraint_block(row, m, jbytes) for row in rows])
    _, svals, vh = np.linalg.svd(design, full_matrices=False)
    return vh[int(np.sum(svals > RANK_TOL)) :]


def jacobi_lstsq_solve(oracle):
    """Reconstruct from a Jacobi-operator oracle by least squares over the curvature basis.

    The design holds the Jacobi matrices of every basis tensor at the
    polarization probes e_i and e_i + e_j; the fit is the tensor whose
    coordinates solve it in the least-squares sense.  A reference for the
    library's closed-form polarization, which must land on the same tensor.
    """
    from curvlab.operators import _jacobi_stack
    from curvlab.spaces import probe_vectors
    from curvlab.tensors import curvature_space_basis

    m = oracle.dim
    basis = curvature_space_basis(m)
    probes = probe_vectors(m)
    design = _jacobi_stack(basis_tensors(m), probes[:, :, None] * probes[:, None, :]).reshape(basis.count, -1).T
    rhs = np.concatenate([np.asarray(oracle.evaluate(x), dtype=float).ravel() for x in probes])
    coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return basis.from_coordinates(coeffs)


def subspace_tensor_basis(constraints, m, structure):
    """Flattened orthonormal tensors (rows) spanning the constrained subspace."""
    return constraint_subspace_basis(constraints, m, structure) @ dense_basis(m)


def project_to_constraints(tensor, structure, constraints):
    """Orthogonal projection of a curvature tensor onto a constrained subspace."""
    from curvlab.tensors import curvature_space_basis

    m = tensor.dim
    sub = constraint_subspace_basis(constraints, m, structure)
    return curvature_space_basis(m).from_coordinates(sub.T @ (sub @ (dense_basis(m) @ tensor.entries.ravel())))


def complex_jacobi_subspace_solve(oracle):
    """Reconstruct from complex Jacobi data inside the eight-term identity subspace.

    The unknowns are the coordinates of the dense ``gray-yano`` subspace, on
    which the complex Jacobi data are injective, so the fit is unique.  A
    reference for the library's minimum-norm fit over the whole curvature
    space, which must land on the same tensor.
    """
    from curvlab.operators import _jacobi_stack
    from curvlab.spaces import spanning_lines
    from curvlab.tensors import curvature_space_basis

    structure = oracle.structure
    m = structure.dim
    sub = constraint_subspace_basis(("gray-yano",), m, structure)
    free = sub.shape[0]
    lines = spanning_lines(structure)
    sub_tensors = (sub @ dense_basis(m)).reshape(free, m, m, m, m)
    design = _jacobi_stack(sub_tensors, np.array([line.projector for line in lines])).reshape(free, -1).T
    rhs = np.concatenate([np.asarray(oracle.evaluate(line), dtype=float).ravel() for line in lines])
    u, svals, vh = np.linalg.svd(design, full_matrices=False)
    assert numerical_rank(svals) == free, "complex Jacobi data do not pin down the subspace tensor"
    coeffs = vh.T @ ((u.T @ rhs) / svals)
    return curvature_space_basis(m).from_coordinates(sub.T @ coeffs)


def complex_jacobi_min_norm_solve(oracle):
    """Reconstruct from complex Jacobi data by the minimum-norm least-squares
    fit over the whole curvature basis.

    The design holds the complex Jacobi operators of every basis tensor on
    every spanning line.  Its rank is asserted to be N - n^2 (n^2 - 1) / 6,
    n = m / 2: by Lemma 2.3 its kernel is the flip subspace a2perp.  A
    reference for the library's closed form, which must land on the same
    tensor.
    """
    from curvlab.operators import _jacobi_stack
    from curvlab.spaces import spanning_lines
    from curvlab.tensors import curvature_space_basis

    structure = oracle.structure
    m, n = structure.dim, structure.dim // 2
    basis = curvature_space_basis(m)
    lines = spanning_lines(structure)
    design = _jacobi_stack(basis_tensors(m), lines.projectors).reshape(basis.count, -1).T
    rhs = np.concatenate([np.asarray(oracle.evaluate(line), dtype=float).ravel() for line in lines])
    u, svals, vh = np.linalg.svd(design, full_matrices=False)
    rank = numerical_rank(svals)
    assert rank == basis.count - n * n * (n * n - 1) // 6, "complex Jacobi design kernel is not a2perp"
    coeffs = vh[:rank].T @ ((u[:, :rank].T @ rhs) / svals[:rank])
    return basis.from_coordinates(coeffs)


def spanning_lines_loop(structure, with_mixed=False):
    """Candidate-by-candidate spanning-line sweep with pairwise deduplication.

    A reference for the library's array sweep: one ``complex_line`` per
    probe e_i, then e_i + e_j, kept unless its projector is within
    ``LINE_EQ_TOL`` of the projector of a line kept before it.
    With ``with_mixed`` each pair i < j also offers e_i + J e_j after
    e_i + e_j (degenerate ones skipped): the larger candidate set of earlier
    versions, kept as an oracle for the verdicts of the line conditions.
    """
    from curvlab.spaces import LINE_EQ_TOL, complex_line

    m = structure.dim
    eye = np.eye(m)
    candidates = [eye[i] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            candidates.append(eye[i] + eye[j])
            mixed = eye[i] + structure.matrix[:, j]
            if with_mixed and np.linalg.norm(mixed) > 1e-8:
                candidates.append(mixed)
    lines = []
    for vec in candidates:
        line = complex_line(vec, structure)
        if not any(np.max(np.abs(line.projector - kept.projector)) <= LINE_EQ_TOL for kept in lines):
            lines.append(line)
    return tuple(lines)


def vanhecke_polarization(A, J, x, y):
    """Vanhecke's defect 32 A(x,y,y,x) minus its polarization through Q and lambda.

    Q(v) = A(v, Jv, Jv, v) is taken at the non-unit arguments x + Jy, x - Jy,
    x + y and x - y, and lambda(u, v) = A(u, v, v, u) - A(u, v, Jv, Ju).  Zero
    for every pair exactly when a curvature tensor satisfies the identity.
    """

    def q(v):
        jv = J(v)
        return A(v, jv, jv, v)

    def lam(u, v):
        return A(u, v, v, u) - A(u, v, J(v), J(u))

    jy = J(y)
    polarized = (
        3.0 * q(x + jy)
        + 3.0 * q(x - jy)
        - q(x + y)
        - q(x - y)
        - 4.0 * q(x)
        - 4.0 * q(y)
        + 4.0 * (5.0 * lam(x, y) + lam(x, jy))
    )
    return 32.0 * A(x, y, y, x) - polarized


# The identities written out one formula each, for A(x, y, z, w) given as a
# callable and J as a map on vectors; each formula is zero exactly where its
# identity holds.  All but vanhecke take a quadruple (x, y, z, w); vanhecke is
# the pair identity D(x, y), whose row T gives it as 4T(x, y, x, y).
IDENTITY_FORMULAS = {
    "a1": lambda A, J, x, y, z, w: A(x, y, z, w) - A(J(x), J(y), z, w),
    "a2": lambda A, J, x, y, z, w: (
        A(x, y, z, w) - A(J(x), J(y), z, w) - A(J(x), y, J(z), w) - A(J(x), y, z, J(w))
    ),
    "a3": lambda A, J, x, y, z, w: A(x, y, z, w) - A(J(x), J(y), J(z), J(w)),
    "a2perp": lambda A, J, x, y, z, w: A(x, y, z, w) + A(J(x), J(y), z, w),
    "gray-yano": lambda A, J, x, y, z, w: (
        A(x, y, z, w)
        + A(J(x), J(y), J(z), J(w))
        - A(J(x), J(y), z, w)
        - A(x, y, J(z), J(w))
        - A(J(x), y, J(z), w)
        - A(x, J(y), z, J(w))
        - A(J(x), y, z, J(w))
        - A(x, J(y), J(z), w)
    ),
    "hop-xy": lambda A, J, x, y, z, w: A(J(x), y, z, w) - A(x, J(y), z, w),
    "hop-yz": lambda A, J, x, y, z, w: A(x, J(y), z, w) - A(x, y, J(z), w),
    "sato2": lambda A, J, x, y, z, w: (
        3.0 * A(x, y, z, w)
        + 3.0 * A(x, y, J(z), J(w))
        - A(x, z, J(w), J(y))
        + A(x, w, J(z), J(y))
        + A(x, J(z), w, J(y))
        - A(x, J(w), z, J(y))
    ),
    "vanhecke": vanhecke_polarization,
}


def identity_defect_loop(name, entries, jmat):
    """Plain-loop value of quadruple identity ``name`` at every basis quadruple (e_i, e_j, e_k, e_l)."""
    m = entries.shape[0]
    eye = np.eye(m)
    formula = IDENTITY_FORMULAS[name]
    out = np.zeros((m,) * 4)
    for index in np.ndindex(out.shape):
        vectors = (eye[i] for i in index)
        out[index] = formula(lambda *v: contract(entries, *v), lambda v: jmat @ v, *vectors)
    return out
