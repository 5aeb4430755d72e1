"""Brute-force oracles kept independent of the library's einsum code paths."""

import numpy as np


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
