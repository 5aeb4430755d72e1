import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import (
    DimensionMismatchError,
    SymmetryViolationError,
    build_A0,
    build_APhi,
    build_quaternion_triple,
    curvature_space_basis,
    curvature_space_dim,
    pullback,
    random_curvature_tensor,
    random_orthogonal,
    standard_complex_structure,
    tensor_inner_product,
    theta_map,
    validate_or_project,
)
from curvlab.tensors import symmetry_residuals
from helpers import a_phi_loop, basis_tensors, constraint_nullspace_basis, contract, dense_basis


def test_a0_canonical_values():
    a0 = build_A0(4)
    eye = np.eye(4)
    assert a0.evaluate(eye[0], eye[1], eye[1], eye[0]) == 1.0
    assert a0.evaluate(eye[0], eye[1], eye[2], eye[3]) == 0.0


def test_evaluate_matches_loop_oracle_and_rejects_other_dimensions():
    a = random_curvature_tensor(4, seed=8)
    x, y, z, w = np.random.default_rng(8).standard_normal((4, 4))
    assert a.evaluate(x, y, z, w) == pytest.approx(contract(a.entries, x, y, z, w), rel=1e-12, abs=1e-12)
    for args in ((x, y, z, np.ones(5)), (np.ones(3), y, z, w), (x, y, np.ones((4, 1)), w)):
        with pytest.raises(DimensionMismatchError):
            a.evaluate(*args)


def test_a0_strict_validates():
    a0 = build_A0(4)
    validate_or_project(a0.entries, "strict")


def test_all_ones_fails_strict():
    with pytest.raises(SymmetryViolationError):
        validate_or_project(np.ones((4, 4, 4, 4)), "strict")


def test_a_phi_matches_loop_oracle():
    j = standard_complex_structure(4)
    np.testing.assert_allclose(build_APhi(j).entries, a_phi_loop(j.matrix), atol=1e-14)


def test_a_phi_frozen_entry():
    # A_J(e1, e2, e3, e4) = -2 for the standard structure at m=4
    j = standard_complex_structure(4)
    assert build_APhi(j).entries[0, 1, 2, 3] == -2.0


def test_a_phi_diagonal_value():
    # A_J(x, Jx, Jx, x) = 3 at any unit x, so Q(A0 + A_J) = 4
    j = standard_complex_structure(4)
    aj = build_APhi(j)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        jx = j.apply(x)
        assert abs(contract(aj.entries, x, jx, jx, x) - 3.0) < 1e-12


def test_inner_product_frozen_value():
    a0 = build_A0(4)
    assert tensor_inner_product(a0, a0) == pytest.approx(24.0)
    # independent count: 2 m (m-1) entries of magnitude 1
    assert tensor_inner_product(a0, a0) == pytest.approx(float(np.sum(a0.entries**2)))


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        tensor_inner_product(build_A0(4), build_A0(6))


def test_inner_product_of_zero():
    a0 = build_A0(4)
    assert tensor_inner_product(a0, 0.0 * a0) == 0.0


@given(st.integers(0, 10**6))
def test_pullback_preserves_inner_product(seed):
    rng = np.random.default_rng(seed)
    theta = random_orthogonal(4, rng)
    a = random_curvature_tensor(4, seed=seed)
    b = random_curvature_tensor(4, seed=seed + 1)
    lhs = tensor_inner_product(pullback(theta, a), pullback(theta, b))
    assert lhs == pytest.approx(tensor_inner_product(a, b), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("m", [4, 6])
def test_pullback_matches_loop_oracle(m):
    # (theta*A)(e_i, e_j, e_k, e_l) = A(theta e_i, theta e_j, theta e_k, theta e_l)
    theta = random_orthogonal(m, np.random.default_rng(40 + m))
    a = random_curvature_tensor(m, seed=m)
    pulled = pullback(theta, a).entries
    for i, j, k, l in np.ndindex((m,) * 4):
        expected = contract(a.entries, theta[:, i], theta[:, j], theta[:, k], theta[:, l])
        assert abs(pulled[i, j, k, l] - expected) <= 1e-12, (i, j, k, l)


def test_pullback_identity_and_a0_invariance():
    a = random_curvature_tensor(4, seed=5)
    np.testing.assert_allclose(pullback(np.eye(4), a).entries, a.entries, atol=1e-14)
    a0 = build_A0(4)
    theta = random_orthogonal(4, np.random.default_rng(3))
    np.testing.assert_allclose(pullback(theta, a0).entries, a0.entries, atol=1e-12)


def test_pullback_functorial():
    rng = np.random.default_rng(9)
    t1 = random_orthogonal(4, rng)
    t2 = random_orthogonal(4, rng)
    a = random_curvature_tensor(4, seed=2)
    lhs = pullback(t1 @ t2, a)
    rhs = pullback(t2, pullback(t1, a))
    np.testing.assert_allclose(lhs.entries, rhs.entries, atol=1e-12)


def test_twistor_pullback_swaps_structures():
    trip = build_quaternion_triple(4)
    theta = theta_map(trip)
    a = build_A0(4) + build_APhi(trip.j1)
    expected = build_A0(4) + build_APhi(trip.j3)
    np.testing.assert_allclose(pullback(theta, a).entries, expected.entries, atol=1e-12)


@pytest.mark.parametrize(
    "m,count",
    [(2, 1), (3, 6), (4, 20), (5, 50), (6, 105), (7, 196), (8, 336), (9, 540), (10, 825)],
)
def test_basis_counts(m, count):
    basis = curvature_space_basis(m)
    assert basis.count == count == curvature_space_dim(m)


def test_basis_rows_orthonormal_and_valid():
    for m in range(2, 9):
        dense = dense_basis(m)
        gram = dense @ dense.T
        np.testing.assert_allclose(gram, np.eye(curvature_space_basis(m).count), atol=1e-12)
        for row in basis_tensors(m):
            for worst, _ in symmetry_residuals(row).values():
                assert worst <= 1e-12


@pytest.mark.parametrize("m", [2, 4, 6])
def test_basis_projector_matches_constraint_nullspace(m):
    closed = dense_basis(m)
    oracle = constraint_nullspace_basis(m)
    assert oracle.shape == closed.shape
    np.testing.assert_allclose(closed.T @ closed, oracle.T @ oracle, atol=1e-12)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_sparse_basis_matches_its_dense_rows(m):
    # the basis is held as (row, col, weight) triples; its coordinates,
    # projection and coordinate map are scatter/gather steps over them and
    # must agree with the dense rows they stand for
    basis = curvature_space_basis(m)
    assert basis.count == curvature_space_dim(m)
    assert basis.rows.shape == basis.cols.shape == basis.weights.shape
    keys = basis.rows * m**4 + basis.cols
    assert np.unique(keys).size == keys.size  # no (row, col) pair repeats
    dense = dense_basis(m)
    assert np.count_nonzero(dense) == keys.size
    rng = np.random.default_rng(m)
    raw = rng.standard_normal((m,) * 4)
    np.testing.assert_allclose(basis.coordinates(raw), dense @ raw.ravel(), rtol=0, atol=1e-15)
    once = basis.project(raw).entries
    np.testing.assert_allclose(once.ravel(), dense.T @ (dense @ raw.ravel()), rtol=0, atol=1e-15)
    np.testing.assert_allclose(basis.project(once).entries, once, rtol=0, atol=1e-15)
    coords = rng.standard_normal(basis.count)
    np.testing.assert_allclose(basis.from_coordinates(coords).entries.ravel(), dense.T @ coords, rtol=0, atol=1e-15)


@given(st.integers(0, 10**6))
def test_projection_idempotent_and_strict(seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((4, 4, 4, 4))
    once = validate_or_project(raw, "project")
    validate_or_project(once.entries, "strict")
    twice = validate_or_project(once.entries, "project")
    np.testing.assert_allclose(once.entries, twice.entries, atol=1e-12)


def test_projection_fixes_valid_tensors():
    a = random_curvature_tensor(4, seed=8)
    np.testing.assert_allclose(
        validate_or_project(a.entries, "project").entries, a.entries, atol=1e-12
    )


def test_random_tensor_deterministic_and_valid():
    a = random_curvature_tensor(4, seed=7)
    b = random_curvature_tensor(4, seed=7)
    np.testing.assert_array_equal(a.entries, b.entries)
    validate_or_project(a.entries, "strict")
    assert (a - random_curvature_tensor(4, seed=8)).norm() > 0
