import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import (
    AlgebraicCurvatureTensor,
    DimensionMismatchError,
    LineStructureMismatchError,
    NonFiniteEntryError,
    build_A0,
    build_APhi,
    complex_curvature_operator,
    complex_jacobi,
    complex_line,
    counterexample_model,
    jacobi,
    merged_spectrum,
    q_quartic,
    random_curvature_tensor,
    ricci,
    spanning_lines,
    standard_complex_structure,
    star_ricci,
    validate_complex_structure,
)
from curvlab.operators import _curvature_stack, _jacobi_stack
from helpers import contract, jacobi_loop, project_to_constraints, random_orthogonal, random_unit_vector


@pytest.fixture(scope="module")
def j4():
    return standard_complex_structure(4)


def test_jacobi_matches_loop_oracle(j4):
    a = random_curvature_tensor(4, seed=1)
    x = random_unit_vector(4, np.random.default_rng(2))
    np.testing.assert_allclose(jacobi(a, x), jacobi_loop(a.entries, x), atol=1e-12)


def test_jacobi_of_a0_is_projection_complement():
    a0 = build_A0(4)
    x = random_unit_vector(4, np.random.default_rng(0))
    expected = np.eye(4) - np.outer(x, x)
    np.testing.assert_allclose(jacobi(a0, x), expected, atol=1e-12)


def test_jacobi_fubini_study_eigenvalues(j4):
    a = build_A0(4) + build_APhi(j4)
    x = np.eye(4)[0]
    mat = jacobi(a, x)
    vals = np.linalg.eigvalsh(mat)
    np.testing.assert_allclose(vals, [0.0, 1.0, 1.0, 4.0], atol=1e-12)
    # eigenvector structure: 0 on x, 4 on Jx
    np.testing.assert_allclose(mat @ x, np.zeros(4), atol=1e-12)
    jx = j4.apply(x)
    np.testing.assert_allclose(mat @ jx, 4.0 * jx, atol=1e-12)


def test_jacobi_at_zero_vector():
    a = random_curvature_tensor(4, seed=4)
    np.testing.assert_array_equal(jacobi(a, np.zeros(4)), np.zeros((4, 4)))


@given(st.integers(0, 10**6), st.floats(-3.0, 3.0))
def test_jacobi_symmetric_annihilating_quadratic(seed, lam):
    a = random_curvature_tensor(4, seed=seed % 50)
    x = random_unit_vector(4, np.random.default_rng(seed))
    mat = jacobi(a, x)
    np.testing.assert_allclose(mat, mat.T, atol=1e-10)
    np.testing.assert_allclose(mat @ x, np.zeros(4), atol=1e-10)
    np.testing.assert_allclose(jacobi(a, lam * x), lam * lam * mat, atol=1e-9)


def test_complex_jacobi_of_a0(j4):
    a0 = build_A0(4)
    for line in spanning_lines(j4):
        mat = complex_jacobi(a0, j4, line)
        expected = 2.0 * np.eye(4) - line.projector
        np.testing.assert_allclose(mat, expected, atol=1e-12)


def test_complex_jacobi_vanishes_on_counterexample():
    model = counterexample_model(4)
    for line in spanning_lines(model.structure):
        assert np.max(np.abs(complex_jacobi(model.tensor, model.structure, line))) < 1e-14


def test_complex_jacobi_representative_invariance(j4):
    # both complex operators depend on the line only, not on its representative
    a = random_curvature_tensor(4, seed=11)
    rng = np.random.default_rng(5)
    x = random_unit_vector(4, rng)
    line = complex_line(x, j4)
    for operator in (complex_jacobi, complex_curvature_operator):
        for t in (0.3, 1.1, 2.9):
            rotated = np.cos(t) * x + np.sin(t) * j4.apply(x)
            other = complex_line(rotated, j4)
            np.testing.assert_allclose(
                operator(a, j4, line),
                operator(a, j4, other),
                atol=1e-12,
            )


@pytest.mark.parametrize("m", [4, 6])
def test_jacobi_stack_matches_loop_oracles(m):
    # a stack of two tensors, one without any symmetry, against a stack of two forms
    rng = np.random.default_rng(m)
    tensors = np.stack([random_curvature_tensor(m, seed=m).entries, rng.standard_normal((m,) * 4)])
    x, u, v = rng.standard_normal((3, m))
    mats = _jacobi_stack(tensors, np.array([np.outer(x, x), np.outer(u, v)]))
    assert mats.shape == (2, 2, m, m)
    eye = np.eye(m)
    for t, entries in enumerate(tensors):
        np.testing.assert_allclose(mats[t, 0], jacobi_loop(entries, x), atol=1e-12)
        expected = [[contract(entries, eye[b], u, v, eye[a]) for b in range(m)] for a in range(m)]
        np.testing.assert_allclose(mats[t, 1], expected, atol=1e-12)


def test_complex_curvature_operator_matches_loop(j4):
    # taken without any tensor symmetry: <R(pi) e_b, e_a> = A(x, Jx, e_b, e_a)
    entries = np.random.default_rng(9).standard_normal((4,) * 4)
    line = complex_line(random_unit_vector(4, np.random.default_rng(10)), j4)
    x = line.representative
    mat = complex_curvature_operator(AlgebraicCurvatureTensor(entries), j4, line)
    eye = np.eye(4)
    expected = [[contract(entries, x, j4.apply(x), eye[b], eye[a]) for b in range(4)] for a in range(4)]
    np.testing.assert_allclose(mat, expected, atol=1e-12)


def test_line_structure_mismatch_error(j4):
    from curvlab import build_quaternion_triple

    trip = build_quaternion_triple(4)
    a = random_curvature_tensor(4, seed=1)
    line = complex_line(np.eye(4)[0], trip.j2)
    with pytest.raises(LineStructureMismatchError):
        complex_jacobi(a, j4, line)


def test_curvature_operator_of_a0():
    # the kernel at the form x y^T is the curvature operator R(x, y)
    a0 = build_A0(4)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    z = rng.standard_normal(4)
    expected = (y @ z) * x - (x @ z) * y
    np.testing.assert_allclose(_curvature_stack(a0.entries, np.outer(x, y))[0] @ z, expected, atol=1e-12)


def test_curvature_operator_antisymmetries():
    a = random_curvature_tensor(4, seed=6)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    mat, swapped, diagonal = _curvature_stack(a.entries, np.array([np.outer(x, y), np.outer(y, x), np.outer(x, x)]))
    np.testing.assert_allclose(mat, -mat.T, atol=1e-10)
    np.testing.assert_allclose(swapped, -mat, atol=1e-10)
    assert np.max(np.abs(diagonal)) < 1e-10


def test_complex_curvature_operator_value(j4):
    # <R(pi) Jx, x> equals Q(pi) = 4 for the constant-Q model
    a = build_A0(4) + build_APhi(j4)
    x = random_unit_vector(4, np.random.default_rng(1))
    line = complex_line(x, j4)
    op = complex_curvature_operator(a, j4, line)
    jx = j4.apply(line.representative)
    assert abs(float(line.representative @ (op @ jx)) - 4.0) < 1e-12


def test_complex_curvature_operator_a0_formula(j4):
    a0 = build_A0(4)
    rng = np.random.default_rng(2)
    x = random_unit_vector(4, rng)
    line = complex_line(x, j4)
    x = line.representative
    jx = j4.apply(x)
    z = rng.standard_normal(4)
    expected = (jx @ z) * x - (x @ z) * jx
    np.testing.assert_allclose(
        complex_curvature_operator(a0, j4, line) @ z, expected, atol=1e-12
    )


def test_ricci_of_a0_and_traces(j4):
    for m in (4, 6):
        a0 = build_A0(m)
        jm = standard_complex_structure(m)
        rho = ricci(a0)
        np.testing.assert_allclose(rho, (m - 1) * np.eye(m), atol=1e-12)
        assert float(np.trace(rho)) == pytest.approx(m * (m - 1))
        # rho*[a, b] = <J e_a, J e_b> for A0, so its trace is m
        assert float(np.trace(star_ricci(a0, jm))) == pytest.approx(m)


def test_ricci_of_counterexample_vanishes():
    model = counterexample_model(4)
    assert np.max(np.abs(ricci(model.tensor))) == 0.0
    assert np.max(np.abs(star_ricci(model.tensor, model.structure))) == 0.0


def test_ricci_of_zero_tensor(j4):
    zero = 0.0 * build_A0(4)
    assert np.max(np.abs(ricci(zero))) == 0.0
    assert np.max(np.abs(star_ricci(zero, j4))) == 0.0


def test_twice_ricci_equals_line_sum(j4):
    # 2 rho = sum_i (J(e_i) + J(J e_i)) holds for every curvature tensor
    a = random_curvature_tensor(4, seed=13)
    eye = np.eye(4)
    total = np.zeros((4, 4))
    for i in range(4):
        total += jacobi(a, eye[i]) + jacobi(a, j4.apply(eye[i]))
    np.testing.assert_allclose(total, 2.0 * ricci(a), atol=1e-10)


def test_star_ricci_matches_loop_oracle():
    # rho*[a, b] = sum_i A(e_a, J e_i, J e_b, e_i) entry by entry, at a rotated J
    q = random_orthogonal(4, np.random.default_rng(31))
    structure = validate_complex_structure(q @ standard_complex_structure(4).matrix @ q.T)
    a = random_curvature_tensor(4, seed=31)
    eye, jmat = np.eye(4), structure.matrix
    expected = [
        [sum(contract(a.entries, eye[r], jmat @ eye[i], jmat @ eye[c], eye[i]) for i in range(4)) for c in range(4)]
        for r in range(4)
    ]
    np.testing.assert_allclose(star_ricci(a, structure), expected, rtol=0, atol=1e-12)


def test_operators_return_arrays(j4):
    a = random_curvature_tensor(4, seed=32)
    x = np.eye(4)[0]
    line = complex_line(x, j4)
    for op in (
        jacobi(a, x),
        complex_jacobi(a, j4, line),
        complex_curvature_operator(a, j4, line),
        ricci(a),
        star_ricci(a, j4),
    ):
        assert type(op) is np.ndarray and op.shape == (4, 4)
    lines = spanning_lines(j4)
    for stack in (complex_jacobi(a, j4, lines), complex_curvature_operator(a, j4, lines)):
        assert type(stack) is np.ndarray and stack.shape == (len(lines), 4, 4)


def test_star_ricci_not_symmetric_in_general(j4):
    a = random_curvature_tensor(4, seed=21)
    mat = star_ricci(a, j4)
    assert np.max(np.abs(mat - mat.T)) > 1e-6


def test_star_ricci_symmetric_on_compatible(j4):
    a = project_to_constraints(random_curvature_tensor(4, seed=22), j4, ["a3"])
    mat = star_ricci(a, j4)
    assert np.max(np.abs(mat - mat.T)) < 1e-10


def test_holomorphic_sectional_curvature_values(j4):
    a0 = build_A0(4)
    fs = a0 + build_APhi(j4)
    for line in spanning_lines(j4):
        assert q_quartic(a0, j4, line.representative) == pytest.approx(1.0)
        assert q_quartic(fs, j4, line.representative) == pytest.approx(4.0)


def test_merged_spectrum_grouping():
    mat = np.diag([1.0, 1.0 + 1e-12, 2.0, 5.0])
    spec = merged_spectrum(mat)
    assert spec == ((pytest.approx(1.0), 2), (2.0, 1), (5.0, 1))


@pytest.mark.parametrize("k", [-600, 600])
def test_merged_spectrum_scales_exactly(j4, k):
    # the merge tolerance is relative to max|M|, so a power-of-two scale of the
    # operator alone scales every merged eigenvalue by the same power exactly,
    # far outside [1e-8, 1e8]
    mat = complex_jacobi(build_A0(4) + build_APhi(j4), j4, spanning_lines(j4)[1])
    plain = merged_spectrum(mat)
    assert [mult for _, mult in plain] == [2, 2]
    scaled = merged_spectrum(2.0**k * mat)
    assert scaled == tuple((2.0**k * value, mult) for value, mult in plain)


def test_merged_spectrum_merges_relative_to_the_largest_entry():
    # eigenvalues 1e-9 apart are distinct at scale 1e-9, however small
    spec = merged_spectrum(np.diag([0.0, 1e-9, 1e-9 + 1e-20, 4e-9]))
    assert [mult for _, mult in spec] == [1, 2, 1]
    assert merged_spectrum(np.zeros((3, 3))) == ((0.0, 3),)
    # rounding noise of an operator whose tensor has entries near 1 is one
    # zero group at that scale
    noise = np.diag([-2e-16, 0.0, 2e-16])
    assert [mult for _, mult in merged_spectrum(noise)] == [1, 1, 1]
    assert merged_spectrum(noise, scale=1.0) == ((0.0, 3),)


def test_merged_spectrum_rejects_what_leaves_the_float_range():
    with pytest.raises(NonFiniteEntryError):
        merged_spectrum(np.full((2, 2), 1.7e308))  # eigenvalue 3.4e308
    with pytest.raises(NonFiniteEntryError):
        merged_spectrum(np.array([[1.0, np.nan], [np.nan, 1.0]]))


@pytest.mark.parametrize("symmetric", [True, False], ids=["curvature", "raw"])
@pytest.mark.parametrize("m", [4, 6])
def test_line_stacks_match_per_line_operators(m, symmetric):
    # the raw tensor has none of the curvature symmetries, so no slot swap is assumed
    q = random_orthogonal(m, np.random.default_rng(m))
    structure = validate_complex_structure(q @ standard_complex_structure(m).matrix @ q.T)
    if symmetric:
        tensor = random_curvature_tensor(m, seed=3)
    else:
        tensor = AlgebraicCurvatureTensor(np.random.default_rng(4).standard_normal((m,) * 4))
    lines = spanning_lines(structure)
    jacobi_ops = complex_jacobi(tensor, structure, lines)
    curvature_ops = complex_curvature_operator(tensor, structure, lines)
    q_values = q_quartic(tensor, structure, lines.representatives)
    assert jacobi_ops.shape == curvature_ops.shape == (len(lines), m, m)
    assert q_values.shape == (len(lines),)
    for index, line in enumerate(lines):
        x = line.representative
        np.testing.assert_allclose(
            jacobi_ops[index], complex_jacobi(tensor, structure, line), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            jacobi_ops[index],
            jacobi(tensor, x) + jacobi(tensor, structure.apply(x)),
            rtol=0,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            curvature_ops[index], complex_curvature_operator(tensor, structure, line), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            curvature_ops[index],
            _curvature_stack(tensor.entries, np.outer(x, structure.apply(x)))[0],
            rtol=0,
            atol=1e-12,
        )
        assert abs(q_values[index] - q_quartic(tensor, structure, x)) <= 1e-12


def test_sweep_stacks_serve_the_line_operators(j4):
    # spanning_lines holds its representatives and projectors stacked; the
    # operators read them directly and agree exactly with a restacked tuple
    a = random_curvature_tensor(4, seed=5)
    lines = spanning_lines(j4)
    assert not lines.representatives.flags.writeable and not lines.projectors.flags.writeable
    np.testing.assert_array_equal(lines.representatives, [line.representative for line in lines])
    np.testing.assert_array_equal(lines.projectors, [line.projector for line in lines])
    assert type(lines[1:]) is tuple
    for operator in (complex_jacobi, complex_curvature_operator):
        np.testing.assert_array_equal(operator(a, j4, lines), operator(a, j4, tuple(lines)))


def test_line_stacks_reject_foreign_lines(j4):
    a = random_curvature_tensor(4, seed=2)
    q = random_orthogonal(4, np.random.default_rng(1))
    other = validate_complex_structure(q @ j4.matrix @ q.T)
    for operator in (complex_jacobi, complex_curvature_operator):
        with pytest.raises(LineStructureMismatchError):
            operator(a, j4, spanning_lines(other))


def test_line_structure_check_is_exact_up_to_1e_12():
    # lines built for an equal structure object pass; a J moved by 2e-12
    # still fails, for one line and for a sweep
    a = random_curvature_tensor(6, seed=4)
    j = standard_complex_structure(6)
    twin = validate_complex_structure(j.matrix.copy())
    assert twin is not j
    lines = spanning_lines(twin)
    for line in (lines[3], lines):
        np.testing.assert_array_equal(complex_jacobi(a, j, line), complex_jacobi(a, twin, line))
    moved = j.matrix.copy()
    moved[0, 1] += 2e-12
    moved[1, 0] -= 2e-12
    foreign = validate_complex_structure(moved)
    for line in (complex_line(np.eye(6)[0], foreign), spanning_lines(foreign)):
        for operator in (complex_jacobi, complex_curvature_operator):
            with pytest.raises(LineStructureMismatchError):
                operator(a, j, line)


def test_q_quartic_rows_must_match_dimension(j4):
    # one vector is a batch of one, so it meets the same dimension checks
    a = random_curvature_tensor(4, seed=2)
    for vectors in (np.ones((3, 6)), np.ones(6)):
        with pytest.raises(DimensionMismatchError):
            q_quartic(a, j4, vectors)
    for vectors in (np.ones((3, 4)), np.ones(4)):
        with pytest.raises(DimensionMismatchError):
            q_quartic(a, standard_complex_structure(6), vectors)
