import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvlab import (
    CommutationError,
    DimensionMismatchError,
    DimensionNotMultipleOf4Error,
    InvalidVectorError,
    NotAntiInvolutionError,
    NotOrthogonalError,
    NotSquareError,
    OddDimensionError,
    build_A0,
    build_quaternion_triple,
    complex_line,
    random_orthogonal,
    random_unit_vector,
    spanning_lines,
    standard_complex_structure,
    pullback,
    theta_map,
    validate_complex_isometry,
    validate_complex_structure,
)
from curvlab.spaces import cached_by_j
from helpers import spanning_lines_loop


def test_standard_structure_is_valid():
    j = standard_complex_structure(4)
    validated = validate_complex_structure(j.matrix)
    np.testing.assert_array_equal(validated.matrix, j.matrix)


def test_identity_is_not_an_anti_involution():
    with pytest.raises(NotAntiInvolutionError):
        validate_complex_structure(np.eye(4))


def test_scaled_structure_is_not_orthogonal():
    j = standard_complex_structure(4)
    with pytest.raises(NotOrthogonalError):
        validate_complex_structure(2.0 * j.matrix)


def test_rectangular_matrix_rejected():
    with pytest.raises(NotSquareError):
        validate_complex_structure(np.zeros((4, 3)))


def test_odd_dimension_rejected():
    with pytest.raises(OddDimensionError):
        validate_complex_structure(np.zeros((3, 3)))


@pytest.mark.parametrize("m", [4, 8, 12])
def test_quaternion_triple_relations_exact(m):
    trip = build_quaternion_triple(m)
    mats = [trip.j1.matrix, trip.j2.matrix, trip.j3.matrix]
    eye = np.eye(m)
    assert np.array_equal(mats[0] @ mats[1], mats[2])
    for a in range(3):
        assert np.array_equal(mats[a] @ mats[a], -eye)
        assert np.array_equal(mats[a].T @ mats[a], eye)
        for b in range(a + 1, 3):
            assert np.array_equal(mats[a] @ mats[b] + mats[b] @ mats[a], np.zeros((m, m)))


def test_quaternion_triple_needs_multiple_of_4():
    with pytest.raises(DimensionNotMultipleOf4Error):
        build_quaternion_triple(6)


def test_theta_map_relations():
    trip = build_quaternion_triple(4)
    th = theta_map(trip).matrix
    eye = np.eye(4)
    assert np.max(np.abs(th.T @ th - eye)) < 1e-12
    assert np.max(np.abs(th @ trip.j2.matrix - trip.j2.matrix @ th)) < 1e-12
    assert np.max(np.abs(th @ trip.j1.matrix + trip.j3.matrix @ th)) < 1e-12
    assert np.max(np.abs(th @ trip.j3.matrix - trip.j1.matrix @ th)) < 1e-12


def test_theta_map_squares_to_j2():
    # ((I + J2)/sqrt(2))^2 = J2, checked by direct matrix multiplication
    trip = build_quaternion_triple(4)
    th = theta_map(trip).matrix
    assert np.max(np.abs(th @ th - trip.j2.matrix)) < 1e-12


def test_complex_isometry_target_dimension_checked():
    with pytest.raises(DimensionMismatchError):
        validate_complex_isometry(np.eye(6), standard_complex_structure(6), standard_complex_structure(4))


def test_huge_entries_rejected_before_overflow():
    # M.T@M of a 1e300 entry overflows (a RuntimeWarning, an error here); the
    # entry bound sqrt(1 + tol) rejects it first and keeps rounding-level excess
    j = standard_complex_structure(4).matrix
    with pytest.raises(NotOrthogonalError):
        validate_complex_structure(1e300 * j)
    with pytest.raises(NotOrthogonalError):
        validate_complex_isometry(1e300 * np.eye(4), standard_complex_structure(4))
    with pytest.raises(NotOrthogonalError):
        pullback(1e300 * np.eye(4), build_A0(4))
    validate_complex_structure((1 + 1e-12) * j)


def test_complex_isometry_validation():
    j = standard_complex_structure(4)
    validate_complex_isometry(np.eye(4), j)
    with pytest.raises(NotOrthogonalError):
        validate_complex_isometry(2 * np.eye(4), j)
    # a reflection that breaks the commutation with J
    refl = np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(CommutationError):
        validate_complex_isometry(refl, j)


def test_spanning_lines_counts():
    assert len(spanning_lines(standard_complex_structure(2))) == 1
    # m=4 standard structure: 4 + 6 + 6 nominal candidates collapse to 6 planes
    assert len(spanning_lines(standard_complex_structure(4))) == 6


def test_spanning_lines_cached_per_structure():
    j = standard_complex_structure(4)
    lines = spanning_lines(j)
    assert isinstance(lines, tuple)
    assert spanning_lines(j) is lines


def test_spanning_lines_survive_copy_and_pickle():
    lines = spanning_lines(standard_complex_structure(4))
    for clone in (copy.copy(lines), copy.deepcopy(lines), pickle.loads(pickle.dumps(lines))):
        assert type(clone) is type(lines) and len(clone) == len(lines)
        np.testing.assert_array_equal(clone.projectors, lines.projectors)
        np.testing.assert_array_equal(clone.probe_index, lines.probe_index)
        np.testing.assert_array_equal(clone.probed, lines.probed)
        assert all(a.same_line(b) for a, b in zip(clone, lines))


def _sweep_structures():
    """Standard J, a rotated Q J Q^T and the quaternion structures at m = 2..12."""
    cases = []
    for m in range(2, 13, 2):
        standard = standard_complex_structure(m)
        q = random_orthogonal(m, np.random.default_rng(m))
        cases += [(f"standard-{m}", standard), (f"rotated-{m}", validate_complex_structure(q @ standard.matrix @ q.T))]
        if m % 4 == 0:
            triple = build_quaternion_triple(m)
            cases += [(f"j{k}-{m}", j) for k, j in enumerate((triple.j1, triple.j2, triple.j3), start=1)]
    return cases


@pytest.mark.parametrize("structure", [s for _, s in _sweep_structures()], ids=[n for n, _ in _sweep_structures()])
def test_spanning_lines_match_loop_oracle(structure):
    # same count, order, representatives and projectors as one complex_line per candidate
    expected = spanning_lines_loop(structure)
    lines = spanning_lines(structure)
    assert len(lines) == len(expected)
    for line, ref in zip(lines, expected):
        np.testing.assert_allclose(line.representative, ref.representative, rtol=0, atol=1e-14)
        np.testing.assert_allclose(line.projector, ref.projector, rtol=0, atol=1e-14)
        assert line.structure.matrix.tobytes() == structure.matrix.tobytes()


@pytest.mark.parametrize("structure", [s for _, s in _sweep_structures()], ids=[n for n, _ in _sweep_structures()])
def test_probe_index_names_the_line_through_each_probe(structure):
    # probe_index[i, j] names the probed line through e_i + e_j, through e_i at i = j
    m = structure.dim
    eye = np.eye(m)
    lines = spanning_lines(structure)
    assert lines.probe_index.shape == (m, m)
    np.testing.assert_array_equal(lines.probe_index, lines.probe_index.T)
    np.testing.assert_array_equal(np.unique(lines.probed), lines.probed)
    assert set(lines.probe_index.ravel().tolist()) == set(range(len(lines.probed)))
    for i in range(m):
        for j in range(m):
            line = lines[lines.probed[lines.probe_index[i, j]]]
            assert line.same_line(complex_line(eye[i] + eye[j], structure))


def test_probed_line_counts():
    assert len(spanning_lines(standard_complex_structure(6)).probed) == 12
    assert len(spanning_lines(standard_complex_structure(12)).probed) == 51
    # a generic J puts each of the m (m + 1) / 2 probes on a line of its own
    q = random_orthogonal(12, np.random.default_rng(12))
    rotated = validate_complex_structure(q @ standard_complex_structure(12).matrix @ q.T)
    assert len(spanning_lines(rotated).probed) == 78


def test_spanning_lines_cached_per_value_of_j():
    # models loaded separately validate their own structure objects
    first = validate_complex_structure(standard_complex_structure(6).matrix)
    second = validate_complex_structure(standard_complex_structure(6).matrix.copy())
    assert first is not second
    assert spanning_lines(second) is spanning_lines(first)
    q = random_orthogonal(6, np.random.default_rng(3))
    rotated = validate_complex_structure(q @ first.matrix @ q.T)
    assert spanning_lines(rotated) is not spanning_lines(first)
    assert all(line.structure is rotated for line in spanning_lines(rotated))


def test_cached_by_j_keys_by_value_and_evicts_oldest():
    cache: dict = {}
    built = []

    def build(name):
        built.append(name)
        return name

    first = standard_complex_structure(4)
    equal = validate_complex_structure(first.matrix.copy())
    assert cached_by_j(cache, 2, first, lambda: build("a")) == "a"
    assert cached_by_j(cache, 2, equal, lambda: build("b")) == "a"
    assert cached_by_j(cache, 2, first, lambda: build("c"), "tag") == "c"
    assert cached_by_j(cache, 2, standard_complex_structure(6), lambda: build("d")) == "d"
    assert len(cache) == 2 and built == ["a", "c", "d"]
    # the oldest entry went first, so the plain m = 4 key is built again
    assert cached_by_j(cache, 2, equal, lambda: build("e")) == "e"


def test_spanning_lines_are_unit_planes():
    j = standard_complex_structure(6)
    for line in spanning_lines(j):
        assert abs(np.linalg.norm(line.representative) - 1.0) < 1e-12
        p = line.projector
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p) - 2.0) < 1e-12


def test_line_of_e1_equals_line_of_e2():
    # e2 = J e1 for the standard structure, so both span the same plane
    j = standard_complex_structure(4)
    eye = np.eye(4)
    assert complex_line(eye[0], j).same_line(complex_line(eye[1], j))
    assert not complex_line(eye[0], j).same_line(complex_line(eye[2], j))


@given(st.floats(0.0, 2.0 * np.pi), st.integers(0, 10**6))
def test_line_equality_is_rotation_invariant(angle, seed):
    j = standard_complex_structure(4)
    x = random_unit_vector(4, np.random.default_rng(seed))
    rotated = np.cos(angle) * x + np.sin(angle) * j.apply(x)
    if np.linalg.norm(rotated) < 1e-9:
        return
    assert complex_line(x, j).same_line(complex_line(rotated, j))


def test_representative_sign_canonicalization():
    j = standard_complex_structure(4)
    x = np.array([-1.0, 0.0, 0.0, 0.0])
    line = complex_line(x, j)
    assert line.representative[0] > 0


def test_zero_vector_rejected():
    j = standard_complex_structure(4)
    with pytest.raises(InvalidVectorError):
        complex_line(np.zeros(4), j)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vector_rejected(bad):
    j = standard_complex_structure(4)
    with pytest.raises(InvalidVectorError):
        complex_line(np.array([bad, 0.0, 0.0, 1.0]), j)
