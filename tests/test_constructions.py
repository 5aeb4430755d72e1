import numpy as np
import pytest

from curvlab import (
    ComplexJacobiOracle,
    ComplexModel,
    DimensionNotMultipleOf4Error,
    InconsistentOracleError,
    JacobiOracle,
    build_A0,
    build_APhi,
    build_quaternion_triple,
    complex_jacobi,
    complex_line,
    counterexample_model,
    jacobi,
    jacobi_equivalence_check,
    lemma23_battery,
    merged_spectrum,
    pullback,
    random_curvature_tensor,
    reconstruct_from_complex_jacobi,
    reconstruct_from_jacobi,
    spanning_lines,
    standard_complex_structure,
    subspace_dimension,
    twistor_point_model,
    validate_complex_structure,
    validate_or_project,
)
from curvlab import constructions
from curvlab.tensors import CurvatureBasis, curvature_space_basis
from helpers import (
    basis_tensors,
    complex_jacobi_min_norm_solve,
    complex_jacobi_subspace_solve,
    dense_basis,
    jacobi_lstsq_solve,
    load_repo_module,
    random_orthogonal,
    random_unit_vector,
    subspace_tensor_basis,
)


@pytest.mark.parametrize("m", [4, 8])
def test_counterexample_properties(m):
    model = counterexample_model(m)
    assert np.vdot(model.tensor.entries, model.tensor.entries) > 0
    trip = build_quaternion_triple(m)
    rng = np.random.default_rng(m)
    for _ in range(5):
        x = random_unit_vector(m, rng)
        y = rng.standard_normal(m)
        kx = trip.j2.apply(x)
        jkx = trip.j3.apply(x)
        predicted = 3.0 * (y @ kx) * kx - 3.0 * (y @ jkx) * jkx
        np.testing.assert_allclose(jacobi(model.tensor, x) @ y, predicted, atol=1e-12)
    assert lemma23_battery(model).holds


def test_counterexample_dimension_gate():
    with pytest.raises(DimensionNotMultipleOf4Error):
        counterexample_model(6)


def test_counterexample_jacobi_k_eigenvalue():
    # J(x)Kx = 3 Kx at unit x; the nonzero eigenvalue certifies A != 0
    model = counterexample_model(4)
    trip = build_quaternion_triple(4)
    x = random_unit_vector(4, np.random.default_rng(0))
    kx = trip.j2.apply(x)
    np.testing.assert_allclose(jacobi(model.tensor, x) @ kx, 3.0 * kx, atol=1e-12)


def test_twistor_model_pullback_and_line_data():
    model, theta = twistor_point_model(4)
    trip = build_quaternion_triple(4)
    pulled = pullback(theta, model.tensor)
    expected = build_A0(4) + build_APhi(trip.j3)
    np.testing.assert_allclose(pulled.entries, expected.entries, atol=1e-12)
    assert (pulled - model.tensor).norm() > 0.1
    for line in spanning_lines(model.structure):
        diff = (
            complex_jacobi(pulled, model.structure, line)
            - complex_jacobi(model.tensor, model.structure, line)
        )
        assert np.max(np.abs(diff)) < 1e-10


def test_twistor_jacobi_spectrum():
    model, _ = twistor_point_model(4)
    x = random_unit_vector(4, np.random.default_rng(3))
    spec = merged_spectrum(jacobi(model.tensor, x))
    assert spec == ((pytest.approx(0.0, abs=1e-9), 1), (pytest.approx(1.0), 2), (pytest.approx(4.0), 1))


def test_twistor_complex_jacobi_eigenvalues():
    # 1 on the line itself, 5 on the swapped quaternionic directions, 2 on the complement
    model, _ = twistor_point_model(8)
    trip = build_quaternion_triple(8)
    rng = np.random.default_rng(5)
    x = random_unit_vector(8, rng)
    op = complex_jacobi(model.tensor, model.structure, complex_line(x, model.structure))
    j1x, j2x, j3x = trip.j1.apply(x), trip.j2.apply(x), trip.j3.apply(x)
    assert x @ (op @ x) == pytest.approx(1.0)
    assert j2x @ (op @ j2x) == pytest.approx(1.0)
    assert j1x @ (op @ j1x) == pytest.approx(5.0)
    assert j3x @ (op @ j3x) == pytest.approx(5.0)
    v = rng.standard_normal(8)
    for b in (x, j1x, j2x, j3x):
        v -= (v @ b) * b
    v /= np.linalg.norm(v)
    assert v @ (op @ v) == pytest.approx(2.0)


def test_reconstruct_from_jacobi_roundtrips():
    for m in (4, 6):
        a0 = build_A0(m)
        rec = reconstruct_from_jacobi(JacobiOracle.from_tensor(a0))
        assert (rec - a0).norm() < 1e-10
        a = random_curvature_tensor(m, seed=m)
        rec = reconstruct_from_jacobi(JacobiOracle.from_tensor(a))
        assert (rec - a).norm() / (1.0 + a.norm()) < 1e-10


def test_reconstruct_rejects_inconsistent_oracle():
    oracle = JacobiOracle(4, lambda x: float(x @ x) * np.eye(4))
    with pytest.raises(InconsistentOracleError):
        reconstruct_from_jacobi(oracle)


def test_reconstruct_equivariance():
    a = random_curvature_tensor(4, seed=20)
    base = JacobiOracle.from_tensor(a)
    for seed in range(3):
        theta = random_orthogonal(4, np.random.default_rng(seed))
        composed = JacobiOracle(4, lambda x, t=theta: t.T @ base.evaluate(t @ x) @ t)
        lhs = reconstruct_from_jacobi(composed)
        rhs = pullback(theta, reconstruct_from_jacobi(base))
        assert (lhs - rhs).norm() < 1e-10


def test_reconstruct_from_complex_jacobi_roundtrips():
    for m in (4, 6, 8):
        jm = standard_complex_structure(m)
        fs = build_A0(m) + build_APhi(jm)
        rec = reconstruct_from_complex_jacobi(ComplexJacobiOracle.from_model(ComplexModel(jm, fs)))
        assert (rec - fs).norm() < 1e-10
        rows = subspace_tensor_basis(["gray-yano"], m, jm)
        rng = np.random.default_rng(1)
        for _ in range(3 if m == 4 else 1):
            g = validate_or_project((rows.T @ rng.standard_normal(rows.shape[0])).reshape((m,) * 4))
            rec = reconstruct_from_complex_jacobi(
                ComplexJacobiOracle.from_model(ComplexModel(jm, g))
            )
            assert (rec - g).norm() / (1.0 + g.norm()) < 1e-10


def test_complex_reconstruction_of_counterexample_fits_zero():
    # The counterexample lies in a2perp, the kernel of the complex Jacobi map,
    # so the minimum-norm fit legitimately returns 0: complex-line data match,
    # plain Jacobi data do not.
    model = counterexample_model(4)
    rec = reconstruct_from_complex_jacobi(ComplexJacobiOracle.from_model(model))
    assert rec.norm() < 1e-12
    for line in spanning_lines(model.structure):
        assert np.max(np.abs(complex_jacobi(model.tensor, model.structure, line))) < 1e-12
    x = np.eye(4)[0]
    assert np.max(np.abs(jacobi(model.tensor, x))) > 1.0


def _gallery(m):
    jm = standard_complex_structure(m)
    models = {
        "a0": ComplexModel(jm, build_A0(m)),
        "fubini-study": ComplexModel(jm, build_A0(m) + build_APhi(jm)),
        "random": ComplexModel(jm, random_curvature_tensor(m, 1)),
    }
    if m % 4 == 0:
        models["counterexample"] = counterexample_model(m)
        models["twistor"] = twistor_point_model(m)[0]
    return models


@pytest.mark.parametrize("m", [4, 6, 8])
def test_complex_reconstruction_matches_subspace_solve(m):
    # the minimum-norm fit over the whole curvature space lands on the unique
    # fit inside the eight-term subspace, also for tensors outside it
    for name, model in _gallery(m).items():
        oracle = ComplexJacobiOracle.from_model(model)
        rec = reconstruct_from_complex_jacobi(oracle)
        ref = complex_jacobi_subspace_solve(oracle)
        assert np.max(np.abs(rec.entries - ref.entries)) < 1e-12, name


@pytest.mark.parametrize("m, kind", [(4, "standard"), (6, "standard"), (8, "standard"), (6, "rotated")])
def test_complex_reconstruction_matches_min_norm_svd(m, kind):
    # the closed form is the SVD's minimum-norm fit over the curvature basis;
    # under a rotated J' = Q^T J Q the gallery is pulled back by Q
    q = random_orthogonal(m, np.random.default_rng(100 + m)) if kind == "rotated" else np.eye(m)
    for name, model in _gallery(m).items():
        turned = validate_complex_structure(q.T @ model.structure.matrix @ q)
        oracle = ComplexJacobiOracle.from_model(ComplexModel(turned, pullback(q, model.tensor)))
        rec = reconstruct_from_complex_jacobi(oracle)
        ref = complex_jacobi_min_norm_solve(oracle)
        assert np.max(np.abs(rec.entries - ref.entries)) < 1e-12, name


@pytest.mark.parametrize("m", [4, 6, 8])
def test_jacobi_reconstruction_matches_lstsq(m):
    # the closed-form polarization lands on the least-squares fit over the
    # curvature basis
    for name, model in _gallery(m).items():
        oracle = JacobiOracle.from_tensor(model.tensor)
        rec = reconstruct_from_jacobi(oracle)
        ref = jacobi_lstsq_solve(oracle)
        assert np.max(np.abs(rec.entries - ref.entries)) < 1e-12, name


@pytest.mark.parametrize("gates", ["both", "symmetry-only"])
def test_reconstruct_rejects_symmetric_quadratic_non_jacobi_field(monkeypatch, gates):
    # x -> J(x) + |x|^2 S is symmetric and quadratic, yet no tensor's Jacobi
    # field; the strict symmetry check rejects it without the fit gate too
    if gates == "symmetry-only":
        monkeypatch.setattr(constructions, "_check_fit", lambda *args: None)
    model = _gallery(4)["fubini-study"]
    base = JacobiOracle.from_tensor(model.tensor)
    shift = np.diag([1.0, 2.0, 3.0, 4.0])
    oracle = JacobiOracle(4, lambda x: base.evaluate(x) + float(x @ x) * shift)
    with pytest.raises(InconsistentOracleError):
        reconstruct_from_jacobi(oracle)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", ["jacobi", "complex-jacobi"])
def test_reconstruct_rejects_non_finite_oracle(mode, value):
    m = 4
    answer = np.full((m, m), value)
    if mode == "jacobi":
        with pytest.raises(InconsistentOracleError):
            reconstruct_from_jacobi(JacobiOracle(m, lambda x: answer))
    else:
        oracle = ComplexJacobiOracle(m, standard_complex_structure(m), lambda line: answer)
        with pytest.raises(InconsistentOracleError):
            reconstruct_from_complex_jacobi(oracle)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_flip_subspace_closed_form_dimension(m):
    n = m // 2
    jm = standard_complex_structure(m)
    q = random_orthogonal(m, np.random.default_rng(m))
    conjugated = validate_complex_structure(q @ jm.matrix @ q.T)
    for structure in (jm, conjugated):
        assert subspace_dimension(["a2perp"], m, structure) == n * n * (n * n - 1) // 6


def _structure(m, kind):
    jm = standard_complex_structure(m)
    if kind == "standard":
        return jm
    q = random_orthogonal(m, np.random.default_rng(100 + m))
    return validate_complex_structure(q @ jm.matrix @ q.T)


def _normal_operator(m, j):
    """K = P_curv (I + M) and J* over the curvature basis, written out with einsum.

    M(A)(a,b,c,d) = (A(a,Jb,Jc,d) + A(a,Jc,Jb,d) - A(b,Ja,Jc,d) - A(b,Jc,Ja,d)) / 3
    and J*A = A(J.,J.,J.,J.).
    """
    count = curvature_space_basis(m).count
    b = basis_tensors(m)
    mb = (
        np.einsum("napqd,pb,qc->nabcd", b, j, j, optimize=True)
        + np.einsum("napqd,pc,qb->nabcd", b, j, j, optimize=True)
        - np.einsum("nbpqd,pa,qc->nabcd", b, j, j, optimize=True)
        - np.einsum("nbpqd,pc,qa->nabcd", b, j, j, optimize=True)
    ) / 3.0
    jb = np.einsum("npqrs,pa,qb,rc,sd->nabcd", b, j, j, j, j, optimize=True)
    flat = dense_basis(m)
    k = np.eye(count) + flat @ mb.reshape(count, -1).T
    return k, flat @ jb.reshape(count, -1).T


@pytest.mark.parametrize("kind", ["standard", "rotated"])
@pytest.mark.parametrize("m", [4, 6, 8])
def test_complex_jacobi_normal_operator_spectrum(m, kind):
    # the certificate behind the closed form: K is symmetric, commutes with J*,
    # and has eigenvalues 0 (on a2perp), 2/3, 1 (where J* = -1) and 2 only
    n = m // 2
    k, jstar = _normal_operator(m, _structure(m, kind).matrix)
    np.testing.assert_allclose(k, k.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(k @ jstar, jstar @ k, rtol=0, atol=1e-12)
    eigs = np.linalg.eigvalsh(k)
    levels = np.array([0.0, 2.0 / 3.0, 1.0, 2.0])
    nearest = np.argmin(np.abs(eigs[:, None] - levels), axis=1)
    assert np.max(np.abs(eigs - levels[nearest])) < 1e-10
    assert np.sum(nearest == 0) == n * n * (n * n - 1) // 6
    assert np.sum(nearest == 2) == np.sum(np.linalg.eigvalsh(jstar) < 0)


def test_complex_reconstruction_rejects_non_symmetric_oracle():
    m = 6
    not_symmetric = np.triu(np.ones((m, m)))
    oracle = ComplexJacobiOracle(m, standard_complex_structure(m), lambda line: not_symmetric)
    with pytest.raises(InconsistentOracleError):
        reconstruct_from_complex_jacobi(oracle)


@pytest.mark.parametrize("kind", ["standard", "rotated"])
def test_complex_reconstruction_queries_each_spanning_line_once_in_order(kind):
    structure = _structure(6, kind)
    model = ComplexModel(structure, random_curvature_tensor(6, 3))
    base = ComplexJacobiOracle.from_model(model)
    asked = []
    counting = ComplexJacobiOracle(6, structure, lambda line: asked.append(line) or base.evaluate(line))
    lines = spanning_lines(structure)
    rec = reconstruct_from_complex_jacobi(counting)
    assert len(asked) == len(lines)
    assert all(line is ref for line, ref in zip(asked, lines))
    assert (rec - reconstruct_from_complex_jacobi(base)).norm() < 1e-12


@pytest.mark.parametrize("kind", ["standard", "rotated"])
@pytest.mark.parametrize("m", [4, 6])
def test_complex_reconstruction_rejects_one_wrong_probed_line(m, kind):
    structure = _structure(m, kind)
    base = ComplexJacobiOracle.from_model(ComplexModel(structure, build_A0(m) + build_APhi(structure)))
    lines = spanning_lines(structure)
    rng = np.random.default_rng(m)
    for k in range(len(lines)):
        noise = rng.standard_normal((m, m))
        shift = 1e-3 * (noise + noise.T)
        wrong = ComplexJacobiOracle(
            m, structure, lambda line, bad=lines[k]: base.evaluate(line) + (shift if line is bad else 0.0)
        )
        with pytest.raises(InconsistentOracleError):
            reconstruct_from_complex_jacobi(wrong)


@pytest.mark.parametrize("m", [4, 6])
def test_complex_reconstruction_equivariance(m):
    # with J' = Q^T J Q, the J'-line through x is carried to the J-line through
    # Qx, and the reconstruction from the composed oracle is the pullback by Q;
    # the random tensor has an a2perp component, so the projection is covered
    structure = standard_complex_structure(m)
    base = ComplexJacobiOracle.from_model(ComplexModel(structure, random_curvature_tensor(m, 21)))
    for seed in range(3):
        q = random_orthogonal(m, np.random.default_rng(seed))
        turned = validate_complex_structure(q.T @ structure.matrix @ q)
        composed = ComplexJacobiOracle(
            m,
            turned,
            lambda line, t=q: t.T @ base.evaluate(complex_line(t @ line.representative, structure)) @ t,
        )
        lhs = reconstruct_from_complex_jacobi(composed)
        rhs = pullback(q, reconstruct_from_complex_jacobi(base))
        assert (lhs - rhs).norm() < 1e-10


def test_m12_paths_never_build_the_dense_basis():
    # at m = 12 the dense basis matrix would be 271 MB; the basis holds only
    # its nonzeros, and the projection, the random builder and both
    # reconstructions work on them alone
    basis = curvature_space_basis(12)
    assert set(vars(basis)) == {"dim", "count", "rows", "cols", "weights"}
    assert not hasattr(CurvatureBasis, "matrix") and not hasattr(CurvatureBasis, "tensors")
    m = 12
    jm = standard_complex_structure(m)
    tensor = random_curvature_tensor(m, seed=12)
    np.testing.assert_allclose(validate_or_project(tensor.entries, "project").entries, tensor.entries, atol=1e-14)
    assert (reconstruct_from_jacobi(JacobiOracle.from_tensor(tensor)) - tensor).norm() < 1e-10
    fs = build_A0(m) + build_APhi(jm)
    rec = reconstruct_from_complex_jacobi(ComplexJacobiOracle.from_model(ComplexModel(jm, fs)))
    assert (rec - fs).norm() < 1e-10
    reconstruct_from_complex_jacobi(ComplexJacobiOracle.from_model(ComplexModel(jm, tensor)))


def test_jacobi_equivalence_self():
    j4 = standard_complex_structure(4)
    model = ComplexModel(j4, build_A0(4) + build_APhi(j4))
    rep = jacobi_equivalence_check(model, model, np.eye(4))
    assert rep.holds
    assert rep.details["tensors_equal"]


def test_jacobi_equivalence_twistor_phenomenon():
    model, theta = twistor_point_model(4)
    rep = jacobi_equivalence_check(model, model, theta.matrix)
    assert rep.holds  # complex Jacobi data agree on every line
    assert not rep.details["tensors_equal"]
    assert not rep.details["gray_yano_a"]
    assert rep.details["difference_norm"] > 0.1


def test_jacobi_equivalence_detects_gray_difference():
    # two Kahler models differing by a nonzero eight-term-identity tensor
    j4 = standard_complex_structure(4)
    fs = build_A0(4) + build_APhi(j4)
    rep = jacobi_equivalence_check(
        ComplexModel(j4, fs), ComplexModel(j4, 2.0 * fs), np.eye(4)
    )
    assert not rep.holds
    assert not rep.details["tensors_equal"]
    assert rep.details["gray_yano_a"] and rep.details["gray_yano_b"]


def test_discrepancy_audit_values():
    discrepancy_audit = load_repo_module("scripts/discrepancy_audit.py").discrepancy_audit
    audit = discrepancy_audit(4)
    coeff = audit["jacobi_K_coefficient"]
    assert coeff["computed"] == pytest.approx(3.0)
    assert not coeff["agrees"]
    plane = audit["twistor_plane_eigenvalue"]
    assert plane["computed"] == pytest.approx(1.0)
    assert plane["computed_at_Jx"] == pytest.approx(1.0)
    assert not plane["agrees"]
    swapped = audit["twistor_swapped_plane_eigenvalue"]
    assert swapped["computed"] == pytest.approx(5.0)
    assert swapped["agrees"]
    audit8 = discrepancy_audit(8)
    assert audit8["twistor_complement_eigenvalue"]["computed"] == pytest.approx(2.0)


def test_oracle_invariants_spot_checks():
    a = random_curvature_tensor(4, seed=30)
    oracle = JacobiOracle.from_tensor(a)
    rng = np.random.default_rng(7)
    x = random_unit_vector(4, rng)
    mat = oracle.evaluate(x)
    np.testing.assert_allclose(mat, mat.T, atol=1e-10)
    np.testing.assert_allclose(mat @ x, np.zeros(4), atol=1e-10)
    np.testing.assert_allclose(oracle.evaluate(2.0 * x), 4.0 * mat, atol=1e-9)
    j4 = standard_complex_structure(4)
    cj = ComplexJacobiOracle.from_model(ComplexModel(j4, a))
    line = complex_line(x, j4)
    rot = complex_line(0.6 * x + 0.8 * j4.apply(x), j4)
    np.testing.assert_allclose(cj.evaluate(line), cj.evaluate(rot), atol=1e-10)
