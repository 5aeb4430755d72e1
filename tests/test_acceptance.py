"""Acceptance suite: one test per criterion, each printing a pass line with the
measured numbers.  Tolerances are pinned here and nowhere else."""

import numpy as np
import pytest

from curvlab import (
    ComplexJacobiOracle,
    ComplexModel,
    IdentityReport,
    JacobiOracle,
    build_A0,
    build_APhi,
    check_compatibility,
    check_sato,
    check_vanhecke,
    complex_curvature_operator,
    complex_jacobi,
    counterexample_model,
    curvature_space_basis,
    jacobi,
    lemma23_battery,
    merged_spectrum,
    pullback,
    random_curvature_tensor,
    reconstruct_from_complex_jacobi,
    reconstruct_from_jacobi,
    ricci,
    spanning_lines,
    standard_complex_structure,
    star_ricci,
    subspace_dimension,
    twistor_point_model,
    validate_or_project,
)
from curvlab.identities import _defect
from curvlab.spaces import build_quaternion_triple
from helpers import (
    load_repo_module,
    project_to_constraints,
    random_orthogonal,
    random_unit_vector,
    spans_equal,
    subspace_tensor_basis,
    vanhecke_polarization,
)


def test_c01_curvature_space_dimensions():
    counts = {m: curvature_space_basis(m).count for m in (2, 4, 6)}
    assert counts == {2: 1, 4: 20, 6: 105}
    print(f"criterion 01 PASS: nullspace basis counts {counts}")


@pytest.mark.parametrize("m", [4, 8])
def test_c02_counterexample_realization(m):
    model = counterexample_model(m)
    norm_sq = np.vdot(model.tensor.entries, model.tensor.entries)
    assert norm_sq > 0
    report = lemma23_battery(model, tol=1e-12)
    assert report.holds
    assert report.worst_residual < 1e-12
    rho = float(np.max(np.abs(ricci(model.tensor))))
    rho_star = float(np.max(np.abs(star_ricci(model.tensor, model.structure))))
    assert rho < 1e-12 and rho_star < 1e-12
    print(
        f"criterion 02 PASS (m={m}): |A|^2 = {norm_sq}, battery residual "
        f"{report.worst_residual:.2e}, |rho| = {rho:.1e}, |rho*| = {rho_star:.1e}"
    )


def test_c03_twistor_realization():
    model, theta = twistor_point_model(4)
    trip = build_quaternion_triple(4)
    pulled = pullback(theta, model.tensor)
    expected = build_A0(4) + build_APhi(trip.j3)
    pull_err = float(np.max(np.abs(pulled.entries - expected.entries)))
    assert pull_err < 1e-12
    diff_norm = (pulled - model.tensor).norm()
    assert diff_norm > 0.1
    worst_j = worst_r = 0.0
    for line in spanning_lines(model.structure):
        dj = (
            complex_jacobi(pulled, model.structure, line)
            - complex_jacobi(model.tensor, model.structure, line)
        )
        dr = (
            complex_curvature_operator(pulled, model.structure, line)
            - complex_curvature_operator(model.tensor, model.structure, line)
        )
        worst_j = max(worst_j, float(np.max(np.abs(dj))))
        worst_r = max(worst_r, float(np.max(np.abs(dr))))
    assert worst_j < 1e-10 and worst_r < 1e-10
    print(
        f"criterion 03 PASS: |theta*A - A| = {diff_norm:.4f}, pullback error {pull_err:.1e}, "
        f"line operator diffs {worst_j:.1e} / {worst_r:.1e}"
    )


@pytest.mark.parametrize("m", [4, 8])
def test_c04_fubini_study_jacobi_spectrum(m):
    trip = build_quaternion_triple(m)
    tensor = build_A0(m) + build_APhi(trip.j1)
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = random_unit_vector(m, rng)
        spec = merged_spectrum(jacobi(tensor, x), tol=1e-8)
        values = [(round(v, 6), mult) for v, mult in spec]
        assert values == [(0.0, 1), (1.0, m - 2), (4.0, 1)]
    print(f"criterion 04 PASS (m={m}): spectrum {{0 x1, 1 x{m-2}, 4 x1}} at 20 random unit x")


@pytest.mark.parametrize("m", [4, 6])
def test_c05_equivalence_batteries_agree(m):
    structure = standard_complex_structure(m)
    populations = ([], ["a3"], ["a2perp"])
    checked = 0
    for seed in range(200):
        tags = populations[seed % 3]
        tensor = random_curvature_tensor(m, seed=seed)
        if tags:
            tensor = project_to_constraints(tensor, structure, tags)
        model = ComplexModel(structure, tensor)
        compat = check_compatibility(model)
        booleans = {cond.holds for cond in compat.details.values()}
        assert len(booleans) == 1
        battery = lemma23_battery(model)
        booleans = {
            cond.holds
            for cond in battery.details.values()
            if isinstance(cond, IdentityReport)
        }
        assert len(booleans) == 1
        checked += 1
    print(f"criterion 05 PASS (m={m}): battery booleans agreed on {checked} models x 2 batteries")


@pytest.mark.parametrize("m", [4, 6])
def test_c06_vanhecke_identity(m):
    # the check reads every entry of its symmetrized row; 100 seeded pairs per
    # model evaluate the written formula as well, all at once
    structure = standard_complex_structure(m)
    jmat = structure.matrix
    worst = 0.0
    for seed in range(25):
        tensor = project_to_constraints(random_curvature_tensor(m, seed=seed), structure, ["a3"])
        report = check_vanhecke(ComplexModel(structure, tensor), tol=1e-10)
        assert report.holds
        a = tensor.entries
        rng = np.random.default_rng(seed)
        x, y = (np.array([random_unit_vector(m, rng) for _ in range(100)]) for _ in range(2))
        defects = vanhecke_polarization(
            lambda *v: np.einsum("ijkl,ni,nj,nk,nl->n", a, *v), lambda v: v @ jmat.T, x, y
        )
        scale = 1.0 + float(np.max(np.abs(a)))
        worst = max(worst, report.worst_residual, float(np.max(np.abs(defects))) / scale)
    assert worst < 1e-10
    print(f"criterion 06 PASS (m={m}): 25 compatible models x 100 pairs, worst residual {worst:.2e}")


def test_c07_sato_identities():
    j4 = standard_complex_structure(4)
    fs = build_A0(4) + build_APhi(j4)
    worst1 = 0.0
    for c in (-2.0, 0.0, 4.0):
        report = check_sato(ComplexModel(j4, (c / 4.0) * fs), 1, tol=1e-10)
        assert report.holds
        worst1 = max(worst1, report.worst_residual)
    report2 = check_sato(counterexample_model(4), 2, tol=1e-10)
    assert report2.holds
    assert worst1 < 1e-10 and report2.worst_residual < 1e-10
    print(
        f"criterion 07 PASS: variant 1 worst {worst1:.2e} over c in {{-2, 0, 4}}, "
        f"variant 2 residual {report2.worst_residual:.2e}"
    )


def test_c08_p2_involutive_isometry():
    # P2(A) = (A + A(Jx,Jy,z,w) + A(Jx,y,Jz,w) + A(Jx,y,z,Jw)) / 2, which is A
    # minus half the a2 row sum, on the compatible space a3
    j4 = standard_complex_structure(4)
    rows = subspace_tensor_basis(["a3"], 4, j4)

    def p2(flat):
        a = flat.reshape(4, 4, 4, 4)
        return (a - _defect("a2", a, j4.matrix) / 2.0).ravel()

    images = np.array([p2(row) for row in rows])
    worst_inv = max(float(np.linalg.norm(p2(image) - row)) for row, image in zip(rows, images))
    worst_iso = float(np.max(np.abs(images @ images.T - rows @ rows.T)))
    assert worst_inv < 1e-10 and worst_iso < 1e-10
    # (-1)-eigenspace of the map on the compatible space equals the flip subspace
    p_mat = rows @ images.T
    _, svals, vh = np.linalg.svd(p_mat + np.eye(len(rows)))
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    minus_rows = vh[rank:] @ rows
    perp_rows = subspace_tensor_basis(["a2perp"], 4, j4)
    assert minus_rows.shape[0] == perp_rows.shape[0] == 2
    assert spans_equal(minus_rows, perp_rows)
    print(
        f"criterion 08 PASS: involution residual {worst_inv:.2e}, isometry residual "
        f"{worst_iso:.2e}, (-1)-eigenspace matches the flip subspace (dim 2)"
    )


def test_c09_complex_jacobi_uniqueness_and_roundtrip():
    j4 = standard_complex_structure(4)
    dim = subspace_dimension(["gray-yano", "a2perp"], 4, j4)
    assert dim == 0
    fs = build_A0(4) + build_APhi(j4)
    rec = reconstruct_from_complex_jacobi(ComplexJacobiOracle.from_model(ComplexModel(j4, fs)))
    worst = (rec - fs).norm() / (1.0 + fs.norm())
    rows = subspace_tensor_basis(["gray-yano"], 4, j4)
    rng = np.random.default_rng(123)
    for _ in range(20):
        tensor = validate_or_project(
            (rows.T @ rng.standard_normal(rows.shape[0])).reshape(4, 4, 4, 4)
        )
        rec = reconstruct_from_complex_jacobi(
            ComplexJacobiOracle.from_model(ComplexModel(j4, tensor))
        )
        worst = max(worst, (rec - tensor).norm() / (1.0 + tensor.norm()))
    assert worst < 1e-8
    print(
        f"criterion 09 PASS: identity-subspace cap dimension {dim}, 21 round-trips "
        f"worst relative error {worst:.2e}"
    )


def test_c10_jacobi_reconstruction_roundtrip():
    worst = 0.0
    for m in (4, 6):
        for seed in range(25):
            tensor = random_curvature_tensor(m, seed=seed)
            rec = reconstruct_from_jacobi(JacobiOracle.from_tensor(tensor))
            worst = max(worst, (rec - tensor).norm() / (1.0 + tensor.norm()))
    assert worst < 1e-8
    base_tensor = random_curvature_tensor(4, seed=77)
    base = JacobiOracle.from_tensor(base_tensor)
    base_rec = reconstruct_from_jacobi(base)
    worst_eq = 0.0
    for seed in range(10):
        theta = random_orthogonal(4, np.random.default_rng(seed))
        composed = JacobiOracle(4, lambda x, t=theta: t.T @ base.evaluate(t @ x) @ t)
        lhs = reconstruct_from_jacobi(composed)
        rhs = pullback(theta, base_rec)
        worst_eq = max(worst_eq, (lhs - rhs).norm() / (1.0 + rhs.norm()))
    assert worst_eq < 1e-8
    print(
        f"criterion 10 PASS: 50 round-trips worst relative error {worst:.2e}, "
        f"equivariance over 10 orthogonal maps worst {worst_eq:.2e}"
    )


def test_c11_discrepancy_audit_report():
    audit = load_repo_module("scripts/discrepancy_audit.py").discrepancy_audit(4)
    coeff = audit["jacobi_K_coefficient"]
    plane = audit["twistor_plane_eigenvalue"]
    assert coeff["computed"] == pytest.approx(3.0, abs=1e-10)
    assert plane["computed"] == pytest.approx(1.0, abs=1e-10)
    assert not coeff["agrees"] and not plane["agrees"]
    assert audit["twistor_swapped_plane_eigenvalue"]["agrees"]
    print("criterion 11 PASS: discrepancy audit (documented report, not a failure):")
    for key, entry in audit.items():
        print(
            f"  {key}: computed {entry['computed']:.6g}, tabulated {entry['tabulated']:.6g}, "
            f"agrees: {entry['agrees']}"
        )
