import gc
import itertools
import weakref

import numpy as np
import pytest

from curvlab import (
    CHECKS,
    AlgebraicCurvatureTensor,
    ComplexModel,
    IdentityReport,
    NotCompatibleError,
    NotInA3Error,
    QNotConstantError,
    QNotZeroError,
    UnknownConstraintTagError,
    build_A0,
    build_APhi,
    build_quaternion_triple,
    check_compatibility,
    check_gray_yano,
    check_sato,
    check_vanhecke,
    counterexample_model,
    curvature_space_dim,
    gray_classify,
    lemma23_battery,
    p2_map,
    pullback,
    q_quartic,
    random_curvature_tensor,
    random_orthogonal,
    random_unit_vector,
    run_check,
    standard_complex_structure,
    subspace_dimension,
    tensor_inner_product,
    twistor_point_model,
    validate_complex_structure,
)
from curvlab import identities
from curvlab import tensors as tensor_layer
from curvlab.cli import main
from curvlab.identities import CONSTRAINT_TAGS
from curvlab.spaces import _freeze
from helpers import (
    IDENTITY_FORMULAS,
    constraint_subspace_basis,
    contract,
    identity_defect_loop,
    project_to_constraints,
    spanning_lines_loop,
    spans_equal,
    subspace_tensor_basis,
)


@pytest.fixture(scope="module")
def j4():
    return standard_complex_structure(4)


@pytest.fixture(scope="module")
def fs_model(j4):
    return ComplexModel(j4, build_A0(4) + build_APhi(j4))


def test_a0_compatible_all_conditions(j4):
    rep = check_compatibility(ComplexModel(j4, build_A0(4)))
    assert rep.holds
    assert all(cond.holds for cond in rep.details.values())


def test_fubini_study_compatible(fs_model):
    assert check_compatibility(fs_model).holds


def test_a_k_compatible_for_anticommuting_pair():
    # J* fixes the tensor built from an anticommuting K, since (JK)J(JK)^T = ... = K up to sign
    trip = build_quaternion_triple(4)
    model = ComplexModel(trip.j1, build_APhi(trip.j2))
    assert check_compatibility(model).holds


def test_random_tensor_not_compatible(j4):
    rep = check_compatibility(ComplexModel(j4, random_curvature_tensor(4, seed=0)))
    assert not rep.holds


def test_single_condition_checks(fs_model):
    rep = check_compatibility(fs_model)
    for k in (1, 2, 3):
        assert rep.details[f"condition_{k}"].holds


def test_vanhecke_on_fubini_study(fs_model):
    rep = check_vanhecke(fs_model, trials=50, seed=1)
    assert rep.holds
    assert rep.worst_residual < 1e-10


def test_vanhecke_on_random_compatible(j4):
    for seed in (3, 4):
        a = project_to_constraints(random_curvature_tensor(4, seed=seed), j4, ["a3"])
        rep = check_vanhecke(ComplexModel(j4, a), trials=40, seed=seed)
        assert rep.holds


def test_vanhecke_requires_compatibility(j4):
    with pytest.raises(NotCompatibleError):
        check_vanhecke(ComplexModel(j4, random_curvature_tensor(4, seed=9)))


@pytest.mark.parametrize("c", [-2.0, 0.0, 4.0])
def test_sato_variant1_constant_q(j4, c):
    model = ComplexModel(j4, (c / 4.0) * (build_A0(4) + build_APhi(j4)))
    rep = check_sato(model, 1)
    assert rep.holds
    assert rep.details["c"] == pytest.approx(c, abs=1e-10)


def test_sato_variant2_on_counterexample():
    rep = check_sato(counterexample_model(4), 2)
    assert rep.holds
    assert rep.worst_residual < 1e-10


def test_sato_variant2_rejects_nonzero_q(j4):
    with pytest.raises(QNotZeroError):
        check_sato(ComplexModel(j4, build_A0(4)), 2)


def test_sato_variant1_rejects_varying_q(j4):
    # compatible projection of a random tensor has non-constant Q generically
    a = project_to_constraints(random_curvature_tensor(4, seed=12), j4, ["a3"])
    with pytest.raises(QNotConstantError):
        check_sato(ComplexModel(j4, a), 1)


def test_sato_requires_compatibility(j4):
    with pytest.raises(NotCompatibleError):
        check_sato(ComplexModel(j4, random_curvature_tensor(4, seed=14)), 2)


def _q_zero_on_earlier_lines(j4):
    """A compatible m = 4 tensor with Q = 0 on the six lines of the earlier
    candidate set (e_i, e_i + e_j and e_i + J e_j), drawn from the null space,
    inside a3, of Q on those lines."""
    rows = subspace_tensor_basis(["a3"], 4, j4)
    reps = np.array([line.representative for line in spanning_lines_loop(j4, with_mixed=True)])
    q_on_lines = np.array([q_quartic(AlgebraicCurvatureTensor(row.reshape(4, 4, 4, 4)), j4, reps) for row in rows]).T
    _, svals, vh = np.linalg.svd(q_on_lines)
    null = vh[int(np.sum(svals > 1e-10)) :]
    assert len(reps) == 6 and len(null) == 6
    coeffs = null.T @ np.random.default_rng(0).standard_normal(len(null))
    return AlgebraicCurvatureTensor(_freeze((coeffs @ rows).reshape(4, 4, 4, 4))), reps


def test_sato_preconditions_are_exact_on_r_m(j4):
    # Q is quartic, so its values on the lines do not certify it: this tensor
    # has Q = 0 on the six earlier lines and Q != 0 elsewhere, and both sato
    # checks must report a failed precondition, not a failed identity
    tensor, reps = _q_zero_on_earlier_lines(j4)
    model = ComplexModel(j4, tensor)
    assert np.max(np.abs(q_quartic(tensor, j4, reps))) < 1e-12
    rng = np.random.default_rng(1)
    assert np.max(np.abs(q_quartic(tensor, j4, np.array([random_unit_vector(4, rng) for _ in range(200)])))) > 0.05
    assert run_check("compatibility", model).holds
    for name in ("sato1", "sato2"):
        rep = run_check(name, model)
        assert rep.witness[0] == "precondition" and "on R^m" in rep.witness[1]
        assert np.isnan(rep.worst_residual) and not rep.holds
    # c is measured exactly, and the gate's residual is in the details
    for tensor, c in ((build_A0(4) + build_APhi(j4), 4.0), (build_A0(4), 1.0)):
        rep = run_check("sato1", ComplexModel(j4, tensor))
        assert rep.holds and abs(rep.details["c"] - c) <= 1e-12
        assert rep.details["q_residual"] <= 1e-12
    rep = run_check("sato2", counterexample_model(4))
    assert rep.holds and abs(rep.details["c"]) <= 1e-12 and rep.details["q_residual"] <= 1e-12
    # near the float range the gate neither overflows nor passes: Q = 1.6e308 |x|^4
    rep = run_check("sato2", ComplexModel(j4, 4e307 * (build_A0(4) + build_APhi(j4))))
    assert rep.witness[0] == "precondition"
    # verdicts and c do not change under J -> Q J Q^T with the tensor pulled back
    q = random_orthogonal(4, np.random.default_rng(4))
    models = [
        ComplexModel(j4, build_A0(4) + build_APhi(j4)),
        ComplexModel(j4, build_A0(4)),
        counterexample_model(4),
        model,
    ]
    for base in models:
        turned = ComplexModel(
            validate_complex_structure(q @ base.structure.matrix @ q.T), pullback(q.T, base.tensor)
        )
        for name in ("sato1", "sato2"):
            before, after = run_check(name, base), run_check(name, turned)
            assert before.holds == after.holds
            assert (before.witness[0] == "precondition") == (after.witness[0] == "precondition")
            if before.details is not None:
                assert abs(before.details["c"] - after.details["c"]) <= 1e-12


def test_lemma23_battery_on_counterexample():
    rep = lemma23_battery(counterexample_model(4))
    assert rep.holds
    assert rep.details["ricci_residual"] < 1e-12
    assert rep.details["star_ricci_residual"] < 1e-12
    assert rep.details["compatible"]


def test_lemma23_battery_all_false_on_a0(j4):
    rep = lemma23_battery(ComplexModel(j4, build_A0(4)))
    assert not rep.holds
    conds = [v for k, v in rep.details.items() if isinstance(v, IdentityReport)]
    assert len(conds) == 4
    assert all(not cond.holds for cond in conds)


def test_lemma23_battery_vacuous_on_zero(j4):
    rep = lemma23_battery(ComplexModel(j4, 0.0 * build_A0(4)))
    assert rep.holds


def test_gray_classify_fubini_study(fs_model):
    rep = gray_classify(fs_model)
    assert rep.name == "gray-classify" and rep.holds
    assert rep.witness == (("a1", True), ("a2", True), ("a3", True), ("a2perp", False))
    assert rep.worst_residual == rep.details["a3"]


def test_gray_classify_counterexample():
    member = dict(gray_classify(counterexample_model(4)).witness)
    assert member["a2perp"] and member["a3"]
    assert not member["a2"] and not member["a1"]


def test_gray_chain_on_random_projections(j4):
    # a1 => a2 => a3 and a2perp => a3 on projected random tensors
    for seed in range(40):
        tags = [["a1"], ["a2"], ["a3"], ["a2perp"]][seed % 4]
        a = project_to_constraints(random_curvature_tensor(4, seed=seed), j4, tags)
        member = dict(gray_classify(ComplexModel(j4, a)).witness)
        if member["a1"]:
            assert member["a2"]
        if member["a2"]:
            assert member["a3"]
        if member["a2perp"]:
            assert member["a3"]


def test_p2_fixes_a2_and_flips_a2perp(j4):
    for row in subspace_tensor_basis(["a2"], 4, j4):
        t = AlgebraicCurvatureTensor(row.reshape(4, 4, 4, 4))
        np.testing.assert_allclose(p2_map(ComplexModel(j4, t)).entries, t.entries, atol=1e-10)
    for row in subspace_tensor_basis(["a2perp"], 4, j4):
        t = AlgebraicCurvatureTensor(row.reshape(4, 4, 4, 4))
        np.testing.assert_allclose(p2_map(ComplexModel(j4, t)).entries, -t.entries, atol=1e-10)


def test_p2_involutive_isometry_on_a3(j4):
    rows = subspace_tensor_basis(["a3"], 4, j4)
    images = []
    for row in rows:
        t = AlgebraicCurvatureTensor(row.reshape(4, 4, 4, 4))
        p = p2_map(ComplexModel(j4, t))
        images.append(p)
        pp = p2_map(ComplexModel(j4, p))
        np.testing.assert_allclose(pp.entries, t.entries, atol=1e-10)
    tensors = [AlgebraicCurvatureTensor(r.reshape(4, 4, 4, 4)) for r in rows]
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            lhs = tensor_inner_product(images[i], images[j])
            rhs = tensor_inner_product(tensors[i], tensors[j])
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_p2_rejects_incompatible_input(j4):
    with pytest.raises(NotInA3Error):
        p2_map(ComplexModel(j4, random_curvature_tensor(4, seed=17)))


def test_gray_yano_identity(j4, fs_model):
    assert check_gray_yano(fs_model.tensor, j4).holds
    cm = counterexample_model(4)
    assert not check_gray_yano(cm.tensor, cm.structure).holds
    assert check_gray_yano(0.0 * build_A0(4), j4).holds


@pytest.mark.parametrize(
    "tags,expected",
    [
        ([], 20),
        (["gray-yano"], 18),
        (["a1"], 9),
        (["a2"], 10),
        (["a3"], 12),
        (["a2perp"], 2),
        (["gray-yano", "a2perp"], 0),
        (["compatibility"], 12),
    ],
)
def test_subspace_dimensions_m4(j4, tags, expected):
    assert subspace_dimension(tags, 4, j4) == expected


def test_a2_plus_a2perp_fill_a3():
    for m in (4, 6):
        jm = standard_complex_structure(m)
        rows_a2 = subspace_tensor_basis(["a2"], m, jm)
        rows_perp = subspace_tensor_basis(["a2perp"], m, jm)
        rows_a3 = subspace_tensor_basis(["a3"], m, jm)
        assert spans_equal(np.vstack([rows_a2, rows_perp]), rows_a3)
        # and the two pieces are orthogonal
        assert np.max(np.abs(rows_a2 @ rows_perp.T)) < 1e-10


@pytest.mark.parametrize("m", [2, 4, 6])
def test_subspace_dimensions_invariant_under_conjugation(m):
    # Q J Q^T is another complex structure; x -> Q x carries every subspace of
    # J onto the matching subspace of Q J Q^T, so the dimensions agree.  At
    # m = 2 a rotation gives J back up to rounding, which a rank threshold
    # relative to the largest singular value once counted as rank
    jm = standard_complex_structure(m)
    q = random_orthogonal(m, np.random.default_rng(m))
    if m == 2:
        q = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    conjugated = validate_complex_structure(q @ jm.matrix @ q.T)
    if m == 2:
        assert 0.0 < np.max(np.abs(conjugated.matrix - jm.matrix)) < 1e-15
    for tag in CONSTRAINT_TAGS:
        assert subspace_dimension([tag], m, conjugated) == subspace_dimension([tag], m, jm)


def test_subspace_cache_is_bounded(monkeypatch):
    # one decomposition of K' per (m, J value), shared by every tag set; a run
    # over many structures keeps at most 8
    cache = {}
    monkeypatch.setattr(identities, "_spectrum_cache", cache)
    j4 = standard_complex_structure(4)
    for seed in range(12):
        q = random_orthogonal(4, np.random.default_rng(seed))
        subspace_dimension(["a2perp"], 4, validate_complex_structure(q @ j4.matrix @ q.T))
    assert len(cache) == 8
    identities.subspace_coordinate_basis(["a2"], 4, j4)
    first = cache[(4, j4.matrix.tobytes())]
    again = validate_complex_structure(j4.matrix.copy())
    for tags in (["a2", "a2"], ["a1", "gray-yano"], []):
        identities.subspace_coordinate_basis(tags, 4, again)
    assert len(cache) == 8
    assert cache[(4, j4.matrix.tobytes())] is first


@pytest.mark.parametrize("m", [4, 6, 8])
def test_gray_yano_is_orthogonal_complement_of_a2perp(m):
    # a2perp is the kernel of the complex Jacobi map (Lemma 2.3), so the
    # minimum-norm complex reconstruction lands in the eight-term subspace
    jm = standard_complex_structure(m)
    perp = identities.subspace_coordinate_basis(["a2perp"], m, jm)
    gray = identities.subspace_coordinate_basis(["gray-yano"], m, jm)
    assert np.max(np.abs(gray @ perp.T)) < 1e-12
    assert gray.shape[0] + perp.shape[0] == curvature_space_dim(m)


@pytest.mark.parametrize("kind", ["standard", "rotated"])
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_constraint_subspaces_match_the_svd_oracle(m, kind):
    # every tag set's subspace, cut from the eigenspaces of K', against the
    # nullspace of its constraint design; and the multiplicities of K' at 1
    # (a1), 1/3 (a2 minus a1), 0 (a2perp) and 1/2 against their closed forms
    jm = standard_complex_structure(m)
    if kind == "rotated":
        q = random_orthogonal(m, np.random.default_rng(40 + m))
        jm = validate_complex_structure(q @ jm.matrix @ q.T)
    for r in range(len(CONSTRAINT_TAGS) + 1):
        for tags in itertools.combinations(CONSTRAINT_TAGS, r):
            sub = identities.subspace_coordinate_basis(tags, m, jm)
            oracle = constraint_subspace_basis(tags, m, jm)
            np.testing.assert_allclose(sub.T @ sub, oracle.T @ oracle, rtol=0, atol=1e-10, err_msg=str(tags))
    n = m // 2
    values, _ = identities._k_prime_spectrum(m, jm)
    a1, a2_rest, perp = (n * (n + 1) // 2) ** 2, (n * (n - 1) // 2) ** 2, n * n * (n * n - 1) // 6
    counts = [int(np.sum(values == level)) for level in (1.0, 1.0 / 3.0, 0.0, 0.5)]
    assert counts == [a1, a2_rest, perp, curvature_space_dim(m) - a1 - a2_rest - perp]


def test_compatibility_gate_runs_once_per_check(monkeypatch, tmp_path, capsys):
    # the compatibility identity is the gate itself; vanhecke, sato1, sato2
    # and lemma23 then share its cached run for the loaded model; a second
    # check of the same file gets the same model, so it reuses that run too
    calls = []
    real = identities.check_compatibility

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(identities, "check_compatibility", counting)
    for kind in ("fubini-study", "counterexample"):
        path = tmp_path / f"{kind}.json"
        main(["build", kind, "--m", "4", "--out", str(path)])
        calls.clear()
        main(["check", str(path), *CHECKS])
        assert len(calls) == 1
        main(["check", str(path), *CHECKS])
        assert len(calls) == 1
    capsys.readouterr()


def test_unknown_constraint_tag(j4):
    # rows of the identity table that are not constraint tags are unknown too
    for tag in ("nonsense", "hop-xy", "hop-yz", "sato2"):
        with pytest.raises(UnknownConstraintTagError):
            subspace_dimension([tag], 4, j4)


CHECK_NAMES = (
    "symmetries",
    "compatibility",
    "vanhecke",
    "sato1",
    "sato2",
    "lemma23",
    "gray-classify",
    "gray-yano",
)


def test_check_registry_names():
    assert tuple(CHECKS) == CHECK_NAMES


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_run_check_reports_its_name(fs_model, j4, name):
    for model in (fs_model, ComplexModel(j4, random_curvature_tensor(4, seed=1))):
        assert run_check(name, model).name == name


@pytest.mark.parametrize("name", ["vanhecke", "sato1", "sato2"])
def test_run_check_turns_precondition_into_failure(j4, name):
    rep = run_check(name, ComplexModel(j4, random_curvature_tensor(4, seed=1)))
    assert rep.holds is False
    assert np.isnan(rep.worst_residual)
    assert rep.witness[0] == "precondition"
    assert "not compatible" in rep.witness[1]


def test_report_to_json():
    rep = IdentityReport("x", False, float("nan"), ("pair", (1.0, 0.0), ((2, 3), "k")), 1e-10, {"c": 1.0})
    doc = rep.to_json()
    assert set(doc) == {"name", "holds", "residual", "witness"}
    assert doc == {
        "name": "x",
        "holds": False,
        "residual": None,
        "witness": ["pair", [1.0, 0.0], [[2, 3], "k"]],
    }
    assert IdentityReport("y", True, 0.25, (), 1.0).to_json()["residual"] == 0.25


def _models_m4():
    j4 = standard_complex_structure(4)
    return {
        "fubini-study": ComplexModel(j4, build_A0(4) + build_APhi(j4)),
        "counterexample": counterexample_model(4),
        "twistor": twistor_point_model(4)[0],
        "random": ComplexModel(j4, random_curvature_tensor(4, seed=1)),
    }


@pytest.mark.parametrize("kind", ["fubini-study", "counterexample", "twistor", "random"])
def test_every_report_holds_iff_within_tolerance(kind):
    model = _models_m4()[kind]
    for name in CHECKS:
        rep = run_check(name, model, seed=2, samples=3)
        subs = [v for v in (rep.details or {}).values() if isinstance(v, IdentityReport)]
        if name in ("compatibility", "lemma23"):
            assert len(subs) == (3 if name == "compatibility" else 4)
        for report in (rep, *subs):
            assert report.holds == (report.worst_residual <= report.tolerance), (name, report.name)


def _arranged_patterns():
    """Every slot pattern of the identity table other than A itself, in row order.

    sato1 and p2_map are built from rows of the table, so they add none."""
    seen = []
    for row in identities._ROWS.values():
        for _, args in row:
            if args != identities._A and args not in seen:
                seen.append(args)
    return seen


_PATTERNS = _arranged_patterns()


def test_arranged_patterns_collected():
    # 14 from the quadruple rows; the vanhecke row adds 12
    assert len(_PATTERNS) == 26


def _arranged_loop(stack, jmat, args):
    """Plain-loop values of ``arranged`` over a leading batch axis."""
    m = stack.shape[-1]
    eye = np.eye(m)
    letters = "xyzw"
    expected = np.zeros(stack.shape)
    for index in np.ndindex((m,) * 4):
        vectors = []
        for arg in args:
            e = eye[index[letters.index(arg[-1])]]
            vectors.append(jmat @ e if arg.startswith("J") else e)
        for t in range(stack.shape[0]):
            expected[(t,) + index] = contract(stack[t], *vectors)
    return expected


def _rotated_j4():
    q = random_orthogonal(4, np.random.default_rng(9))
    return q @ standard_complex_structure(4).matrix @ q.T


@pytest.mark.parametrize("args", _PATTERNS, ids=["-".join(p) for p in _PATTERNS])
def test_arranged_matches_loop_oracle(args):
    # the output axes (i, j, k, l) follow (x, y, z, w) whatever slot each letter sits in
    jmat = _rotated_j4()
    entries = np.random.default_rng(10).standard_normal((4,) * 4)
    expected = _arranged_loop(entries[None], jmat, args)[0]
    np.testing.assert_allclose(identities.arranged(entries, jmat, args), expected, rtol=0, atol=1e-12)


def test_identity_table_matches_the_written_formulas():
    assert set(identities._ROWS) == set(IDENTITY_FORMULAS)


@pytest.mark.parametrize("name", [name for name in IDENTITY_FORMULAS if name != "vanhecke"])
def test_identity_rows_match_loop_oracle(name):
    # each row's signed sum against its formula written out with plain loops,
    # with a rotated J
    jmat = _rotated_j4()
    entries = np.random.default_rng(12).standard_normal((4,) * 4)
    expected = identity_defect_loop(name, entries, jmat)
    np.testing.assert_allclose(identities._defect(name, entries, jmat), expected, rtol=0, atol=1e-12)


def test_row_plan_groups_terms_by_transpose():
    # one transposed add per group: vanhecke has six output transposes, sato2
    # three, and every constraint row and hop row is summed untransposed
    groups = {name: len(identities._plan(name)) for name in identities._ROWS}
    assert groups["vanhecke"] == 6
    assert groups["sato2"] == 3
    for name in ("a1", "a2", "a3", "a2perp", "gray-yano", "hop-xy", "hop-yz"):
        assert groups[name] == 1, name
    for name, row in identities._ROWS.items():
        plan = identities._plan(name)
        assert plan[0][0] == (0, 1, 2, 3)
        assert sum(len(terms) for _, terms in plan) == len(row)


@pytest.mark.parametrize("slot", range(4))
def test_j_on_one_slot_matches_loop_oracle(slot):
    jmat = _rotated_j4()
    entries = np.random.default_rng(13).standard_normal((4,) * 4)
    expected = _arranged_loop(entries[None], jmat, _slot_order_pattern((slot,)))[0]
    np.testing.assert_allclose(tensor_layer._with_j_on(entries, jmat, slot), expected, rtol=0, atol=1e-12)


def _vanhecke_cases():
    """(id, model): Fubini-Study and a random tensor projected into a3 at m = 4
    and 6, the twistor and counterexample models at m = 4, each with the
    standard J and with J -> Q J Q^T, the tensor pulled back along Q^T."""
    cases = []
    for m in (4, 6):
        standard = standard_complex_structure(m)
        q = random_orthogonal(m, np.random.default_rng(20 + m))
        rotated = validate_complex_structure(q @ standard.matrix @ q.T)
        for label, j in (("standard", standard), ("rotated", rotated)):
            theta = np.eye(m) if j is standard else q.T
            kinds = {
                "fubini-study": ComplexModel(j, build_A0(m) + build_APhi(j)),
                "random-a3": ComplexModel(j, project_to_constraints(random_curvature_tensor(m, seed=m), j, ["a3"])),
            }
            if m == 4:
                for kind, model in (("twistor", twistor_point_model(4)[0]), ("counterexample", counterexample_model(4))):
                    kinds[kind] = ComplexModel(
                        validate_complex_structure(theta.T @ model.structure.matrix @ theta),
                        pullback(theta, model.tensor),
                    )
            cases += [(f"{kind}-{m}-{label}", model) for kind, model in kinds.items()]
    return cases


_VANHECKE_CASES = _vanhecke_cases()


@pytest.mark.parametrize("model", [c for _, c in _VANHECKE_CASES], ids=[n for n, _ in _VANHECKE_CASES])
def test_vanhecke_row_matches_polarization_formula(model):
    # at the certifying pairs of check_vanhecke (basis pairs, then seeded
    # random ones), T(x, y, x, y) of the row's sum T against the written
    # formula, both through plain loops; the report is the worst of them
    m, a, jmat = model.dim, model.tensor.entries, model.structure.matrix
    scale = 1.0 + float(np.max(np.abs(a)))
    row_sum = identities._defect("vanhecke", a, jmat)
    eye = np.eye(m)
    pairs = [(eye[i], eye[j]) for i in range(m) for j in range(m)]
    rng = np.random.default_rng(3)
    for _ in range(32):
        pairs.append((random_unit_vector(m, rng), random_unit_vector(m, rng)))
    formula = []
    for x, y in pairs:
        expected = IDENTITY_FORMULAS["vanhecke"](lambda *v: contract(a, *v), lambda v: jmat @ v, x, y)
        assert abs(contract(row_sum, x, y, x, y) - expected) <= 1e-12 * scale
        formula.append(abs(expected) / scale)
    for trials in (0, 32):
        rep = check_vanhecke(model, trials=trials, seed=3)
        assert rep.holds
        assert rep.details == {"pairs": m * m + trials}
        assert abs(rep.worst_residual - max(formula[: m * m + trials])) <= 1e-12
        x, y = (np.array(v) for v in rep.witness[1:])
        assert rep.witness[0] == "pair"
        assert any(np.array_equal(x, px) and np.array_equal(y, py) for px, py in pairs[: m * m + trials])


def test_vanhecke_row_is_no_constraint(fs_model, j4):
    # only the diagonal T(x, y, x, y) of the row's sum vanishes on compatible
    # tensors, not the sum itself, so it cuts out no subspace
    assert np.max(np.abs(identities._defect("vanhecke", fs_model.tensor.entries, j4.matrix))) == 32.0
    with pytest.raises(UnknownConstraintTagError):
        subspace_dimension(["vanhecke"], 4, j4)


def _slot_order_pattern(with_j):
    """The pattern whose values are the J-slot image on ``with_j`` itself."""
    return tuple(("J" if slot in with_j else "") + "xyzw"[slot] for slot in range(4))


def test_shared_slot_images_match_loop_oracle(monkeypatch):
    # read-only entries and J, as in a loaded model: every pattern is a view of
    # one shared J-slot image, each slot subset built once
    built = []

    def counting(image, jmat, slot):
        built.append(slot)
        return with_j_on(image, jmat, slot)

    with_j_on = tensor_layer._with_j_on
    monkeypatch.setattr(tensor_layer, "_with_j_on", counting)
    jmat = _freeze(_rotated_j4())
    entries = _freeze(np.random.default_rng(11).standard_normal((4,) * 4))
    served = {args: identities.arranged(entries, jmat, args) for args in _PATTERNS}
    for args, values in served.items():
        assert not values.flags.writeable
        expected = _arranged_loop(entries[None], jmat, args)[0]
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
        assert np.shares_memory(identities.arranged(entries, jmat, args), values)
    assert identities._images["entries"] is entries
    # the ten slot subsets of the patterns, plus {0, 1, 2} on the way to all four
    by_slots = identities._images["by_slots"]
    assert len(by_slots) == 11
    assert len(built) == 11
    for with_j, image in by_slots.items():
        # each kept image has its axes in slot order
        assert not image.flags.writeable
        expected = _arranged_loop(entries[None], jmat, _slot_order_pattern(with_j))[0]
        np.testing.assert_allclose(image, expected, rtol=0, atol=1e-12)


def test_checking_a_second_model_drops_the_first_images():
    j4 = standard_complex_structure(4)
    first = ComplexModel(j4, build_A0(4) + build_APhi(j4))
    for name in CHECKS:
        run_check(name, first)
    images = [weakref.ref(image) for image in identities._images["by_slots"].values()]
    assert images
    second = counterexample_model(4)
    for name in CHECKS:
        run_check(name, second)
    assert identities._images["entries"] is second.tensor.entries
    gc.collect()
    assert all(ref() is None for ref in images)


def _line_check_models(m):
    """The gallery models at m, and compatible random tensors with a rotated J."""
    jm = standard_complex_structure(m)
    models = [
        ComplexModel(jm, build_A0(m)),
        ComplexModel(jm, build_A0(m) + build_APhi(jm)),
        ComplexModel(jm, random_curvature_tensor(m, seed=m)),
        counterexample_model(m),
        twistor_point_model(m)[0],
    ]
    for seed in range(3):
        q = random_orthogonal(m, np.random.default_rng(50 + seed))
        turned = validate_complex_structure(q @ jm.matrix @ q.T)
        for tags in (["a3"], ["a2perp"]):
            a = project_to_constraints(random_curvature_tensor(m, seed=seed), turned, tags)
            models.append(ComplexModel(turned, a))
    return models


@pytest.mark.parametrize("m", [4, 8])
def test_line_verdicts_match_the_earlier_candidate_lines(m, monkeypatch):
    # the probe lines certify every quadratic line map, so compatibility (2)-(3)
    # and lemma23 (a)/(c) decide as they did on the larger candidate set with
    # the e_i + J e_j lines
    def verdicts(model):
        # each battery's verdict and the verdict of each of its conditions
        return [
            {name: cond.holds for name, cond in rep.details.items() if isinstance(cond, IdentityReport)}
            | {rep.name: rep.holds}
            for rep in (check_compatibility(model), lemma23_battery(model))
        ]

    for model in _line_check_models(m):
        expected = verdicts(model)
        with monkeypatch.context() as patch:
            patch.setattr(identities, "spanning_lines", lambda s: spanning_lines_loop(s, with_mixed=True))
            assert verdicts(model) == expected
