"""Predicates and verifiers for the curvature identities of compatible complex models.

Each check evaluates a linear-in-A identity on a certifying set (all basis
quadruples for tensor identities, the spanning lines for operator identities)
and reports the worst normalized residual together with a witness that
reproduces it.  Residuals are normalized by 1 + max|A|, so pass/fail is scale
free; the default tolerance is 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    EquivalenceViolationError,
    NotCompatibleError,
    NotInA3Error,
    QNotConstantError,
    QNotZeroError,
    UnknownConstraintTagError,
)
from .operators import (
    complex_curvature_operator,
    complex_jacobi,
    q_quartic,
    ricci,
    star_ricci,
)
from .spaces import DEFAULT_TOL, ComplexStructure, _freeze, random_unit_vector, spanning_lines
from .tensors import (
    RANK_TOL,
    AlgebraicCurvatureTensor,
    ComplexModel,
    build_A0,
    build_APhi,
    curvature_space_basis,
)


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Outcome of one identity check.

    ``holds`` is equivalent to ``worst_residual <= tolerance``; the witness
    locates the argument tuple achieving the worst residual.
    """

    name: str
    holds: bool
    worst_residual: float
    witness: tuple
    tolerance: float
    details: Mapping | None = None


@dataclass(frozen=True, eq=False)
class GrayClassification:
    """Membership of a tensor in the nested J-identity subspaces."""

    in_a1: bool
    in_a2: bool
    in_a3: bool
    in_a2perp: bool
    residuals: Mapping[str, float]


_OUT_LETTER = {"x": "i", "y": "j", "z": "k", "w": "l"}
_FRESH = "pqrs"


def arranged(entries: np.ndarray, jmat: np.ndarray, args: tuple[str, str, str, str]) -> np.ndarray:
    """Tensor of values A(a1, a2, a3, a4) for a slot pattern such as ("x", "Jz", "w", "Jy").

    Output axes (i, j, k, l) always correspond to (x, y, z, w).  A leading
    batch axis on ``entries`` is passed through.
    """
    batch = "t" if entries.ndim == 5 else ""
    in_letters = []
    operands: list[np.ndarray] = [entries]
    j_subs = []
    for slot, arg in enumerate(args):
        out = _OUT_LETTER[arg[-1]]
        if arg.startswith("J"):
            in_letters.append(_FRESH[slot])
            j_subs.append(_FRESH[slot] + out)
        else:
            in_letters.append(out)
    subscripts = batch + "".join(in_letters)
    for sub in j_subs:
        subscripts += "," + sub
        operands.append(jmat)
    subscripts += "->" + batch + "ijkl"
    return np.einsum(subscripts, *operands, optimize=True)


def _a1_defect(a, j):
    return a - arranged(a, j, ("Jx", "Jy", "z", "w"))


def _a2_defect(a, j):
    return a - (
        arranged(a, j, ("Jx", "Jy", "z", "w"))
        + arranged(a, j, ("Jx", "y", "Jz", "w"))
        + arranged(a, j, ("Jx", "y", "z", "Jw"))
    )


def _a3_defect(a, j):
    return a - arranged(a, j, ("Jx", "Jy", "Jz", "Jw"))


def _a2perp_defect(a, j):
    return a + arranged(a, j, ("Jx", "Jy", "z", "w"))


def _gray_defect(a, j):
    rhs = (
        arranged(a, j, ("Jx", "Jy", "z", "w"))
        + arranged(a, j, ("x", "y", "Jz", "Jw"))
        + arranged(a, j, ("Jx", "y", "Jz", "w"))
        + arranged(a, j, ("x", "Jy", "z", "Jw"))
        + arranged(a, j, ("Jx", "y", "z", "Jw"))
        + arranged(a, j, ("x", "Jy", "Jz", "w"))
    )
    return a + arranged(a, j, ("Jx", "Jy", "Jz", "Jw")) - rhs


def _hop_defects(a, j):
    # J may hop between the first three slots: A(Jx,y,z,.) = A(x,Jy,z,.) = A(x,y,Jz,.)
    d1 = arranged(a, j, ("Jx", "y", "z", "w")) - arranged(a, j, ("x", "Jy", "z", "w"))
    d2 = arranged(a, j, ("x", "Jy", "z", "w")) - arranged(a, j, ("x", "y", "Jz", "w"))
    return d1, d2


def _sato2_defect(a, j):
    return (
        3.0 * a
        + 3.0 * arranged(a, j, ("x", "y", "Jz", "Jw"))
        - arranged(a, j, ("x", "z", "Jw", "Jy"))
        + arranged(a, j, ("x", "w", "Jz", "Jy"))
        + arranged(a, j, ("x", "Jz", "w", "Jy"))
        - arranged(a, j, ("x", "Jw", "z", "Jy"))
    )


def _sato1_defect(a, structure: ComplexStructure, c: float):
    j = structure.matrix
    canonical = build_A0(structure.dim).entries + build_APhi(structure).entries
    bracket = (
        5.0 * a
        - 3.0 * arranged(a, j, ("x", "y", "Jz", "Jw"))
        + arranged(a, j, ("x", "z", "Jw", "Jy"))
        - arranged(a, j, ("x", "w", "Jz", "Jy"))
        - arranged(a, j, ("x", "Jz", "w", "Jy"))
        + arranged(a, j, ("x", "Jw", "z", "Jy"))
    )
    return a - (c / 4.0) * canonical - bracket / 8.0


def _scale(entries: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(entries)))


def _worst_entry(defect: np.ndarray) -> tuple[float, tuple[int, ...]]:
    flat = int(np.argmax(np.abs(defect)))
    idx = np.unravel_index(flat, defect.shape)
    return float(np.max(np.abs(defect))), tuple(int(v) for v in idx)


def _tensor_report(name, defect, scale, tol, extra=None) -> IdentityReport:
    worst, quadruple = _worst_entry(defect)
    worst /= scale
    return IdentityReport(
        name=name,
        holds=bool(worst <= tol),
        worst_residual=worst,
        witness=("quadruple",) + quadruple,
        tolerance=tol,
        details=extra,
    )


def _worst_over_lines(lines, evaluate: Callable, scale: float) -> tuple[float, tuple]:
    worst = 0.0
    witness: tuple = ("line", 0, ())
    for index, line in enumerate(lines):
        r = float(np.max(np.abs(evaluate(line)))) / scale
        if r >= worst:
            worst = r
            witness = ("line", index, tuple(line.representative.tolist()))
    return worst, witness


def check_compatibility(model: ComplexModel, which="all", tol: float = DEFAULT_TOL) -> IdentityReport:
    """The three equivalent compatibility conditions of a complex model.

    (1) A(Jx,Jy,Jz,Jw) = A(x,y,z,w) on all basis quadruples;
    (2) the complex Jacobi operator commutes with J on every spanning line;
    (3) the complex curvature operator commutes with J on every spanning line.
    With ``which="all"`` the three booleans must agree, the equivalence being a
    theorem; disagreement raises, as it can only be an implementation bug.
    """
    a = model.tensor.entries
    jmat = model.structure.matrix
    scale = _scale(a)
    lines = spanning_lines(model.structure)
    requested = (1, 2, 3) if which == "all" else (int(which),)
    results: dict[str, dict] = {}
    for cond in requested:
        if cond == 1:
            worst, quadruple = _worst_entry(_a3_defect(a, jmat))
            worst /= scale
            witness: tuple = ("quadruple",) + quadruple
        elif cond == 2:
            worst, witness = _worst_over_lines(
                lines,
                lambda ln: (lambda op: op @ jmat - jmat @ op)(
                    complex_jacobi(model.tensor, model.structure, ln).matrix
                ),
                scale,
            )
        elif cond == 3:
            worst, witness = _worst_over_lines(
                lines,
                lambda ln: (lambda op: op @ jmat - jmat @ op)(
                    complex_curvature_operator(model.tensor, model.structure, ln).matrix
                ),
                scale,
            )
        else:
            raise ValueError(f"unknown compatibility condition {which!r}")
        results[f"condition_{cond}"] = {
            "holds": bool(worst <= tol),
            "residual": worst,
            "witness": witness,
        }
    booleans = [r["holds"] for r in results.values()]
    if which == "all" and len(set(booleans)) > 1:
        raise EquivalenceViolationError(
            f"compatibility conditions disagree: "
            + ", ".join(f"{k}={r['holds']}" for k, r in results.items())
        )
    worst_key = max(results, key=lambda k: results[k]["residual"])
    return IdentityReport(
        name="compatibility",
        holds=all(booleans),
        worst_residual=results[worst_key]["residual"],
        witness=results[worst_key]["witness"],
        tolerance=tol,
        details=results,
    )


def is_compatible(model: ComplexModel, tol: float = DEFAULT_TOL) -> bool:
    return check_compatibility(model, "all", tol).holds


def _q_batch(a, jmat, vectors):
    vj = vectors @ jmat.T
    return np.einsum("ijkl,ni,nj,nk,nl->n", a, vectors, vj, vj, vectors, optimize=True)


def _lambda_batch(a, jmat, xs, ys):
    xj = xs @ jmat.T
    yj = ys @ jmat.T
    t1 = np.einsum("ijkl,ni,nj,nk,nl->n", a, xs, ys, ys, xs, optimize=True)
    t2 = np.einsum("ijkl,ni,nj,nk,nl->n", a, xs, ys, yj, xj, optimize=True)
    return t1 - t2


def check_vanhecke(
    model: ComplexModel, trials: int = 32, seed: int = 0, tol: float = DEFAULT_TOL
) -> IdentityReport:
    """Polarization identity expressing 32 A(x,y,y,x) through Q and lambda values.

    Only claimed for compatible models, so incompatibility raises before any
    evaluation.  Q is evaluated through its quartic extension A(v,Jv,Jv,v) at
    the non-unit arguments x + Jy, x - Jy, x + y, x - y.  Evaluated on all
    basis pairs plus ``trials`` seeded random unit pairs.
    """
    gate = check_compatibility(model, "all", tol)
    if not gate.holds:
        raise NotCompatibleError(
            f"model is not compatible (residual {gate.worst_residual:.3e}); "
            "the identity is only claimed for compatible models"
        )
    m = model.dim
    a = model.tensor.entries
    jmat = model.structure.matrix
    eye = np.eye(m)
    xs = [eye[i] for i in range(m) for _ in range(m)]
    ys = [eye[j] for _ in range(m) for j in range(m)]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        xs.append(random_unit_vector(m, rng))
        ys.append(random_unit_vector(m, rng))
    x_arr = np.array(xs)
    y_arr = np.array(ys)
    jy = y_arr @ jmat.T
    lhs = 32.0 * np.einsum("ijkl,ni,nj,nk,nl->n", a, x_arr, y_arr, y_arr, x_arr, optimize=True)
    rhs = (
        3.0 * _q_batch(a, jmat, x_arr + jy)
        + 3.0 * _q_batch(a, jmat, x_arr - jy)
        - _q_batch(a, jmat, x_arr + y_arr)
        - _q_batch(a, jmat, x_arr - y_arr)
        - 4.0 * _q_batch(a, jmat, x_arr)
        - 4.0 * _q_batch(a, jmat, y_arr)
        + 4.0 * (5.0 * _lambda_batch(a, jmat, x_arr, y_arr) + _lambda_batch(a, jmat, x_arr, jy))
    )
    residuals = np.abs(lhs - rhs) / _scale(a)
    worst_at = int(np.argmax(residuals))
    worst = float(residuals[worst_at])
    witness = ("pair", tuple(x_arr[worst_at].tolist()), tuple(y_arr[worst_at].tolist()))
    return IdentityReport(
        name="vanhecke",
        holds=bool(worst <= tol),
        worst_residual=worst,
        witness=witness,
        tolerance=tol,
        details={"pairs": len(xs)},
    )


def check_sato(
    model: ComplexModel, variant: int, c: float | None = None, tol: float = DEFAULT_TOL
) -> IdentityReport:
    """Constant holomorphic sectional curvature identities.

    Variant 1 rewrites A through (c/4) of the canonical constant-Q tensor plus
    a J-twisted bracket of A itself; it requires Q constant across the spanning
    lines and uses the measured value when ``c`` is not supplied.  Variant 2 is
    the constant-zero-Q identity and requires Q identically zero on the lines.
    """
    gate = check_compatibility(model, "all", tol)
    if not gate.holds:
        raise NotCompatibleError(
            f"model is not compatible (residual {gate.worst_residual:.3e})"
        )
    a = model.tensor.entries
    scale = _scale(a)
    q_values = np.array(
        [q_quartic(model.tensor, model.structure, ln.representative) for ln in spanning_lines(model.structure)]
    )
    if variant == 1:
        spread = float(q_values.max() - q_values.min())
        if spread > tol * scale:
            raise QNotConstantError(
                f"Q varies by {spread:.3e} across the spanning lines; variant 1 needs constant Q"
            )
        c_used = float(np.mean(q_values)) if c is None else float(c)
        defect = _sato1_defect(a, model.structure, c_used)
        return _tensor_report("sato1", defect, scale, tol, extra={"c": c_used})
    if variant == 2:
        worst_q = float(np.max(np.abs(q_values)))
        if worst_q > tol * scale:
            raise QNotZeroError(
                f"max |Q| = {worst_q:.3e} on the spanning lines; variant 2 needs Q identically zero"
            )
        defect = _sato2_defect(a, model.structure.matrix)
        return _tensor_report("sato2", defect, scale, tol)
    raise ValueError(f"unknown variant {variant!r}, expected 1 or 2")


def lemma23_battery(model: ComplexModel, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Four equivalent vanishing conditions for the complex Jacobi operator.

    (a) the complex Jacobi operator vanishes on every spanning line;
    (b) A(x,y,z,w) = -A(Jx,Jy,z,w) on all basis quadruples;
    (c) the complex curvature operator vanishes on every spanning line;
    (d) J hops freely between the first three operator slots.
    The four booleans must agree; when they all hold, the model must in
    addition be compatible with vanishing Ricci and star-Ricci contractions.
    Any failure of those implications raises, since it can only signal an
    implementation bug.
    """
    a = model.tensor.entries
    jmat = model.structure.matrix
    scale = _scale(a)
    lines = spanning_lines(model.structure)
    conditions: dict[str, dict] = {}

    worst, witness = _worst_over_lines(
        lines, lambda ln: complex_jacobi(model.tensor, model.structure, ln).matrix, scale
    )
    conditions["a_complex_jacobi_zero"] = {"holds": bool(worst <= tol), "residual": worst, "witness": witness}

    worst, quadruple = _worst_entry(_a2perp_defect(a, jmat))
    worst /= scale
    conditions["b_pairwise_J_flip"] = {
        "holds": bool(worst <= tol),
        "residual": worst,
        "witness": ("quadruple",) + quadruple,
    }

    worst, witness = _worst_over_lines(
        lines, lambda ln: complex_curvature_operator(model.tensor, model.structure, ln).matrix, scale
    )
    conditions["c_complex_curvature_zero"] = {"holds": bool(worst <= tol), "residual": worst, "witness": witness}

    d1, d2 = _hop_defects(a, jmat)
    worst1, q1 = _worst_entry(d1)
    worst2, q2 = _worst_entry(d2)
    worst = max(worst1, worst2) / scale
    conditions["d_slot_hopping"] = {
        "holds": bool(worst <= tol),
        "residual": worst,
        "witness": ("quadruple",) + (q1 if worst1 >= worst2 else q2),
    }

    booleans = [cond["holds"] for cond in conditions.values()]
    if len(set(booleans)) > 1:
        raise EquivalenceViolationError(
            "battery conditions disagree: "
            + ", ".join(f"{k}={cond['holds']}" for k, cond in conditions.items())
        )
    all_hold = all(booleans)
    extras: dict = {}
    if all_hold:
        rho = float(np.max(np.abs(ricci(model.tensor).matrix))) / scale
        rho_star = float(np.max(np.abs(star_ricci(model.tensor, model.structure).matrix))) / scale
        compatible = check_compatibility(model, "all", tol).holds
        extras = {"ricci_residual": rho, "star_ricci_residual": rho_star, "compatible": compatible}
        if rho > tol or rho_star > tol or not compatible:
            raise EquivalenceViolationError(
                f"vanishing complex Jacobi operator must force Ricci flatness, star-Ricci "
                f"flatness and compatibility; got residuals {rho:.3e}, {rho_star:.3e}, "
                f"compatible={compatible}"
            )
    worst_key = max(conditions, key=lambda k: conditions[k]["residual"])
    return IdentityReport(
        name="lemma23",
        holds=all_hold,
        worst_residual=conditions[worst_key]["residual"],
        witness=conditions[worst_key]["witness"],
        tolerance=tol,
        details={**conditions, **extras},
    )


def gray_classify(model: ComplexModel, tol: float = DEFAULT_TOL) -> GrayClassification:
    """Membership residuals for the three nested subspaces and the flip subspace."""
    a = model.tensor.entries
    jmat = model.structure.matrix
    scale = _scale(a)
    residuals = {
        "a1": _worst_entry(_a1_defect(a, jmat))[0] / scale,
        "a2": _worst_entry(_a2_defect(a, jmat))[0] / scale,
        "a3": _worst_entry(_a3_defect(a, jmat))[0] / scale,
        "a2perp": _worst_entry(_a2perp_defect(a, jmat))[0] / scale,
    }
    return GrayClassification(
        in_a1=bool(residuals["a1"] <= tol),
        in_a2=bool(residuals["a2"] <= tol),
        in_a3=bool(residuals["a3"] <= tol),
        in_a2perp=bool(residuals["a2perp"] <= tol),
        residuals=residuals,
    )


def p2_map(model: ComplexModel, tol: float = DEFAULT_TOL) -> AlgebraicCurvatureTensor:
    """Averaging map (A + A(Jx,Jy,z,w) + A(Jx,y,Jz,w) + A(Jx,y,z,Jw)) / 2.

    Defined on compatible tensors, where it is an involutive isometry whose
    fixed space is the middle nested subspace and whose (-1)-eigenspace is the
    flip subspace; outside the compatible space those properties fail, so the
    caller must stay inside it.
    """
    a = model.tensor.entries
    jmat = model.structure.matrix
    residual = _worst_entry(_a3_defect(a, jmat))[0] / _scale(a)
    if residual > tol:
        raise NotInA3Error(
            f"tensor is not compatible (residual {residual:.3e}); the map is only defined there"
        )
    image = 0.5 * (
        a
        + arranged(a, jmat, ("Jx", "Jy", "z", "w"))
        + arranged(a, jmat, ("Jx", "y", "Jz", "w"))
        + arranged(a, jmat, ("Jx", "y", "z", "Jw"))
    )
    return AlgebraicCurvatureTensor(_freeze(image))


def check_gray_yano(
    tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, tol: float = DEFAULT_TOL
) -> IdentityReport:
    """Eight-term identity satisfied by the curvature of the integrable and
    nearly-parallel classes; linear in A, so checking all basis quadruples is
    exhaustive."""
    defect = _gray_defect(tensor.entries, structure.matrix)
    return _tensor_report("gray-yano", defect, _scale(tensor.entries), tol)


CONSTRAINT_TAGS = ("a1", "a2", "a3", "a2perp", "gray-yano", "compatibility")

_CONSTRAINT_DEFECTS: dict[str, Callable] = {
    "a1": lambda a, j: (_a1_defect(a, j),),
    "a2": lambda a, j: (_a2_defect(a, j),),
    "a3": lambda a, j: (_a3_defect(a, j),),
    "compatibility": lambda a, j: (_a3_defect(a, j),),
    "a2perp": lambda a, j: (_a2perp_defect(a, j),),
    "gray-yano": lambda a, j: (_gray_defect(a, j),),
}

_subspace_cache: dict = {}


def subspace_coordinate_basis(
    constraints, m: int, structure: ComplexStructure
) -> np.ndarray:
    """Orthonormal rows spanning, in curvature-basis coordinates, the subspace
    cut out by the listed linear constraint tags.  Cached per (m, J, tags)."""
    tags = tuple(sorted(set(constraints)))
    for tag in tags:
        if tag not in _CONSTRAINT_DEFECTS:
            raise UnknownConstraintTagError(
                f"unknown constraint tag {tag!r}; known tags: {', '.join(CONSTRAINT_TAGS)}"
            )
    key = (m, structure.matrix.tobytes(), tags)
    if key in _subspace_cache:
        return _subspace_cache[key]
    basis = curvature_space_basis(m)
    if not tags:
        result = _freeze(np.eye(basis.count))
        _subspace_cache[key] = result
        return result
    stacked = basis.tensors  # (count, m, m, m, m); defects broadcast over the batch axis
    blocks = []
    for tag in tags:
        for defect in _CONSTRAINT_DEFECTS[tag](stacked, structure.matrix):
            blocks.append(defect.reshape(basis.count, -1))
    design = np.concatenate(blocks, axis=1).T  # rows: constraint entries, cols: coordinates
    # design has more rows (m^4 per tag) than columns, so the thin vh is square
    # and already holds the whole right singular basis
    _, svals, vh = np.linalg.svd(design, full_matrices=False)
    rank = int(np.sum(svals > RANK_TOL * svals[0])) if svals.size and svals[0] > 0 else 0
    result = _freeze(vh[rank:])
    _subspace_cache[key] = result
    return result


def subspace_dimension(constraints, m: int, structure: ComplexStructure) -> int:
    """Dimension of the curvature-tensor subspace satisfying all listed constraints."""
    return int(subspace_coordinate_basis(constraints, m, structure).shape[0])


def subspace_tensor_basis(constraints, m: int, structure: ComplexStructure) -> np.ndarray:
    """Flattened orthonormal tensors (rows) spanning the constrained subspace."""
    coords = subspace_coordinate_basis(constraints, m, structure)
    return coords @ curvature_space_basis(m).matrix


def project_to_constraints(
    tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, constraints
) -> AlgebraicCurvatureTensor:
    """Orthogonal projection of a curvature tensor onto a constrained subspace."""
    basis = curvature_space_basis(tensor.dim)
    coords = basis.coordinates(tensor)
    sub = subspace_coordinate_basis(constraints, tensor.dim, structure)
    return basis.from_coordinates(sub.T @ (sub @ coords))
