"""Predicates and verifiers for the curvature identities of compatible complex models.

Each check evaluates a linear-in-A identity on a certifying set (all basis
quadruples for tensor identities, the lines through the polarization probes
for operator identities, which are quadratic in the line) and reports the
worst normalized residual together with a witness that reproduces it.  The
quartic Q(x) = A(x,Jx,Jx,x) behind the sato preconditions is decided exactly
on R^m, from its symmetrized tensor.  Residuals are normalized by
1 + max|A|, so pass/fail is scale free; the default tolerance is 1e-10.

The checks of one ``curvlab check`` run share what they compute on the
model's read-only tensor: its J-slot images, its scale 1 + max|A| and the
worst entry of each row of ``_ROWS`` are kept with the last tensor only,
the spanning-line stacks and their per-line maxima per model, and the
symmetry residuals come from the strict loader (``tensors``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    EquivalenceViolationError,
    NotCompatibleError,
    PreconditionError,
    QNotConstantError,
    QNotZeroError,
    UnknownConstraintTagError,
)
from .operators import complex_curvature_operator, complex_jacobi, ricci, star_ricci
from .spaces import DEFAULT_TOL, ComplexStructure, _freeze, cached_by_j, spanning_lines
from .tensors import (
    AlgebraicCurvatureTensor,
    ComplexModel,
    _slot_image,
    _symmetry_residuals_of,
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

    def to_json(self) -> dict:
        """The verdict as JSON data: name, holds, residual and witness.

        JSON has no NaN, so a non-finite residual (a failed precondition's NaN)
        becomes None; nested witness tuples become lists.
        """
        residual = float(self.worst_residual)
        return {
            "name": self.name,
            "holds": bool(self.holds),
            "residual": residual if math.isfinite(residual) else None,
            "witness": _listed(self.witness),
        }


def _listed(value):
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


# What the checks share on the last read-only tensor they saw: that tensor
# and its J (held, so neither id can be reused by another array); per
# ascending tuple S of slots, the read-only image with J on the slots in S,
# its axes in slot order; per row of ``_ROWS``, the worst entry of its sum;
# and the scale 1 + max|A|.
_images: dict = {"entries": None, "jmat": None, "by_slots": {}, "rows": {}, "scale": None}


def _memo(entries: np.ndarray, jmat: np.ndarray) -> dict | None:
    """``_images`` for this tensor, or None when nothing of it may be kept.

    Only read-only arrays (a tensor's frozen entries, a structure's matrix)
    cannot change between calls.  A new tensor replaces everything kept for
    the previous one, so at most one tensor's products are alive.
    """
    if entries.flags.writeable or jmat.flags.writeable:
        return None
    if _images["entries"] is not entries or _images["jmat"] is not jmat:
        _images.update(entries=entries, jmat=jmat, by_slots={}, rows={}, scale=None)
    return _images


def _slot_memo(entries: np.ndarray, jmat: np.ndarray) -> dict | None:
    memo = _memo(entries, jmat)
    return None if memo is None else memo["by_slots"]


def _slots(args: tuple[str, str, str, str]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(S, axes) for a slot pattern: the slots carrying J, and per output axis
    (x, y, z, w) the slot holding its letter, so the pattern's values are the
    image on S transposed by ``axes``."""
    with_j = tuple(slot for slot, arg in enumerate(args) if arg.startswith("J"))
    slot_of = {"xyzw".index(arg[-1]): slot for slot, arg in enumerate(args)}
    return with_j, tuple(slot_of[axis] for axis in range(4))


def arranged(entries: np.ndarray, jmat: np.ndarray, args: tuple[str, str, str, str]) -> np.ndarray:
    """Tensor of values A(a1, a2, a3, a4) for a slot pattern such as ("x", "Jz", "w", "Jy").

    Output axes (i, j, k, l) always correspond to (x, y, z, w).

    Every pattern is a transpose of one J-slot image: ``A`` with ``J`` applied
    on the set S of slots whose argument starts with "J".  For a read-only
    tensor each image is built once, from the image on S minus its last slot,
    and kept until another tensor comes along; the result is then a read-only
    view.
    """
    with_j, axes = _slots(args)
    return _slot_image(entries, jmat, with_j, _slot_memo(entries, jmat)).transpose(axes)


_A = ("x", "y", "z", "w")  # the pattern of A itself

# Each quadruple identity as one row of (coefficient, slot pattern) terms: the
# signed sum of arranged(A, J, pattern) over the row vanishes exactly on the
# tensors that satisfy it.  a1 < a2 < a3 are Gray's classes, a2perp the flip
# subspace, the hop rows the two slot-hopping identities of Lemma 2.3 (d).
_ROWS: dict[str, tuple[tuple[float, tuple[str, str, str, str]], ...]] = {
    "a1": ((1.0, _A), (-1.0, ("Jx", "Jy", "z", "w"))),
    "a2": (
        (1.0, _A),
        (-1.0, ("Jx", "Jy", "z", "w")),
        (-1.0, ("Jx", "y", "Jz", "w")),
        (-1.0, ("Jx", "y", "z", "Jw")),
    ),
    "a3": ((1.0, _A), (-1.0, ("Jx", "Jy", "Jz", "Jw"))),
    "a2perp": ((1.0, _A), (1.0, ("Jx", "Jy", "z", "w"))),
    "gray-yano": (
        (1.0, _A),
        (1.0, ("Jx", "Jy", "Jz", "Jw")),
        (-1.0, ("Jx", "Jy", "z", "w")),
        (-1.0, ("x", "y", "Jz", "Jw")),
        (-1.0, ("Jx", "y", "Jz", "w")),
        (-1.0, ("x", "Jy", "z", "Jw")),
        (-1.0, ("Jx", "y", "z", "Jw")),
        (-1.0, ("x", "Jy", "Jz", "w")),
    ),
    "hop-xy": ((1.0, ("Jx", "y", "z", "w")), (-1.0, ("x", "Jy", "z", "w"))),
    "hop-yz": ((1.0, ("x", "Jy", "z", "w")), (-1.0, ("x", "y", "Jz", "w"))),
    "sato2": (
        (3.0, _A),
        (3.0, ("x", "y", "Jz", "Jw")),
        (-1.0, ("x", "z", "Jw", "Jy")),
        (1.0, ("x", "w", "Jz", "Jy")),
        (1.0, ("x", "Jz", "w", "Jy")),
        (-1.0, ("x", "Jw", "z", "Jy")),
    ),
    # Vanhecke's polarization identity D(x, y) = 32 A(x,y,y,x) - [3Q(x+Jy) +
    # 3Q(x-Jy) - Q(x+y) - Q(x-y) - 4Q(x) - 4Q(y) + 4(5 lambda(x,y) +
    # lambda(x,Jy))], expanded over {x, Jx, y, Jy} with the second x-slot
    # renamed z and the second y-slot w; the pair 6A(y,Jy,Jy,y) - 6A(Jy,y,y,Jy)
    # cancels by pair symmetry and is left out.  The coefficients are a
    # quarter of the expansion's (exact, as 4 is a power of two), so the check
    # sums its four transposes without a division.  Unlike the rows above,
    # this sum T does not vanish on compatible tensors (max|T| = 8 on
    # Fubini-Study at m = 4): only its diagonal D(x, y) / 4 = T(x, y, x, y),
    # equivalently its symmetrization under x <-> z, y <-> w, does.  So it is
    # no constraint tag.
    "vanhecke": (
        (1.5, ("x", "Jz", "y", "Jw")),
        (0.5, ("x", "Jz", "Jy", "w")),
        (1.5, ("x", "y", "Jz", "Jw")),
        (1.5, ("x", "y", "w", "z")),
        (5.0, ("x", "y", "Jw", "Jz")),
        (0.5, ("x", "Jy", "Jz", "w")),
        (-1.0, ("x", "Jy", "w", "Jz")),
        (-0.5, ("x", "Jy", "Jw", "z")),
        (0.5, ("y", "Jx", "Jz", "w")),
        (0.5, ("y", "Jx", "Jw", "z")),
        (0.5, ("y", "Jw", "Jx", "z")),
        (-1.5, ("Jy", "Jx", "Jz", "Jw")),
        (1.5, ("Jy", "Jx", "w", "z")),
        (1.5, ("Jy", "w", "Jx", "z")),
    ),
}


_SLOT_ORDER = (0, 1, 2, 3)  # the axes of an untransposed image


@functools.lru_cache(maxsize=None)
def _plan(name: str) -> tuple[tuple[tuple[int, ...], tuple[tuple[float, tuple[int, ...]], ...]], ...]:
    """Row ``name`` of ``_ROWS`` as (axes, terms) groups: the terms whose
    pattern is the image on their J slots transposed by the same ``axes``, as
    (coefficient, J slots) pairs.  The untransposed group comes first."""
    groups: dict = {}
    for coef, pattern in _ROWS[name]:
        with_j, axes = _slots(pattern)
        groups.setdefault(axes, []).append((coef, with_j))
    order = sorted(groups, key=lambda axes: axes != _SLOT_ORDER)
    return tuple((axes, tuple(groups[axes])) for axes in order)


def _defect(name: str, a: np.ndarray, jmat: np.ndarray) -> np.ndarray:
    """The signed sum of row ``name`` of ``_ROWS`` on a tensor.

    Each group of ``_plan(name)`` is summed on the contiguous J-slot images,
    then added to the total in one transposed step.
    """
    memo = _slot_memo(a, jmat)
    total = None
    for axes, terms in _plan(name):
        group = None
        for coef, with_j in terms:
            image = _slot_image(a, jmat, with_j, memo)
            if group is None:
                group = coef * image
            elif coef == 1.0:
                group += image
            elif coef == -1.0:
                group -= image
            else:
                group += coef * image
        if total is None:
            total = np.ascontiguousarray(group.transpose(axes))
        else:
            total += group.transpose(axes)
    return total


def _sato1_defect(a, structure: ComplexStructure, c: float):
    # A - (c/4)(A0 + A_J) - bracket/8, where the variant-1 bracket is 8A minus the sato2 sum
    canonical = build_A0(structure.dim).entries + build_APhi(structure).entries
    return _defect("sato2", a, structure.matrix) / 8.0 - (c / 4.0) * canonical


def _scale(entries: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(entries)))


def _tensor_scale(a: np.ndarray, jmat: np.ndarray) -> float:
    """``_scale(a)``, kept with the tensor's images."""
    memo = _memo(a, jmat)
    if memo is None:
        return _scale(a)
    if memo["scale"] is None:
        memo["scale"] = _scale(a)
    return memo["scale"]


def _worst_entry(defect: np.ndarray) -> tuple[float, tuple[int, ...]]:
    magnitudes = np.abs(defect)
    flat = int(np.argmax(magnitudes))
    idx = np.unravel_index(flat, defect.shape)
    return float(magnitudes.flat[flat]), tuple(int(v) for v in idx)


def _row_worst(name: str, a: np.ndarray, jmat: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The worst entry of row ``name``'s sum, kept with the tensor's images,
    so each row is summed once whichever checks read it."""
    memo = _memo(a, jmat)
    if memo is None:
        return _worst_entry(_defect(name, a, jmat))
    rows = memo["rows"]
    if name not in rows:
        rows[name] = _worst_entry(_defect(name, a, jmat))
    return rows[name]


def _report(name: str, worst: float, witness: tuple, tol: float, details=None) -> IdentityReport:
    """The verdict of a check or of one battery condition: it holds when worst <= tol."""
    return IdentityReport(name, bool(worst <= tol), worst, witness, tol, details)


def _line_maxima(stack: np.ndarray) -> np.ndarray:
    """max|entry| of each operator of an (L, m, m) stack."""
    return np.max(np.abs(stack), axis=(1, 2))


def _line_report(name: str, lines, maxima: np.ndarray, scale: float, tol: float) -> IdentityReport:
    """Worst normalized per-line maximum; ties go to the last line."""
    residuals = maxima / scale
    index = len(lines) - 1 - int(np.argmax(residuals[::-1]))
    witness = ("line", index, tuple(lines[index].representative.tolist()))
    return _report(name, float(residuals[index]), witness, tol)


def _quadruple_report(
    name: str, worst_entry: tuple[float, tuple[int, ...]], scale: float, tol: float, details=None
) -> IdentityReport:
    """A defect tensor's worst entry, normalized and witnessed by its quadruple."""
    worst, quadruple = worst_entry
    return _report(name, worst / scale, ("quadruple",) + quadruple, tol, details)


def _battery(name: str, conditions: list[IdentityReport], tol: float) -> IdentityReport:
    """Report on provably equivalent conditions, witnessed by the worst one;
    ``details`` maps each condition's name to its report.

    The conditions must agree; disagreement raises, as it can only be an
    implementation bug.
    """
    if len({cond.holds for cond in conditions}) > 1:
        raise EquivalenceViolationError(
            f"{name} conditions disagree: " + ", ".join(f"{cond.name}={cond.holds}" for cond in conditions)
        )
    worst = max(conditions, key=lambda cond: cond.worst_residual)
    return _report(name, worst.worst_residual, worst.witness, tol, {cond.name: cond for cond in conditions})


@functools.lru_cache(maxsize=8)
def _line_stacks(model: ComplexModel) -> tuple:
    """(lines, complex Jacobi stack, complex curvature stack, and the per-line
    maxima of the two stacks) on the spanning lines of the model, read-only
    and built once per model, so compatibility and lemma23 share them;
    bounded as ``_compatibility_gate`` is."""
    lines = spanning_lines(model.structure)
    stacks = (
        complex_jacobi(model.tensor, model.structure, lines),
        complex_curvature_operator(model.tensor, model.structure, lines),
    )
    kept = (*stacks, *(_line_maxima(ops) for ops in stacks))
    for arr in kept:
        arr.setflags(write=False)
    return (lines, *kept)


def check_symmetries(model: ComplexModel, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Antisymmetry, pair swap and the first Bianchi identity on all basis quadruples.

    The witness names the worst family and the quadruple where it is worst.
    A tensor the strict loader validated brings its residuals along.
    """
    residuals = _symmetry_residuals_of(model.tensor)
    family = max(residuals, key=lambda k: residuals[k][0])
    worst, quadruple = residuals[family]
    scale = _tensor_scale(model.tensor.entries, model.structure.matrix)
    return _report("symmetries", worst / scale, (family,) + quadruple, tol)


def check_compatibility(model: ComplexModel, tol: float = DEFAULT_TOL) -> IdentityReport:
    """The three equivalent compatibility conditions of a complex model.

    (1) A(Jx,Jy,Jz,Jw) = A(x,y,z,w) on all basis quadruples;
    (2) the complex Jacobi operator commutes with J on every spanning line;
    (3) the complex curvature operator commutes with J on every spanning line.
    The three booleans must agree, the equivalence being a theorem;
    disagreement raises, as it can only be an implementation bug.  ``details``
    maps ``condition_1`` to ``condition_3`` to their reports.
    """
    a = model.tensor.entries
    jmat = model.structure.matrix
    scale = _tensor_scale(a, jmat)
    lines, jacobi_ops, curvature_ops, _, _ = _line_stacks(model)
    results = [_quadruple_report("condition_1", _row_worst("a3", a, jmat), scale, tol)]
    for cond, ops in ((2, jacobi_ops), (3, curvature_ops)):
        commutator_maxima = _line_maxima(ops @ jmat - jmat @ ops)
        results.append(_line_report(f"condition_{cond}", lines, commutator_maxima, scale, tol))
    return _battery("compatibility", results, tol)


@functools.lru_cache(maxsize=8)
def _compatibility_gate(model: ComplexModel, tol: float) -> IdentityReport:
    """check_compatibility(model, tol), run once per (model, tol).

    Models hash by identity, so the checks run on one loaded model share one
    gate; the bound keeps a long run over many models from holding them all.
    """
    return check_compatibility(model, tol)


def _require_compatible(model: ComplexModel, tol: float) -> None:
    gate = _compatibility_gate(model, tol)
    if not gate.holds:
        raise NotCompatibleError(
            f"model is not compatible (residual {gate.worst_residual:.3e}); "
            "the identity is only claimed for compatible models"
        )


def check_vanhecke(model: ComplexModel, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Polarization identity expressing 32 A(x,y,y,x) through Q and lambda values.

    Only claimed for compatible models, so incompatibility raises before any
    evaluation.  The defect at a pair is D(x, y) = T(x, y, x, y) for the sum T
    of the ``vanhecke`` row, so D = S(x, y, x, y) for S, the mean of T over
    x <-> z and y <-> w.  S is the one tensor with those two symmetries that
    gives D, so D vanishes at every pair exactly when S vanishes at every
    basis quadruple; the report is the worst entry of S, witnessed by its
    quadruple.
    """
    _require_compatible(model, tol)
    a, jmat = model.tensor.entries, model.structure.matrix
    # the row carries the mean's 1/4, which keeps the two sums from overflowing
    s = _defect("vanhecke", a, jmat)
    s = s + s.transpose(2, 1, 0, 3)
    s = s + s.transpose(0, 3, 2, 1)
    return _quadruple_report("vanhecke", _worst_entry(s), _tensor_scale(a, jmat), tol)


@functools.lru_cache(maxsize=4)
def _sym_gg(m: int) -> np.ndarray:
    """Sym(g (x) g), the tensor of |x|^4: the mean of d_ij d_kl, d_ik d_jl and d_il d_jk."""
    gg = np.eye(m)[:, :, None, None] * np.eye(m)
    return _freeze((gg + gg.transpose(0, 2, 1, 3) + gg.transpose(0, 2, 3, 1)) / 3.0)


@functools.lru_cache(maxsize=8)
def _q_form(model: ComplexModel) -> tuple[float, float, float]:
    """(c, max|S - c G|, max|S|), the residuals over 1 + max|A|, for Q(x) = A(x,Jx,Jx,x).

    Q(x) = B(x,x,x,x) for B = A(x,Jy,Jz,w), and a quartic form vanishes on R^m
    exactly when S, its tensor averaged over the 24 slot orders, does.  So
    Q = c|x|^4 exactly when S = c G, for G = Sym(g (x) g) and
    c = 3 sum_ik S_iikk / (m^2 + 2m), and Q = 0 exactly when S = 0.  Cached
    per model, so sato1 and sato2 share one run.
    """
    m, a, jmat = model.dim, model.tensor.entries, model.structure.matrix
    # the 24 orders as three coset sums; dividing first keeps them from overflowing
    s = arranged(a, jmat, ("x", "Jy", "Jz", "w")) / 24.0
    s = s + s.transpose(0, 1, 3, 2)
    s = s + s.transpose(0, 2, 1, 3) + s.transpose(0, 3, 2, 1)
    s = s + s.transpose(1, 0, 2, 3) + s.transpose(2, 1, 0, 3) + s.transpose(3, 1, 2, 0)
    c = 3.0 * m / (m + 2) * float(np.sum(np.einsum("iikk->ik", s) / (m * m)))  # a mean, which cannot overflow
    scale = _tensor_scale(a, jmat)
    return c, float(np.max(np.abs(s - c * _sym_gg(m)))) / scale, float(np.max(np.abs(s))) / scale


def check_sato(
    model: ComplexModel, variant: int, c: float | None = None, tol: float = DEFAULT_TOL
) -> IdentityReport:
    """Constant holomorphic sectional curvature identities.

    Variant 1 rewrites A through (c/4) of the canonical constant-Q tensor plus
    a J-twisted bracket of A itself; it requires Q = c|x|^4 on R^m and uses
    the measured c when ``c`` is not supplied.  Variant 2 is the
    constant-zero-Q identity and requires Q identically zero on R^m.  Both
    preconditions are decided exactly (``_q_form``); ``details`` carries the
    measured c and the residual of the precondition, ``q_residual``.
    """
    _require_compatible(model, tol)
    a, jmat = model.tensor.entries, model.structure.matrix
    c_measured, off_constant, off_zero = _q_form(model)
    scale = _tensor_scale(a, jmat)
    if variant == 1:
        if off_constant > tol:
            raise QNotConstantError(f"Q is not constant on R^m (residual {off_constant:.3e}); variant 1 needs it")
        c_used = c_measured if c is None else float(c)
        worst = _worst_entry(_sato1_defect(a, model.structure, c_used))
        return _quadruple_report("sato1", worst, scale, tol, {"c": c_used, "q_residual": off_constant})
    if variant == 2:
        if off_zero > tol:
            raise QNotZeroError(f"Q is not zero on R^m (residual {off_zero:.3e}); variant 2 needs it identically zero")
        worst = _row_worst("sato2", a, jmat)
        return _quadruple_report("sato2", worst, scale, tol, {"c": c_measured, "q_residual": off_zero})
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
    scale = _tensor_scale(a, jmat)
    lines, _, _, jacobi_maxima, curvature_maxima = _line_stacks(model)
    conditions = [
        _line_report("a_complex_jacobi_zero", lines, jacobi_maxima, scale, tol),
        _quadruple_report("b_pairwise_J_flip", _row_worst("a2perp", a, jmat), scale, tol),
        _line_report("c_complex_curvature_zero", lines, curvature_maxima, scale, tol),
    ]
    hops = [_quadruple_report("d_slot_hopping", _row_worst(row, a, jmat), scale, tol) for row in ("hop-xy", "hop-yz")]
    conditions.append(max(hops, key=lambda hop: hop.worst_residual))  # a tie goes to the first
    report = _battery("lemma23", conditions, tol)
    if not report.holds:
        return report
    rho = float(np.max(np.abs(ricci(model.tensor)))) / scale
    rho_star = float(np.max(np.abs(star_ricci(model.tensor, model.structure)))) / scale
    compatible = _compatibility_gate(model, tol).holds
    if rho > tol or rho_star > tol or not compatible:
        raise EquivalenceViolationError(
            f"vanishing complex Jacobi operator must force Ricci flatness, star-Ricci "
            f"flatness and compatibility; got residuals {rho:.3e}, {rho_star:.3e}, "
            f"compatible={compatible}"
        )
    extras = {"ricci_residual": rho, "star_ricci_residual": rho_star, "compatible": compatible}
    return replace(report, details={**report.details, **extras})


def gray_classify(model: ComplexModel, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Membership of the tensor in the nested subspaces a1 < a2 < a3 and the flip subspace a2perp.

    The report holds when the tensor lies in a3 and carries the a3 residual;
    the witness lists a ``(class, member)`` pair per subspace and ``details``
    maps each subspace to its membership residual.
    """
    a = model.tensor.entries
    jmat = model.structure.matrix
    scale = _tensor_scale(a, jmat)
    residuals = {cls: _row_worst(cls, a, jmat)[0] / scale for cls in ("a1", "a2", "a3", "a2perp")}
    membership = tuple((cls, bool(r <= tol)) for cls, r in residuals.items())
    return _report("gray-classify", residuals["a3"], membership, tol, residuals)


def check_gray_yano(
    tensor: AlgebraicCurvatureTensor, structure: ComplexStructure, tol: float = DEFAULT_TOL
) -> IdentityReport:
    """Eight-term identity satisfied by the curvature of the integrable and
    nearly-parallel classes; linear in A, so checking all basis quadruples is
    exhaustive."""
    a, jmat = tensor.entries, structure.matrix
    return _quadruple_report("gray-yano", _row_worst("gray-yano", a, jmat), _tensor_scale(a, jmat), tol)


# The check catalogue behind ``curvlab check``: name -> (model, tol) -> report.
# Each entry looks its check up by module-level name at call time, so
# rebinding a check function in this module also reroutes it.  The
# compatibility entry is the cached gate, so the checks that require a
# compatible model reuse its run instead of repeating it.
CHECKS: dict[str, Callable[[ComplexModel, float], IdentityReport]] = {
    "symmetries": lambda model, tol: check_symmetries(model, tol),
    "compatibility": lambda model, tol: _compatibility_gate(model, tol),
    "vanhecke": lambda model, tol: check_vanhecke(model, tol),
    "sato1": lambda model, tol: check_sato(model, 1, tol=tol),
    "sato2": lambda model, tol: check_sato(model, 2, tol=tol),
    "lemma23": lambda model, tol: lemma23_battery(model, tol),
    "gray-classify": lambda model, tol: gray_classify(model, tol),
    "gray-yano": lambda model, tol: check_gray_yano(model.tensor, model.structure, tol),
}


def run_check(name: str, model: ComplexModel, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Run the registered check ``name``.

    A model outside the identity's claim (not compatible, or Q not constant or
    not zero where required) gives a failed report with a NaN residual and the
    witness ``("precondition", message)``.
    """
    try:
        return CHECKS[name](model, tol)
    except PreconditionError as exc:
        return _report(name, float("nan"), ("precondition", str(exc)), tol)


# The curvature tensors split into the four eigenspaces of
# K' = P_curv (I + J12) / 2, with (J12 A)(x,y,z,w) = A(Jx,Jy,z,w): K' is 1 on
# a1, 1/3 on a2 minus a1, 0 on a2perp and 1/2 where A(Jx,Jy,Jz,Jw) = -A, the
# U(n) decomposition of Tricerri and Vanhecke.  Each constraint tag cuts out
# the sum of the eigenspaces it lists.
_K_EIGENVALUES = np.array([0.0, 1.0 / 3.0, 0.5, 1.0])
_CONSTRAINT_EIGENVALUES = {
    "a1": (1.0,),
    "a2": (1.0 / 3.0, 1.0),
    "a3": (0.0, 1.0 / 3.0, 1.0),
    "a2perp": (0.0,),
    "gray-yano": (1.0 / 3.0, 0.5, 1.0),
    "compatibility": (0.0, 1.0 / 3.0, 1.0),
}
CONSTRAINT_TAGS = tuple(_CONSTRAINT_EIGENVALUES)

_spectrum_cache: dict = {}  # (m, J bytes) -> eigenvalues and eigenvectors of K'


def _k_prime_spectrum(m: int, structure: ComplexStructure) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of K' in curvature-basis coordinates, each rounded to
    the nearest of 0, 1/3, 1/2 and 1, and its orthonormal eigenvectors as columns.

    An eigenvalue 1/12 or more from all four (halfway between 1/3 and 1/2)
    raises, as the spectrum is a theorem for every unitary J.
    """
    basis = curvature_space_basis(m)
    k = np.eye(basis.count)  # column ``row`` still holds its unit coordinate when it is read
    for row in range(basis.count):
        a = basis.from_coordinates(k[:, row]).entries
        k[:, row] = basis.coordinates(a + _slot_image(a, structure.matrix, (0, 1), None)) / 2.0
    values, vectors = np.linalg.eigh(k)
    nearest = np.argmin(np.abs(values[:, None] - _K_EIGENVALUES), axis=1)
    off = np.abs(values - _K_EIGENVALUES[nearest])
    if off.max() >= 1.0 / 12.0:
        raise EquivalenceViolationError(
            f"K' has eigenvalue {values[np.argmax(off)]:.6g}, away from 0, 1/3, 1/2 and 1"
        )
    return _K_EIGENVALUES[nearest], vectors


def subspace_coordinate_basis(
    constraints, m: int, structure: ComplexStructure
) -> np.ndarray:
    """Orthonormal rows spanning, in curvature-basis coordinates, the subspace
    cut out by the listed linear constraint tags: the eigenvectors of K' whose
    eigenvalue every tag admits.  One decomposition of K' per (m, J), at most
    8, serves every tag set."""
    if structure.dim != m:
        raise DimensionMismatchError(f"structure is {structure.dim}-dimensional, expected m={m}")
    tags = sorted(set(constraints))
    for tag in tags:
        if tag not in _CONSTRAINT_EIGENVALUES:
            raise UnknownConstraintTagError(
                f"unknown constraint tag {tag!r}; known tags: {', '.join(CONSTRAINT_TAGS)}"
            )
    values, vectors = cached_by_j(_spectrum_cache, 8, structure, lambda: _k_prime_spectrum(m, structure))
    keep = np.ones(values.size, dtype=bool)
    for tag in tags:
        keep &= np.isin(values, _CONSTRAINT_EIGENVALUES[tag])
    return _freeze(vectors[:, keep].T)


def subspace_dimension(constraints, m: int, structure: ComplexStructure) -> int:
    """Dimension of the curvature-tensor subspace satisfying all listed constraints."""
    return int(subspace_coordinate_basis(constraints, m, structure).shape[0])

