"""Explicit model constructions and reconstruction of curvature from Jacobi data.

The two constructions are the quaternionic model whose complex Jacobi operator
vanishes identically while the tensor does not, and the twistor-point model
whose curvature changes under a complex isometry even though all complex
Jacobi and complex curvature operators are preserved.  The two reconstruction
routines recover a curvature tensor in closed form, both through one
polarization over the probes e_i and e_i + e_j of ``spaces.probe_vectors``
and the first Bianchi identity: from a Jacobi-operator oracle queried at the
probes (unique, then gated on reproducing the oracle and on the strict
symmetry check) and from a complex-Jacobi oracle queried on the lines through
them (one fixed J-slot combination and one projection onto curvature tensors
give the minimum-norm fit; the map to complex Jacobi data has kernel a2perp by
Lemma 2.3, so the fit is the tensor's eight-term component, gated on
reproducing the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, EquivalenceViolationError, InconsistentOracleError, SymmetryViolationError
from .identities import IdentityReport, check_gray_yano, lemma23_battery
from .operators import _jacobi_stack, complex_jacobi, jacobi
from .spaces import (
    DEFAULT_TOL,
    ComplexIsometry,
    ComplexLine,
    ComplexStructure,
    build_quaternion_triple,
    probe_vectors,
    spanning_lines,
    theta_map,
    validate_complex_isometry,
)
from .tensors import (
    AlgebraicCurvatureTensor,
    ComplexModel,
    _slot_image,
    build_A0,
    build_APhi,
    pullback,
    validate_or_project,
)

RECONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class JacobiOracle:
    """Black-box access to x -> J(x), the symmetric operator <J(x)y, z> = A(y,x,x,z)."""

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_tensor(cls, tensor: AlgebraicCurvatureTensor) -> "JacobiOracle":
        return cls(tensor.dim, lambda x: jacobi(tensor, x))


@dataclass(frozen=True, eq=False)
class ComplexJacobiOracle:
    """Black-box access to pi -> J(pi) for complex lines of a fixed structure."""

    dim: int
    structure: ComplexStructure
    evaluate: Callable[[ComplexLine], np.ndarray]

    @classmethod
    def from_model(cls, model: ComplexModel) -> "ComplexJacobiOracle":
        return cls(model.dim, model.structure, lambda line: complex_jacobi(model.tensor, model.structure, line))


def counterexample_model(m: int) -> ComplexModel:
    """Nonzero tensor whose complex Jacobi operator vanishes on every complex line.

    Built from a quaternion triple as A_K - A_JK with J = j1 and K = j2, so the
    line structure is j1 and the curvature is A(j2) - A(j3).  Needs m = 4n.
    """
    triple = build_quaternion_triple(m)
    tensor = build_APhi(triple.j2) - build_APhi(triple.j3)
    return ComplexModel(triple.j1, tensor)


def twistor_point_model(m: int) -> tuple[ComplexModel, ComplexIsometry]:
    """Model with line structure j2 but curvature A0 + A(j1), plus the isometry
    (I + j2)/sqrt(2).

    The pullback of the curvature under the isometry is A0 + A(j3), a different
    tensor, yet every complex Jacobi and complex curvature operator of the two
    tensors coincides on j2-lines.  Needs m = 4n.
    """
    triple = build_quaternion_triple(m)
    tensor = build_A0(m) + build_APhi(triple.j1)
    return ComplexModel(triple.j2, tensor), theta_map(triple)


def _oracle_targets(values, m: int) -> np.ndarray:
    """The oracle's m x m answers, raveled and concatenated in query order; all finite."""
    targets = [np.asarray(value, dtype=float) for value in values]
    for target in targets:
        if target.shape != (m, m):
            raise DimensionMismatchError(f"oracle returned shape {target.shape}, expected {(m, m)}")
    rhs = np.concatenate(targets, axis=None)
    if not np.isfinite(rhs).all():
        raise InconsistentOracleError("the oracle returned a non-finite answer")
    return rhs


def _check_fit(fitted, rhs, tol: float, meaning: str) -> None:
    residual = float(np.max(np.abs(fitted - rhs))) / (1.0 + float(np.max(np.abs(rhs))))
    if not residual <= tol:  # a NaN residual is rejected too
        raise InconsistentOracleError(f"fitted residual {residual:.3e} exceeds {tol:.1e}; {meaning}")


def _polarized(field: np.ndarray) -> np.ndarray:
    """Z(a,b,c,d) = (S(a,b,c,d) - S(b,a,c,d)) / 3 for a Jacobi field x -> V(x),
    from field[i, j][z, y] = <V(e_i + e_j) y, z> over all i, j (so 4 V(e_i) at i = j).

    Polarization gives S(., e_i, e_j, .) = V(e_i + e_j) - V(e_i) - V(e_j), and
    2 V(e_i) at i = j; when V is the Jacobi operator of a curvature tensor A,
    S(y,x,w,z) = A(y,x,w,z) + A(y,w,x,z) and the first Bianchi identity makes Z = A.
    """
    m = field.shape[0]
    single = field.reshape(m * m, m, m)[:: m + 1] / 4.0  # field[i, i] / 4
    polar = field - single[:, None] - single[None, :]  # polar[i, j][z, y] = S(y, e_i, e_j, z)
    s = polar.transpose(3, 0, 1, 2)
    return (s - s.transpose(1, 0, 2, 3)) / 3.0


def reconstruct_from_jacobi(
    oracle: JacobiOracle, tol: float = RECONSTRUCTION_TOL
) -> AlgebraicCurvatureTensor:
    """Recover the unique curvature tensor whose Jacobi operator matches the oracle.

    The oracle's answers at the probes e_i and e_i + e_j polarize into the
    tensor itself (``_polarized``).  Two gates at ``tol`` each raise
    ``InconsistentOracleError``: the result's Jacobi operators at the probes
    must match the oracle, and the result must pass the strict symmetry check.
    """
    m = oracle.dim
    if m < 2:
        raise DimensionMismatchError(f"need dimension >= 2, got {m}")
    probes = probe_vectors(m)
    rhs = _oracle_targets((oracle.evaluate(x) for x in probes), m)
    values = rhs.reshape(-1, m, m)
    first, second = np.triu_indices(m, 1)
    field = np.empty((m, m, m, m))
    field[first, second] = field[second, first] = values[m:]
    field[np.arange(m), np.arange(m)] = 4.0 * values[:m]  # J(2 e_i)
    entries = _polarized(field)
    meaning = "the oracle is not the Jacobi field of any curvature tensor"
    _check_fit(_jacobi_stack(entries, probes[:, :, None] * probes[:, None, :]).ravel(), rhs, tol, meaning)
    try:
        return validate_or_project(entries, "strict", tol)
    except SymmetryViolationError as exc:
        raise InconsistentOracleError(f"{exc}; {meaning}") from None


def reconstruct_from_complex_jacobi(
    oracle: ComplexJacobiOracle, tol: float = RECONSTRUCTION_TOL
) -> AlgebraicCurvatureTensor:
    """Recover the eight-term component of a curvature tensor from its complex
    Jacobi operators, in closed form.

    x -> J(pi(x)) |x|^2 = J(x) + J(Jx) is quadratic, so the oracle's answers on
    the spanning lines, the lines through the probes, polarize
    (``_polarized``) into Z = A + M(A),
    M(A)(a,b,c,d) = (A(a,Jb,Jc,d) + A(a,Jc,Jb,d) - A(b,Ja,Jc,d) - A(b,Jc,Ja,d)) / 3.
    On curvature tensors K = P_curv (I + M) is symmetric and commutes with
    J*A = A(J.,J.,J.,J.); its eigenvalues are 0 on a2perp (the kernel, by
    Lemma 2.3), 1 where J* = -1, and 2/3 and 2 on a2.  So the minimum-norm fit
    is P_curv((11 Z - 6 M(Z) - J*Z) / 8), the component orthogonal to a2perp:
    the tensor itself when it satisfies the eight-term identity, and zero for
    the quaternionic counterexample.  Each spanning line is queried once, in
    order, and the fit's complex Jacobi operators on them must match the
    oracle within ``tol``, or ``InconsistentOracleError`` is raised.
    """
    m, jmat = oracle.structure.dim, oracle.structure.matrix
    lines = spanning_lines(oracle.structure)
    rhs = _oracle_targets((oracle.evaluate(line) for line in lines), m)
    field = rhs.reshape(-1, m, m)[lines.probe_index]
    # |e_i + e_j|^2: 2, and 4 on the diagonal; the gather made field a fresh
    # contiguous array, so the reshape is a view and writes through
    field *= 2.0
    field.reshape(m * m, m, m)[:: m + 1] *= 2.0
    z = _polarized(field)
    y = _slot_image(z, jmat, (1, 2), None)  # Z(a, Jb, Jc, d)
    j_star = _slot_image(y, jmat, (0, 3), None)  # Z(Ja, Jb, Jc, Jd)
    m_z = (y + y.transpose(0, 2, 1, 3) - y.transpose(1, 0, 2, 3) - y.transpose(2, 0, 1, 3)) / 3.0
    fit = validate_or_project((11.0 * z - 6.0 * m_z - j_star) / 8.0, "project")
    fitted = _jacobi_stack(fit.entries, lines.projectors).ravel()
    _check_fit(fitted, rhs, tol, "no curvature tensor has these complex Jacobi operators")
    return fit


def jacobi_equivalence_check(
    model_a: ComplexModel,
    model_b: ComplexModel,
    theta,
    tol: float = DEFAULT_TOL,
) -> IdentityReport:
    """Compare two models through a complex isometry via D = A1 - theta*A2.

    The report's ``holds`` says whether the complex Jacobi data of the two
    models agree on every complex line (the vanishing battery passes on D).
    When both tensors also satisfy the eight-term identity, agreement of the
    complex Jacobi data forces D = 0; a violation of that implication raises.
    """
    mat = theta.matrix if isinstance(theta, ComplexIsometry) else theta
    iso = validate_complex_isometry(mat, model_a.structure, model_b.structure, tol)
    diff = model_a.tensor - pullback(iso, model_b.tensor)
    diff_model = ComplexModel(model_a.structure, diff)
    battery = lemma23_battery(diff_model, tol)
    gray_a = check_gray_yano(model_a.tensor, model_a.structure, tol)
    gray_b = check_gray_yano(model_b.tensor, model_b.structure, tol)
    diff_norm = diff.norm()
    scale = 1.0 + max(model_a.tensor.norm(), model_b.tensor.norm())
    tensors_equal = bool(diff_norm <= tol * scale)
    if gray_a.holds and gray_b.holds and battery.holds and not tensors_equal:
        raise EquivalenceViolationError(
            "complex Jacobi data agree and both tensors satisfy the eight-term identity, "
            f"yet the difference has norm {diff_norm:.3e}"
        )
    return replace(
        battery,
        name="jacobi-equivalence",
        details={
            "difference_norm": diff_norm,
            "tensors_equal": tensors_equal,
            "gray_yano_a": gray_a.holds,
            "gray_yano_b": gray_b.holds,
            "battery_holds": battery.holds,
        },
    )
