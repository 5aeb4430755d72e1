"""Explicit model constructions and reconstruction of curvature from Jacobi data.

The two constructions are the quaternionic model whose complex Jacobi operator
vanishes identically while the tensor does not, and the twistor-point model
whose curvature changes under a complex isometry even though all complex
Jacobi and complex curvature operators are preserved.  The two reconstruction
routines recover a curvature tensor from a Jacobi-operator oracle (unique, in
closed form by polarization and the first Bianchi identity, then gated on
reproducing the oracle and on the strict symmetry check) and from a
complex-Jacobi oracle (the minimum-norm fit over the curvature space; the map
to complex Jacobi data has kernel a2perp by Lemma 2.3, so the fit is the
tensor's eight-term component).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, EquivalenceViolationError, InconsistentOracleError, SymmetryViolationError
from .identities import IdentityReport, check_gray_yano, lemma23_battery
from .operators import _jacobi_stack, complex_jacobi, jacobi_matrix
from .spaces import (
    DEFAULT_TOL,
    ComplexIsometry,
    ComplexLine,
    ComplexStructure,
    build_quaternion_triple,
    cached_by_j,
    complex_line,
    spanning_lines,
    theta_map,
    validate_complex_isometry,
)
from .tensors import (
    AlgebraicCurvatureTensor,
    ComplexModel,
    build_A0,
    build_APhi,
    curvature_space_basis,
    numerical_rank,
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
        return cls(tensor.dim, lambda x: jacobi_matrix(tensor, x))


@dataclass(frozen=True, eq=False)
class ComplexJacobiOracle:
    """Black-box access to pi -> J(pi) for complex lines of a fixed structure."""

    dim: int
    structure: ComplexStructure
    evaluate: Callable[[ComplexLine], np.ndarray]

    @classmethod
    def from_model(cls, model: ComplexModel) -> "ComplexJacobiOracle":
        return cls(
            model.dim,
            model.structure,
            lambda line: complex_jacobi(model.tensor, model.structure, line).matrix,
        )


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


def _probe_vectors(m: int) -> np.ndarray:
    # J(x) is quadratic in x, so values at e_i and e_i + e_j polarize everything.
    eye = np.eye(m)
    first, second = np.triu_indices(m, 1)
    return np.vstack([eye, eye[first] + eye[second]])


def _oracle_targets(values, m: int) -> np.ndarray:
    """The oracle's m x m answers, raveled and concatenated in query order; all finite."""
    targets = []
    for value in values:
        target = np.asarray(value, dtype=float)
        if target.shape != (m, m):
            raise DimensionMismatchError(f"oracle returned shape {target.shape}, expected {(m, m)}")
        targets.append(target.ravel())
    rhs = np.concatenate(targets)
    if not np.isfinite(rhs).all():
        raise InconsistentOracleError("the oracle returned a non-finite answer")
    return rhs


def _check_fit(fitted, rhs, tol: float, meaning: str) -> None:
    residual = float(np.max(np.abs(fitted - rhs))) / (1.0 + float(np.max(np.abs(rhs))))
    if not residual <= tol:  # a NaN residual is rejected too
        raise InconsistentOracleError(f"fitted residual {residual:.3e} exceeds {tol:.1e}; {meaning}")


def reconstruct_from_jacobi(
    oracle: JacobiOracle, tol: float = RECONSTRUCTION_TOL
) -> AlgebraicCurvatureTensor:
    """Recover the unique curvature tensor whose Jacobi operator matches the oracle.

    Polarization on the probes e_i and e_i + e_j gives S(., e_i, e_j, .) =
    J(e_i + e_j) - J(e_i) - J(e_j), and 2 J(e_i) at i = j, for S(y,x,w,z) =
    A(y,x,w,z) + A(y,w,x,z); the first Bianchi identity then gives A(a,b,c,d) =
    (S(a,b,c,d) - S(b,a,c,d)) / 3.  Two gates at ``tol`` each raise
    ``InconsistentOracleError``: the result's Jacobi operators at the probes
    must match the oracle, and the result must pass the strict symmetry check.
    """
    m = oracle.dim
    if m < 2:
        raise DimensionMismatchError(f"need dimension >= 2, got {m}")
    probes = _probe_vectors(m)
    rhs = _oracle_targets((oracle.evaluate(x) for x in probes), m)
    values = rhs.reshape(-1, m, m)  # values[p][z, y] = <J(x_p) y, z>
    first, second = np.triu_indices(m, 1)
    polar = np.empty((m, m, m, m))  # polar[i, j][z, y] = S(y, e_i, e_j, z)
    polar[first, second] = polar[second, first] = values[m:] - values[first] - values[second]
    polar[np.arange(m), np.arange(m)] = 2.0 * values[:m]
    s = polar.transpose(3, 0, 1, 2)
    entries = (s - s.transpose(1, 0, 2, 3)) / 3.0
    meaning = "the oracle is not the Jacobi field of any curvature tensor"
    _check_fit(_jacobi_stack(entries, probes[:, :, None] * probes[:, None, :]).ravel(), rhs, tol, meaning)
    try:
        return validate_or_project(entries, "strict", tol)
    except SymmetryViolationError as exc:
        raise InconsistentOracleError(f"{exc}; {meaning}") from None


_solver_cache: dict = {}  # (m, J bytes) -> solver


def _flip_subspace_dim(m: int) -> int:
    """Closed-form dimension n^2 (n^2 - 1) / 6 of the flip subspace a2perp, n = m / 2."""
    n = m // 2
    return n * n * (n * n - 1) // 6


def _complex_jacobi_solver(structure: ComplexStructure):
    """Design and minimum-norm solve factors over the spanning lines of one J.

    They depend on J alone, so they are cached by value, (m, J bytes), like
    the spanning lines: models loaded separately with the same J share one
    factorization and one sweep.
    """
    return cached_by_j(_solver_cache, 4, structure, lambda: _build_complex_jacobi_solver(structure))


def _build_complex_jacobi_solver(structure: ComplexStructure):
    m = structure.dim
    basis = curvature_space_basis(m)
    lines = spanning_lines(structure)
    # one row block per line: J(x) + J(Jx) of every basis tensor, through the line projector
    design = _jacobi_stack(basis.tensors, lines.projectors).reshape(basis.count, -1).T
    u, svals, vh = np.linalg.svd(design, full_matrices=False)
    rank = numerical_rank(svals)
    expected = basis.count - _flip_subspace_dim(m)
    if rank != expected:
        raise EquivalenceViolationError(
            f"complex Jacobi design has rank {rank}, but its kernel is a2perp by Lemma 2.3, "
            f"so the rank is {expected}"
        )
    return design, u[:, :rank], vh[:rank].T / svals[:rank]


def reconstruct_from_complex_jacobi(
    oracle: ComplexJacobiOracle, tol: float = RECONSTRUCTION_TOL
) -> AlgebraicCurvatureTensor:
    """Recover the eight-term component of a curvature tensor from its complex
    Jacobi operators on the spanning lines.

    The fit is the minimum-norm least-squares solution over the whole
    curvature space.  By Lemma 2.3 the map A -> (J(pi))_pi vanishes exactly on
    the flip subspace a2perp, whose orthogonal complement is the eight-term
    identity subspace, so the minimum-norm solution is the tensor's eight-term
    component: the tensor itself when it satisfies the identity, and zero for
    the quaternionic counterexample, which lies in the kernel.
    """
    design, u, v_scaled = _complex_jacobi_solver(oracle.structure)
    lines = spanning_lines(oracle.structure)
    rhs = _oracle_targets((oracle.evaluate(line) for line in lines), oracle.structure.dim)
    coeffs = v_scaled @ (u.T @ rhs)
    _check_fit(design @ coeffs, rhs, tol, "no curvature tensor has these complex Jacobi operators")
    return curvature_space_basis(oracle.structure.dim).from_coordinates(coeffs)


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


def discrepancy_audit(m: int = 4, seed: int = 0) -> dict:
    """Brute-force cross-check of two tabulated operator values, reported, not asserted.

    For the quaternionic model the coefficient c in J(x)Kx = c Kx at unit x is
    recomputed by direct contraction, and for the twistor-point model the
    complex Jacobi eigenvalue on Span{x, Jx} is recomputed the same way; both
    are compared against the values the constructions are usually quoted with.
    The remaining twistor eigenvalues (5 on the swapped quaternionic plane, 2
    on the complement) are cross-checked as well.
    """
    rng = np.random.default_rng(seed)
    triple = build_quaternion_triple(m)
    counter = counterexample_model(m)
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    kx = triple.j2.apply(x)
    coeff = float(kx @ (jacobi_matrix(counter.tensor, x) @ kx))

    twistor, _ = twistor_point_model(m)
    line = complex_line(x, twistor.structure)
    op = complex_jacobi(twistor.tensor, twistor.structure, line).matrix
    j2x = twistor.structure.apply(x)
    plane_vals = (float(x @ (op @ x)), float(j2x @ (op @ j2x)))
    j1x = triple.j1.apply(x)
    j3x = triple.j3.apply(x)
    swapped_vals = (float(j1x @ (op @ j1x)), float(j3x @ (op @ j3x)))
    # Complement direction: orthogonalize a random vector against the quaternionic 4-plane.
    comp_val = None
    if m > 4:
        v = rng.standard_normal(m)
        for b in (x, j1x, j2x, j3x):
            v -= (v @ b) * b
        v /= np.linalg.norm(v)
        comp_val = float(v @ (op @ v))
    report = {
        "jacobi_K_coefficient": {
            "description": "coefficient c in J(x)Kx = c*Kx for the quaternionic model at unit x",
            "computed": coeff,
            "tabulated": 1.0,
            "agrees": bool(abs(coeff - 1.0) <= 1e-8),
        },
        "twistor_plane_eigenvalue": {
            "description": "complex Jacobi eigenvalue on Span{x, Jx} for the twistor-point model",
            "computed": plane_vals[0],
            "computed_at_Jx": plane_vals[1],
            "tabulated": 4.0,
            "agrees": bool(abs(plane_vals[0] - 4.0) <= 1e-8),
        },
        "twistor_swapped_plane_eigenvalue": {
            "description": "complex Jacobi eigenvalue on the swapped quaternionic directions",
            "computed": swapped_vals[0],
            "computed_at_other": swapped_vals[1],
            "tabulated": 5.0,
            "agrees": bool(abs(swapped_vals[0] - 5.0) <= 1e-8),
        },
    }
    if comp_val is not None:
        report["twistor_complement_eigenvalue"] = {
            "description": "complex Jacobi eigenvalue orthogonal to the quaternionic 4-plane",
            "computed": comp_val,
            "tabulated": 2.0,
            "agrees": bool(abs(comp_val - 2.0) <= 1e-8),
        }
    return report
