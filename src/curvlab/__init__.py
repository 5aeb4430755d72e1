"""Algebraic curvature models with complex structure.

Canonical and counterexample tensors, the Jacobi, complex Jacobi and complex
curvature operators, exact verification of the compatibility/vanishing
identity families on finite certifying sets, Gray-class membership, and
reconstruction of curvature tensors from (complex) Jacobi-operator oracles.
"""

from .constructions import (
    ComplexJacobiOracle,
    JacobiOracle,
    counterexample_model,
    jacobi_equivalence_check,
    reconstruct_from_complex_jacobi,
    reconstruct_from_jacobi,
    twistor_point_model,
)
from .errors import (
    CommutationError,
    CurvlabError,
    DimensionMismatchError,
    DimensionNotMultipleOf4Error,
    EquivalenceViolationError,
    InconsistentOracleError,
    InvalidVectorError,
    LineStructureMismatchError,
    ModelFormatError,
    NonFiniteEntryError,
    NotAntiInvolutionError,
    NotCompatibleError,
    NotOrthogonalError,
    NotSquareError,
    OddDimensionError,
    PreconditionError,
    QNotConstantError,
    QNotZeroError,
    SparseEntryConflictError,
    SymmetryViolationError,
    UnknownConstraintTagError,
)
from .identities import (
    CHECKS,
    IdentityReport,
    check_compatibility,
    check_gray_yano,
    check_sato,
    check_symmetries,
    check_vanhecke,
    gray_classify,
    lemma23_battery,
    run_check,
    subspace_dimension,
)
from .modelio import ModelFile, load_model, save_model
from .operators import (
    complex_curvature_operator,
    complex_jacobi,
    jacobi,
    merged_spectrum,
    q_quartic,
    ricci,
    star_ricci,
)
from .spaces import (
    ComplexIsometry,
    ComplexLine,
    ComplexStructure,
    QuaternionTriple,
    build_quaternion_triple,
    complex_line,
    spanning_lines,
    standard_complex_structure,
    theta_map,
    validate_complex_isometry,
    validate_complex_structure,
)
from .tensors import (
    AlgebraicCurvatureTensor,
    ComplexModel,
    CurvatureBasis,
    build_A0,
    build_APhi,
    curvature_space_basis,
    curvature_space_dim,
    pullback,
    random_curvature_tensor,
    validate_or_project,
)

__version__ = "0.1.0"
