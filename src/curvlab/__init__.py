"""Algebraic curvature models with complex structure.

Canonical and counterexample tensors, curvature-derived operators, exact
verification of the compatibility/vanishing identity families on finite
certifying sets, Gray-class membership, and reconstruction of curvature
tensors from (complex) Jacobi-operator oracles.
"""

from .constructions import (
    ComplexJacobiOracle,
    JacobiOracle,
    counterexample_model,
    discrepancy_audit,
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
    NotInA3Error,
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
    p2_map,
    run_check,
    subspace_dimension,
)
from .modelio import ModelFile, load_model, save_model
from .operators import (
    OperatorMatrix,
    complex_curvature_operator,
    complex_jacobi,
    curvature_operator,
    holomorphic_sectional_curvature,
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
    random_orthogonal,
    random_unit_vector,
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
    tensor_inner_product,
    validate_or_project,
)

__version__ = "0.1.0"
