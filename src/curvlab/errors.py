"""Exception hierarchy for validation and solver failures."""


class CurvlabError(Exception):
    """Base class for every error raised by this package."""


class NotSquareError(CurvlabError):
    pass


class OddDimensionError(CurvlabError):
    pass


class NotAntiInvolutionError(CurvlabError):
    pass


class NotOrthogonalError(CurvlabError):
    pass


class CommutationError(CurvlabError):
    """A map fails to intertwine the complex structures it should."""


class DimensionNotMultipleOf4Error(CurvlabError):
    pass


class DimensionMismatchError(CurvlabError):
    pass


class InvalidVectorError(CurvlabError):
    """A vector given on input is unparseable, has a non-finite entry, or is zero."""


class NonFiniteEntryError(CurvlabError):
    """An array given on input has a NaN or infinite entry."""


class ModelFormatError(CurvlabError):
    """A model file does not follow the model-file schema."""


class SymmetryViolationError(CurvlabError):
    """A rank-4 array fails the curvature symmetries in strict mode."""

    def __init__(self, message, quadruple=None, residual=None):
        super().__init__(message)
        self.quadruple = quadruple
        self.residual = residual


class LineStructureMismatchError(CurvlabError):
    pass


class PreconditionError(CurvlabError):
    """A check's identity is only claimed under a condition the model fails.

    The check registry reports it as a failed check, not as bad input."""


class NotCompatibleError(PreconditionError):
    pass


class QNotConstantError(PreconditionError):
    pass


class QNotZeroError(PreconditionError):
    pass


class EquivalenceViolationError(CurvlabError):
    """Conditions that are provably equivalent disagreed; an implementation bug."""


class UnknownConstraintTagError(CurvlabError):
    pass


class InconsistentOracleError(CurvlabError):
    pass


class SparseEntryConflictError(CurvlabError):
    pass
