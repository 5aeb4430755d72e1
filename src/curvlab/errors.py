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


class SymmetryViolationError(CurvlabError):
    """A rank-4 array fails the curvature symmetries in strict mode."""

    def __init__(self, message, quadruple=None, residual=None):
        super().__init__(message)
        self.quadruple = quadruple
        self.residual = residual


class LineStructureMismatchError(CurvlabError):
    pass


class NotCompatibleError(CurvlabError):
    pass


class QNotConstantError(CurvlabError):
    pass


class QNotZeroError(CurvlabError):
    pass


class EquivalenceViolationError(CurvlabError):
    """Conditions that are provably equivalent disagreed; an implementation bug."""


class NotInA3Error(CurvlabError):
    pass


class UnknownConstraintTagError(CurvlabError):
    pass


class InconsistentOracleError(CurvlabError):
    pass


class NonUniqueSolutionError(CurvlabError):
    pass


class SparseEntryConflictError(CurvlabError):
    pass
