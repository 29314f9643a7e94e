"""Shared exceptions. ValidationError subclasses map to CLI exit code 2,
the INTERNAL_ERRORS to exit code 3."""


class ValidationError(ValueError):
    """Bad user-supplied data (weights, patterns, shifts, ...)."""


class NotCovariantError(ValidationError):
    pass


class NotAdmissibleError(ValidationError):
    pass


class IndexOutOfTriangleError(ValidationError):
    pass


class ShapeMismatchError(ValidationError):
    pass


class HypothesisNotMetError(ValidationError):
    pass


class OrderingViolationError(ValidationError):
    pass


class NotNoncrossingError(ValidationError):
    pass


class NotDominantError(ValidationError):
    pass


class SingularMatrixError(ArithmeticError):
    pass


class PoleError(ArithmeticError):
    pass


class PoleHitError(PoleError):
    """A lowering/raising series was evaluated at one of its poles."""


class InsufficientSamplesError(ValueError):
    pass


class InconsistentSamplesError(ValueError):
    pass


class InvarianceViolationError(AssertionError):
    """A subspace that must be invariant is not: implementation bug."""


class InternalInvariantViolation(AssertionError):
    """The code produced a state the theory forbids: implementation bug."""


# raised only by drinfeld.highest_weight_series, where every input is a tensor
# of covariant modules, which always has a joint highest vector


class NoHighestVectorError(InternalInvariantViolation):
    pass


class NotEigenError(InternalInvariantViolation):
    pass


# failures of the engine itself, which no input should provoke
INTERNAL_ERRORS = (InternalInvariantViolation, InvarianceViolationError, PoleError,
                   SingularMatrixError, InconsistentSamplesError, InsufficientSamplesError)
