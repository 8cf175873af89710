"""Exception taxonomy for the minimal-length bound-state solver."""


class GupBicError(Exception):
    """Base class for all solver errors."""


class InvalidSetupError(GupBicError):
    """Physical setup or configuration is invalid (bad units, non-finite input)."""


class ConfigError(InvalidSetupError):
    """Configuration file could not be parsed or validated."""


class UnsupportedEpsilonError(GupBicError):
    """epsilon <= 0: the fourth-order closed-form machinery does not apply."""


class ComplexQuartetError(GupBicError):
    """Characteristic quartic has a complex root quartet (negative discriminant)."""


class DegenerateBasisError(GupBicError):
    """Characteristic roots coincide; the standard fundamental set degenerates."""


class ValidityError(GupBicError):
    """Evaluation requested outside a basis function's validity region."""


class BasisOverflowError(GupBicError):
    """Basis value exceeds the exponent cap; use log-space access instead."""

    def __init__(self, message, exponent=None):
        super().__init__(message)
        self.exponent = exponent


class ClassificationError(GupBicError):
    """Asymptotic class is Undefined where a definite class is required."""


class InvalidConditionsError(GupBicError):
    """Boundary-condition set is contradictory or empty."""


class WrongPotentialError(GupBicError):
    """Operation called with an unsupported potential kind."""


class NormalizationError(GupBicError):
    """State cannot be normalized (zero vector or non-integrable component)."""


class PreconditionError(GupBicError):
    """Operation precondition violated (caller error, not a numerical failure)."""


class NumericalError(GupBicError):
    """Numerical procedure failed to reach its tolerance."""
