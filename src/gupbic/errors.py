"""Exception taxonomy for the minimal-length bound-state solver."""

import numpy as np


class GupBicError(Exception):
    """Base class for all solver errors.

    ``failed`` is the mask of the energies an error of a batched pass
    concerns (``raise_where``); None means every energy.
    """

    failed = None


def raise_where(bad, make_error, *values) -> None:
    """Raise ``make_error(*values)`` if any energy is flagged in ``bad``.

    ``values`` are floats, or arrays with one entry per energy of a batch;
    the error is made from their entries at the first flagged energy.  For
    a batch (an array ``bad``) the error carries ``bad`` as ``failed``.
    """
    if not np.count_nonzero(bad):  # the common case, and faster than any()
        return
    bad = np.asarray(bad)
    j = int(bad.argmax())
    error = make_error(*(v if np.ndim(v) == 0 else v[j] for v in values))
    if bad.ndim:
        error.failed = bad
    raise error


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
    """No closed-form asymptotic class: the function is not on a far-field WKB piece."""


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
