"""Exception types shared across the package."""


class WaveInputError(Exception):
    """Base class for all errors raised by this package."""


class UnknownCatalogEntry(WaveInputError):
    """Requested catalog family does not exist."""


class BadParams(WaveInputError):
    """Catalog parameters have the wrong arity or an invalid value."""


class DomainError(WaveInputError):
    """Evaluation or sampling outside a function's domain."""


class UnsupportedNorm(WaveInputError):
    """Norm exponent other than 1 or 2."""


class GridError(WaveInputError):
    """Malformed grid (even n, too few nodes, mismatched intervals, ...)."""


class OutOfRegion(WaveInputError):
    """Space-time point outside the determined trapezoid."""


class ApproxBudgetExceeded(WaveInputError):
    """Smoothing pipeline could not reach the requested accuracy.

    Carries the best result achieved so far in ``result`` (may be None).
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ConfigError(WaveInputError):
    """Invalid run configuration; the message names the offending field."""
