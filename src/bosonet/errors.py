"""Exceptions shared across the package."""


class BosonetError(Exception):
    """Base class for all package errors."""


class DimensionError(BosonetError):
    """Matrix shapes or mode indices do not match what an operation needs."""


class ValidationError(BosonetError):
    """A network description, input file, or CLI argument failed validation."""


class NumericsError(BosonetError):
    """A numerical routine failed to reach the requested accuracy.

    ``estimate`` carries the best available error estimate when the
    failing routine can produce one.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class StabilityError(BosonetError):
    """A drift matrix (or subsystem block) is not strictly stable.

    ``eigenvalue`` names the offending eigenvalue when known.
    """

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class FrameError(BosonetError):
    """A requested frame does not exist.

    Either no hyperbolic (Bogoliubov) frame exists for the couplings, or
    a transformed drift has no one-bath-per-mode network form.
    """


class ApplicabilityError(BosonetError):
    """Operation invoked outside its stated domain of validity."""
