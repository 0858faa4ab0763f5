"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad file, bad flag combination, bad parameter."""


class NumericalError(RuntimeError):
    """A numerical invariant was violated at runtime."""


class SvdConvergenceError(NumericalError):
    """The SVD (LAPACK) failed to converge."""


class OverflowViolationError(NumericalError):
    """A datapath logged overflow events where the headroom rules forbid them."""
