"""Exception classes shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, InfeasibleError -> 3,
NumericalError -> 4. Plain ValueError is used for local argument mistakes
(bad dimensions, out-of-range probabilities); ConfigError is a ValueError
too, so library callers may catch either.
"""


class RisenseError(Exception):
    """Base class for package-specific errors."""


class ConfigError(RisenseError, ValueError):
    """Scenario file or parameter set is invalid."""


class InfeasibleError(RisenseError):
    """A target (detection probability, power budget) cannot be met."""


class NumericalError(RisenseError):
    """A numerical operation failed (singular covariance, non-PSD form)."""
