"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so anything a subcommand can
surface to the user should derive from UiobeamError.
"""


class UiobeamError(Exception):
    """Base class for all package-specific failures."""


class ShapeError(UiobeamError):
    """Dimension, symmetry or structure violation in a matrix/vector argument."""


class SingularMatrixError(UiobeamError):
    """Rank-deficient or non-positive-definite matrix where regularity is required."""


class InfeasibleError(UiobeamError):
    """No certificate found within the requested performance bound."""

    def __init__(self, message, mu_attempted=None):
        super().__init__(message)
        self.mu_attempted = mu_attempted


class BracketError(UiobeamError):
    """A bisection bracket does not straddle the feasibility boundary."""


class ConditioningError(UiobeamError):
    """Steering angles too close in sine for a well-conditioned zero-forcing solve."""


class DegenerateGeometryError(UiobeamError):
    """Angular position requested for coincident points."""


class ConfigError(UiobeamError):
    """Invalid or unknown configuration content."""


class NumericalError(UiobeamError):
    """A computed output holds a non-finite value (nan or inf)."""
