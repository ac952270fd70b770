"""Exception hierarchy shared across the package.

Every error raised by this package derives from EnaqtError so callers can
catch one base class.  The CLI maps each subclass to a distinct exit code.
"""

__all__ = [
    "EnaqtError",
    "ValidationError",
    "SingularSystemError",
    "StiffnessError",
    "TruncationError",
]


class EnaqtError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EnaqtError, ValueError):
    """Invalid user input: sizes, site indices, rates, grids, config keys."""


class SingularSystemError(EnaqtError):
    """The steady-state linear system is singular or numerically unreliable.

    Typically the coherent dark-state situation at mu=0, where the time
    integral of the density matrix diverges.  The remedy is a small positive
    loss rate (mu = 1e-8 reproduces the mu -> 0+ limit).
    """


class StiffnessError(EnaqtError):
    """A propagated trajectory misses its probability budget: the matrix
    exponential lost accuracy, as at extreme dephasing over a long step."""


class TruncationError(EnaqtError):
    """Truncated-chain size doubling hit the cap before eta converged."""

    def __init__(self, message, achieved_delta=None):
        super().__init__(message)
        self.achieved_delta = achieved_delta
