"""Exception types shared across the library.

All derive from ``GbmlapError`` and keep a ``ValueError`` or ``RuntimeError`` base.
"""


class GbmlapError(Exception):
    """Root of every named library error."""


class DomainError(GbmlapError, ValueError):
    """An input lies outside an operation's mathematical domain."""


class NoSignChange(GbmlapError, ValueError):
    """Bracket endpoints do not straddle a root."""


class MaxIterations(GbmlapError, RuntimeError):
    """Iteration cap reached before convergence."""


class NoRootInInterval(GbmlapError, ValueError):
    """A defining equation has no root inside its admissible interval."""


class BranchError(DomainError):
    """Parameters fall outside the requested closed-form branch."""


class ShootingFailed(GbmlapError, RuntimeError):
    """A variational oracle's collocation solve did not converge or is not resolved."""
