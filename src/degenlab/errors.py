"""Exception hierarchy shared by every module in the package.

The split mirrors how failures are reported at the command line: bad input
data (DomainError), bad configuration files (ConfigError), a solve that did
not converge (SolverDivergenceError), and internal numerical promises that
broke (NumericError, UncertifiableTailError).
"""


class DegenlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DegenlabError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(DegenlabError):
    """A run configuration is malformed, contradictory, or incomplete."""


class NumericError(DegenlabError):
    """An internal numerical invariant failed (NaN, lost bracket, ...)."""


class SolverDivergenceError(DegenlabError):
    """The pseudo-time iteration diverged instead of settling.

    Carries the diagnostics accumulated up to the failure so the caller can
    inspect the residual history.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class UncertifiableTailError(DegenlabError):
    """A truncated series has no certified geometric tail at this depth;
    carries the sequence table whose tail failed, when the recursion ran."""

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table
