"""Exception hierarchy for the paraopt package.

A distinct class per failure mode so callers (and the CLI exit-code
mapping) can react without string matching.
"""


class ParaoptError(Exception):
    """Base class for all paraopt errors."""


class InvalidParameterError(ParaoptError, ValueError):
    """A constructor or operation received an inadmissible parameter."""


class UnsupportedRegimeError(ParaoptError):
    """Requested analysis outside its domain of validity (e.g. sigma >= 0)."""


class SingularStepError(ParaoptError):
    """A time-step matrix (I - tau*f'(y)) is singular to working precision.

    ``subinterval`` names the failing window when a window solve or its
    derivative blocks raised it.
    """

    def __init__(self, message, *, subinterval=None):
        super().__init__(message)
        self.subinterval = subinterval


class SingularMatrixError(ParaoptError):
    """A coarse system matrix is singular; the iteration is undefined."""


class NewtonDivergenceError(ParaoptError):
    """A local sub-interval Newton solve failed to reach its tolerance.

    Carries enough context to locate the failing sub-interval.
    """

    def __init__(self, message, *, residual=None, subinterval=None):
        super().__init__(message)
        self.residual = residual
        self.subinterval = subinterval


class NoConvergenceError(ParaoptError):
    """The outer solver did not converge; the partial report is attached."""

    def __init__(self, message, *, report=None):
        super().__init__(message)
        self.report = report
