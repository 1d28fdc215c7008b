"""Exception types shared across the laboratory modules."""


class LogNLSError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveLambda(LogNLSError, ValueError):
    pass


class OmegaOutOfWindow(LogNLSError, ValueError):
    pass


class MissingOmega(LogNLSError, ValueError):
    pass


class NegativeAmplitude(LogNLSError, ValueError):
    pass


class NonFiniteField(LogNLSError, FloatingPointError):
    pass


class SizeMismatch(LogNLSError, ValueError):
    pass


class IntegratorFailure(LogNLSError, ArithmeticError):
    """Adaptive step size underflowed or the trajectory left the trusted regime."""


class BracketFailure(LogNLSError, ArithmeticError):
    """Shooting bracket lost its sign change; bad parameters or a bug upstream."""


class BlowUpDetected(LogNLSError, ArithmeticError):
    """Gradient-norm proxy crossed the collapse threshold during evolution."""

    def __init__(self, message, time=None, trajectory=None):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


class ConservationError(LogNLSError, ArithmeticError):
    """A monitored conservation law or a-priori bound was violated."""


class InsufficientSamples(LogNLSError, ValueError):
    pass


class MaxIterations(LogNLSError, ArithmeticError):
    pass


class NonPositiveRho(LogNLSError, ValueError):
    pass


class ExhaustedScaling(LogNLSError, ArithmeticError):
    pass


class OmegaTooCloseToEdge(LogNLSError, ValueError):
    pass


class QuadratureFailure(LogNLSError, ArithmeticError):
    pass


class UnsupportedFamily(LogNLSError, ValueError):
    pass


class ConfigError(LogNLSError, ValueError):
    pass


class GridTooSmall(ConfigError):
    """The grid cannot hold the requested field: a config error, exit code 2."""
