"""Exception types shared across the laboratory modules."""


class LogNLSError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(LogNLSError, ValueError):
    """An input the run cannot be carried out on: exit code 2, wherever it is found."""


class NonPositiveLambda(ConfigError):
    pass


class OmegaOutOfWindow(ConfigError):
    pass


class MissingOmega(ConfigError):
    pass


class NegativeAmplitude(ConfigError):
    pass


class NonFiniteField(LogNLSError, FloatingPointError):
    pass


class SizeMismatch(ConfigError):
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


class InsufficientSamples(ConfigError):
    pass


class MaxIterations(LogNLSError, ArithmeticError):
    pass


class NonPositiveRho(ConfigError):
    pass


class ExhaustedScaling(LogNLSError, ArithmeticError):
    pass


class OmegaTooCloseToEdge(ConfigError):
    pass


class QuadratureFailure(LogNLSError, ArithmeticError):
    pass


class UnsupportedFamily(ConfigError):
    pass


class GridTooSmall(ConfigError):
    """The grid cannot hold the requested field: a config error, exit code 2."""
