"""Exception and warning types shared across the package."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SimulationError, ValueError):
    """A physical parameter is outside its admissible range."""


class DimensionError(SimulationError, ValueError):
    """Operator or state dimensions are inconsistent or too small."""


class ConfigError(SimulationError, ValueError):
    """An experiment configuration file failed validation."""


class TruncationError(SimulationError, RuntimeError):
    """Too much probability mass sits in the top Fock levels.

    Carries the measured tail mass and, when raised mid-run, the
    simulation time at which the check failed.
    """

    def __init__(self, message, tail_mass=None, time=None, trajectory=None):
        super().__init__(message)
        self.tail_mass = tail_mass
        self.time = time
        self.trajectory = trajectory


class TrajectoryError(TruncationError):
    """A stochastic trajectory became unusable (truncation or norm loss)."""


class QuadratureError(SimulationError, ValueError):
    """Phase-space quadrature grid too coarse for the requested cell."""


class FitError(SimulationError, RuntimeError):
    """A regression could not be performed (signal below noise floor)."""


class StepSizeWarning(UserWarning):
    """The integrator step is coarse relative to the fastest rate."""
