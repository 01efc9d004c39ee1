"""Exception types shared across the package."""


class StochageError(Exception):
    """Base class for all package errors."""


class ConfigurationError(StochageError):
    """Inconsistent or invalid grid, model, or run configuration."""


class InvalidFieldError(StochageError):
    """A field contains non-finite entries or has the wrong shape."""


class NoiseMagnitudeError(StochageError):
    """Exponentiating the noise field would overflow.

    Carries the offending sup of |W| so the caller can report how far out
    of range the sampled path is.
    """

    def __init__(self, w_max: float):
        self.w_max = float(w_max)
        super().__init__(
            f"noise field magnitude {self.w_max:.3g} exceeds the exp overflow "
            f"guard (700); reduce amplitudes or the time horizon"
        )


class NonconvergenceError(StochageError):
    """The fixed-point iteration for a time step did not converge.

    Carries the last observed contraction ratio.
    """

    def __init__(self, step: int, iterations: int, ratio: float):
        self.step = step
        self.iterations = iterations
        self.ratio = float(ratio)
        super().__init__(
            f"fixed-point iteration did not converge at step {step} after "
            f"{iterations} iterations (last contraction ratio {self.ratio:.3g})"
        )
