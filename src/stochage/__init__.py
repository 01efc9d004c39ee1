"""Pathwise solvers for age- and space-structured population models
driven by linear multiplicative Gaussian noise.

Two independent routes integrate the same model: an exponential change
of variables that turns each noise sample path into a deterministic
transport-diffusion-renewal problem, and a direct explicit Milstein scheme
that consumes the Brownian increments as they come.  Agreement between
the two is the core cross-validation evidence; quantitative energy
bounds and weak-form residuals provide the rest.
"""

from .errors import (ConfigurationError, InvalidFieldError, NoiseMagnitudeError,
                     NonconvergenceError, StochageError)
from .grid import Grid, SubDomain, gradient_energy, l2_norm, weighted_population
from .model import PopulationModel
from .noise import (Amplitude, BrownianBundle, NoiseSpec,
                    age_polynomial_amplitude, coarsen, constant_amplitude,
                    cosine_amplitude, evaluate_noise, ito_correction,
                    sample_bundle, sine_amplitude)
from .rates import (AgeProfileRate, AgeWindowRate, ConstantRate, LogisticRate,
                    ProductRate, VitalRates, validate_rates)
from .rescale import RescaledCoefficients, forward_transform
from .solver import (SolveReport, SolverConfig, StepResult, TruncationGuard,
                     picard_step_solve, solve_rescaled, solve_rescaled_batch,
                     truncate_argument)
from .oracle import solve_direct, solve_direct_batch
from .estimates import (CheckRow, EstimateAccumulator, EstimateConstants,
                        apriori_check, constants_for_run,
                        dependence_check, weak_residual_stochastic)
from .ensemble import RunConfig, convergence_study, run

__version__ = "0.1.0"
