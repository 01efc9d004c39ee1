"""Explicit constants, quantitative bounds, and weak-form residuals.

The energy estimate for the pathwise system bounds the solution energy by
an exponential of the coefficient sups times the data energy.  The two
calibration numbers ``c0`` and ``c1`` are not pinned down by theory; the
artifact treats them as configuration, calibrated once on a frozen
regression suite and used as pass thresholds afterwards.  What the checks
exercise is the *structure* of the bounds: monotonicity in the
coefficient sups, quadratic scaling in the data, and boundedness of the
ratios under refinement.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StochageError
from .grid import (Grid, boundary_faces, boundary_norm_sq, face_measure, face_shape,
                   gradient_energy, l2_norm, weighted_population)
from .model import PopulationModel
from .noise import BrownianBundle, amplitude_grids
from .rates import VitalRates, evaluate_gamma, evaluate_on_faces, evaluate_on_grid
from .rescale import CoefficientSups, RescaledCoefficients


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class EstimateConstants:
    """Energy-bound constants together with the inputs they came from.

    Pure arithmetic: recomputing from the logged inputs and the rates must
    reproduce the stored values exactly.
    """

    c0: float
    c1: float
    sups: CoefficientSups
    region_volume: float
    a_max: float
    horizon: float
    y0_norm_sq: float
    c_est: float
    r0: float
    n0: int
    l1: float
    l2: float


def growth_factor(c0: float, c1: float, g1_sup: float, g2_sup: float,
                  a_max: float, m0_inf: float, c_w0: float, mu_inf: float,
                  horizon: float) -> float:
    """Exponential prefactor of the energy bound; one that is not a finite
    float raises :class:`StochageError` naming the exponent."""
    expo = math.inf   # if a square overflows; an exponent exp overflows at stays finite
    with contextlib.suppress(OverflowError):
        expo = c1 * (1.0 + g1_sup + g2_sup ** 2
                     + a_max * m0_inf ** 2 * c_w0 ** 2 + mu_inf ** 2) * horizon
        factor = c0 * math.exp(expo)
        if math.isfinite(factor):
            return factor
    raise StochageError(f"energy bound exponent {expo:.4g} overflows a float")


def compute_constants(rates: VitalRates, sups: CoefficientSups, *,
                      c0: float = 1.0, c1: float = 1.0, region_volume: float,
                      a_max: float, horizon: float,
                      y0_norm_sq: float) -> EstimateConstants:
    """Assemble the energy-bound constants from the rate sups, the path's
    coefficient ``sups`` and the data energy.

    ``r0`` bounds the squared solution norm by the growth factor times the
    data energy; the truncation threshold is ``ceil(r0) + 1``.  The
    Lipschitz aggregates ``l1`` (fertility side) and ``l2`` (mortality
    side) feed the continuous-dependence prefactor.
    """
    mu_inf, m0_inf, gamma_inf = rates.mu_s.sup, rates.m0.sup, rates.gamma.sup
    c_w0, c_w = sups.c_w0, sups.c_w
    c_est = growth_factor(c0, c1, sups.g1_sup, sups.g2_sup, a_max, m0_inf, c_w0,
                          mu_inf, horizon)
    r0 = c_est * (y0_norm_sq + sups.k_sq_integral)
    if not math.isfinite(r0):
        raise StochageError(f"energy bound exponent {math.log(c_est / c0):.4g} "
                            f"overflows a float times the data energy")
    n0 = int(math.ceil(r0)) + 1
    geom = gamma_inf * math.sqrt(a_max * region_volume)
    l1 = c_w0 * c_w * rates.m0.lipschitz(r0) * geom * r0 + c_w0 * m0_inf
    l2 = c_w * rates.mu_s.lipschitz(r0) * geom * r0 + mu_inf
    return EstimateConstants(
        c0=c0, c1=c1, sups=sups, region_volume=region_volume, a_max=a_max,
        horizon=horizon, y0_norm_sq=y0_norm_sq, c_est=c_est, r0=r0, n0=n0,
        l1=l1, l2=l2)


def constants_for_run(model: PopulationModel,
                      bundle: BrownianBundle | None = None,
                      c0: float = 1.0, c1: float = 1.0,
                      sups: CoefficientSups | None = None,
                      y0_norm_sq: float | None = None) -> EstimateConstants:
    """Constants of one path from its coefficient ``sups``, else from a sweep
    of ``bundle`` (a march at an automatic radius gathers them instead), and
    the data energy ``y0_norm_sq``, by default that of ``model.p0``."""
    if sups is None:
        if bundle is None:
            raise ConfigurationError("a bundle or its coefficient sups are required")
        sups = RescaledCoefficients(model, bundle).coefficient_sups()
    return compute_constants(
        model.rates, sups, c0=c0, c1=c1, region_volume=model.region_volume,
        a_max=model.grid.a_max, horizon=model.grid.T,
        y0_norm_sq=l2_norm(model.p0) ** 2 if y0_norm_sq is None else y0_norm_sq)


# ---------------------------------------------------------------------------
# a priori energy bound


def _cumtrapz(series: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(series)
    out[1:] = np.cumsum(0.5 * (series[1:] + series[:-1]) * dt)
    return out


def _energy_terms(states, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Per time node of ``states`` (fields read one at a time): the squared
    norm, and the energy estimate's left side, that plus the trapezoid time
    integrals of the exit-age trace and of the squared norm plus the gradient energy."""
    sq, exit_trace, grad = np.zeros((3, grid.n_t + 1))
    for i, state in enumerate(states):
        sq[i] = l2_norm(state, grid) ** 2
        exit_trace[i] = np.sum(state[grid.rows(-1)] ** 2) * grid.cell_volume
        grad[i] = gradient_energy(state, grid)
    return sq, sq + _cumtrapz(exit_trace, grid.dt) + _cumtrapz(sq + grad, grid.dt)


def apriori_check(report, model: PopulationModel, bundle: BrownianBundle,
                  consts: EstimateConstants) -> np.ndarray:
    """Ratio of solution energy to the bound, per time level, of a rescaled
    report stored at stride 1 and the path ``bundle`` it was solved on.

    Left side: squared state norm, the exit-age trace integrated in time,
    and the time integral of the gradient-augmented norm.  Right side:
    growth factor times initial energy plus the time integral of the
    squared boundary norm of the rescaled Robin datum ``k0 exp(-W)``.
    Ratios at most 1 mean the calibrated bound holds; a zero-over-zero
    level counts as a pass.
    """
    if report.solver != "rescaled":
        raise ConfigurationError("the energy bound expects a rescaled-state report")
    grid = report.grid
    sq, left = _energy_terms(report.trajectory, grid)   # raises when stored with stride > 1
    coeffs = RescaledCoefficients(model, [bundle])
    k_sq = [boundary_norm_sq(coeffs.k_faces(i), grid)[0] for i in range(grid.n_t + 1)]
    right = consts.c_est * (sq[0] + _cumtrapz(np.array(k_sq), grid.dt))
    return np.array([_ratio(l, r) for l, r in zip(left, right)])


def _ratio(left: float, right: float) -> float:
    """``left / right``, with 0/0 counted as 0 (a pass) and x/0 as ``inf``."""
    if right > 0:
        return left / right
    return 0.0 if left <= 1e-300 else np.inf


# ---------------------------------------------------------------------------
# continuous dependence on the data


@dataclass(frozen=True)
class DependenceResult:
    difference_energy: float
    data_energy: float
    ratio: float


def dependence_check(report1, report2, consts1: EstimateConstants,
                     consts2: EstimateConstants | None = None) -> DependenceResult:
    """Solution-difference energy at the final time (:func:`_energy_terms`
    of the difference) against the data-difference bound.

    The prefactor uses the worse of the two runs' coefficient sups, so the
    result is symmetric under swapping the runs.  The runs share their
    noise path and coefficients, so the data difference is that of the
    initial states.
    """
    if consts2 is None:
        consts2 = consts1
    if report1.grid != report2.grid:
        raise ConfigurationError("dependence check needs a shared grid")
    traj1, traj2 = report1.trajectory, report2.trajectory
    d_sq, left = _energy_terms((a - b for a, b in zip(traj1, traj2)), report1.grid)
    c0, c1 = consts1.c0, consts1.c1
    sups1, sups2 = consts1.sups, consts2.sups
    expo = c1 * (1.0 + max(sups1.g1_sup, sups2.g1_sup)
                 + max(sups1.div_g2_sup, sups2.div_g2_sup)
                 + max(consts1.l1, consts2.l1) ** 2
                 + consts1.a_max * max(consts1.l2, consts2.l2) ** 2) \
        * consts1.horizon
    right = c0 * math.exp(min(expo, 700.0)) * d_sq[0]
    return DependenceResult(difference_energy=left[-1], data_energy=right,
                            ratio=_ratio(left[-1], right))


# ---------------------------------------------------------------------------
# weak-form residuals


class TestFunction:
    """Tensor-product polynomial ``phi(t) * A(a, x)`` with ``phi(T) = 0``.

    The time factor is ``(1 - s) s^q`` in ``s = t / T``; the age-space
    part is a monomial in ``a / a_max`` and the normalized coordinates.
    Derivatives are analytic.
    """

    def __init__(self, grid: Grid, q_t: int, deg_a: int, deg_x: tuple[int, ...]):
        self.grid = grid
        self.q_t = q_t
        self.deg_a = deg_a
        self.deg_x = deg_x
        self.label = f"t^{q_t}(1-t/T) a^{deg_a} x^{deg_x}"
        full = lambda values: np.broadcast_to(values, grid.field_shape).copy()
        am = grid.age_mesh / grid.a_max
        xs = [mesh / ext for mesh, ext in zip(grid.space_meshes, grid.extent)]
        age = am ** deg_a if deg_a else 1.0
        age_a = (deg_a / grid.a_max) * am ** (deg_a - 1) if deg_a else 0.0
        self.A = full(_monomials(age, xs, deg_x))
        self.A_a = full(_monomials(age_a, xs, deg_x))
        self.A_grad = [full(_monomials(age, xs, deg_x, skip=axis)
                            * ((d / ext) * x ** (d - 1) if d else 0.0))
                       for axis, (x, d, ext) in enumerate(zip(xs, deg_x, grid.extent))]
        self.face_values = {
            face: np.broadcast_to(_monomials(
                (ages / grid.a_max) ** deg_a if deg_a else 1.0,
                [c / ext for c, ext in zip(coords, grid.extent)], deg_x),
                face_shape(grid, face))
            for face, (ages, coords) in grid.boundary_meshes.items()}

    def phi(self, t: float) -> float:
        s = t / self.grid.T
        return (1.0 - s) * s ** self.q_t

    def dphi(self, t: float) -> float:
        s = t / self.grid.T
        q = self.q_t
        if q == 0:
            return -1.0 / self.grid.T
        return (q * s ** (q - 1) - (q + 1) * s ** q) / self.grid.T


def _monomials(factor, coords, degrees, skip: int | None = None):
    """``factor`` times ``c ** d`` for the normalized coordinate ``c`` and
    degree ``d`` of every axis but ``skip``, multiplied in axis order."""
    for axis, (c, d) in enumerate(zip(coords, degrees)):
        if axis != skip:
            factor = factor * np.asarray(c, dtype=float) ** d
    return factor


def build_test_functions(grid: Grid, n: int) -> list[TestFunction]:
    """First ``n`` tensor polynomials ordered by total degree: time and age
    degrees up to 2, space degrees summing to at most 2."""
    degrees = sorted((sum(d), d) for d in itertools.product(range(3), repeat=2 + grid.dim)
                     if sum(d[2:]) <= 2)
    return [TestFunction(grid, d[0], d[1], d[2:]) for _, d in degrees[:n]]


@dataclass
class ResidualReport:
    labels: list[str]
    residuals: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def _cell_gradients(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Cell-centered spatial gradient (zero along single-cell axes)."""
    out = []
    for ax in range(grid.dim):
        if values.shape[1 + ax] < 2:
            out.append(np.zeros_like(values))
        else:
            out.append(np.gradient(values, grid.dx[ax], axis=1 + ax))
    return out


def _weak_residual(traj, grid: Grid, psis: list[TestFunction], node,
                   timed: bool) -> np.ndarray:
    """Residuals of the weak identity of a stored trajectory over ``psis``.

    ``node(i, state)`` returns ``(g1, g2, mu_s, m, alpha, k)`` at time node
    ``i``.  Every term is assembled with the trapezoid rule in time and
    age, the midpoint rule in space and cell-centered gradients.  With
    ``timed`` (the pathwise form) each term carries the time factor
    ``phi(t)``, the time derivative enters through ``dphi`` and the
    initial-data term is subtracted.  Otherwise (the stochastic form) the
    time factor is 1, the endpoint difference ``p(T) - p(0)`` stands in for
    the derivative term, and the caller adds the Ito sum.
    """
    tw = grid.time_weights
    aw = grid.age_weights.reshape((-1,) + (1,) * grid.dim)
    face_aw = aw[..., 0]   # on a face: the age weights of its age nodes
    vol = grid.cell_volume
    res = np.zeros(len(psis))
    if not timed:
        for j, psi in enumerate(psis):
            res[j] = np.sum((traj[-1] - traj[0]) * psi.A * aw) * vol

    for i, t in enumerate(grid.times):
        y = traj[i]
        g1, g2, mu_s, m, alpha, k = node(i, y)
        grads = _cell_gradients(y, grid)
        renewal_inner = np.sum(aw * m * y, axis=0)
        neg_y, decay = -y, y * g1 + mu_s * y   # what no test function changes, once per node
        drift = [g2[ax] * grads[ax] for ax in range(grid.dim)]
        robin = [(face, alpha[face] * np.take(y, -face.side, axis=1 + face.axis) + k[face],
                  face_measure(grid, face)) for face in boundary_faces(grid)]   # trace: next cell
        for j, psi in enumerate(psis):
            ph, dph = (psi.phi(t), psi.dphi(t)) if timed else (1.0, 0.0)
            # interior terms, all weighted by the time rule
            bulk = neg_y * psi.A * dph - y * psi.A_a * ph + decay * psi.A * ph
            for ax in range(grid.dim):
                bulk += (grads[ax] * psi.A_grad[ax] + drift[ax] * psi.A) * ph
            val = np.sum(bulk * aw) * vol * tw[i]
            # exit-age trace and renewal row
            val += np.sum(y[-1] * psi.A[-1]) * vol * ph * tw[i]
            val -= np.sum(renewal_inner * psi.A[0]) * vol * ph * tw[i]
            for face, flux, measure in robin:
                val += float(np.sum(flux * psi.face_values[face] * face_aw)) * measure * ph * tw[i]
            res[j] += val
    if timed:
        for j, psi in enumerate(psis):
            res[j] -= np.sum(traj[0] * psi.A * aw) * vol * psi.phi(0.0)
    return res


def weak_residual_random(report, model: PopulationModel,
                         bundle: BrownianBundle, n_psi: int = 6) -> ResidualReport:
    """Residual of the pathwise weak identity over a polynomial family.

    Assembles every term of the space-age-time weak form from a stored
    trajectory of the rescaled state, with the path's coefficients ``g1``,
    ``g2``, ``k`` and the rescaled fertility.  For the discrete solution
    the residual decays at first order under grid refinement.
    """
    if report.solver != "rescaled":
        raise ConfigurationError("the pathwise residual expects a rescaled-state report")
    traj = report.trajectory  # raises when stored with stride > 1
    grid = report.grid
    rates = model.rates
    coeffs = RescaledCoefficients(model, bundle)
    gamma_vals = evaluate_gamma(rates, grid)
    psis = build_test_functions(grid, n_psi)

    def node(i, y):
        t = grid.times[i]
        fields = coeffs.node_fields(i)
        u_val = weighted_population(fields["exp_w"] * y, gamma_vals, model.region, grid)
        return (fields["g1"], fields["g2"], evaluate_on_grid(rates.mu_s, grid, t, u_val),
                evaluate_on_grid(rates.m0, grid, t, u_val) * fields["exp_dw0"],
                evaluate_on_faces(rates.alpha0, grid, t), coeffs.k_faces(i))

    res = _weak_residual(traj, grid, psis, node, timed=True)
    return ResidualReport([p.label for p in psis], res)


def weak_residual_stochastic(report, model: PopulationModel,
                             bundle: BrownianBundle,
                             n_psi: int = 6) -> ResidualReport:
    """Residual of the noisy weak identity for a density trajectory.

    Test functions depend on age and space only.  The stochastic integral
    is assembled with the state at the left endpoint of each step times
    the Brownian increment, which is the discrete counterpart of the Ito
    integral and has zero mean.
    """
    if report.solver != "direct":
        raise ConfigurationError("the stochastic residual expects a density report")
    traj = report.trajectory
    grid = report.grid
    rates = model.rates
    amp = amplitude_grids(model.noise, grid)
    gamma_vals = evaluate_gamma(rates, grid)
    psis = [p for p in build_test_functions(grid, 64) if p.q_t == 0][:n_psi]

    def node(i, p):
        t = grid.times[i]
        u_val = weighted_population(p, gamma_vals, model.region, grid)
        return (0.0, (0.0,) * grid.dim, evaluate_on_grid(rates.mu_s, grid, t, u_val),
                evaluate_on_grid(rates.m0, grid, t, u_val),
                evaluate_on_faces(rates.alpha0, grid, t), evaluate_on_faces(rates.k0, grid, t))

    res = _weak_residual(traj, grid, psis, node, timed=False)
    # Ito sum: left-endpoint state against each mode's increment
    aw = grid.age_weights.reshape((-1,) + (1,) * grid.dim)
    vol = grid.cell_volume
    for n in range(grid.n_t):
        p = traj[n]
        dinc = bundle.increments[:, n]
        for j, psi in enumerate(psis):
            weights = np.sum(amp.values * (p * psi.A * aw), axis=tuple(range(1, p.ndim + 1))) * vol
            res[j] -= float(np.dot(weights, dinc))
    return ResidualReport([f"a^{p.deg_a} x^{p.deg_x}" for p in psis], res)


# ---------------------------------------------------------------------------
# check report rows


@dataclass
class CheckRow:
    """One check of ``checks.csv``; it passes when ``value <= threshold``."""

    name: str
    value: float
    threshold: float

    def __post_init__(self):
        self.value = float(self.value)
        self.threshold = float(self.threshold)

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold
