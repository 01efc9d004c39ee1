"""Explicit constants, quantitative bounds, and weak-form residuals.

The energy estimate for the pathwise system bounds the solution energy by
an exponential of the coefficient sups times the data energy.  The two
calibration numbers ``c0`` and ``c1`` are not pinned down by theory; the
artifact treats them as configuration, calibrated once on a frozen
regression suite and used as pass thresholds afterwards.  What the checks
exercise is the *structure* of the bounds: monotonicity in the
coefficient sups, quadratic scaling in the data, and boundedness of the
ratios under refinement.  The checks read no stored trajectory: an
:class:`EstimateAccumulator` observes a rescaled march and gathers their
terms at each node from the states and coefficients the march holds there.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StochageError
from .grid import (Grid, boundary_faces, face_measure, face_shape, gradient_energy, l2_norm,
                   weighted_population)
from .model import PopulationModel
from .noise import amplitude_grids
from .rates import evaluate_gamma, evaluate_on_faces, evaluate_on_grid
from .rescale import CoefficientSups, densities


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


def constants_for_run(model: PopulationModel, sups: CoefficientSups,
                      c0: float = 1.0, c1: float = 1.0,
                      y0_norm_sq: float | None = None) -> EstimateConstants:
    """The energy-bound constants of one path from the rate sups of ``model``,
    its coefficient ``sups`` (a rescaled report's, or those of ``sups_so_far``) and
    the data energy ``y0_norm_sq``, by default that of ``model.p0``.

    ``r0`` bounds the squared solution norm by the growth factor times the
    data energy; the truncation threshold is ``ceil(r0) + 1``.  The
    Lipschitz aggregates ``l1`` (fertility side) and ``l2`` (mortality
    side) feed the continuous-dependence prefactor.
    """
    rates, volume, a_max, horizon = model.rates, model.region_volume, model.grid.a_max, model.grid.T
    if y0_norm_sq is None:
        y0_norm_sq = l2_norm(model.p0, model.grid) ** 2
    mu_inf, m0_inf, gamma_inf = rates.mu_s.sup, rates.m0.sup, rates.gamma.sup
    c_w0, c_w = sups.c_w0, sups.c_w
    c_est = growth_factor(c0, c1, sups.g1_sup, sups.g2_sup, a_max, m0_inf, c_w0,
                          mu_inf, horizon)
    r0 = c_est * (y0_norm_sq + sups.k_sq_integral)
    if not math.isfinite(r0):
        raise StochageError(f"energy bound exponent {math.log(c_est / c0):.4g} "
                            f"overflows a float times the data energy")
    n0 = int(math.ceil(r0)) + 1
    geom = gamma_inf * math.sqrt(a_max * volume)
    l1 = c_w0 * c_w * rates.m0.lipschitz(r0) * geom * r0 + c_w0 * m0_inf
    l2 = c_w * rates.mu_s.lipschitz(r0) * geom * r0 + mu_inf
    return EstimateConstants(
        c0=c0, c1=c1, sups=sups, region_volume=volume, a_max=a_max,
        horizon=horizon, y0_norm_sq=y0_norm_sq, c_est=c_est, r0=r0, n0=n0,
        l1=l1, l2=l2)


# ---------------------------------------------------------------------------
# a priori energy bound


def _cumtrapz(series: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(series)
    out[1:] = np.cumsum(0.5 * (series[1:] + series[:-1]) * dt)
    return out


def apriori_check(acc: EstimateAccumulator, consts: EstimateConstants) -> np.ndarray:
    """Ratio of solution energy to the bound, per time level, of the stored
    run of ``acc`` and the constants of its path.

    Left side: squared state norm, the exit-age trace integrated in time,
    and the time integral of the gradient-augmented norm.  Right side:
    growth factor times initial energy plus the time integral of the
    squared boundary norm of ``k0 exp(-W)`` per node, from the constants'
    sups.  Ratios at most 1 mean the calibrated bound holds; a
    zero-over-zero level counts as a pass.
    """
    sq, left = acc.energy(0)
    right = consts.c_est * (sq[0] + _cumtrapz(np.array(consts.sups.k_sq), acc.grid.dt))
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


def dependence_check(acc: EstimateAccumulator, path: int, consts1: EstimateConstants,
                     consts2: EstimateConstants | None = None) -> DependenceResult:
    """Solution-difference energy at the final time of the stored run of
    ``acc`` minus its run ``path`` (>= 1) against the data-difference bound.

    The prefactor uses the worse of the two runs' coefficient sups, so the
    result is symmetric under swapping the runs.  The runs share their
    noise path and coefficients, so the data difference is that of the
    initial states.
    """
    consts2 = consts2 or consts1
    d_sq, left = acc.energy(path)
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
    Derivatives are analytic.  ``A``, ``A_a`` and ``A_grad`` keep the shape
    of their factors, for consumers to broadcast; ``face_values`` the faces'.
    """

    def __init__(self, grid: Grid, q_t: int, deg_a: int, deg_x: tuple[int, ...]):
        self.grid = grid
        self.q_t = q_t
        self.deg_a = deg_a
        self.deg_x = deg_x
        self.label = f"t^{q_t}(1-t/T) a^{deg_a} x^{deg_x}"
        am = grid.age_mesh / grid.a_max
        xs = [mesh / ext for mesh, ext in zip(grid.space_meshes, grid.extent)]
        age = am ** deg_a if deg_a else 1.0
        age_a = (deg_a / grid.a_max) * am ** (deg_a - 1) if deg_a else 0.0
        self.A = _monomials(age, xs, deg_x)
        self.A_a = _monomials(age_a, xs, deg_x)
        self.A_grad = [_monomials(age, xs, deg_x, skip=axis)
                       * ((d / ext) * x ** (d - 1) if d else 0.0 * x)
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


def _weak_node(res: np.ndarray, y: np.ndarray, u: float, model: PopulationModel,
               psis: list[TestFunction], i: int, coefficients: tuple, timed: bool) -> None:
    """Add the terms of time node ``i`` of the weak identity of the state
    ``y``, whose population functional is ``u``, over ``psis`` to ``res``.

    ``coefficients`` are ``(g1, g2, exp_dw0, k)`` at the node; the rates are
    evaluated here.  Every term is assembled with the trapezoid rule in time
    and age, the midpoint rule in space and cell-centered gradients.  With
    ``timed`` (the pathwise form) each term carries the time factor
    ``phi(t)`` and the time derivative enters through ``dphi``; the caller
    subtracts the initial-data term.  Otherwise (the stochastic form) the
    time factor is 1, and the caller adds the endpoint difference
    ``p(T) - p(0)``, which stands in for the derivative term, and the Ito sum.
    """
    grid, rates = model.grid, model.rates
    t, tw, vol = grid.times[i], grid.time_weights[i], grid.cell_volume
    aw = grid.age_weights.reshape((-1,) + (1,) * grid.dim)
    face_aw = aw[..., 0]   # on a face: the age weights of its age nodes
    (g1, g2, exp_dw0, k), alpha = coefficients, evaluate_on_faces(rates.alpha0, grid, t)
    mu_s = evaluate_on_grid(rates.mu_s, grid, t, u)
    m = evaluate_on_grid(rates.m0, grid, t, u) * exp_dw0
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
        val = np.sum(bulk * aw) * vol * tw
        # exit-age trace and renewal row
        val += np.sum(y[-1] * psi.A[-1]) * vol * ph * tw
        val -= np.sum(renewal_inner * psi.A[0]) * vol * ph * tw
        for face, flux, measure in robin:
            val += float(np.sum(flux * psi.face_values[face] * face_aw)) * measure * ph * tw
        res[j] += val


class EstimateAccumulator:
    """Observer of a rescaled march (``solve_rescaled_batch(..., observer=)``)
    that gathers the checks' terms at each node while the march holds it.

    Path 0 is the stored run: it gets the energy estimate's terms (squared
    norm, exit-age trace, gradient energy; :func:`apriori_check`) and the
    pathwise weak residual over ``n_psi`` test functions, from the
    coefficients the march built (:meth:`weak_residual`; it decays at first
    order under refinement).  Each other path ``j`` shares the noise path
    and gets the energy terms of path 0 minus path ``j``
    (:func:`dependence_check`).  Nothing is gathered once path 0 has left.
    """

    def __init__(self, model: PopulationModel, n_psi: int = 6):
        self.model, self.grid = model, model.grid
        self.psis = build_test_functions(model.grid, n_psi)
        self.terms = self._residual = self._initial = None   # set afresh at node 0

    def __call__(self, i: int, states: np.ndarray, paths: np.ndarray, u, coefficients) -> None:
        grid = self.grid
        if i == 0:   # terms per path, energy term and node
            self.terms = np.full((paths[-1] + 1, 3, grid.n_t + 1), np.nan)
            self._residual = np.zeros(len(self.psis))
        if paths[0] != 0:
            return
        y = states[0]
        # a term past a float is inf or NaN, named by the march, the bound or its check row
        with np.errstate(over="ignore", invalid="ignore"):
            for row, j in enumerate(paths):
                d = y - states[row] if row else y
                self.terms[j, :, i] = (np.float64(l2_norm(d, grid)) ** 2,   # a float's pow, or inf
                                       np.sum(np.square(d[grid.rows(-1)])) * grid.cell_volume,
                                       gradient_energy(d, grid))
            g1, g2, exp_dw0, k = coefficients
            _weak_node(self._residual, y, u[0], self.model, self.psis, i, (
                g1[0], [g[0] for g in g2], exp_dw0[0], {f: a[0] for f, a in k.items()}), timed=True)
            if i == 0:
                self._initial = np.array([np.sum(y * psi.A * grid.age_weight_field)
                                          * grid.cell_volume * psi.phi(0.0) for psi in self.psis])

    def energy(self, path: int) -> tuple[np.ndarray, np.ndarray]:
        """Per node, the squared norm and the energy estimate's left side of
        path 0 (``path = 0``) or of path 0 minus ``path``: that squared norm
        plus the trapezoid time integrals of the exit-age trace and of the
        squared norm plus the gradient energy."""
        if self.terms is None:
            raise ConfigurationError("the estimates observed no rescaled march")
        sq, exit_trace, grad = self.terms[path]
        dt = self.grid.dt
        return sq, sq + _cumtrapz(exit_trace, dt) + _cumtrapz(sq + grad, dt)

    def weak_residual(self) -> ResidualReport:
        """Residual of the pathwise weak identity of path 0 over the test functions."""
        if self._initial is None:
            raise ConfigurationError("the estimates observed no rescaled march")
        return ResidualReport([p.label for p in self.psis], self._residual - self._initial)


def weak_residual_stochastic(report, model: PopulationModel,
                             n_psi: int = 6) -> ResidualReport:
    """Residual of the noisy weak identity of the :func:`~stochage.rescale.densities`
    of a report of either route stored at stride 1 (rescaled: ``p = exp(W) y``).

    Test functions depend on age and space only.  The stochastic integral
    is assembled with the density at the left endpoint of each step times the
    Brownian increment of the report's own bundle, which is the discrete
    counterpart of the Ito integral and has zero mean.
    """
    grid = report.grid
    if len(report.snapshot_indices) != grid.n_t + 1:
        raise ConfigurationError(
            f"the stochastic residual needs every time node, got {len(report.snapshot_indices)} "
            f"of {grid.n_t + 1}; solve with snapshot_stride=1")
    traj, vol = densities(report, model), grid.cell_volume
    amp = amplitude_grids(model.noise, grid)
    gamma_vals = evaluate_gamma(model.rates, grid)
    psis = [p for p in build_test_functions(grid, 64) if p.q_t == 0][:n_psi]
    aw = grid.age_weight_field
    res = np.array([np.sum((traj[-1] - traj[0]) * psi.A * aw) * vol for psi in psis])
    for i, p in enumerate(traj):
        _weak_node(res, p, weighted_population(p, gamma_vals, model.region, grid), model, psis, i,
                   (0.0, (0.0,) * grid.dim, 1.0, evaluate_on_faces(model.rates.k0, grid,
                                                                   grid.times[i])), timed=False)
    # Ito sum: left-endpoint state against each mode's increment
    for n in range(grid.n_t):
        p = traj[n]
        dinc = report.bundle.increments[:, n]
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
