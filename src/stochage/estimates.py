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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import (Face, Grid, boundary_faces, face_measure, face_shape,
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

    Pure arithmetic: recomputing from the logged inputs must reproduce
    the stored values exactly.
    """

    c0: float
    c1: float
    g1_sup: float
    g2_sup: float
    div_g2_sup: float
    c_w0: float
    c_w: float
    mu_inf: float
    m0_inf: float
    gamma_inf: float
    region_volume: float
    a_max: float
    horizon: float
    y0_norm_sq: float
    k_sq_integral: float
    c_est: float
    r0: float
    n0: int
    l1: float
    l2: float


def growth_factor(c0: float, c1: float, g1_sup: float, g2_sup: float,
                  a_max: float, m0_inf: float, c_w0: float, mu_inf: float,
                  horizon: float) -> float:
    """Exponential prefactor of the energy bound."""
    expo = c1 * (1.0 + g1_sup + g2_sup ** 2
                 + a_max * m0_inf ** 2 * c_w0 ** 2 + mu_inf ** 2) * horizon
    return c0 * math.exp(expo)


def compute_constants(rates: VitalRates, *, c0: float = 1.0, c1: float = 1.0,
                      g1_sup: float, g2_sup: float, div_g2_sup: float,
                      c_w0: float, c_w: float, region_volume: float,
                      a_max: float, horizon: float, y0_norm_sq: float,
                      k_sq_integral: float) -> EstimateConstants:
    """Assemble the energy-bound constants from coefficient and data sups.

    ``r0`` bounds the squared solution norm by the growth factor times the
    data energy; the truncation threshold is ``ceil(r0) + 1``.  The
    Lipschitz aggregates ``l1`` (fertility side) and ``l2`` (mortality
    side) feed the continuous-dependence prefactor.
    """
    c_est = growth_factor(c0, c1, g1_sup, g2_sup, a_max, rates.m0_inf, c_w0,
                          rates.mu_inf, horizon)
    r0 = c_est * (y0_norm_sq + k_sq_integral)
    n0 = int(math.ceil(r0)) + 1
    geom = rates.gamma_inf * math.sqrt(a_max * region_volume)
    l1 = c_w0 * c_w * rates.lipschitz_m0(r0) * geom * r0 + c_w0 * rates.m0_inf
    l2 = c_w * rates.lipschitz_mu_s(r0) * geom * r0 + rates.mu_inf
    return EstimateConstants(
        c0=c0, c1=c1, g1_sup=g1_sup, g2_sup=g2_sup, div_g2_sup=div_g2_sup,
        c_w0=c_w0, c_w=c_w, mu_inf=rates.mu_inf, m0_inf=rates.m0_inf,
        gamma_inf=rates.gamma_inf, region_volume=region_volume, a_max=a_max,
        horizon=horizon, y0_norm_sq=y0_norm_sq, k_sq_integral=k_sq_integral,
        c_est=c_est, r0=r0, n0=n0, l1=l1, l2=l2)


def constants_for_run(model: PopulationModel,
                      bundle: BrownianBundle | None = None,
                      coeffs: RescaledCoefficients | None = None,
                      c0: float = 1.0, c1: float = 1.0,
                      sups: CoefficientSups | None = None) -> EstimateConstants:
    """Constants for one model and sampled path (one sweep over the nodes,
    skipped when the path's coefficient ``sups`` are given)."""
    if sups is None:
        if coeffs is None:
            if bundle is None:
                raise ConfigurationError(
                    "a bundle, coefficients or their sups are required")
            coeffs = RescaledCoefficients(model, bundle)
        sups = coeffs.coefficient_sups()
    return compute_constants(
        model.rates, c0=c0, c1=c1, g1_sup=sups.g1_sup, g2_sup=sups.g2_sup,
        div_g2_sup=sups.div_g2_sup, c_w0=sups.c_w0, c_w=sups.c_w,
        region_volume=model.region_volume, a_max=model.grid.a_max,
        horizon=model.grid.T,
        y0_norm_sq=l2_norm(model.initial.p0) ** 2,
        k_sq_integral=sups.k_sq_integral)


# ---------------------------------------------------------------------------
# a priori energy bound


def _cumtrapz(series: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(series)
    out[1:] = np.cumsum(0.5 * (series[1:] + series[:-1]) * dt)
    return out


def apriori_check(report, consts: EstimateConstants) -> np.ndarray:
    """Ratio of solution energy to the bound, per time level.

    Left side: squared state norm, the exit-age trace integrated in time,
    and the time integral of the gradient-augmented norm.  Right side:
    growth factor times initial energy plus the boundary-datum integral.
    Ratios at most 1 mean the calibrated bound holds; a zero-over-zero
    level counts as a pass.
    """
    dt = report.grid.dt
    sq = report.l2_series ** 2
    left = sq + _cumtrapz(report.exit_trace_series, dt) \
        + _cumtrapz(sq + report.gradient_energy_series, dt)
    right = consts.c_est * (sq[0] + _cumtrapz(report.k_norm_sq_series, dt))
    return np.array([_ratio(l, r) for l, r in zip(left, right)])


def _ratio(left: float, right: float) -> float:
    """``left / right``, counting a zero-over-zero as 0 (a pass)."""
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
                     consts2: EstimateConstants | None = None, *,
                     y0_diff_sq: float | None = None,
                     f_diff_sq_integral: float = 0.0,
                     g1_diff_sup: float = 0.0,
                     g2_diff_sup: float = 0.0,
                     alpha_diff_sup: float = 0.0,
                     k_diff_sq_integral: float = 0.0) -> DependenceResult:
    """Solution-difference energy against the data-difference bound.

    The prefactor uses the worse of the two runs' coefficient sups, so the
    result is symmetric under swapping the runs.  Differences of the
    coefficient fields enter through their sups (squared here), weighted
    by the larger energy bound of the two runs.
    """
    if consts2 is None:
        consts2 = consts1
    if report1.grid != report2.grid:
        raise ConfigurationError("dependence check needs a shared grid")
    traj1, traj2 = report1.trajectory, report2.trajectory
    grid = report1.grid
    dt = grid.dt
    n = len(report1.times)
    d_sq = np.zeros(n)
    d_exit = np.zeros(n)
    d_grad = np.zeros(n)
    for i in range(n):
        d = traj1[i] - traj2[i]
        d_sq[i] = l2_norm(d, grid) ** 2
        d_exit[i] = float(np.sum(d[-1] ** 2)) * grid.cell_volume
        d_grad[i] = gradient_energy(d, grid)
    left = d_sq[-1] + _cumtrapz(d_exit, dt)[-1] + _cumtrapz(d_sq + d_grad, dt)[-1]
    if y0_diff_sq is None:
        y0_diff_sq = d_sq[0]
    c0, c1 = consts1.c0, consts1.c1
    expo = c1 * (1.0 + max(consts1.g1_sup, consts2.g1_sup)
                 + max(consts1.div_g2_sup, consts2.div_g2_sup)
                 + max(consts1.l1, consts2.l1) ** 2
                 + consts1.a_max * max(consts1.l2, consts2.l2) ** 2) \
        * consts1.horizon
    prefactor = c0 * math.exp(min(expo, 700.0))
    cbar = max(consts1.r0, consts2.r0)
    right = prefactor * (y0_diff_sq + f_diff_sq_integral
                         + cbar * (g1_diff_sup ** 2 + g2_diff_sup ** 2
                                   + alpha_diff_sup ** 2)
                         + k_diff_sq_integral)
    return DependenceResult(difference_energy=left, data_energy=right,
                            ratio=_ratio(left, right))


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
        am = grid.age_mesh / grid.a_max
        self.A = am ** deg_a if deg_a else np.ones(grid.field_shape)
        self.A = np.broadcast_to(self.A, grid.field_shape).copy()
        self.A_a = (deg_a / grid.a_max) * am ** (deg_a - 1) if deg_a else \
            np.zeros(grid.field_shape)
        self.A_a = np.broadcast_to(self.A_a, grid.field_shape).copy()
        self.A_grad = []
        for axis in range(grid.dim):
            xm = grid.space_meshes[axis] / grid.extent[axis]
            d = deg_x[axis]
            factor = np.ones(grid.field_shape)
            for ax2, d2 in enumerate(deg_x):
                xm2 = grid.space_meshes[ax2] / grid.extent[ax2]
                if ax2 == axis:
                    continue
                factor = factor * xm2 ** d2
            g = (d / grid.extent[axis]) * xm ** (d - 1) if d else 0.0
            self.A_grad.append(np.broadcast_to(
                (am ** deg_a) * factor * g, grid.field_shape).copy())
        for axis, d in enumerate(deg_x):
            xm = grid.space_meshes[axis] / grid.extent[axis]
            self.A = self.A * xm ** d
            self.A_a = self.A_a * xm ** d
        self.face_values = {}
        for face, (ages, coords) in grid.boundary_meshes.items():
            val = (ages / grid.a_max) ** deg_a if deg_a else np.asarray(1.0)
            for axis, d in enumerate(deg_x):
                c = coords[axis] / grid.extent[axis]
                val = val * np.asarray(c, dtype=float) ** d
            self.face_values[face] = np.broadcast_to(val, face_shape(grid, face))

    def phi(self, t: float) -> float:
        s = t / self.grid.T
        return (1.0 - s) * s ** self.q_t

    def dphi(self, t: float) -> float:
        s = t / self.grid.T
        q = self.q_t
        if q == 0:
            return -1.0 / self.grid.T
        return (q * s ** (q - 1) - (q + 1) * s ** q) / self.grid.T


def build_test_functions(grid: Grid, n: int) -> list[TestFunction]:
    """First ``n`` tensor polynomials ordered by total degree."""
    combos = []
    degs = range(3)
    for q_t in degs:
        for deg_a in degs:
            if grid.dim == 1:
                xs = [(j,) for j in degs]
            else:
                xs = [(j, k) for j in degs for k in degs if j + k <= 2]
            for dx in xs:
                combos.append((q_t + deg_a + sum(dx), q_t, deg_a, dx))
    combos.sort()
    out = []
    for _, q_t, deg_a, dx in combos[:n]:
        out.append(TestFunction(grid, q_t, deg_a, dx))
    return out


@dataclass
class ResidualReport:
    labels: list[str]
    residuals: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def _time_weights(n_t: int, dt: float) -> np.ndarray:
    w = np.full(n_t + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _cell_gradients(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Cell-centered spatial gradient (zero along single-cell axes)."""
    out = []
    for ax in range(grid.dim):
        if values.shape[1 + ax] < 2:
            out.append(np.zeros_like(values))
        else:
            out.append(np.gradient(values, grid.dx[ax], axis=1 + ax))
    return out


def weak_residual_random(report, model: PopulationModel,
                         bundle: BrownianBundle, n_psi: int = 6,
                         coeffs: RescaledCoefficients | None = None) -> ResidualReport:
    """Residual of the pathwise weak identity over a polynomial family.

    Assembles every term of the space-age-time weak form (trapezoid in
    time and age, midpoint in space, cell-centered gradients) from a
    stored trajectory of the rescaled state.  For the discrete solution
    the residual decays at first order under grid refinement.
    """
    if report.variable != "y":
        raise ConfigurationError("the pathwise residual expects a rescaled-state report")
    traj = report.trajectory  # raises when stored with stride > 1
    grid = report.grid
    if coeffs is None:
        coeffs = RescaledCoefficients(model, bundle)
    gamma_vals = evaluate_gamma(model.rates, grid)
    psis = build_test_functions(grid, n_psi)
    tw = _time_weights(grid.n_t, grid.dt)
    aw = grid.age_weights.reshape((-1,) + (1,) * grid.dim)
    vol = grid.cell_volume
    res = np.zeros(len(psis))

    for i, t in enumerate(grid.times):
        y = traj[i]
        exp_w = coeffs.exp_w(i)
        u_val = weighted_population(exp_w * y, gamma_vals, model.region, grid)
        mu_s = coeffs.mu_s_values(i, u_val)
        m = coeffs.m_values(i, u_val)
        g1 = coeffs.g1(i)
        g2 = coeffs.g2(i)
        grads = _cell_gradients(y, grid)
        renewal_inner = np.sum(aw * m * y, axis=0)
        alpha = coeffs.alpha_faces(i)
        k = coeffs.k_faces(i)
        for j, psi in enumerate(psis):
            ph, dph = psi.phi(t), psi.dphi(t)
            # interior terms, all weighted by the time rule
            bulk = -y * psi.A * dph - y * psi.A_a * ph \
                + (y * g1 + mu_s * y) * psi.A * ph
            for ax in range(grid.dim):
                bulk += (grads[ax] * psi.A_grad[ax] + g2[ax] * grads[ax] * psi.A) * ph
            val = np.sum(bulk * aw) * vol * tw[i]
            # exit-age trace and renewal row
            val += np.sum(y[-1] * psi.A[-1]) * vol * ph * tw[i]
            val -= np.sum(renewal_inner * psi.A[0]) * vol * ph * tw[i]
            # Robin boundary
            for face in boundary_faces(grid):
                y_face = _face_trace(y, face)
                fv = psi.face_values[face]
                contrib = (alpha[face] * y_face + k[face]) * fv
                wv = grid.age_weights.reshape((-1,) + (1,) * (contrib.ndim - 1))
                val += float(np.sum(contrib * wv)) * face_measure(grid, face) * ph * tw[i]
            res[j] += val
    # initial-data term
    for j, psi in enumerate(psis):
        res[j] -= np.sum(traj[0] * psi.A * aw) * vol * psi.phi(0.0)
    return ResidualReport([p.label for p in psis], res)


def _face_trace(values: np.ndarray, face: Face) -> np.ndarray:
    """Value of the cell adjacent to a boundary face (first-order trace)."""
    ax = 1 + face.axis
    idx = 0 if face.side == 0 else values.shape[ax] - 1
    return np.take(values, idx, axis=ax)


def weak_residual_stochastic(report, model: PopulationModel,
                             bundle: BrownianBundle,
                             n_psi: int = 6) -> ResidualReport:
    """Residual of the noisy weak identity for a density trajectory.

    Test functions depend on age and space only.  The stochastic integral
    is assembled with the state at the left endpoint of each step times
    the Brownian increment, which is the discrete counterpart of the Ito
    integral and has zero mean.
    """
    if report.variable != "p":
        raise ConfigurationError("the stochastic residual expects a density report")
    traj = report.trajectory
    grid = report.grid
    amp = amplitude_grids(model.noise, grid)
    gamma_vals = evaluate_gamma(model.rates, grid)
    psis = [p for p in build_test_functions(grid, 64) if p.q_t == 0][:n_psi]
    tw = _time_weights(grid.n_t, grid.dt)
    aw = grid.age_weights.reshape((-1,) + (1,) * grid.dim)
    vol = grid.cell_volume
    res = np.zeros(len(psis))

    for j, psi in enumerate(psis):
        res[j] = np.sum((traj[-1] - traj[0]) * psi.A * aw) * vol

    for i, t in enumerate(grid.times):
        p = traj[i]
        u_val = weighted_population(p, gamma_vals, model.region, grid)
        mu_s = evaluate_on_grid(model.rates.mu_s, grid, t, u_val)
        m0 = evaluate_on_grid(model.rates.m0, grid, t, u_val)
        grads = _cell_gradients(p, grid)
        renewal_inner = np.sum(aw * m0 * p, axis=0)
        alpha = evaluate_on_faces(model.rates.alpha0, grid, t)
        k = evaluate_on_faces(model.rates.k0, grid, t)
        for j, psi in enumerate(psis):
            bulk = -p * psi.A_a + mu_s * p * psi.A
            for ax in range(grid.dim):
                bulk += grads[ax] * psi.A_grad[ax]
            val = np.sum(bulk * aw) * vol
            val += np.sum(p[-1] * psi.A[-1]) * vol
            val -= np.sum(renewal_inner * psi.A[0]) * vol
            for face in boundary_faces(grid):
                fv = psi.face_values[face]
                contrib = (alpha[face] * _face_trace(p, face) + k[face]) * fv
                wv = grid.age_weights.reshape((-1,) + (1,) * (contrib.ndim - 1))
                val += float(np.sum(contrib * wv)) * face_measure(grid, face)
            res[j] += val * tw[i]

    # Ito sum: left-endpoint state against each mode's increment
    for n in range(grid.n_t):
        p = traj[n]
        dinc = bundle.increments[:, n]
        for j, psi in enumerate(psis):
            weights = np.sum(amp.values * (p * psi.A * aw), axis=tuple(range(1, p.ndim + 1))) * vol
            res[j] -= float(np.dot(weights, dinc))
    return ResidualReport([p.label for p in psis], res)


# ---------------------------------------------------------------------------
# check report rows


@dataclass
class CheckRow:
    name: str
    value: float
    threshold: float
    op: str          # "<=" or ">="
    passed: bool

    @classmethod
    def leq(cls, name: str, value: float, threshold: float) -> "CheckRow":
        return cls(name, float(value), float(threshold), "<=", bool(value <= threshold))

    @classmethod
    def geq(cls, name: str, value: float, threshold: float) -> "CheckRow":
        return cls(name, float(value), float(threshold), ">=", bool(value >= threshold))
