"""Operator-splitting solver for the pathwise transport-diffusion-renewal system.

Each time step advances the rescaled state through three substeps:

1. age transport along the characteristic ``dt = da`` with a pointwise
   exponential reaction factor,
2. the nonlocal renewal (birth) row at age zero,
3. an implicit backward-Euler diffusion solve per age level with Robin
   boundary closure (tridiagonal in 1d, alternating direction sweeps in 2d).

The nonlinearity enters only through the scalar population functional,
which couples the new time level to itself; a fixed-point loop freezes it
per iterate, guarded by a radial clipping of the argument that keeps the
rates globally Lipschitz.

Every substep maps nonnegative data to nonnegative data (the diffusion
matrix is an M-matrix and the custom tridiagonal solve never subtracts
positives), so nonnegative initial data with zero boundary inflow stays
nonnegative exactly, not just up to rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InsufficientDataError, NonconvergenceError
from .grid import (Face, Field, Grid, boundary_norm_sq, gradient_energy,
                   l2_norm, weighted_population)
from .model import PopulationModel
from .noise import BrownianBundle
from .rates import evaluate_gamma, evaluate_on_faces
from .rescale import RescaledCoefficients

logger = logging.getLogger(__name__)


def _thomas_factor(lower, diag: np.ndarray, upper) -> tuple:
    """Forward-elimination coefficients of tridiagonal systems.

    The solve axis leads: row ``i`` of ``lower``, ``diag`` and ``upper``
    holds the entries of equation ``i`` of every system.  ``lower[0]`` and
    ``upper[-1]`` are ignored.  The coefficients depend on the matrix
    only, so one factorization serves every right side with its shape.
    Returns the rows of ``lower``, of the eliminated upper diagonal and of
    the pivots.
    """
    n = diag.shape[0]
    cp = np.zeros(np.broadcast_shapes(np.shape(lower), diag.shape, np.shape(upper)))
    denom = np.empty_like(cp)
    denom[0] = diag[0]
    cp[0] = upper[0] / diag[0]
    for i in range(1, n):
        denom[i] = diag[i] - lower[i] * cp[i - 1]
        if i < n - 1:
            cp[i] = upper[i] / denom[i]
    return list(lower), list(cp), list(denom)


def _thomas_solve(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """Forward and back sweeps for a factor of :func:`_thomas_factor`.

    ``rhs`` has the solve axis leading and is overwritten with the
    solution; its trailing axes broadcast against the factor's systems.
    The arithmetic is the textbook Thomas algorithm operation for
    operation: for systems with positive diagonal, nonpositive
    off-diagonals and nonnegative right side every step combines
    nonnegative quantities, so the solution is nonnegative exactly in
    floating point.  That property is why this is hand-rolled instead of
    calling a pivoting solver.
    """
    lower, cp, denom = factor
    x = list(rhs if rhs.ndim > 1 else rhs[:, None])   # row views into rhs
    x[0] /= denom[0]
    for i in range(1, len(x)):
        x[i] -= lower[i] * x[i - 1]
        x[i] /= denom[i]
    for i in range(len(x) - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return rhs


def tridiagonal_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm over a batch of independent systems (last axis).

    ``lower[..., 0]`` and ``upper[..., -1]`` are ignored.  This is
    :func:`_thomas_factor` followed by :func:`_thomas_solve`, so it keeps
    their exact nonnegativity.
    """
    lower, diag, upper, rhs = (np.moveaxis(np.asarray(a, dtype=float), -1, 0)
                               for a in (lower, diag, upper, rhs))
    factor = _thomas_factor(lower, diag, upper)
    return np.moveaxis(_thomas_solve(factor, rhs.copy()), 0, -1)


def transport_reaction_substep(values: np.ndarray, g1, mu_s: np.ndarray,
                               g2, grid: Grid, dt: float) -> tuple[np.ndarray, float]:
    """Age the population one step and apply the zeroth-order decay.

    On an aligned grid (``dt == da``) the shift is exact: row ``k`` receives
    row ``k - 1`` times ``exp(-(g1 + mu_s) dt)`` evaluated at the departure
    row.  Off alignment a first-order age upwind is used instead (requires
    ``dt <= da``).  The age-zero row is zeroed and left for the renewal
    operation.  ``g1`` may be ``None`` (no rescaling terms) and ``g2`` may
    be ``None`` or all-zero to skip the spatial advection.

    ``values`` and the rate fields may carry leading path axes; a path
    whose ``g2`` is all-zero is not advected.  Returns the new values and
    the advection CFL number actually used, one per path (0 without
    advection; nonnegativity needs CFL <= 1).
    """
    rate = mu_s if g1 is None else g1 + mu_s
    decay = np.exp(-rate * dt)
    del rate
    out = np.zeros_like(values)
    older, younger = grid.rows(np.s_[1:]), grid.rows(np.s_[:-1])
    if grid.aligned:
        out[older] = values[younger] * decay[younger]
    else:
        c = dt / grid.da
        if c > 1.0 + 1e-12:
            raise ConfigurationError(
                f"unaligned transport needs dt <= da, got dt/da = {c:.3g}")
        out[older] = ((1.0 - c) * values[older] + c * values[younger]) * decay[older]
    del decay
    cfl = 0.0
    field_axes = tuple(range(-grid.dim - 1, 0))
    moving = False if g2 is None else np.any(
        [np.any(comp, axis=field_axes) for comp in g2], axis=0)
    if np.any(moving):
        still = ~moving[(Ellipsis,) + (None,) * (grid.dim + 1)]
        for axis, comp in enumerate(g2):
            c = comp * (dt / grid.dx[axis])
            cp = np.maximum(c, 0.0)
            cm = np.maximum(-c, 0.0)
            del c
            cfl = np.maximum(cfl, np.max(cp + cm, axis=field_axes))
            # out (1 - cp - cm) + cp lo + cm hi, where lo and hi hold the
            # upwind neighbours along the axis (an edge cell is its own)
            first, last, tail, head = (
                (Ellipsis, s) + (slice(None),) * (grid.dim - 1 - axis)
                for s in (np.s_[:1], np.s_[-1:], np.s_[1:], np.s_[:-1]))
            moved = out * (1.0 - cp - cm)
            moved[first] += cp[first] * out[first]
            moved[tail] += cp[tail] * out[head]
            moved[head] += cm[head] * out[tail]
            moved[last] += cm[last] * out[last]
            out = np.where(still, out, moved) if np.any(still) else moved
    return out, cfl


def renewal_row(values: np.ndarray, m_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Birth row: age-trapezoid of ``m * values`` per spatial cell.

    Inside a time step the transported field arrives with a zeroed
    age-zero row, so the row being produced does not feed itself; the
    omitted trapezoid weight there is ``da / 2``, first order like the
    splitting.  Leading path axes of ``values`` carry through.
    """
    w = grid.age_weights.reshape((-1,) + (1,) * grid.dim)
    return (w * m_values * values).sum(axis=-grid.dim - 1)


def _robin_factor(alpha_lo, alpha_hi, n: int, dx: float, dt: float,
                  paths: tuple = ()) -> tuple:
    """Factor of the implicit sweep matrices along an axis of ``n`` cells.

    Ghost closure ``ghost = interior - dx (alpha v + k)`` keeps the matrix
    an M-matrix for ``alpha >= 0``.  There is one system per entry of the
    face data ``alpha_lo``/``alpha_hi``, repeated over the leading ``paths``
    shape so that the solve's rows need no broadcasting.
    """
    a_lo, a_hi = np.broadcast_arrays(np.asarray(alpha_lo, dtype=float),
                                     np.asarray(alpha_hi, dtype=float))
    a_lo, a_hi = (np.broadcast_to(a, paths + a.shape) for a in (a_lo, a_hi))
    r = dt / dx ** 2
    diag = np.ones((n,) + a_lo.shape)
    if n > 1:
        diag += 2.0 * r
        diag[0] -= r
        diag[-1] -= r
    diag[0] += dt * a_lo / dx
    diag[-1] += dt * a_hi / dx
    off = np.full((n,) + (1,) * a_lo.ndim, -r)
    return _thomas_factor(off, diag, off)


class DiffusionFactors:
    """Factorizations of the diffusion sweeps, kept across time steps.

    The sweep matrices depend only on the step, the spacing and the Robin
    coefficient on the faces.  :meth:`get` returns the stored factors while
    those are unchanged and refactors as soon as one of them changes, so a
    time-dependent coefficient stays exact.  One instance serves one march.
    """

    def __init__(self):
        self._key = None
        self._alpha: dict = {}
        self._paths: tuple = ()
        self._factors: dict = {}

    def get(self, alpha: dict, grid: Grid, dt: float, paths: tuple = ()) -> list:
        """One factor per spatial axis for the face coefficients ``alpha``,
        for states with the leading ``paths`` shape.

        The first shape asked for gets factors repeated over its paths, so
        that the solve's rows need no broadcasting.  Any other shape (a
        batch some of whose paths have left the fixed point) shares one
        factor that broadcasts over the paths, which gives the same bits.
        """
        key = (dt, grid.n_x, grid.dx)
        if key != self._key or any(not np.array_equal(a, self._alpha[f])
                                   for f, a in alpha.items()):
            self._factors = {}
            self._key = key
            self._alpha = {f: np.array(a) for f, a in alpha.items()}
        if not self._factors:
            self._paths = paths
        rows = paths if paths == self._paths else ()
        if rows not in self._factors:
            self._factors[rows] = [
                _robin_factor(alpha[Face(axis, 0)], alpha[Face(axis, 1)],
                              grid.n_x[axis], grid.dx[axis], dt, rows)
                for axis in range(grid.dim)]
        return self._factors[rows]


def _sweep(vals: np.ndarray, axis: int, factor: tuple, k_lo, k_hi,
           dx: float, dt: float) -> np.ndarray:
    """One implicit diffusion sweep along array axis ``axis`` with Robin
    faces; ``factor`` comes from :func:`_robin_factor`."""
    rhs = np.moveaxis(vals, axis, 0).copy()
    rhs[0] -= dt * k_lo / dx
    rhs[-1] -= dt * k_hi / dx
    return np.moveaxis(_thomas_solve(factor, rhs), 0, axis)


def diffusion_substep(values: np.ndarray, alpha: dict, k: dict, grid: Grid,
                      dt: float, factors: DiffusionFactors | None = None) -> np.ndarray:
    """Backward-Euler diffusion with Robin flux on every boundary face.

    ``values`` holds a batch of age levels times space, optionally behind
    leading path axes; ``alpha`` and ``k`` map each :class:`Face` to data
    over the same age levels.  ``factors`` keeps the factorization across
    calls; without it the matrices are factored afresh.  In two dimensions
    the x and y sweeps are applied in sequence (first-order direction
    splitting); each sweep is unconditionally positivity preserving when
    ``k <= 0`` contributions are absent.
    """
    if factors is None:
        factors = DiffusionFactors()
    paths = values.shape[:values.ndim - grid.dim - 1]
    out = values
    for axis, factor in enumerate(factors.get(alpha, grid, dt, paths)):
        out = _sweep(out, values.ndim - grid.dim + axis, factor,
                     k[Face(axis, 0)], k[Face(axis, 1)], grid.dx[axis], dt)
    return out


def _split_step(state: np.ndarray, g1, mu_s: np.ndarray, g2, m: np.ndarray,
                faces: tuple | None, grid: Grid, dt: float,
                factors: DiffusionFactors) -> tuple[np.ndarray, float]:
    """The linear substeps of one time step, shared by both routes.

    Transport with decay, the renewal row from the fertility ``m``, then,
    unless ``faces`` is ``None``, diffusion of the ages > 0 with the Robin
    data ``faces = (alpha, k)``, whose arrays may carry the state's leading
    path axes.  Returns the new state (leading path axes carry through) and
    the advection CFL number per path.
    """
    v, cfl = transport_reaction_substep(state, g1, mu_s, g2, grid, dt)
    v[grid.rows(0)] = renewal_row(v, m, grid)
    if faces is not None:
        alpha, k = faces
        inner = grid.rows(np.s_[1:])
        face_inner = (Ellipsis, np.s_[1:]) + (slice(None),) * (grid.dim - 1)
        v[inner] = diffusion_substep(
            v[inner], {f: a[face_inner] for f, a in alpha.items()},
            {f: q[face_inner] for f, q in k.items()}, grid, dt, factors)
    return v, cfl


@dataclass
class TruncationGuard:
    """Radial clipping of the rate argument at a norm radius.

    Keeps the population functional's argument inside the ball where the
    locally Lipschitz rates are under control.  ``threshold`` records the
    radius derived from the a priori energy bound when it was computed
    automatically; activations beyond it indicate the bound or the grid
    is off.  A guard of a batch of paths holds one radius, threshold and
    activation count per path.
    """

    radius: float | np.ndarray
    threshold: int | np.ndarray | None = None
    activations: int | np.ndarray = 0

    def path(self, j) -> "TruncationGuard":
        """The guard of path ``j`` of a batch."""
        return TruncationGuard(
            radius=float(self.radius[j]), activations=int(self.activations[j]),
            threshold=None if self.threshold is None else int(self.threshold[j]))


def truncate_argument(values: np.ndarray, grid: Grid,
                      guard: TruncationGuard | None,
                      index: np.ndarray | None = None) -> np.ndarray:
    """Return ``values`` or its radial rescaling onto the guard ball.

    Identity when the norm is within the radius; otherwise scales to
    norm exactly ``radius`` and counts the activation.  Continuous at the
    boundary: both branches agree when the norm equals the radius.  A
    stack of fields is clipped path by path against a guard of a batch;
    ``index`` names the paths of the batch that ``values`` holds when it
    holds only some of them.
    """
    if guard is None:
        return values
    norm = l2_norm(values, grid)
    radius = guard.radius if index is None else guard.radius[index]
    clip = norm > radius
    if not np.any(clip):
        return values
    if index is None:
        guard.activations += clip
    else:
        guard.activations[index] += clip
    if guard.threshold is not None:
        threshold = guard.threshold if index is None else guard.threshold[index]
        for j in np.flatnonzero(clip & (radius >= threshold)):
            logger.warning(
                "truncation activated at norm %.3g despite radius %.3g >= "
                "threshold %d; the energy bound or the grid is too coarse",
                np.ravel(norm)[j], np.ravel(radius)[j], np.ravel(threshold)[j])
    scale = np.divide(radius, norm, out=np.ones_like(norm), where=clip)
    return values * scale[(Ellipsis,) + (None,) * (grid.dim + 1)]


@dataclass
class SolverConfig:
    """Knobs for both solvers (the direct one ignores the fixed-point part)."""

    picard_tol: float = 1e-10
    picard_max_iter: int = 50
    include_diffusion: bool = True
    truncation_radius: float | None = None  # None derives it from the energy bound
    snapshot_stride: int = 1                # 0 keeps only first and last
    c0: float = 1.0                         # calibration constants of the
    c1: float = 1.0                         # energy bound (see estimates)
    scheme: str = "milstein"                # direct-route factor: "milstein" | "em"

    def __post_init__(self):
        if self.scheme not in ("milstein", "em"):
            raise ConfigurationError(f"unknown direct-route scheme {self.scheme!r}")
        if self.snapshot_stride < 0:
            raise ConfigurationError(f"snapshot stride must be >= 0, got {self.snapshot_stride}")


@dataclass
class SolveReport:
    """Trajectory plus per-step diagnostics of one pathwise solve."""

    solver: str
    variable: str                  # "y" (rescaled state) or "p" (density)
    grid: Grid
    times: np.ndarray
    stride: int
    snapshot_indices: np.ndarray
    snapshots: np.ndarray
    final: np.ndarray
    l2_series: np.ndarray
    gradient_energy_series: np.ndarray
    exit_trace_series: np.ndarray
    births_series: np.ndarray
    u_series: np.ndarray
    k_norm_sq_series: np.ndarray
    picard_iterations: np.ndarray
    contraction_ratios: np.ndarray
    guard: TruncationGuard | None
    cfl_max: float
    noise_factor_warnings: int = 0

    @property
    def trajectory(self) -> np.ndarray:
        """Full state history; only available when stored at stride 1."""
        if self.stride != 1:
            raise InsufficientDataError(
                f"trajectory stored with stride {self.stride}; rerun with "
                f"snapshot_stride=1")
        return self.snapshots

    def field_at(self, t_index: int) -> np.ndarray:
        pos = np.searchsorted(self.snapshot_indices, t_index)
        if pos >= len(self.snapshot_indices) or self.snapshot_indices[pos] != t_index:
            raise InsufficientDataError(f"time index {t_index} was not stored")
        return self.snapshots[pos]

    @property
    def final_field(self) -> Field:
        return Field(self.final, self.grid)


def _snapshot_indices(n_t: int, stride: int) -> np.ndarray:
    if stride <= 0:
        return np.array([0, n_t])
    idx = list(range(0, n_t + 1, stride))
    if idx[-1] != n_t:
        idx.append(n_t)
    return np.array(idx)


def _auto_guard(model: PopulationModel, coeffs: RescaledCoefficients,
                config: SolverConfig) -> TruncationGuard:
    """One guard radius per path of ``coeffs``: the threshold of the path's
    energy bound."""
    from . import estimates  # deferred: estimates has no solver dependency

    n0 = np.array([estimates.constants_for_run(model, sups=sups, c0=config.c0,
                                               c1=config.c1).n0
                   for sups in coeffs.coefficient_sups()])
    return TruncationGuard(radius=n0.astype(float), threshold=n0,
                           activations=np.zeros(len(n0), dtype=int))


@dataclass
class StepResult:
    """One time step of either route: the new state, its population
    functional and the Robin datum ``k`` on the faces, then diagnostics
    whose defaults are the direct route's (no fixed point, no advection).
    The diagnostics are one value for all paths or one per path;
    ``overshoot`` flags per path a noise factor more than 1 away from 1."""

    state: np.ndarray
    u_value: float | np.ndarray
    k_faces: dict
    iterations: int | np.ndarray = 0
    contraction_ratio: float | np.ndarray = np.nan
    cfl: float | np.ndarray = 0.0
    overshoot: int | np.ndarray = 0


def _march(model: PopulationModel, n_paths: int, gamma: np.ndarray, step,
           config: SolverConfig, solver: str, variable: str,
           guard: TruncationGuard | None = None) -> list[SolveReport]:
    """The time loop of both routes; one report per path.

    The noise vanishes at time zero, so both routes start every path from
    the initial density (a leading path axis of ``n_paths``), its
    population functional with weight ``gamma`` and the Robin datum
    ``k0``.  ``step(t_index, state, u_value)`` returns the
    :class:`StepResult` at time node ``t_index``.  ``guard`` holds one
    entry per path.
    """
    grid = model.grid
    n_t = grid.n_t
    state = np.repeat(model.initial.p0.values[None], n_paths, axis=0)
    u_value = weighted_population(state, gamma, model.region, grid)
    indices = _snapshot_indices(n_t, config.snapshot_stride)
    snapshots = np.empty((n_paths, len(indices)) + grid.field_shape)
    series = {name: np.zeros((n_paths, n_t + 1)) for name in
              ("l2", "grad", "exit", "births", "u", "k_sq")}
    iterations = np.zeros((n_paths, n_t), dtype=int)
    ratios = np.full((n_paths, n_t), np.nan)
    cfl_max = np.zeros(n_paths)
    warnings = np.zeros(n_paths, dtype=int)
    space = tuple(range(-grid.dim, 0))
    vol = grid.cell_volume

    def record(i: int, state: np.ndarray, u_value, k_faces: dict):
        series["l2"][:, i] = l2_norm(state, grid)
        series["grad"][:, i] = gradient_energy(state, grid)
        series["exit"][:, i] = np.sum(state[grid.rows(-1)] ** 2, axis=space) * vol
        series["births"][:, i] = np.sum(state[grid.rows(0)], axis=space) * vol
        series["u"][:, i] = u_value
        series["k_sq"][:, i] = boundary_norm_sq(k_faces, grid)
        pos = np.searchsorted(indices, i)
        if pos < len(indices) and indices[pos] == i:
            snapshots[:, pos] = state

    record(0, state, u_value, evaluate_on_faces(model.rates.k0, grid, 0.0))
    for n in range(n_t):
        result = step(n + 1, state, u_value)
        state, u_value = result.state, result.u_value
        iterations[:, n] = result.iterations
        ratios[:, n] = result.contraction_ratio
        cfl_max = np.maximum(cfl_max, result.cfl)
        warnings += result.overshoot
        record(n + 1, state, u_value, result.k_faces)

    return [SolveReport(
        solver=solver, variable=variable, grid=grid, times=grid.times,
        stride=config.snapshot_stride, snapshot_indices=indices,
        snapshots=snapshots[j], final=state[j],
        l2_series=series["l2"][j], gradient_energy_series=series["grad"][j],
        exit_trace_series=series["exit"][j], births_series=series["births"][j],
        u_series=series["u"][j], k_norm_sq_series=series["k_sq"][j],
        picard_iterations=iterations[j], contraction_ratios=ratios[j],
        guard=None if guard is None else guard.path(j),
        cfl_max=float(cfl_max[j]), noise_factor_warnings=int(warnings[j]))
        for j in range(n_paths)]


def _rows(data, keep):
    """The paths ``keep`` of per-path data: an array or a tuple or dict of
    arrays, each with the path axis leading."""
    if isinstance(data, dict):
        return {key: a[keep] for key, a in data.items()}
    if isinstance(data, tuple):
        return tuple(a[keep] for a in data)
    return data[keep]


def picard_step_solve(y: np.ndarray, t_index: int,
                      coeffs: RescaledCoefficients, gamma_vals: np.ndarray,
                      region, guard: TruncationGuard | None,
                      config: SolverConfig,
                      factors: DiffusionFactors | None = None) -> StepResult:
    """Advance one time step by fixed-point iteration on the frozen rates.

    Each iterate clips the candidate new-time state onto the guard ball,
    freezes the population functional and through it the mortality and
    fertility fields, then solves the linear substeps (transport, renewal,
    diffusion) from the old state.  Iteration stops when successive
    candidates differ by less than ``picard_tol`` relative to the current
    one; with an infinite tolerance the first iterate is returned, and a
    model whose rates ignore the functional converges on iteration one.
    ``factors`` carries the diffusion factorization across iterates and
    steps.

    ``y`` is one state, or one per path behind a leading path axis when
    ``coeffs`` holds a batch of bundles (and ``guard`` one radius per
    path).  A path drops out of the iteration at the iterate where its own
    test passes, which is where a one-path solve of it stops, so the
    result and the diagnostics of every path are those of its one-path
    solve.
    """
    grid = coeffs.grid
    if factors is None:
        factors = DiffusionFactors()
    alpha = coeffs.alpha_faces(t_index) if config.include_diffusion else None
    k = coeffs.k_faces(t_index)
    node = coeffs.node_fields(t_index)
    # per-path inputs; the rows of converged paths are dropped
    inputs = (y, node["g1"], node["g2"], k, node["exp_w"], node["exp_dw0"])
    del node
    paths = y.shape[:y.ndim - grid.dim - 1]
    active = None    # batch indices of the paths still iterating, once some stopped
    result = None    # filled in path by path once some stopped
    zeta = y
    prev_diff = None
    ratio = np.full(paths, np.nan)
    cfl = np.zeros(paths)
    for it in range(config.picard_max_iter + 1):
        y_in, g1, g2, k_in, exp_w, exp_dw0 = inputs
        z_used = truncate_argument(zeta, grid, guard, active)
        u_val = weighted_population(exp_w * z_used, gamma_vals, region, grid)
        mu_s = coeffs.mu_s_values(t_index, u_val)
        m = coeffs.m0_values(t_index, u_val) * exp_dw0
        faces = None if alpha is None else (alpha, k_in)
        v, step_cfl = _split_step(y_in, g1, mu_s, g2, m, faces, grid, grid.dt, factors)
        cfl = np.maximum(cfl, step_cfl)
        diff = l2_norm(v - zeta, grid)
        if prev_diff is not None:
            np.divide(diff, prev_diff, out=ratio, where=np.greater(prev_diff, 0))
        prev_diff = diff
        done = diff <= config.picard_tol * np.maximum(1.0, l2_norm(zeta, grid))
        if np.any(done):
            u_final = weighted_population(exp_w * v, gamma_vals, region, grid)
            if active is None and np.all(done):
                return StepResult(state=v, u_value=u_final, k_faces=k, iterations=it,
                                  contraction_ratio=ratio, cfl=cfl)
            if active is None:
                active = np.arange(len(y))
                result = StepResult(
                    state=np.empty_like(y), u_value=np.empty(paths), k_faces=k,
                    iterations=np.empty(paths, dtype=int),
                    contraction_ratio=np.empty(paths), cfl=np.empty(paths))
            stop = active[done]
            result.state[stop] = v[done]
            result.u_value[stop] = u_final[done]
            result.iterations[stop] = it
            result.contraction_ratio[stop] = ratio[done]
            result.cfl[stop] = cfl[done]
            if np.all(done):
                return result
            keep = ~done
            active = active[keep]
            inputs = tuple(_rows(data, keep) for data in inputs)
            v, prev_diff, ratio, cfl = v[keep], diff[keep], ratio[keep], cfl[keep]
        zeta = v
    worst = np.where(np.isfinite(ratio), ratio, np.inf)
    raise NonconvergenceError(t_index - 1, config.picard_max_iter, float(np.max(worst)))


def solve_rescaled_batch(model: PopulationModel, bundles: list[BrownianBundle],
                         config: SolverConfig | None = None) -> list[SolveReport]:
    """March several paths of the pathwise system as one array problem; one
    report per bundle.

    The paths share the grid, the amplitudes and the boundary coefficient,
    so their states advance together with a leading path axis through one
    fixed-point loop per step.  Every operation acts on each path by
    itself with the arithmetic of a one-path march and each path leaves
    the fixed point at its own iterate, so a path's report is bitwise the
    same whichever batch it is solved in.
    """
    config = config or SolverConfig()
    if not bundles:
        return []
    coeffs = RescaledCoefficients(model, bundles)
    gamma_vals = evaluate_gamma(model.rates, model.grid)
    n_p = len(bundles)
    guard = (TruncationGuard(radius=np.full(n_p, float(config.truncation_radius)),
                             activations=np.zeros(n_p, dtype=int))
             if config.truncation_radius is not None
             else _auto_guard(model, coeffs, config))
    factors = DiffusionFactors()
    return _march(
        model, n_p, gamma_vals,
        lambda t_index, y, _: picard_step_solve(
            y, t_index, coeffs, gamma_vals, model.region, guard, config, factors),
        config, "rescaled", "y", guard)


def solve_rescaled(model: PopulationModel, bundle: BrownianBundle,
                   config: SolverConfig | None = None) -> SolveReport:
    """March the pathwise system over the full time grid.

    Substep order within a step is transport, renewal, diffusion; the
    fixed point over the frozen population functional wraps all three.
    The initial state is the initial density itself (the transform is the
    identity at time zero).  This is the one-path case of
    :func:`solve_rescaled_batch`.
    """
    return solve_rescaled_batch(model, [bundle], config)[0]
