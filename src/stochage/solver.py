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
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import estimates
from .errors import (ConfigurationError, InvalidFieldError, NoiseMagnitudeError,
                     NonconvergenceError, StochageError)
from .grid import Face, Grid, l2_norm, weighted_population
from .model import PopulationModel
from .noise import BrownianBundle
from .rates import evaluate_gamma, evaluate_on_faces, evaluate_on_grid
from .rescale import CoefficientSups, RescaledCoefficients

logger = logging.getLogger(__name__)


def _thomas_factor(lower, diag: np.ndarray, upper) -> tuple:
    """Forward-elimination coefficients of tridiagonal systems, whose row
    ``i`` of ``lower``, ``diag`` and ``upper`` holds equation ``i`` of every
    system (``lower[0]`` and ``upper[-1]`` are ignored).  They serve every
    right side of their shape.  Returns the rows of ``lower``, of the
    eliminated upper diagonal and of the pivots."""
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

    ``rhs`` has the solve axis leading, its trailing axes broadcast against
    the factor's systems, and is overwritten with the solution.  This is
    the textbook Thomas algorithm operation for operation, hand-rolled
    because with positive diagonal, nonpositive off-diagonals and a
    nonnegative right side every step combines nonnegative quantities, so
    the solution is nonnegative exactly in floating point.
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


def _advection(g2, grid: Grid):
    """Upwind weights of one node for :func:`transport_reaction_substep`:
    ``None`` if ``g2`` is ``None`` or all-zero, else the CFL number per path,
    the mask of the paths with all-zero ``g2`` (``None`` if none) and per
    axis ``(cp, cm, 1 - cp - cm)``."""
    field_axes = tuple(range(-grid.dim - 1, 0))
    if g2 is None or not any(np.any(comp) for comp in g2):
        return None
    still = ~np.any([np.any(comp, axis=field_axes, keepdims=True) for comp in g2], axis=0)
    cfl, weights = 0.0, []
    for axis, comp in enumerate(g2):
        c = comp * (grid.dt / grid.dx[axis])
        cp, cm = np.maximum(c, 0.0), np.maximum(-c, 0.0)
        cfl = np.maximum(cfl, np.max(cp + cm, axis=field_axes))
        weights.append((cp, cm, 1.0 - cp - cm))
    return cfl, still if np.any(still) else None, tuple(weights)


def transport_reaction_substep(values: np.ndarray, g1, mu_s: np.ndarray,
                               advection, grid: Grid) -> tuple[np.ndarray, float]:
    """Age the population one step of ``grid.dt`` and apply the zeroth-order decay.

    On an aligned grid (``dt == da``) the shift is exact: row ``k`` receives
    row ``k - 1`` times ``exp(-(g1 + mu_s) dt)`` at the departure row; off
    alignment it is a first-order age upwind, kept positive by the grid's ``dt <= da``.
    The age-zero row is left zero for the renewal.  ``g1`` may be ``None``
    (no rescaling terms), ``advection`` (:func:`_advection` weights) ``None``
    to skip it; leading path axes carry through.  ``mu_s`` broadcasts to
    ``values``; one of a single age row (one number per path) is
    exponentiated at that size without ``g1``.  Returns the new values and
    the CFL number per path (0 without advection; nonnegativity needs CFL <= 1).
    """
    older, younger = grid.rows(np.s_[1:]), grid.rows(np.s_[:-1])
    src = younger if grid.aligned else older   # the rows the decay multiplies
    if np.shape(mu_s)[-grid.dim - 1] > 1:   # else one row serves every age
        mu_s = mu_s[src]
    decay = mu_s if g1 is None else g1[src] + mu_s
    # in one buffer: x (-dt) has the bits of -(x) dt, for negation is exact
    decay = np.multiply(decay, -grid.dt, out=None if g1 is None else decay)
    np.exp(decay, out=decay)
    out = np.zeros(values.shape)
    if grid.aligned:
        np.multiply(values[younger], decay, out=out[older])
    else:
        c = grid.dt / grid.da
        out[older] = ((1.0 - c) * values[older] + c * values[younger]) * decay
    del decay   # before the advection buffers
    if advection is None:
        return out, 0.0
    cfl, still, weights = advection
    near = np.empty(out.shape)
    for axis, (cp, cm, stay) in enumerate(weights):
        # out (1 - cp - cm) + cp lo + cm hi, where lo and hi hold the
        # upwind neighbours along the axis (an edge cell is its own)
        step = int(np.prod(grid.n_x[axis + 1:]))
        moved, flat = out * stay, out.reshape(-1)
        for w, to, frm, s in ((cp, np.s_[step:], np.s_[:-step], np.s_[:1]),
                              (cm, np.s_[:-step], np.s_[step:], np.s_[-1:])):
            edge = (Ellipsis, s) + (slice(None),) * (grid.dim - 1 - axis)
            near.reshape(-1)[to] = flat[frm]
            near[edge] = out[edge]
            near *= w
            moved += near
        out = moved if still is None else np.where(still, out, moved)
    return out, cfl


def renewal_row(values: np.ndarray, m_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Birth row: age-trapezoid of ``m * values`` per spatial cell (leading
    path axes carry through).  The transported field arrives with a zeroed
    age-zero row, so the row produced does not feed itself; the omitted
    trapezoid weight there is ``da / 2``, first order like the splitting."""
    return (grid.age_weight_field * m_values * values).sum(axis=-grid.dim - 1)


def _robin_factor(alpha_lo, alpha_hi, n: int, dx: float, dt: float) -> tuple:
    """Factor of the implicit sweep matrices along an axis of ``n`` cells,
    one system per entry of the face data ``alpha_lo``/``alpha_hi`` (which
    may carry a path axis).  The ghost closure ``ghost = interior - dx
    (alpha v + k)`` keeps an M-matrix (positivity) only for ``alpha >= 0``, else raises."""
    a_lo, a_hi = np.broadcast_arrays(np.asarray(alpha_lo, dtype=float),
                                     np.asarray(alpha_hi, dtype=float))
    if not (low := np.min([a_lo, a_hi])) >= 0.0:   # NaN too
        raise ConfigurationError(
            f"the Robin coefficient alpha0 must be >= 0 on the boundary, got {low:.4g}")
    r = dt / dx ** 2
    diag = np.ones((n,) + a_lo.shape)
    if n > 1:
        diag += 2.0 * r
        diag[0] -= r
        diag[-1] -= r
    diag[0] += dt * a_lo / dx
    diag[-1] += dt * a_hi / dx
    off = np.full((n,) + (1,) * a_lo.ndim, -r)
    return ([-r] * n,) + _thomas_factor(off, diag, off)[1:]   # a float multiplies unbroadcast


class DiffusionFactors:
    """Robin data and factorizations of the diffusion sweeps for one march.

    The sweep matrices depend only on the step, the spacing and the Robin
    coefficient on the faces: :meth:`get` keeps its factors until one of
    them changes, so a time-dependent coefficient stays exact; :meth:`faces`
    evaluates a rate that ignores ``t`` once.
    """

    def __init__(self, expand: bool = False):
        self.expand = expand
        self._alpha: dict = {}   # the face arrays of the last call, not copies
        self._factors: list = []
        self._key = self._wide = None   # _wide: shared factors' rows with a path axis
        self._once, self._cuts = {}, {}   # rate -> face data; id(that data) -> its ages > 0

    def faces(self, rate, grid: Grid, t: float) -> dict:
        """:func:`evaluate_on_faces`, once for a rate that ignores ``t``; do not mutate."""
        if not getattr(rate, "ignores_t", True):
            return evaluate_on_faces(rate, grid, t)
        if rate not in self._once:
            data = self._once[rate] = evaluate_on_faces(rate, grid, t)
            self._cuts[id(data)] = _inner_faces(data, grid)
        return self._once[rate]

    def inner(self, data: dict, grid: Grid) -> dict:
        """:func:`_inner_faces` of ``data``, cut once for a dict of :meth:`faces`."""
        return self._cuts.get(id(data)) or _inner_faces(data, grid)

    def get(self, alpha: dict, grid: Grid, shape: tuple = ()) -> list:
        """Per spatial axis the factor at the grid's step and spacing for the face
        coefficients ``alpha``: one system per path when they carry a path axis,
        else systems every path shares (same bits), whose ``cp`` and pivot rows
        get a path axis for ``shape`` with one, as wide as the batch with
        ``expand``, else of length one.  Face arrays must not be mutated once
        passed: one that is the object of the previous call is taken as unchanged, unread."""
        key = (grid.dt, grid.n_x, grid.dx)
        old, self._alpha = self._alpha, dict(alpha)
        if key != self._key or any(a is not old.get(f) and not np.array_equal(a, old[f])
                                   for f, a in alpha.items()):
            self._key, self._wide = key, None
            self._factors = [
                _robin_factor(alpha[Face(axis, 0)], alpha[Face(axis, 1)],
                              grid.n_x[axis], grid.dx[axis], grid.dt)
                for axis in range(grid.dim)]
        if len(shape) != grid.dim + 2 or np.ndim(self._factors[0][2][0]) > grid.dim:
            return self._factors
        n = shape[0] if self.expand else 1   # the sweeps then do not broadcast them
        if self._wide is None or len(self._wide[0][2][0]) != n:
            self._wide = [(f[0], *([np.repeat(r[None], n, 0) for r in rows] for rows in f[1:]))
                          for f in self._factors]
        return self._wide


def _sweep(vals: np.ndarray, axis: int, factor: tuple, k_lo, k_hi,
           dx: float, dt: float) -> np.ndarray:
    """One implicit diffusion sweep along array axis ``axis`` with Robin
    faces; ``factor`` comes from :func:`_robin_factor`."""
    rhs = np.moveaxis(vals, axis, 0).copy()
    rhs[0] -= dt * k_lo / dx
    rhs[-1] -= dt * k_hi / dx
    return np.moveaxis(_thomas_solve(factor, rhs), 0, axis)


def diffusion_substep(values: np.ndarray, alpha: dict, k: dict, grid: Grid,
                      factors: DiffusionFactors | None = None) -> np.ndarray:
    """Backward-Euler diffusion over ``grid.dt`` with Robin flux on every boundary face.

    ``values`` holds age levels times space, optionally behind leading path
    axes; ``alpha`` and ``k`` map each :class:`Face` to data over the same
    age levels.  ``factors`` keeps the factorization across calls.  In two
    dimensions the x and y sweeps run in sequence (first-order direction
    splitting); each preserves positivity when ``k <= 0`` parts are absent.
    """
    factors = factors or DiffusionFactors()
    out = values
    for axis, factor in enumerate(factors.get(alpha, grid, values.shape)):
        out = _sweep(out, values.ndim - grid.dim + axis, factor,
                     k[Face(axis, 0)], k[Face(axis, 1)], grid.dx[axis], grid.dt)
    return out


def _split_step(state: np.ndarray, g1, mu_s: np.ndarray, advection, m: np.ndarray,
                faces: tuple | None, grid: Grid,
                factors: DiffusionFactors | None) -> tuple[np.ndarray, float]:
    """The linear substeps of one time step, shared by both routes:
    transport with decay and ``advection``, the renewal row from the
    fertility ``m``, then, unless ``faces`` is ``None``, diffusion of the
    ages > 0 with the Robin data ``faces = (alpha, k)`` on those ages (cut
    by :func:`_inner_faces` once per node, so :class:`DiffusionFactors`
    sees the same arrays on every iterate).  Returns the new state and the
    CFL number per path."""
    v, cfl = transport_reaction_substep(state, g1, mu_s, advection, grid)
    v[grid.rows(0)] = renewal_row(v, m, grid)
    if faces is not None:
        inner = grid.rows(np.s_[1:])
        v[inner] = diffusion_substep(v[inner], *faces, grid, factors)
    return v, cfl


def _inner_faces(data: dict, grid: Grid) -> dict:
    """Views of the Robin face data ``data`` on the ages > 0."""
    rows = (Ellipsis, np.s_[1:]) + (slice(None),) * (grid.dim - 1)
    return {f: a[rows] for f, a in data.items()}


@dataclass
class TruncationGuard:
    """Radial clipping of the rate argument at a norm radius per path of a batch.

    Keeps the population functional's argument inside the ball where the
    locally Lipschitz rates are under control.  A radius from the a priori
    energy bound comes with the ``settle`` of :func:`_bound_guard`, which
    refreshes it (``None`` for a fixed radius); activations of it, counted
    per path, indicate the bound or the grid is off.
    """

    radius: np.ndarray
    settle: Callable[..., dict] | None = field(default=None, compare=False, repr=False)
    activations: np.ndarray = field(init=False)

    def __post_init__(self):
        self.activations = np.zeros(len(self.radius), dtype=int)


def truncate_argument(values: np.ndarray, grid: Grid, guard: TruncationGuard,
                      index: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Return ``values`` itself or its radial rescaling onto the guard ball.

    ``values`` is a stack of fields, one per path ``index`` of the guard's
    batch, with ``norm`` their norms.  Each field is kept when its norm is
    within its path's radius (continuous there), else scaled to norm
    ``radius``, which counts an activation of that path.
    """
    radius = guard.radius[index]
    clip = norm > radius
    if not np.any(clip):
        return values
    guard.activations[index] += clip
    if guard.settle is not None:
        for j in np.flatnonzero(clip):
            logger.warning(
                "truncation activated at norm %.3g beyond the energy-bound "
                "radius %.3g; the energy bound or the grid is too coarse", norm[j], radius[j])
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
        radius = self.truncation_radius
        for name, ok, need in (
                ("picard_tol", self.picard_tol >= 0, ">= 0"),
                ("picard_max_iter", self.picard_max_iter >= 0, ">= 0"),
                ("truncation_radius", radius is None or radius > 0, "> 0 or auto"),
                ("snapshot_stride", self.snapshot_stride >= 0, ">= 0"),
                ("c0", 0 < self.c0 < np.inf, "finite and > 0"),
                ("c1", 0 <= self.c1 < np.inf, "finite and >= 0")):
            if not ok:
                raise ConfigurationError(
                    f"solver setting {name} must be {need}, got {getattr(self, name)}")


@dataclass
class SolveReport:
    """Snapshots (the last at the final node), per-node norm, births and ``U``, step diagnostics
    and bundle of one solve.  Its states are ``y`` on the rescaled route, so a reader takes
    densities, the final one too, from :func:`densities` on either route.  A rescaled report
    also carries its path's truncation activations and its coefficient sups over every node,
    all the energy-bound constants need (:func:`estimates.constants_for_run`); the direct route
    has neither.  A check gathers what else it reads at every node through :func:`_march`'s
    observer, not from here."""

    solver: str                    # "rescaled" (state y) or "direct" (density p)
    grid: Grid
    bundle: BrownianBundle
    snapshot_indices: np.ndarray
    snapshots: np.ndarray
    l2_series: np.ndarray
    births_series: np.ndarray
    u_series: np.ndarray
    picard_iterations: np.ndarray
    contraction_ratios: np.ndarray
    cfl_max: float
    noise_factor_warnings: int = 0
    truncations: int = 0
    sups: CoefficientSups | None = None


def _snapshot_indices(n_t: int, stride: int) -> np.ndarray:
    idx = list(range(0, n_t + 1, stride)) if stride > 0 else [0]
    return np.array(idx if idx[-1] == n_t else idx + [n_t])


def _bound_guard(coeffs: RescaledCoefficients, config: SolverConfig,
                 p0: np.ndarray) -> TruncationGuard:
    """The guard at the threshold ``n0`` of each path's energy bound, from its
    row of ``p0`` and the sups of the nodes its march has built into ``coeffs``.

    The bound from the sups over ``[0, t_i]`` bounds every state up to node
    ``i``, so the radius reads no noise the march has not reached.  Every
    path starts at ``-inf``; ``settle(paths)`` sets each path's radius from
    its sups so far, or NaN and returns its error where the bound overflows
    a float.  The march calls it whenever a candidate's norm passes the
    radius, which so only grows, and once more for the paths that finish.
    """
    def settle(paths) -> dict:
        errors = {}
        for j, sups in zip(paths, coeffs.sups_so_far(paths)):
            try:
                guard.radius[j] = estimates.constants_for_run(
                    coeffs.model, sups=sups, c0=config.c0, c1=config.c1,
                    y0_norm_sq=y0_sq[j]).n0
            except StochageError as exc:   # the bound overflows a float
                guard.radius[j], errors[j] = np.nan, exc
        return errors

    y0_sq = [l2_norm(row, coeffs.grid) ** 2 for row in p0]   # row by row, as one path takes it
    guard = TruncationGuard(np.full(len(p0), -np.inf), settle)
    return guard


@dataclass
class StepResult:
    """One time step of either route: the new state and its population
    functional, then diagnostics whose defaults are the direct route's (no
    fixed point, no advection), one value for all paths or one per path;
    ``overshoot`` flags per path a noise factor more than 1 away from 1;
    ``failed`` maps a row to the error that ended its path (state finite);
    ``coefficients`` are the node's ``(g1, g2, exp_dw0, k)`` of an observed march."""

    state: np.ndarray
    u_value: float | np.ndarray
    iterations: int | np.ndarray = 0
    contraction_ratio: float | np.ndarray = np.nan
    cfl: float | np.ndarray = 0.0
    overshoot: int | np.ndarray = 0
    failed: dict = field(default_factory=dict)
    coefficients: tuple | None = None


def _march(model: PopulationModel, bundles: list[BrownianBundle], gamma: np.ndarray,
           step, config: SolverConfig, solver: str, p0: np.ndarray | None = None,
           observer=None, coefficients: list | None = None) -> list[SolveReport | StochageError]:
    """The time loop of both routes; per bundle its report or its error.

    The noise vanishes at time zero, so both routes start each path from its
    initial density, its row of ``p0`` (one per bundle, else ``model.p0`` in
    every path), and its population functional with weight ``gamma``.
    ``step(t_index, state, u_value, live)`` returns the :class:`StepResult`
    at node ``t_index`` of the paths ``live``, the rows of ``state``.  A row
    leaves when the step fails it or it, its norm or its ``U`` is not finite
    (the step's overflow warnings are left to that check).  The march records
    only what every run reads (the series of :class:`SolveReport`, the step
    diagnostics and the snapshots, the last at the final node) and gives each
    report its bundle.  At each node ``observer(t_index, state, live, u_value,
    coefficients)``, if given, sees the live rows and the coefficients their step
    built, as :class:`estimates.EstimateAccumulator` does; at node 0 the one item
    of the list ``coefficients``, which the march pops so that no frame keeps it.
    """
    grid, n_t, n_paths = model.grid, model.grid.n_t, len(bundles)
    failed, live, at = {}, np.arange(n_paths), np.s_[:]   # at: the rows of the live paths
    p0 = np.broadcast_to(model.p0, (n_paths,) + grid.field_shape) if p0 is None else p0
    state = np.array(p0, order="C")   # a plain copy of the broadcast view puts the path axis last
    indices = _snapshot_indices(n_t, config.snapshot_stride)
    snapshots = None   # from the first slot after node 0, whose states are p0
    series = {name: np.zeros((n_paths, n_t + 1)) for name in ("l2", "births", "u")}
    iterations = np.zeros((n_paths, n_t), dtype=int)
    ratios = np.full((n_paths, n_t), np.nan)
    cfl_max = np.zeros(n_paths)
    warnings = np.zeros(n_paths, dtype=int)
    space = tuple(range(-grid.dim, 0))
    slots = {int(i): pos for pos, i in enumerate(indices)}

    result = StepResult(state, weighted_population(state, gamma, model.region, grid),
                        coefficients=coefficients.pop() if coefficients else None)
    for i in range(n_t + 1):
        if i:
            with np.errstate(over="ignore", invalid="ignore"):   # such a path fails below
                result = step(i, state, u_value, live)
            iterations[at, i - 1] = result.iterations
            ratios[at, i - 1] = result.contraction_ratio
            cfl_max[at] = np.maximum(cfl_max[at], result.cfl)
            warnings[at] += result.overshoot
        state, u_value, built = result.state, result.u_value, result.coefficients
        series["l2"][at, i] = l2 = l2_norm(state, grid, strict=False)
        series["u"][at, i] = u_value
        errors = {int(row): InvalidFieldError(
            "field contains non-finite entries" if np.isnan(l2[row]) else
            "the L2 norm or the population functional U of the state overflows a float")
            for row in np.flatnonzero(~(np.isfinite(l2) & np.isfinite(u_value)))} | result.failed
        if errors:   # their paths leave the march
            keep = np.isin(np.arange(len(live)), list(errors), invert=True)
            failed.update({int(live[row]): exc for row, exc in errors.items()})
            live = at = live[keep]
            state, u_value, built = state[keep], u_value[keep], _rows(built, keep)
        series["births"][at, i] = state[grid.rows(0)].sum(axis=space) * grid.cell_volume
        if i in slots and i:
            if snapshots is None:
                snapshots = np.empty((n_paths, len(indices)) + grid.field_shape)
                snapshots[:, 0] = p0
            snapshots[at, slots[i]] = state
        if not len(live):
            break
        if observer is not None:
            observer(i, state, live, u_value, built)
            result = built = None   # the coefficients die before the next step builds its own

    return [failed[j] if j in failed else SolveReport(
        solver=solver, grid=grid, bundle=bundles[j], snapshot_indices=indices,
        snapshots=snapshots[j], l2_series=series["l2"][j], births_series=series["births"][j],
        u_series=series["u"][j], picard_iterations=iterations[j], contraction_ratios=ratios[j],
        cfl_max=float(cfl_max[j]), noise_factor_warnings=int(warnings[j]))
        for j in range(n_paths)]


def _rows(data, keep):
    """The paths ``keep`` of per-path data, path axis leading: an array's kept
    rows move up in its own memory; a dict's arrays are copied; a tuple goes by item."""
    if isinstance(data, dict):
        return {key: a[keep] for key, a in data.items()}
    if isinstance(data, tuple):
        return tuple(_rows(a, keep) for a in data)
    if data is not None:   # else None
        n = np.count_nonzero(keep)
        data[:n] = data[keep]
        return data[:n]


def picard_step_solve(y: np.ndarray, t_index: int, coeffs: RescaledCoefficients,
                      gamma_vals: np.ndarray, guard: TruncationGuard, config: SolverConfig,
                      factors: DiffusionFactors, live: np.ndarray, observer=None) -> StepResult:
    """Advance one time step by fixed-point iteration on the frozen rates.

    What no iterate changes is built once per node: the Robin data on the
    ages > 0, ``g1``, ``exp(W)``, ``exp(W - W(t,0,x))`` and the
    :func:`_advection` weights.  Each iterate clips the candidate new-time
    state onto the guard ball (a ``guard.settle`` first refreshes the radius
    of a path whose candidate passes it), freezes the population functional
    and with it the mortality and fertility fields, solves the linear
    substeps from the old state and takes the norm of the change.  Iteration stops when
    successive candidates differ by less than ``picard_tol`` relative to
    the current one, or by NaN (an infinite tolerance returns the first
    iterate).  ``factors`` keeps an ``alpha`` that ignores ``t`` and the
    diffusion factorization.

    ``y`` holds one state per path behind a leading path axis (a stack of
    one for one path), ``guard`` one radius per bundle of ``coeffs`` and
    ``live`` the bundles of the rows of ``y``.  A path
    leaves the iteration where its own test passes, as in its one-path
    solve.  A path whose noise passes the exp guard at this node, that
    still iterates after ``picard_max_iter`` iterates or whose
    ``guard.settle`` gives an error (after that iterate) fails alone in
    ``StepResult.failed``.  The result may be built in ``y``.
    With the march's ``observer`` it carries the node's ``(g1, g2, exp_dw0, k)``,
    copying the two the fixed point compacts.
    """
    grid, rates, region = coeffs.grid, coeffs.model.rates, coeffs.model.region
    t = grid.times[t_index]
    n = len(y)
    over = np.zeros(n)   # per path: its sup |W| past the exp guard
    k = coeffs.k_faces(t_index, live, over)
    alpha, k_in = ((factors.inner(factors.faces(rates.alpha0, grid, t), grid),
                    _inner_faces(k, grid)) if config.include_diffusion else (None, None))
    node = coeffs.node_fields(t_index, live, over)
    built = (node["g1"].copy(), node["g2"], node["exp_dw0"].copy(), k) if observer else None
    # per-path inputs; the rows of failed and converged paths are dropped in place
    inputs = [y, node["g1"], _advection(node["g2"], grid), k_in,
              node["exp_w"], node["exp_dw0"]]
    del node
    active, index = np.arange(n), live   # rows of y still iterating, their bundles
    failed = {int(r): NoiseMagnitudeError(over[r]) for r in np.flatnonzero(over)}
    stopped = []     # (rows of y, their new states) of the paths out of the iteration
    result = StepResult(y, np.empty(n), np.zeros(n, dtype=int), np.full(n, np.nan),
                        np.zeros(n), 0, failed, built)   # filled row by row
    zeta, prev_diff, ratio, cfl = y, None, np.full(n, np.nan), np.zeros(n)
    if failed:   # these paths never iterate; their rows keep the old state
        keep = over == 0
        if not np.any(keep):
            return result
        stopped.append((np.flatnonzero(~keep), y[~keep]))
        active, index, ratio, cfl = active[keep], index[keep], ratio[keep], cfl[keep]
        inputs = [_rows(data, keep) for data in inputs]
        zeta = inputs[0]
    for it in range(config.picard_max_iter + 1):
        y_in, g1, adv, k_in, exp_w, exp_dw0 = inputs
        zeta_norm = l2_norm(zeta, grid, strict=False)
        passed = index[zeta_norm > guard.radius[index]]
        late = guard.settle(passed) if guard.settle is not None and len(passed) else {}
        z_used = truncate_argument(zeta, grid, guard, index, zeta_norm)
        u_val = weighted_population(exp_w * z_used, gamma_vals, region, grid)
        faces = None if alpha is None else (alpha, k_in)
        v, step_cfl = _split_step(   # the frozen rates die with the call
            y_in, g1, evaluate_on_grid(rates.mu_s, grid, t, u_val), adv,
            evaluate_on_grid(rates.m0, grid, t, u_val) * exp_dw0, faces, grid, factors)
        cfl = np.maximum(cfl, step_cfl)
        diff = l2_norm(v - zeta, grid, strict=False)
        if prev_diff is not None:
            np.divide(diff, prev_diff, out=ratio, where=np.greater(prev_diff, 0))
        prev_diff = diff
        done = (diff <= config.picard_tol * np.maximum(1.0, zeta_norm)) | np.isnan(diff)
        if it == config.picard_max_iter and not np.all(done):   # the rest fail alone
            failed.update(zip(active[~done].tolist(), (
                NonconvergenceError(t_index - 1, it, q if np.isfinite(q) else np.inf)
                for q in ratio[~done])))
            done = np.ones_like(done)
        if late:   # their sups end in an error, which they leave with (NaN radius: unclipped)
            gone = np.isin(index, list(late))
            failed.update(zip(active[gone].tolist(), (late[j] for j in index[gone].tolist())))
            done = done | gone
        if np.any(done):
            u_final = weighted_population(exp_w * v, gamma_vals, region, grid)
            if not stopped and np.all(done):
                return StepResult(state=v, u_value=u_final, iterations=it, contraction_ratio=ratio,
                                  cfl=cfl, failed=failed, coefficients=built)
            stopped.append((stop := active[done], v[done]))
            result.u_value[stop] = u_final[done]
            result.iterations[stop] = it
            result.contraction_ratio[stop] = ratio[done]
            result.cfl[stop] = cfl[done]
            if np.all(done):
                for rows, states in stopped:
                    result.state[rows] = states
                return result
            keep = ~done
            active, index = active[keep], index[keep]
            inputs = [_rows(data, keep) for data in inputs]
            v, prev_diff, ratio, cfl = _rows((v, diff, ratio, cfl), keep)
        zeta = v


def solve_rescaled_batch(model: PopulationModel, bundles: list[BrownianBundle],
                         config: SolverConfig | None = None, p0: np.ndarray | None = None,
                         observer=None) -> list[SolveReport | StochageError]:
    """March several paths of the pathwise system as one array problem; per
    bundle its report, or the error that ended its path.

    The paths advance together with a leading path axis through one
    fixed-point loop per step.  Every operation acts on each path by itself
    with the arithmetic of a one-path march and each path leaves the fixed
    point at its own iterate, so a path's report is bitwise the same in any
    batch.  A failing path fails alone, with the error its one-path solve
    raises; a :class:`ConfigurationError` ends the call.  A path fails with
    the first cause its march meets: its noise past the exp guard at a node,
    the energy bound of its nodes so far past a float (an automatic radius,
    :func:`_bound_guard`) or the march's own error; one that finishes the
    march fails where its whole-path bound overflows.  At either radius a
    report carries its path's truncation activations and the sups of every
    node its march built.

    ``p0`` (shape ``(len(bundles),) + grid.field_shape``) gives each path its
    own initial density; ``check`` so marches its stored run and both
    perturbed runs, which share grid, rates and noise path, as one batch.
    An ``observer`` (see :func:`_march`) changes no bit of the reports; a march
    without one keeps no coefficient past its step.
    """
    config = config or SolverConfig()
    shape = (len(bundles),) + model.grid.field_shape
    if p0 is not None and np.shape(p0) != shape:
        raise ConfigurationError(f"initial densities of shape {np.shape(p0)}, not {shape}")
    p0 = np.broadcast_to(model.p0, shape) if p0 is None else np.asarray(p0, dtype=float)
    if not bundles:
        return []
    factors = DiffusionFactors()
    coeffs = RescaledCoefficients(model, bundles, factors.faces)
    gamma_vals = evaluate_gamma(model.rates, model.grid)
    k, node = coeffs.k_faces(0), coeffs.node_fields(0)   # the steps build every later node
    built = [(node["g1"], node["g2"], node["exp_dw0"], k)] if observer else None
    del k, node   # the march takes node 0's from built; no frame keeps them past the observer
    guard = (TruncationGuard(np.full(len(bundles), float(config.truncation_radius)))
             if config.truncation_radius is not None else _bound_guard(coeffs, config, p0))
    reports = _march(
        model, bundles, gamma_vals, lambda t_index, y, _, live: picard_step_solve(
            y, t_index, coeffs, gamma_vals, guard, config, factors, live, observer),
        config, "rescaled", p0, observer, built)
    if guard.settle is not None:   # the whole-path bound of the paths that finish
        errors = guard.settle([j for j, rep in enumerate(reports) if isinstance(rep, SolveReport)])
        reports = [errors.get(j, rep) for j, rep in enumerate(reports)]
    solved = [j for j, rep in enumerate(reports) if isinstance(rep, SolveReport)]
    for j, sups in zip(solved, coeffs.sups_so_far(solved)):   # their marches built every node
        reports[j].truncations, reports[j].sups = int(guard.activations[j]), sups
    return reports


def _only(results: list):
    """The one entry of a one-path batch: its report, or its error raised."""
    if isinstance(results[0], StochageError):
        raise results[0]
    return results[0]


def solve_rescaled(model: PopulationModel, bundle: BrownianBundle,
                   config: SolverConfig | None = None) -> SolveReport:
    """March the pathwise system over the full time grid: transport,
    renewal and diffusion per step inside the fixed point over the frozen
    population functional, from the initial density (the transform is the
    identity at time zero).  The one-path case of :func:`solve_rescaled_batch`."""
    return _only(solve_rescaled_batch(model, [bundle], config))
