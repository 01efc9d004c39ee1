"""Direct explicit integrator for the original noisy system.

This is the cross-validation route: it consumes the Brownian increments
directly instead of exponentiating the noise field, advancing the
density by the same transport/renewal/diffusion substeps as the
pathwise solver and then applying an explicit multiplicative factor.
With ``S = sum_j mu_j(a, x) dbeta_j`` and the Ito correction
``mu = (1/2) sum_j mu_j^2``, the default Milstein factor is
``1 + S + S^2/2 - mu dt`` (strong order 1; the noise is commutative
because every mode multiplies the same density, so no Levy areas are
needed).  ``SolverConfig(scheme="em")`` selects the Euler-Maruyama
factor ``1 + S`` (strong order 1/2).  Keeping the noise polynomial (no
exponential) makes agreement with the rescaled route genuine evidence
rather than a shared formula.

The population functional is evaluated at the previous level (fully
explicit, no fixed-point loop); its bias is first order and vanishes in
convergence studies.

Paths share the grid, the amplitudes and the boundary data, so
:func:`solve_direct_batch` marches many of them as one array with a
leading path axis; :func:`solve_direct` is its one-path case.  Every
operation acts on each path alone, so a path's result does not depend on
the batch it is solved in.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grid import (Grid, boundary_faces, boundary_norm_sq, face_meshes,
                   gradient_energy, l2_norm, weighted_population)
from .model import PopulationModel
from .noise import AmplitudeGrids, BrownianBundle, ito_correction
from .rates import evaluate_gamma, evaluate_on_grid
from .solver import (DiffusionFactors, SolveReport, SolverConfig,
                     _snapshot_indices, diffusion_substep, renewal_row,
                     transport_reaction_substep)

logger = logging.getLogger(__name__)


@dataclass
class _DirectContext:
    """Pre-sampled amplitude values, boundary meshes and the diffusion
    factorization for one march."""

    model: PopulationModel
    grid: Grid
    amp_values: np.ndarray          # (N, *field_shape)
    mu: np.ndarray                  # Ito correction (1/2) sum_j mu_j^2
    gamma: np.ndarray
    face_mesh: dict
    factors: DiffusionFactors = field(default_factory=DiffusionFactors)

    @classmethod
    def build(cls, model: PopulationModel) -> "_DirectContext":
        grid = model.grid
        grids = AmplitudeGrids(model.noise, grid)
        return cls(model=model, grid=grid, amp_values=grids.values,
                   mu=ito_correction(model.noise, grid, grids).values,
                   gamma=evaluate_gamma(model.rates, grid),
                   face_mesh={f: face_meshes(grid, f) for f in boundary_faces(grid)})

    def boundary(self, rate, t: float) -> dict:
        out = {}
        for f, (ages, coords) in self.face_mesh.items():
            vals = np.asarray(rate(t, ages, coords, 0.0), dtype=float)
            shape = (self.grid.n_a + 1,) + tuple(
                n for ax, n in enumerate(self.grid.n_x) if ax != f.axis)
            out[f] = vals if vals.shape == shape else np.broadcast_to(vals, shape)
        return out


def _shock(increments: np.ndarray, ctx: _DirectContext, dt: float,
           scheme: str) -> np.ndarray:
    """``factor - 1`` of the noise factor for increments of shape ``(..., N)``.

    The contraction over the modes is a stacked matmul, which numpy
    evaluates path by path.  Fed a strided column of the bundles'
    increments it runs the same loop for every batch size, so a path's
    factor does not depend on the batch.  (numpy hands contiguous operands
    to BLAS, whose kernels round differently.)
    """
    amp = ctx.amp_values
    shock = np.matmul(increments[..., None, :], amp.reshape(len(amp), -1))
    shock = shock.reshape(increments.shape[:-1] + ctx.grid.field_shape)
    if scheme == "milstein":
        shock += 0.5 * shock * shock - ctx.mu * dt
    elif scheme != "em":
        raise ConfigurationError(f"unknown direct-route scheme {scheme!r}")
    return shock


def em_step(p: np.ndarray, increments: np.ndarray, ctx: _DirectContext,
            t_new: float, u_prev, dt: float,
            include_diffusion: bool = True, alpha: dict | None = None,
            k0: dict | None = None,
            scheme: str = "milstein") -> tuple[np.ndarray, float, bool]:
    """One explicit step: deterministic substeps, then the noise factor.

    ``p`` is one field, or a stack of paths with a leading path axis; then
    ``increments`` is ``(P, N)`` and ``u_prev`` holds the population
    functional of each incoming path (a scalar for one field).  ``alpha``
    and ``k0`` may carry precomputed boundary data for ``t_new``.
    ``scheme`` picks the factor: ``"milstein"`` multiplies by
    ``1 + S + S^2/2 - mu dt`` and ``"em"`` by ``1 + S``, where
    ``S = sum_j mu_j dbeta_j``.  Returns the new state, the advection CFL
    (always 0 here), and one flag set when ``|factor - 1|`` exceeds 1
    somewhere in some path, which means the step is too large for the
    sampled noise.  For Euler-Maruyama that risks a sign flip; the
    Milstein factor is at least ``1/2 - mu dt``, so it cannot flip sign
    while ``mu dt < 1/2``.
    """
    model, grid = ctx.model, ctx.grid
    mu_s = evaluate_on_grid(model.rates.mu_s, grid, t_new, u_prev)
    v, cfl = transport_reaction_substep(p, None, mu_s, None, grid, dt)
    m0 = evaluate_on_grid(model.rates.m0, grid, t_new, u_prev)
    v[grid.rows(0)] = renewal_row(v, m0, grid)
    if include_diffusion:
        if alpha is None:
            alpha = ctx.boundary(model.rates.alpha0, t_new)
        if k0 is None:
            k0 = ctx.boundary(model.rates.k0, t_new)
        inner = grid.rows(np.s_[1:])
        v[inner] = diffusion_substep(
            v[inner], {f: a[1:] for f, a in alpha.items()},
            {f: q[1:] for f, q in k0.items()}, grid, dt, ctx.factors)
    shock = _shock(increments, ctx, dt, scheme)
    overshoot = bool(shock.size) and bool(shock.max() > 1.0 or shock.min() < -1.0)
    v *= 1.0 + shock
    return v, cfl, overshoot


def solve_direct(model: PopulationModel, bundle: BrownianBundle,
                 config: SolverConfig | None = None) -> SolveReport:
    """Full explicit time loop over the bundle's grid (``config.scheme``).

    Produces the same report layout as the rescaled solver (the state
    variable is the density itself) so the two routes are directly
    comparable.  This is the one-path case of :func:`solve_direct_batch`.
    """
    return solve_direct_batch(model, [bundle], config)[0]


def solve_direct_batch(model: PopulationModel, bundles: list[BrownianBundle],
                       config: SolverConfig | None = None) -> list[SolveReport]:
    """March several paths as one array problem; one report per bundle.

    The paths share the grid, the amplitudes and the boundary data, so
    their states advance together with a leading path axis.  Every
    operation acts on each path by itself with the arithmetic of a
    one-path march, so a path's report is bitwise the same whichever
    batch it is solved in.
    """
    config = config or SolverConfig()
    grid = model.grid
    for bundle in bundles:
        if bundle.n_t != grid.n_t or abs(bundle.dt - grid.dt) > 1e-12 * grid.dt:
            raise ConfigurationError(
                f"bundle grid (n_t={bundle.n_t}) does not match the model grid "
                f"(n_t={grid.n_t})")
        if bundle.n_paths != model.noise.n_modes:
            raise ConfigurationError("bundle paths do not match the noise modes")
    if not bundles:
        return []
    ctx = _DirectContext.build(model)
    n_p, n_t = len(bundles), grid.n_t
    # (P, N, n_t): a step reads a strided column per path, like a one-path
    # march does, which keeps the noise contraction batch-independent
    increments = np.stack([b.increments for b in bundles])
    p = np.repeat(model.initial.p0.values[None], n_p, axis=0)
    indices = _snapshot_indices(n_t, config.snapshot_stride)
    snapshots = np.empty((n_p, len(indices)) + grid.field_shape)
    series = {name: np.zeros((n_p, n_t + 1)) for name in
              ("l2", "grad", "exit", "births", "u", "k_sq")}
    warnings = np.zeros(n_p, dtype=int)
    space = tuple(range(1, grid.dim + 1))
    vol = grid.cell_volume

    def record(i: int, state: np.ndarray, u_val: np.ndarray, k0_faces: dict):
        series["l2"][:, i] = l2_norm(state, grid)
        series["grad"][:, i] = gradient_energy(state, grid)
        series["exit"][:, i] = np.sum(state[grid.rows(-1)] ** 2, axis=space) * vol
        series["births"][:, i] = np.sum(state[grid.rows(0)], axis=space) * vol
        series["u"][:, i] = u_val
        series["k_sq"][:, i] = boundary_norm_sq(k0_faces, grid)
        pos = np.searchsorted(indices, i)
        if pos < len(indices) and indices[pos] == i:
            snapshots[:, pos] = state

    u_prev = weighted_population(p, ctx.gamma, model.region, grid)
    record(0, p, u_prev, ctx.boundary(model.rates.k0, 0.0))
    for n in range(n_t):
        t_new = grid.times[n + 1]
        alpha = ctx.boundary(model.rates.alpha0, t_new)
        k0 = ctx.boundary(model.rates.k0, t_new)
        p, _, overshoot = em_step(p, increments[:, :, n], ctx, t_new, u_prev,
                                  grid.dt, config.include_diffusion,
                                  alpha=alpha, k0=k0, scheme=config.scheme)
        if overshoot:
            shock = _shock(increments[:, :, n], ctx, grid.dt, config.scheme)
            warnings += np.max(np.abs(shock).reshape(n_p, -1), axis=1) > 1.0
        u_prev = weighted_population(p, ctx.gamma, model.region, grid)
        record(n + 1, p, u_prev, k0)
    for count in warnings[warnings > 0]:
        logger.warning(
            "explicit noise factor departed from 1 by more than 1 on %d of %d "
            "steps; the time step is too large for the sampled noise",
            count, n_t)

    return [SolveReport(
        solver="direct", variable="p", grid=grid, times=grid.times,
        stride=config.snapshot_stride, snapshot_indices=indices,
        snapshots=snapshots[j], final=p[j],
        l2_series=series["l2"][j], gradient_energy_series=series["grad"][j],
        exit_trace_series=series["exit"][j], births_series=series["births"][j],
        u_series=series["u"][j], k_norm_sq_series=series["k_sq"][j],
        picard_iterations=np.zeros(n_t, dtype=int),
        contraction_ratios=np.full(n_t, np.nan),
        guard=None, cfl_max=0.0, noise_factor_warnings=int(warnings[j]),
        status="converged") for j in range(n_p)]
