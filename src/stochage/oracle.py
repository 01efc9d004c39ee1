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
the batch it is solved in.  What no step changes is built once per march
in :class:`_DirectContext`: the amplitude values, ``mu``, ``gamma``, the
Robin data of the rates that ignore ``t`` and the diffusion factorization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StochageError
from .grid import Grid, weighted_population
from .model import PopulationModel
from .noise import AmplitudeGrids, BrownianBundle, ito_correction
from .rates import evaluate_gamma, evaluate_on_grid
from .solver import (DiffusionFactors, SolveReport, SolverConfig, StepResult,
                     _advection, _march, _only, _split_step)

logger = logging.getLogger(__name__)


@dataclass
class _DirectContext:
    """Built once per march: the amplitude values, ``mu``, ``gamma``, and in ``factors``
    the Robin data of the rates that ignore ``t`` and the expanded diffusion factors."""

    model: PopulationModel
    grid: Grid
    amp_values: np.ndarray          # (N, *field_shape)
    mu: np.ndarray                  # Ito correction (1/2) sum_j mu_j^2
    gamma: np.ndarray
    factors: DiffusionFactors = field(default_factory=lambda: DiffusionFactors(expand=True))

    @classmethod
    def build(cls, model: PopulationModel) -> "_DirectContext":
        grid = model.grid
        return cls(model, grid, AmplitudeGrids(model.noise, grid).values,
                   ito_correction(model.noise, grid), evaluate_gamma(model.rates, grid))

    def boundary(self, rate, t: float) -> dict:
        return self.factors.faces(rate, self.grid, t)


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
    if scheme == "milstein":   # shock += 0.5 * shock * shock - mu * dt, in place
        correction = np.multiply(shock, 0.5)
        correction *= shock
        shock += np.subtract(correction, ctx.mu * dt, out=correction)
    elif scheme != "em":
        raise ConfigurationError(f"unknown direct-route scheme {scheme!r}")
    return shock


def em_step(p: np.ndarray, increments: np.ndarray, ctx: _DirectContext,
            t_new: float, u_prev, dt: float, faces: tuple | None,
            scheme: str = "milstein") -> tuple[np.ndarray, float, bool]:
    """One explicit step: deterministic substeps, then the noise factor.

    ``p`` is one field, or a stack of paths with a leading path axis; then
    ``increments`` is ``(P, N)`` and ``u_prev`` holds the population
    functional of each incoming path (a scalar for one field).  ``faces``
    is the Robin data ``(alpha, k)`` at ``t_new``, or ``None`` to skip
    diffusion.  ``scheme`` picks the factor: ``"milstein"`` multiplies by
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
    m0 = evaluate_on_grid(model.rates.m0, grid, t_new, u_prev)
    faces = None if faces is None else tuple(ctx.factors.inner(d, grid) for d in faces)
    v, cfl = _split_step(p, None, mu_s, None, m0, faces, grid, dt, ctx.factors)
    shock = _shock(increments, ctx, dt, scheme)
    overshoot = bool(shock.size) and bool(shock.max() > 1.0 or shock.min() < -1.0)
    v *= np.add(shock, 1.0, out=shock)
    return v, cfl, overshoot


def solve_direct(model: PopulationModel, bundle: BrownianBundle,
                 config: SolverConfig | None = None) -> SolveReport:
    """Full explicit time loop over the bundle's grid (``config.scheme``).

    Produces the same report layout as the rescaled solver (the state
    variable is the density itself) so the two routes are directly
    comparable.  This is the one-path case of :func:`solve_direct_batch`.
    """
    return _only(solve_direct_batch(model, [bundle], config))


def solve_direct_batch(model: PopulationModel, bundles: list[BrownianBundle],
                       config: SolverConfig | None = None) -> list[SolveReport | StochageError]:
    """March several paths as one array problem; per bundle its report, or
    the error that ended its path.

    The paths share the grid, the amplitudes and the boundary data, so
    their states advance together with a leading path axis.  Every
    operation acts on each path by itself with the arithmetic of a
    one-path march, so a path's report is bitwise the same whichever
    batch it is solved in.  A path whose state turns non-finite fails alone,
    as in its one-path solve; a :class:`ConfigurationError` ends the call.
    """
    config = config or SolverConfig()
    for bundle in bundles:
        model.check_bundle(bundle)
    if not bundles:
        return []
    ctx = _DirectContext.build(model)
    grid, rates = model.grid, model.rates
    _advection(None, grid, grid.dt)   # rejects dt > da off alignment; no advection here
    # (P, N, n_t): a step reads a strided column per path, like a one-path
    # march does, which keeps the noise contraction batch-independent
    increments = np.stack([b.increments for b in bundles])

    def step(t_index: int, p: np.ndarray, u_prev: np.ndarray, live) -> StepResult:
        t_new = grid.times[t_index]
        rows = increments if len(live) == len(increments) else increments[live]
        dbeta = rows[:, :, t_index - 1]
        faces = ((ctx.boundary(rates.alpha0, t_new), ctx.boundary(rates.k0, t_new))
                 if config.include_diffusion else None)
        p, cfl, overshoot = em_step(p, dbeta, ctx, t_new, u_prev, grid.dt,
                                    faces, config.scheme)
        if overshoot:
            shock = _shock(dbeta, ctx, grid.dt, config.scheme)
            overshoot = np.max(np.abs(shock).reshape(len(p), -1), axis=1) > 1.0
        return StepResult(p, weighted_population(p, ctx.gamma, model.region, grid),
                          cfl=cfl, overshoot=overshoot)

    reports = _march(model, bundles, ctx.gamma, step, config, "direct")
    for report in reports:
        if isinstance(report, SolveReport) and report.noise_factor_warnings:
            logger.warning(
                "explicit noise factor departed from 1 by more than 1 on %d of %d "
                "steps; the time step is too large for the sampled noise",
                report.noise_factor_warnings, grid.n_t)
    return reports
