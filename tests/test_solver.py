import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

import stochage as sa
from stochage.errors import (ConfigurationError, InsufficientDataError,
                             NonconvergenceError)
from stochage.grid import Face, boundary_faces
from stochage.modelfile import parse_model
from stochage.solver import (DiffusionFactors, TruncationGuard,
                             diffusion_substep, renewal_row,
                             transport_reaction_substep, tridiagonal_solve,
                             truncate_argument)

from conftest import build_model, linear_rates, logistic_rates, smooth_p0

MODELS = Path(__file__).resolve().parent.parent / "models"


def zero_faces(grid, rows=None):
    n = grid.n_a + 1 if rows is None else rows
    out = {}
    for f in boundary_faces(grid):
        shape = (n,) + tuple(m for ax, m in enumerate(grid.n_x) if ax != f.axis)
        out[f] = np.zeros(shape)
    return out


class TestTridiagonal:
    def test_matches_lapack(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 17):
            diag = 2.0 + rng.random((4, n))
            lower = -rng.random((4, n))
            upper = -rng.random((4, n))
            lower[:, 0] = 0.0
            upper[:, -1] = 0.0
            rhs = rng.normal(size=(4, n))
            ours = tridiagonal_solve(lower, diag, upper, rhs)
            for b in range(4):
                ab = np.zeros((3, n))
                ab[0, 1:] = upper[b, :-1]
                ab[1] = diag[b]
                ab[2, :-1] = lower[b, 1:]
                ref = solve_banded((1, 1), ab, rhs[b])
                assert np.allclose(ours[b], ref, rtol=1e-12)

    def test_exact_nonnegativity(self):
        # M-matrix structure plus nonnegative right side: every operation
        # combines nonnegative numbers, so no entry can round below zero
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = 12
            r = rng.random()
            diag = 1.0 + 2 * r + rng.random(n)
            lower = np.full(n, -r)
            upper = np.full(n, -r)
            lower[0] = upper[-1] = 0.0
            rhs = rng.random(n) * np.round(rng.random(n))  # many exact zeros
            x = tridiagonal_solve(lower[None], diag[None], upper[None], rhs[None])
            assert np.all(x >= 0.0)


class TestTransport:
    def test_pure_shift_indicator(self, grid1d):
        vals = np.zeros(grid1d.field_shape)
        vals[5] = 1.0
        zeros = np.zeros(grid1d.field_shape)
        out, cfl = transport_reaction_substep(vals, zeros, zeros, None,
                                              grid1d, grid1d.dt)
        assert cfl == 0.0
        expected = np.zeros_like(vals)
        expected[6] = 1.0
        assert np.array_equal(out, expected)

    def test_zero_field(self, grid1d):
        zeros = np.zeros(grid1d.field_shape)
        out, _ = transport_reaction_substep(zeros, zeros, zeros, None,
                                            grid1d, grid1d.dt)
        assert np.all(out == 0.0)

    def test_constant_decay_matches_characteristics(self, grid1d):
        # g1 + mu_s = c: n steps of shift+decay equal p0(a - t) exp(-c t)
        c = 0.7
        vals = np.broadcast_to(np.exp(-grid1d.age_mesh), grid1d.field_shape).copy()
        g1 = np.full(grid1d.field_shape, 0.3)
        mu = np.full(grid1d.field_shape, 0.4)
        state = vals
        n = 10
        for _ in range(n):
            state, _ = transport_reaction_substep(state, g1, mu, None,
                                                  grid1d, grid1d.dt)
        t = n * grid1d.dt
        expected = np.zeros_like(vals)
        expected[n:] = vals[:-n] * np.exp(-c * grid1d.dt) ** n
        assert np.allclose(state, expected, rtol=1e-12)

    def test_departure_cell_rate(self, grid1d):
        # age-dependent rate: the factor uses the source row, not the target
        rate = np.broadcast_to(grid1d.age_mesh, grid1d.field_shape).copy()
        vals = np.ones(grid1d.field_shape)
        zeros = np.zeros(grid1d.field_shape)
        out, _ = transport_reaction_substep(vals, rate, zeros, None,
                                            grid1d, grid1d.dt)
        expected = np.exp(-grid1d.ages[3] * grid1d.dt)
        assert out[4, 0] == pytest.approx(expected, rel=1e-15)

    def test_upwind_advection_direction(self, grid1d):
        zeros = np.zeros(grid1d.field_shape)
        vals = np.zeros(grid1d.field_shape)
        vals[:, 3] = 1.0
        g2 = (np.full(grid1d.field_shape, grid1d.dx[0] / grid1d.dt * 0.5),)
        out, cfl = transport_reaction_substep(vals, zeros, zeros, g2,
                                              grid1d, grid1d.dt)
        assert cfl == pytest.approx(0.5)
        # positive velocity moves mass to the right
        assert out[5, 4] == pytest.approx(0.5)
        assert out[5, 3] == pytest.approx(0.5)

    def test_unaligned_grid(self):
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=32, n_a=32, extent=(1.0,), n_x=(4,))
        assert not grid.aligned  # dt = 1/64, da = 1/32
        vals = np.ones(grid.field_shape)
        zeros = np.zeros(grid.field_shape)
        out, _ = transport_reaction_substep(vals, zeros, zeros, None,
                                            grid, grid.dt)
        # interior of a constant profile is unchanged by the age upwind
        assert np.allclose(out[1:], 1.0, rtol=1e-15)
        assert np.all(out[0] == 0.0)

    def test_unaligned_cfl_violation(self):
        grid = sa.Grid(T=0.5, a_max=2.0, n_t=64, n_a=32, extent=(1.0,), n_x=(4,))
        # dt = 1/128 < da = 1/16 is fine; force violation with a larger step
        vals = np.ones(grid.field_shape)
        zeros = np.zeros(grid.field_shape)
        with pytest.raises(ConfigurationError):
            transport_reaction_substep(vals, zeros, zeros, None, grid,
                                       10 * grid.da)


class TestDiffusion:
    def test_neumann_preserves_constants(self, grid1d):
        vals = np.full(grid1d.field_shape, 3.0)
        out = diffusion_substep(vals, zero_faces(grid1d), zero_faces(grid1d),
                                grid1d, grid1d.dt)
        assert np.allclose(out, 3.0, rtol=1e-14)

    def test_cosine_eigenmode_decay(self):
        # cos(pi x / L) on the cell centers is an exact eigenvector of the
        # zero-flux Laplacian; the implicit factor per step is
        # 1 / (1 + dt (2 / dx^2)(1 - cos(pi dx / L)))
        L, n_x = 1.0, 16
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=32, n_a=64, extent=(L,), n_x=(n_x,))
        x = grid.cell_centers[0]
        mode = np.cos(np.pi * x / L)
        vals = np.broadcast_to(mode, grid.field_shape).copy()
        dt, dx = grid.dt, grid.dx[0]
        factor = 1.0 / (1.0 + dt * (2.0 / dx ** 2) * (1 - np.cos(np.pi * dx / L)))
        state = vals
        for _ in range(5):
            state = diffusion_substep(state, zero_faces(grid), zero_faces(grid),
                                      grid, dt)
        assert np.allclose(state, factor ** 5 * vals, rtol=1e-12)

    def test_robin_monotone_in_alpha(self, grid1d):
        vals = np.ones(grid1d.field_shape)
        weak = diffusion_substep(vals, zero_faces(grid1d), zero_faces(grid1d),
                                 grid1d, grid1d.dt)
        alpha = {f: np.full_like(z, 5.0) for f, z in zero_faces(grid1d).items()}
        strong = diffusion_substep(vals, alpha, zero_faces(grid1d),
                                   grid1d, grid1d.dt)
        assert strong[0, 0] < weak[0, 0]
        assert strong[0, -1] < weak[0, -1]

    def test_negative_k_is_source(self, grid1d):
        vals = np.zeros(grid1d.field_shape)
        k = {f: np.full_like(z, -1.0) for f, z in zero_faces(grid1d).items()}
        out = diffusion_substep(vals, zero_faces(grid1d), k, grid1d, grid1d.dt)
        assert out[0, 0] > 0.0

    def test_2d_constant_preserved(self, grid2d):
        vals = np.full(grid2d.field_shape, 2.0)
        out = diffusion_substep(vals, zero_faces(grid2d), zero_faces(grid2d),
                                grid2d, grid2d.dt)
        assert np.allclose(out, 2.0, rtol=1e-13)

    def test_single_cell_identity(self):
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=8, n_a=16, extent=(1.0,), n_x=(1,))
        vals = np.random.default_rng(0).random(grid.field_shape)
        out = diffusion_substep(vals, zero_faces(grid), zero_faces(grid),
                                grid, grid.dt)
        assert np.array_equal(out, vals)


class TestDiffusionFactors:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_kept_factors_match_fresh_ones(self, dim, grid1d, grid2d):
        # a kept factorization gives the bits of a fresh one, and a change
        # of the Robin coefficient (as a time-dependent alpha0 makes) is
        # picked up on the next call
        grid = grid1d if dim == 1 else grid2d
        rng = np.random.default_rng(3)
        factors = DiffusionFactors()
        k = {f: 0.1 * rng.random(z.shape) for f, z in zero_faces(grid).items()}
        for step, a in enumerate((0.2, 0.2, 0.7, 0.2)):
            alpha = {f: np.full_like(z, a) for f, z in zero_faces(grid).items()}
            vals = rng.random((3,) + grid.field_shape)
            kept = diffusion_substep(vals, alpha, k, grid, grid.dt, factors)
            fresh = diffusion_substep(vals, alpha, k, grid, grid.dt)
            assert kept.tobytes() == np.ascontiguousarray(fresh).tobytes(), step
            for j in range(3):
                one = diffusion_substep(vals[j], alpha, k, grid, grid.dt)
                assert kept[j].tobytes() == np.ascontiguousarray(one).tobytes()

    def test_refactors_only_on_change(self, grid1d):
        factors = DiffusionFactors()
        alpha = {f: np.full_like(z, 0.2) for f, z in zero_faces(grid1d).items()}
        first = factors.get(alpha, grid1d, grid1d.dt)
        assert factors.get(dict(alpha), grid1d, grid1d.dt) is first
        alpha[Face(0, 1)] = alpha[Face(0, 1)] + 0.1
        assert factors.get(alpha, grid1d, grid1d.dt) is not first
        assert factors.get(alpha, grid1d, grid1d.dt / 2) is not first


class TestRenewal:
    def test_constant_rate_and_field(self, grid1d):
        m = np.full(grid1d.field_shape, 1.5)
        y = np.full(grid1d.field_shape, 2.0)
        row = renewal_row(y, m, grid1d)
        assert np.allclose(row, 1.5 * 2.0 * grid1d.a_max, rtol=1e-14)

    def test_zero_rate(self, grid1d):
        y = np.random.default_rng(0).random(grid1d.field_shape)
        assert np.all(renewal_row(y, np.zeros_like(y), grid1d) == 0.0)

    def test_age_window(self, grid1d):
        # sharp window sampled at nodes: the two edge nodes enter with full
        # instead of half weight, so the quadrature error is one age step
        a1, a2 = 0.25, 0.75
        m = np.where((grid1d.age_mesh >= a1) & (grid1d.age_mesh <= a2), 1.0, 0.0)
        m = np.broadcast_to(m, grid1d.field_shape)
        y = np.ones(grid1d.field_shape)
        row = renewal_row(y, m, grid1d)
        assert np.allclose(row, a2 - a1, atol=1.5 * grid1d.da)
        # smooth fertility profiles integrate at second order
        smooth = np.broadcast_to(np.sin(np.pi * grid1d.age_mesh) ** 2,
                                 grid1d.field_shape)
        row = renewal_row(y, smooth, grid1d)
        assert np.allclose(row, 0.5, atol=grid1d.da ** 2)


class TestTruncation:
    def test_identity_branch(self, grid1d):
        guard = TruncationGuard(radius=4.0)
        vals = np.ones(grid1d.field_shape)  # norm 1 < 4
        out = truncate_argument(vals, grid1d, guard)
        assert out is vals
        assert guard.activations == 0

    def test_scaling_branch(self, grid1d):
        guard = TruncationGuard(radius=1.0)
        vals = np.full(grid1d.field_shape, 2.0)  # norm 2 > 1
        out = truncate_argument(vals, grid1d, guard)
        assert guard.activations == 1
        assert sa.l2_norm(out, grid1d) == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(out, vals / 2.0, rtol=1e-14)

    def test_continuity_at_radius(self, grid1d):
        vals = np.full(grid1d.field_shape, 2.0)
        norm = sa.l2_norm(vals, grid1d)
        guard = TruncationGuard(radius=norm)
        out = truncate_argument(vals, grid1d, guard)
        assert out is vals  # boundary case takes the identity branch
        scaled = vals * (norm / norm)
        assert np.allclose(out, scaled, rtol=1e-15)


class TestPicard:
    def test_linear_model_single_iteration(self, linear_model):
        bundle = sa.sample_bundle(3, 1, linear_model.grid.n_t, linear_model.grid.T)
        rep = sa.solve_rescaled(linear_model, bundle, sa.SolverConfig())
        assert np.all(rep.picard_iterations == 1)

    def test_infinite_tol_returns_first_iterate(self, linear_model):
        bundle = sa.sample_bundle(3, 1, linear_model.grid.n_t, linear_model.grid.T)
        rep = sa.solve_rescaled(linear_model, bundle,
                                sa.SolverConfig(picard_tol=np.inf))
        assert np.all(rep.picard_iterations == 0)
        # for a model whose rates ignore the population functional the
        # first iterate is already the fixed point
        ref = sa.solve_rescaled(linear_model, bundle, sa.SolverConfig())
        assert np.array_equal(rep.final, ref.final)

    def test_nonlinear_contraction(self, grid1d):
        model = build_model(grid1d, rates=logistic_rates(),
                            p0=smooth_p0(grid1d, decay=0.5))
        bundle = sa.sample_bundle(5, 1, grid1d.n_t, grid1d.T)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig())
        assert rep.picard_iterations.max() >= 2  # genuinely nonlinear
        assert rep.picard_iterations.max() <= 10
        ratios = rep.contraction_ratios[np.isfinite(rep.contraction_ratios)]
        assert len(ratios) > 0
        assert ratios.max() < 1.0

    def test_nonconvergence_error(self, grid1d):
        model = build_model(grid1d, rates=logistic_rates())
        bundle = sa.sample_bundle(5, 1, grid1d.n_t, grid1d.T)
        with pytest.raises(NonconvergenceError) as err:
            sa.solve_rescaled(model, bundle,
                              sa.SolverConfig(picard_tol=0.0, picard_max_iter=0))
        assert err.value.step == 0

    def test_single_step_matches_march(self, linear_model):
        # one call of the step operation reproduces the first level of the
        # full time loop
        from stochage.rates import evaluate_gamma
        from stochage.rescale import RescaledCoefficients

        grid = linear_model.grid
        bundle = sa.sample_bundle(3, 1, grid.n_t, grid.T)
        cfg = sa.SolverConfig(snapshot_stride=1)
        rep = sa.solve_rescaled(linear_model, bundle, cfg)
        coeffs = RescaledCoefficients(linear_model, bundle)
        gamma_vals = evaluate_gamma(linear_model.rates, grid)
        step = sa.picard_step_solve(linear_model.initial.p0.values, 1, coeffs,
                                    gamma_vals, linear_model.region, None, cfg)
        assert np.array_equal(step.state, rep.trajectory[1])
        assert step.iterations == rep.picard_iterations[0]


class TestSolveRescaled:
    def test_characteristics_oracle_exact(self):
        # no noise, no renewal, one cell: p(t, a) = p0(a - t) exp(-mu t)
        n_t = 128
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=n_t, n_a=2 * n_t,
                       extent=(1.0,), n_x=(1,))
        mu = 0.4
        rates = sa.VitalRates(mu_s=sa.ConstantRate(mu))
        p0 = sa.initial_field(grid, lambda a, x: np.broadcast_to(
            np.exp(-((a - 0.4) / 0.15) ** 2),
            np.broadcast_shapes(np.shape(a), np.shape(x))))
        model = build_model(grid, rates=rates,
                            amplitudes=(sa.constant_amplitude(0.0, 1),), p0=p0)
        bundle = sa.sample_bundle(0, 1, n_t, grid.T)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=0))
        oracle = np.zeros(grid.field_shape)
        oracle[n_t:] = p0.p0.values[:-n_t] * np.exp(-mu * grid.dt) ** n_t
        assert np.max(np.abs(rep.final - oracle)) <= 1e-12 * np.max(oracle)

    def test_renewal_equation_oracle(self):
        # uniform-in-space birth-death system against an independent
        # scalar recursion over the age profile
        n_t = 64
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=n_t, n_a=2 * n_t,
                       extent=(1.0,), n_x=(1,))
        m0 = 1.8
        rates = sa.VitalRates(m0=sa.ConstantRate(m0))
        p0 = sa.initial_field(grid, lambda a, x: np.broadcast_to(
            np.exp(-a), np.broadcast_shapes(np.shape(a), np.shape(x))))
        model = build_model(grid, rates=rates,
                            amplitudes=(sa.constant_amplitude(0.0, 1),), p0=p0)
        bundle = sa.sample_bundle(0, 1, n_t, grid.T)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=1))

        # oracle: plain python recursion, same trapezoid weights
        prof = np.exp(-grid.ages).copy()
        w = grid.age_weights
        births = [float(np.sum(w * m0 * prof))]
        for _ in range(n_t):
            shifted = np.zeros_like(prof)
            shifted[1:] = prof[:-1]
            b = float(np.sum(w * m0 * shifted))
            shifted[0] = b
            prof = shifted
            births.append(b)
        births = np.asarray(births)
        births[0] = rep.births_series[0]  # initial row is the raw data
        solver_births = rep.trajectory[:, 0, 0]
        assert np.allclose(solver_births[1:], births[1:], rtol=1e-12)

    def test_positivity_exact(self, grid1d):
        model = build_model(grid1d, rates=logistic_rates(),
                            p0=smooth_p0(grid1d, ripple=0.999))
        bundle = sa.sample_bundle(21, 1, grid1d.n_t, grid1d.T)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=1))
        assert rep.cfl_max <= 1.0
        assert rep.snapshots.min() >= 0.0

    def test_deterministic_reduction_bitwise(self, grid1d):
        model = build_model(grid1d, amplitudes=(sa.constant_amplitude(0.0, 1),))
        reps = []
        for seed in (1, 999):
            bundle = sa.sample_bundle(seed, 1, grid1d.n_t, grid1d.T)
            reps.append(sa.solve_rescaled(model, bundle,
                                          sa.SolverConfig(snapshot_stride=1)))
        assert np.array_equal(reps[0].snapshots, reps[1].snapshots)

    def test_truncation_guard_live(self, grid1d):
        model = build_model(grid1d)
        bundle = sa.sample_bundle(3, 1, grid1d.n_t, grid1d.T)
        rep = sa.solve_rescaled(model, bundle,
                                sa.SolverConfig(truncation_radius=1e-3))
        assert rep.guard.activations > 0

    def test_report_layout(self, linear_model):
        grid = linear_model.grid
        bundle = sa.sample_bundle(0, 1, grid.n_t, grid.T)
        rep = sa.solve_rescaled(linear_model, bundle,
                                sa.SolverConfig(snapshot_stride=4))
        assert len(rep.l2_series) == grid.n_t + 1
        assert rep.snapshot_indices[0] == 0
        assert rep.snapshot_indices[-1] == grid.n_t
        assert np.array_equal(rep.field_at(0), linear_model.initial.p0.values)
        with pytest.raises(InsufficientDataError):
            _ = rep.trajectory
        with pytest.raises(InsufficientDataError):
            rep.field_at(1)

    def test_2d_linear_solve(self, grid2d):
        model = build_model(grid2d, rates=linear_rates(alpha=0.1))
        bundle = sa.sample_bundle(2, 1, grid2d.n_t, grid2d.T)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=1))
        assert np.all(rep.picard_iterations == 1)
        assert rep.snapshots.min() >= 0.0
        assert np.all(np.isfinite(rep.final))


def same(a, b) -> bool:
    """Bitwise equality of two solve results, field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    return a == b


def march_without_path_axis(model, bundle, cfg):
    """Final state, steps and guard of a march of one path that never forms
    a path axis: coefficients of a single bundle, a guard of scalars."""
    from stochage.rates import evaluate_gamma
    from stochage.rescale import RescaledCoefficients

    coeffs = RescaledCoefficients(model, bundle)
    gamma = evaluate_gamma(model.rates, model.grid)
    if cfg.truncation_radius is None:
        n0 = sa.constants_for_run(model, coeffs=coeffs, c0=cfg.c0, c1=cfg.c1).n0
        guard = TruncationGuard(radius=float(n0), threshold=n0)
    else:
        guard = TruncationGuard(radius=cfg.truncation_radius)
    y, steps = model.initial.p0.values, []
    for n in range(1, model.grid.n_t + 1):
        steps.append(sa.picard_step_solve(y, n, coeffs, gamma, model.region,
                                          guard, cfg))
        y = steps[-1].state
    return y, steps, guard


def bundles_for(model, n, base=0):
    return [sa.sample_bundle(base + m, model.noise.n_modes, model.grid.n_t,
                             model.grid.T) for m in range(n)]


class TestSolveRescaledBatch:
    @pytest.mark.parametrize("name", ["sample1d", "sample2d"])
    def test_batch_matches_one_path_march(self, name):
        model, cfg = parse_model(MODELS / f"{name}.ini")
        cfg = dataclasses.replace(cfg, snapshot_stride=1)
        bundles = bundles_for(model, 10)
        singles = [sa.solve_rescaled(model, b, cfg) for b in bundles]
        for rep, bundle in zip(singles, bundles):
            final, steps, guard = march_without_path_axis(model, bundle, cfg)
            assert rep.final.tobytes() == final.tobytes()
            assert rep.u_series[1:].tobytes() == np.array(
                [s.u_value for s in steps]).tobytes()
            assert rep.picard_iterations.tolist() == [s.iterations for s in steps]
            assert rep.contraction_ratios.tobytes() == np.array(
                [s.contraction_ratio for s in steps], dtype=float).tobytes()
            assert rep.cfl_max == max(s.cfl for s in steps)
            assert rep.guard == guard
        if name == "sample1d":
            # paths leave the fixed point at different iterates
            iters = np.array([r.picard_iterations for r in singles])
            assert np.any(iters.min(axis=0) < iters.max(axis=0))
        for size in (3, 10):
            for lo in range(0, len(bundles), size):
                batch = sa.solve_rescaled_batch(model, bundles[lo:lo + size], cfg)
                assert len(batch) == len(bundles[lo:lo + size])
                for rep, single in zip(batch, singles[lo:lo + size]):
                    assert same(rep, single)

    def test_small_radius_clips_some_paths_only(self, grid1d):
        # a growing population whose paths spread: a radius inside the
        # spread of their peak norms clips only the paths that pass it
        rates = dataclasses.replace(logistic_rates(),
                                    m0=sa.LogisticRate(3.0, -0.5, 1.5, 0.5))
        model = build_model(grid1d, rates=rates, amplitudes=(
            sa.constant_amplitude(0.6, 1), sa.cosine_amplitude(0.2, (1,), grid1d.extent)))
        bundles = bundles_for(model, 8)
        peaks = [r.l2_series.max() for r in
                 sa.solve_rescaled_batch(model, bundles, sa.SolverConfig())]
        cfg = sa.SolverConfig(truncation_radius=float(np.median(peaks)))
        batch = sa.solve_rescaled_batch(model, bundles, cfg)
        clipped = [rep.guard.activations > 0 for rep in batch]
        assert 0 < sum(clipped) < len(batch)
        for rep, bundle in zip(batch, bundles):
            assert same(rep, sa.solve_rescaled(model, bundle, cfg))
            assert rep.guard.radius == cfg.truncation_radius
            assert rep.guard.threshold is None

    def test_failed_path_fails_alone_in_ensemble(self, grid1d):
        # fertility turns NaN once a path's population passes a threshold
        # that only some paths reach; the chunk's batch fails as a whole, so
        # the chunk is solved path by path and only those paths fail
        from stochage.ensemble import _solve_paths
        from stochage.rates import CustomRate

        def model_with(m0):
            rates = dataclasses.replace(linear_rates(), m0=m0,
                                        gamma=sa.ConstantRate(1.0))
            return build_model(grid1d, rates=rates,
                               amplitudes=(sa.constant_amplitude(0.8, 1),))

        cfg = sa.SolverConfig(snapshot_stride=0)
        healthy = model_with(sa.ConstantRate(0.6))
        bundles = bundles_for(healthy, 6)
        peaks = [rep.u_series.max()
                 for rep in sa.solve_rescaled_batch(healthy, bundles, cfg)]
        cut = float(np.median(peaks))
        model = model_with(CustomRate(
            fn=lambda t, a, x, r: np.nan if r > cut else 0.6, sup=0.6))
        with pytest.raises(sa.StochageError):
            sa.solve_rescaled_batch(model, bundles, cfg)
        out = _solve_paths("rescaled", model, bundles, cfg)
        failed = [isinstance(r, sa.StochageError) for r in out]
        assert 0 < sum(failed) < len(out)
        for rep, bundle, bad in zip(out, bundles, failed):
            if not bad:
                assert same(rep, sa.solve_rescaled(model, bundle, cfg))
