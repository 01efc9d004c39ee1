import dataclasses
from pathlib import Path

import numpy as np
import pytest

import stochage as sa
from stochage.ensemble import fit_order
from stochage.grid import boundary_faces
from stochage.modelfile import parse_model
from stochage.noise import coarsen
from stochage.oracle import _DirectContext, em_step
from stochage.rates import CustomRate

from conftest import build_model, linear_rates, logistic_rates, sample, smooth_p0

MODELS = Path(__file__).resolve().parent.parent / "models"


def gbm_model(n_t, p0_value=2.0):
    grid = sa.Grid(T=0.5, a_max=1.0, n_t=n_t, n_a=2 * n_t, extent=(1.0,), n_x=(1,))
    p0 = sample(grid, lambda a, x: np.full(
        np.broadcast_shapes(np.shape(a), np.shape(x)), p0_value))
    return build_model(grid, rates=sa.VitalRates(),
                       amplitudes=(sa.constant_amplitude(1.0, 1),), p0=p0)


def robin(ctx, t):
    """The Robin pair ``(alpha, k)`` of the context's model at time ``t``."""
    rates = ctx.model.rates
    return ctx.boundary(rates.alpha0, t), ctx.boundary(rates.k0, t)


class TestEmStep:
    def test_zero_increment_is_deterministic_step(self, linear_model):
        grid = linear_model.grid
        ctx = _DirectContext.build(linear_model)
        p = linear_model.p0.copy()
        faces = robin(ctx, grid.dt)
        stepped, _, over = em_step(p.copy(), np.zeros(1), ctx, grid.dt, 0.0, faces)
        noise_free, _, _ = em_step(p.copy(), np.zeros(1), ctx, grid.dt, 0.0, faces)
        assert not over
        assert np.array_equal(stepped, noise_free)

    def test_scalar_multiplicative_update(self):
        model = gbm_model(8)
        ctx = _DirectContext.build(model)
        p = model.p0.copy()
        dbeta = 0.125
        out, _, _ = em_step(p.copy(), np.array([dbeta]), ctx, model.grid.dt, 0.0,
                            robin(ctx, model.grid.dt), scheme="em")
        # away from the birth row the update is p (1 + dbeta)
        assert out[-1, 0] == pytest.approx(2.0 * (1 + dbeta), rel=1e-15)

    @pytest.mark.parametrize("d", [0.125, -0.3, 1.2, -2.5])
    def test_scalar_milstein_update(self, d):
        model = gbm_model(8)
        ctx = _DirectContext.build(model)
        dt = model.grid.dt
        p = model.p0.copy()
        out, _, over = em_step(p, np.array([d]), ctx, dt, 0.0, robin(ctx, dt))
        # the default factor: 1 + d + d^2/2 - mu dt with mu = 1/2
        assert out[-1, 0] == pytest.approx(2.0 * (1 + d + d**2 / 2 - dt / 2),
                                           rel=1e-15)
        assert over == (abs(d + d**2 / 2 - dt / 2) > 1)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(sa.ConfigurationError):
            sa.SolverConfig(scheme="heun")

    def test_overshoot_flag(self):
        model = gbm_model(8)
        ctx = _DirectContext.build(model)
        p = model.p0.copy()
        _, _, over = em_step(p, np.array([1.5]), ctx, model.grid.dt, 0.0,
                             robin(ctx, model.grid.dt))
        assert over


class TestSolveDirect:
    def test_fixed_seed_repeatable(self, linear_model):
        grid = linear_model.grid
        reps = []
        for _ in range(2):
            bundle = sa.sample_bundle(5, 1, grid.n_t, grid.T)
            reps.append(sa.solve_direct(linear_model, bundle,
                                        sa.SolverConfig(snapshot_stride=1)))
        assert np.array_equal(reps[0].snapshots, reps[1].snapshots)

    def test_noise_free_matches_rescaled_bitwise(self, grid1d):
        # with all amplitudes zero the two solvers run the same kernel on
        # identical inputs; gamma = 0 keeps the fixed point trivial
        model = build_model(grid1d, rates=linear_rates(k0=0.2),
                            amplitudes=(sa.constant_amplitude(0.0, 1),))
        b1 = sa.sample_bundle(1, 1, grid1d.n_t, grid1d.T)
        b2 = sa.sample_bundle(2, 1, grid1d.n_t, grid1d.T)
        rep_d = sa.solve_direct(model, b1, sa.SolverConfig(snapshot_stride=1))
        rep_r = sa.solve_rescaled(model, b2, sa.SolverConfig(snapshot_stride=1))
        assert np.array_equal(rep_d.snapshots, rep_r.snapshots)

    def test_gbm_endpoint(self):
        # probing an age row the birth boundary has not reached reduces the
        # scheme to the textbook Euler-Maruyama product
        n_t = 64
        model = gbm_model(n_t)
        bundle = sa.sample_bundle(13, 1, n_t, 0.5)
        rep = sa.solve_direct(model, bundle,
                              sa.SolverConfig(snapshot_stride=0, scheme="em"))
        expected = 2.0 * np.prod(1.0 + bundle.increments[0])
        assert rep.snapshots[-1][-1, 0] == pytest.approx(expected, rel=1e-13)

    def test_gbm_strong_error_half_order(self):
        """Strong error of the Euler scheme against the exact geometric
        Brownian motion.

        The multiplicative Euler scheme misses the quadratic-variation
        correction, so its strong order for this equation is 1/2 (the
        default Milstein factor adds the (dB^2 - dt)/2 term and is order
        1).  The oracle here is the closed form p0 exp(B_T - T/2).
        """
        n_fine = 256
        levels = [32, 64, 128, 256]
        M = 16
        errs = np.zeros((M, len(levels)))
        models = {n_t: gbm_model(n_t) for n_t in levels}
        for m in range(M):
            master = sa.sample_bundle(400 + m, 1, n_fine, 0.5)
            exact = 2.0 * np.exp(master.betas[0, -1] - 0.25)
            for i, n_t in enumerate(levels):
                b = coarsen(master, n_fine // n_t)
                rep = sa.solve_direct(models[n_t], b,
                                      sa.SolverConfig(snapshot_stride=0,
                                                      scheme="em"))
                errs[m, i] = abs(rep.snapshots[-1][-1, 0] - exact)
        order = fit_order([0.5 / n for n in levels], errs.mean(axis=0))
        assert 0.3 <= order <= 0.7

    def test_mean_consistency_small_ensembles(self):
        # ensemble mean of the linear model approaches the deterministic
        # solution within the Monte Carlo confidence band as M grows
        n_t = 16
        grid = sa.Grid(T=0.25, a_max=0.25, n_t=n_t, n_a=n_t, extent=(1.0,), n_x=(4,))
        model = build_model(grid, rates=linear_rates(m0=0.8, alpha=0.1),
                            amplitudes=(sa.cosine_amplitude(0.3, (1,), (1.0,)),),
                            p0=smooth_p0(grid, decay=2.0, ripple=0.3))
        det_model = build_model(grid, rates=linear_rates(m0=0.8, alpha=0.1),
                                amplitudes=(sa.constant_amplitude(0.0, 1),),
                                p0=smooth_p0(grid, decay=2.0, ripple=0.3))
        det = sa.solve_direct(det_model, sa.sample_bundle(0, 1, n_t, grid.T),
                              sa.SolverConfig(snapshot_stride=0)).snapshots[-1]
        cfg = sa.SolverConfig(snapshot_stride=0)
        for M, z in ((100, 3.3), (1000, 3.3)):
            bundles = [sa.sample_bundle(7000 + m, 1, n_t, grid.T) for m in range(M)]
            finals = np.stack([rep.snapshots[-1] for rep in
                               sa.solve_direct_batch(model, bundles, cfg)])
            for m in range(50):
                one = sa.solve_direct(model, bundles[m], cfg).snapshots[-1]
                assert finals[m].tobytes() == one.tobytes()
            mean = finals.mean(axis=0)
            half = z * finals.std(axis=0, ddof=1) / np.sqrt(M)
            # probe a handful of interior cells
            cells = [(2, 1), (5, 2), (9, 3), (n_t, 0)]
            for c in cells:
                assert abs(mean[c] - det[c]) <= half[c]

    def test_report_variable_is_density(self, linear_model):
        bundle = sa.sample_bundle(0, 1, linear_model.grid.n_t, linear_model.grid.T)
        rep = sa.solve_direct(linear_model, bundle, sa.SolverConfig())
        assert rep.solver == "direct"


def same_report(a, b) -> bool:
    """Bitwise equality of every field of two solve reports."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
        elif x != y and not (isinstance(x, float) and x != x and y != y):
            return False
    return True


def strong_custom_model(grid):
    """r-dependent custom fertility, a time-dependent Robin coefficient and
    noise strong enough to trip the overshoot flag on some paths."""
    rates = sa.VitalRates(
        mu_s=sa.LogisticRate(0.1, 0.5, 2.0, 0.5),
        m0=CustomRate(fn=lambda t, a, x, r: 0.5 + 0.1 * np.tanh(r) + 0 * a, sup=0.6),
        gamma=sa.ConstantRate(1.0), k0=sa.ConstantRate(0.05),
        alpha0=CustomRate(fn=lambda t, a, x, r: 0.1 + t + 0 * a, sup=1.0))
    return build_model(grid, rates=rates,
                       amplitudes=(sa.cosine_amplitude(2.0, (1,), (1.0,)),
                                   sa.constant_amplitude(1.5, 1)))


def bundles_for(model, seeds):
    g = model.grid
    return [sa.sample_bundle(s, model.noise.n_modes, g.n_t, g.T) for s in seeds]


class TestSolveDirectBatch:
    @pytest.fixture(params=["logistic1d", "logistic2d", "custom"])
    def model(self, request, grid1d, grid2d):
        if request.param == "logistic1d":
            return build_model(grid1d, rates=logistic_rates(),
                               amplitudes=(sa.cosine_amplitude(0.2, (1,), (1.0,)),
                                           sa.age_polynomial_amplitude((0.1, 0.1), 1)))
        if request.param == "logistic2d":
            model = build_model(grid2d, rates=logistic_rates(),
                                amplitudes=(sa.cosine_amplitude(0.2, (1, 1),
                                                                grid2d.extent),))
            return dataclasses.replace(model, region=sa.SubDomain((0.0, 0.0), (0.5, 1.0)))
        return strong_custom_model(grid1d)

    def test_each_path_matches_one_path_march(self, model):
        cfg = sa.SolverConfig(snapshot_stride=3)
        bundles = bundles_for(model, range(20, 29))
        batch = sa.solve_direct_batch(model, bundles, cfg)
        assert len(batch) == len(bundles)
        for rep, bundle in zip(batch, bundles):
            assert same_report(rep, sa.solve_direct(model, bundle, cfg))

    def test_result_independent_of_batch(self, model):
        # a path's report does not depend on its neighbours or its position
        cfg = sa.SolverConfig(snapshot_stride=1)
        bundles = bundles_for(model, range(40, 48))
        whole = sa.solve_direct_batch(model, bundles, cfg)
        part = sa.solve_direct_batch(model, bundles[5:2:-1], cfg)
        for rep, j in zip(part, (5, 4, 3)):
            assert same_report(rep, whole[j])

    def test_overshoot_counted_per_path(self, grid1d):
        model = strong_custom_model(grid1d)
        bundles = bundles_for(model, range(8))
        batch = sa.solve_direct_batch(model, bundles, sa.SolverConfig())
        counts = [rep.noise_factor_warnings for rep in batch]
        assert max(counts) > 0 and min(counts) < max(counts)
        assert counts == [sa.solve_direct(model, b).noise_factor_warnings
                          for b in bundles]

    def test_bundle_checks(self, linear_model):
        grid = linear_model.grid
        good = sa.sample_bundle(0, 1, grid.n_t, grid.T)
        short = sa.sample_bundle(1, 1, grid.n_t // 2, grid.T)
        with pytest.raises(sa.ConfigurationError):
            sa.solve_direct_batch(linear_model, [good, short])
        assert sa.solve_direct_batch(linear_model, []) == []


class TestFacesOncePerMarch:
    """The Robin data of a rate that ignores ``t`` are evaluated once per
    march; those of a :class:`CustomRate` at every step."""

    @staticmethod
    def calls_of(monkeypatch, cls) -> list:
        """The ids of the instances of ``cls`` called from now on."""
        calls, original = [], cls.__call__

        def counting(self, t, a, x, r):
            calls.append(id(self))
            return original(self, t, a, x, r)

        monkeypatch.setattr(cls, "__call__", counting)
        return calls

    @pytest.mark.parametrize("route", ["direct", "rescaled"])
    def test_model_file_rates_once_whatever_n_t(self, monkeypatch, route):
        calls = self.calls_of(monkeypatch, sa.ConstantRate)
        for level in (8, 4):   # n_t = 8 and 16
            model, cfg = parse_model(MODELS / "sample1d.ini", coarsen=level)
            rates, n_faces = model.rates, len(boundary_faces(model.grid))
            assert all(getattr(getattr(rates, name), "ignores_t", True) for name in
                       ("mu_s", "m0", "gamma", "alpha0", "k0"))
            bundle = bundles_for(model, [3])[0]
            calls.clear()
            (sa.solve_direct if route == "direct" else sa.solve_rescaled)(model, bundle, cfg)
            assert calls.count(id(rates.alpha0)) == n_faces
            if route == "direct":   # the rescaled route scales k0 by exp(-W) per node
                assert calls.count(id(rates.k0)) == n_faces

    @pytest.mark.parametrize("route", ["direct", "rescaled"])
    def test_custom_rate_at_every_step(self, monkeypatch, grid1d, route):
        calls = self.calls_of(monkeypatch, CustomRate)
        model = strong_custom_model(grid1d)
        assert not model.rates.alpha0.ignores_t
        bundle = bundles_for(model, [3])[0]
        (sa.solve_direct if route == "direct" else sa.solve_rescaled)(model, bundle)
        assert calls.count(id(model.rates.alpha0)) == grid1d.n_t * len(boundary_faces(grid1d))

    @pytest.mark.parametrize("frozen_at", ["start", "first step"])
    def test_time_dependent_alpha_is_not_frozen(self, grid1d, frozen_at):
        # a CustomRate hoisted by mistake would keep the value of its first
        # evaluation, at the first step's node
        model = strong_custom_model(grid1d)
        t0 = 0.0 if frozen_at == "start" else grid1d.times[1]
        frozen = dataclasses.replace(model, rates=dataclasses.replace(
            model.rates, alpha0=CustomRate(fn=lambda t, a, x, r: 0.1 + t0 + 0 * a, sup=1.0)))
        bundle = bundles_for(model, [3])[0]
        assert not np.array_equal(sa.solve_direct(model, bundle).snapshots[-1],
                                  sa.solve_direct(frozen, bundle).snapshots[-1])
