import copy
import dataclasses

import numpy as np
import pytest
import sympy

import stochage as sa
from stochage.ensemble import fit_order
from stochage.errors import InsufficientDataError
from stochage.estimates import CheckRow, _ratio, build_test_functions, growth_factor
from stochage.grid import face_shape
from stochage.noise import coarsen

from conftest import build_model, linear_rates, smooth_p0


def solved_pair(grid, seed=5, rates=None, stride=1, p0=None):
    model = build_model(grid, rates=rates, p0=p0)
    bundle = sa.sample_bundle(seed, 1, grid.n_t, grid.T)
    rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=stride))
    return model, bundle, rep


class TestConstants:
    def test_recompute_exactly(self, linear_model):
        bundle = sa.sample_bundle(1, 1, linear_model.grid.n_t, linear_model.grid.T)
        consts = sa.constants_for_run(linear_model, bundle)
        again = sa.compute_constants(
            linear_model.rates, consts.sups, c0=consts.c0, c1=consts.c1,
            region_volume=consts.region_volume, a_max=consts.a_max,
            horizon=consts.horizon, y0_norm_sq=consts.y0_norm_sq)
        assert again.c_est == consts.c_est
        assert again.r0 == consts.r0
        assert again.n0 == consts.n0
        assert again.l1 == consts.l1
        assert again.l2 == consts.l2

    def test_growth_factor_monotone(self):
        base = dict(c0=1.0, c1=1.0, g1_sup=0.5, g2_sup=0.3, a_max=1.0,
                    m0_inf=0.6, c_w0=1.2, mu_inf=0.4, horizon=0.5)
        ref = growth_factor(**base)
        for key in ("g1_sup", "g2_sup", "mu_inf", "horizon", "m0_inf", "c_w0"):
            bumped = dict(base)
            bumped[key] = base[key] * 1.5
            assert growth_factor(**bumped) >= ref

    def test_overflow_names_the_exponent(self):
        # an exponent past exp's range is named by its value; only a square
        # past a float makes the exponent itself infinite
        base = dict(c0=1.0, c1=1.0, g1_sup=0.0, g2_sup=0.0, a_max=1.0,
                    m0_inf=0.0, c_w0=1.0, mu_inf=0.0, horizon=1.0)
        with pytest.raises(sa.StochageError, match=r"^energy bound exponent 1231 overflows"):
            growth_factor(**dict(base, g1_sup=1230.0))
        with pytest.raises(sa.StochageError, match=r"^energy bound exponent inf overflows"):
            growth_factor(**dict(base, g2_sup=1e200))

    def test_threshold_is_ceil_plus_one(self, linear_model):
        bundle = sa.sample_bundle(2, 1, linear_model.grid.n_t, linear_model.grid.T)
        consts = sa.constants_for_run(linear_model, bundle)
        assert consts.n0 == int(np.ceil(consts.r0)) + 1


class TestAprioriCheck:
    def test_margins_below_one(self, grid1d):
        model, bundle, rep = solved_pair(grid1d)
        consts = sa.constants_for_run(model, bundle)
        before = {f.name: copy.deepcopy(getattr(rep, f.name))
                  for f in dataclasses.fields(rep)}
        margins = sa.apriori_check(rep, consts)
        assert margins.shape == (grid1d.n_t + 1,)
        assert np.all(margins <= 1.0)
        # the check is pure: every field of the report is bitwise unchanged
        for name, value in before.items():
            now = getattr(rep, name)
            assert type(now) is type(value), name
            if isinstance(value, np.ndarray):
                assert now.dtype == value.dtype and now.shape == value.shape, name
                assert now.tobytes() == value.tobytes(), name
            else:
                assert now == value, name

    def test_zero_data_zero_margin(self, grid1d):
        p0 = sa.Field(np.zeros(grid1d.field_shape), grid1d)
        model, bundle, rep = solved_pair(grid1d, p0=p0)
        consts = sa.constants_for_run(model, bundle)
        margins = sa.apriori_check(rep, consts)
        assert np.all(margins == 0.0)

    def test_scaling_invariance(self, grid1d):
        # linear model: scaling the initial data scales both sides by the
        # same square, leaving the margins unchanged
        model, bundle, rep = solved_pair(grid1d)
        lam = 3.7
        scaled = build_model(grid1d, p0=sa.Field(lam * model.p0.values, grid1d))
        rep2 = sa.solve_rescaled(scaled, bundle, sa.SolverConfig(snapshot_stride=1))
        m1 = sa.apriori_check(rep, sa.constants_for_run(model, bundle))
        c2 = sa.constants_for_run(scaled, bundle)
        m2 = sa.apriori_check(rep2, c2)
        # growth factors differ only through the data term, which scales out
        ratio = m2[1:] / m1[1:] * (c2.c_est / sa.constants_for_run(model, bundle).c_est)
        assert np.allclose(ratio, 1.0, rtol=1e-12)


class TestDependence:
    def test_identical_runs_zero(self, grid1d):
        model, bundle, rep = solved_pair(grid1d)
        consts = sa.constants_for_run(model, bundle)
        res = sa.dependence_check(rep, rep, consts)
        assert res.difference_energy == 0.0
        assert res.ratio == 0.0

    def test_quadratic_scaling_in_delta(self, grid1d):
        base = smooth_p0(grid1d)
        model, bundle, rep = solved_pair(grid1d, p0=base)
        consts = sa.constants_for_run(model, bundle)
        bump = sa.Field.from_function(
            grid1d, lambda a, x: np.exp(-((a - 0.3) / 0.2) ** 2) + 0 * x)
        ratios = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            pert = build_model(grid1d, p0=sa.Field(
                base.values + delta * bump.values, grid1d))
            rep2 = sa.solve_rescaled(pert, bundle,
                                     sa.SolverConfig(snapshot_stride=1))
            ratios.append(sa.dependence_check(rep, rep2, consts).ratio)
        spread = (max(ratios) - min(ratios)) / max(ratios)
        assert spread <= 0.10

    def test_symmetric_under_swap(self, grid1d):
        base = smooth_p0(grid1d)
        model, bundle, rep = solved_pair(grid1d, p0=base)
        pert = build_model(grid1d, p0=sa.Field(base.values + 0.01, grid1d))
        rep2 = sa.solve_rescaled(pert, bundle, sa.SolverConfig(snapshot_stride=1))
        c1 = sa.constants_for_run(model, bundle)
        c2 = sa.constants_for_run(pert, bundle)
        r12 = sa.dependence_check(rep, rep2, c1, c2)
        r21 = sa.dependence_check(rep2, rep, c2, c1)
        assert r12.ratio == pytest.approx(r21.ratio, rel=1e-12)

    def test_needs_full_trajectory(self, grid1d):
        model, bundle, rep = solved_pair(grid1d, stride=4)
        consts = sa.constants_for_run(model, bundle)
        with pytest.raises(InsufficientDataError):
            sa.dependence_check(rep, rep, consts)


class TestWeakResidualRandom:
    def test_zero_trajectory_zero_residual(self, grid1d):
        p0 = sa.Field(np.zeros(grid1d.field_shape), grid1d)
        model, bundle, rep = solved_pair(grid1d, p0=p0)
        res = sa.weak_residual_random(rep, model, bundle)
        assert res.max_abs == 0.0

    def test_stationary_constant_solution_rounding(self, grid1d):
        """A constant state with fertility 1/a_max is a steady solution;
        every quadrature in the assembly is exact for it, so the residual
        drops to rounding level."""
        rates = sa.VitalRates(m0=sa.ConstantRate(1.0 / grid1d.a_max))
        model = build_model(grid1d, rates=rates,
                            amplitudes=(sa.constant_amplitude(0.0, 1),))
        bundle = sa.sample_bundle(0, 1, grid1d.n_t, grid1d.T)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=1))
        const = np.ones((grid1d.n_t + 1,) + grid1d.field_shape) * 1.7
        rep.snapshots = const  # closed-form trajectory, not the solver's
        res = sa.weak_residual_random(rep, model, bundle, n_psi=4)
        assert res.max_abs <= 1e-12

    def test_characteristics_residual_first_order(self):
        # transport-only model: residual of the computed solution shrinks
        # linearly with the step
        vals = []
        for n_t in (32, 64):
            grid = sa.Grid(T=0.5, a_max=1.0, n_t=n_t, n_a=2 * n_t,
                           extent=(1.0,), n_x=(1,))
            rates = sa.VitalRates(mu_s=sa.ConstantRate(0.4))
            model = build_model(grid, rates=rates,
                                amplitudes=(sa.constant_amplitude(0.0, 1),),
                                p0=smooth_p0(grid, decay=1.0, ripple=0.0))
            bundle = sa.sample_bundle(0, 1, n_t, grid.T)
            rep = sa.solve_rescaled(model, bundle,
                                    sa.SolverConfig(snapshot_stride=1))
            vals.append(sa.weak_residual_random(rep, model, bundle).max_abs)
        assert vals[1] <= 0.65 * vals[0]

    def test_refinement_order_with_noise(self):
        master = sa.sample_bundle(4, 1, 128, 0.5)
        res, hs = [], []
        for n_t, n_x in ((32, 8), (64, 16), (128, 32)):
            grid = sa.Grid(T=0.5, a_max=1.0, n_t=n_t, n_a=2 * n_t,
                           extent=(1.0,), n_x=(n_x,))
            model = build_model(grid, rates=linear_rates(k0=0.1),
                                amplitudes=(sa.cosine_amplitude(0.2, (1,), (1.0,)),))
            b = coarsen(master, 128 // n_t)
            rep = sa.solve_rescaled(model, b, sa.SolverConfig(snapshot_stride=1))
            res.append(sa.weak_residual_random(rep, model, b).max_abs)
            hs.append(grid.dt)
        assert fit_order(hs, res) >= 0.9

    def test_strided_report_rejected(self, grid1d):
        model, bundle, rep = solved_pair(grid1d, stride=2)
        with pytest.raises(InsufficientDataError):
            sa.weak_residual_random(rep, model, bundle)


class TestWeakResidualStochastic:
    def test_zero_trajectory(self, grid1d):
        model = build_model(grid1d, p0=sa.Field(np.zeros(grid1d.field_shape), grid1d))
        bundle = sa.sample_bundle(3, 1, grid1d.n_t, grid1d.T)
        rep = sa.solve_direct(model, bundle, sa.SolverConfig(snapshot_stride=1))
        res = sa.weak_residual_stochastic(rep, model, bundle)
        assert res.max_abs == 0.0

    def test_stationary_constant_solution_rounding(self, grid1d):
        """The steady state of the pathwise test, in the stochastic form:
        with zero noise the Ito sum vanishes and every quadrature is exact
        for a constant density, so the residual is at rounding level."""
        rates = sa.VitalRates(m0=sa.ConstantRate(1.0 / grid1d.a_max))
        model = build_model(grid1d, rates=rates,
                            amplitudes=(sa.constant_amplitude(0.0, 1),))
        bundle = sa.sample_bundle(0, 1, grid1d.n_t, grid1d.T)
        rep = sa.solve_direct(model, bundle, sa.SolverConfig(snapshot_stride=1))
        rep.snapshots = np.full((grid1d.n_t + 1,) + grid1d.field_shape, 1.7)
        res = sa.weak_residual_stochastic(rep, model, bundle, n_psi=6)
        assert res.max_abs <= 1e-12

    def test_decreases_under_refinement(self):
        master = sa.sample_bundle(8, 1, 128, 0.5)
        vals = []
        for n_t in (32, 128):
            grid = sa.Grid(T=0.5, a_max=1.0, n_t=n_t, n_a=2 * n_t,
                           extent=(1.0,), n_x=(8,))
            model = build_model(grid, rates=linear_rates())
            b = coarsen(master, 128 // n_t)
            rep = sa.solve_direct(model, b, sa.SolverConfig(snapshot_stride=1))
            vals.append(sa.weak_residual_stochastic(rep, model, b).max_abs)
        assert vals[1] < vals[0]


class TestBasisAndRows:
    def test_test_functions_vanish_at_horizon(self, grid1d):
        for psi in build_test_functions(grid1d, 9):
            assert psi.phi(grid1d.T) == 0.0

    @pytest.mark.parametrize("extent, n_x, count", [((3.0,), (5,), 27),
                                                    ((2.0, 0.5), (4, 3), 54)])
    def test_family_matches_sympy(self, extent, n_x, count):
        # every function of the family: A_a and A_grad are the analytic
        # derivatives of A, and each face holds A at the face coordinates;
        # no length is 1, so a misplaced scale shows
        grid = sa.Grid(T=0.5, a_max=2.0, n_t=8, n_a=16, extent=extent, n_x=n_x)
        psis = build_test_functions(grid, 100)
        assert len(psis) == count
        degrees = [(psi.q_t, psi.deg_a) + psi.deg_x for psi in psis]
        assert len(set(degrees)) == count
        assert [sum(d) for d in degrees] == sorted(sum(d) for d in degrees)
        a, *xs = sympy.symbols(f"a x0:{grid.dim}")

        def sampled(expr, ages, coords, shape):
            fn = sympy.lambdify((a, *xs), expr, "numpy")
            return np.broadcast_to(np.asarray(fn(ages, *coords), dtype=float), shape)

        for psi in psis:
            A = (a / grid.a_max) ** psi.deg_a
            for x, d, ext in zip(xs, psi.deg_x, grid.extent):
                A = A * (x / ext) ** d
            cases = [(psi.A, A), (psi.A_a, sympy.diff(A, a))]
            cases += [(g, sympy.diff(A, x)) for g, x in zip(psi.A_grad, xs)]
            assert len(cases) == 2 + grid.dim
            for values, expr in cases:
                want = sampled(expr, grid.age_mesh, grid.space_meshes, grid.field_shape)
                np.testing.assert_allclose(values, want, rtol=1e-13, atol=1e-15)
            assert len(psi.face_values) == 2 * grid.dim
            for face, (ages, coords) in grid.boundary_meshes.items():
                assert float(coords[face.axis]) == face.side * grid.extent[face.axis]
                shape = face_shape(grid, face)
                assert psi.face_values[face].shape == shape
                np.testing.assert_allclose(psi.face_values[face],
                                           sampled(A, ages, coords, shape),
                                           rtol=1e-13, atol=1e-15)

    def test_ratio_counts_zero_over_zero_as_zero(self):
        assert _ratio(1.0, 4.0) == 0.25
        assert _ratio(0.0, 0.0) == 0.0
        assert _ratio(1e-3, 0.0) == np.inf

    def test_check_rows(self):
        assert CheckRow("x", 0.5, 1.0).passed
        assert not CheckRow("x", 2.0, 1.0).passed
