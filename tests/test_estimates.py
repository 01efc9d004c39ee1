import copy
import dataclasses

import numpy as np
import pytest
import sympy

import stochage as sa
from stochage.ensemble import fit_order
from stochage.errors import ConfigurationError
from stochage.estimates import (CheckRow, _cumtrapz, _ratio, build_test_functions,
                                growth_factor)
from stochage.grid import (boundary_norm_sq, face_shape, gradient_energy, l2_norm,
                           weighted_population)
from stochage.noise import coarsen
from stochage.rates import evaluate_gamma, evaluate_on_faces
from stochage.rescale import RescaledCoefficients

from conftest import build_model, linear_rates, logistic_rates, sample, smooth_p0


def solved_pair(grid, seed=5, rates=None, stride=0, p0=None):
    """Model, bundle, report and estimates of one observed rescaled solve."""
    model = build_model(grid, rates=rates, p0=p0)
    bundle = sa.sample_bundle(seed, 1, grid.n_t, grid.T)
    (rep,), acc = observed(model, bundle, stride=stride)
    return model, bundle, rep, acc


def observed(model, bundle, *bumped, stride=0):
    """Reports and estimates of one batch on ``bundle``: the stored run from
    ``model.p0``, then one run per density of ``bumped``."""
    acc = sa.EstimateAccumulator(model)
    p0 = np.stack([model.p0, *bumped])
    reports = sa.solve_rescaled_batch(model, [bundle] * len(p0),
                                      sa.SolverConfig(snapshot_stride=stride), p0, observer=acc)
    assert all(isinstance(r, sa.SolveReport) for r in reports)
    return reports, acc


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
        model, bundle, rep, acc = solved_pair(grid1d)
        consts = sa.constants_for_run(model, bundle)
        before = {f.name: copy.deepcopy(getattr(rep, f.name))
                  for f in dataclasses.fields(rep)}
        terms = acc.terms.copy()
        margins = sa.apriori_check(acc, consts)
        assert margins.shape == (grid1d.n_t + 1,)
        assert np.all(margins <= 1.0)
        # the check is pure: the gathered terms and every field of the report
        # are bitwise unchanged, and the report keeps the very bundle it was
        # solved on (the == of the bundle's dataclass raises on its array fields)
        assert acc.terms.tobytes() == terms.tobytes()
        for name, value in before.items():
            now = getattr(rep, name)
            assert type(now) is type(value), name
            if name == "bundle":
                assert now is bundle and all(
                    np.asarray(getattr(now, f.name)).tobytes()
                    == np.asarray(getattr(value, f.name)).tobytes()
                    for f in dataclasses.fields(value)), name
            elif isinstance(value, np.ndarray):
                assert now.dtype == value.dtype and now.shape == value.shape, name
                assert now.tobytes() == value.tobytes(), name
            else:
                assert now == value, name

    def test_zero_data_zero_margin(self, grid1d):
        p0 = np.zeros(grid1d.field_shape)
        model, bundle, _, acc = solved_pair(grid1d, p0=p0)
        consts = sa.constants_for_run(model, bundle)
        margins = sa.apriori_check(acc, consts)
        assert np.all(margins == 0.0)

    def test_scaling_invariance(self, grid1d):
        # linear model: scaling the initial data scales both sides by the
        # same square, leaving the margins unchanged
        model, bundle, _, acc = solved_pair(grid1d)
        lam = 3.7
        scaled = build_model(grid1d, p0=lam * model.p0)
        _, acc2 = observed(scaled, bundle)
        m1 = sa.apriori_check(acc, sa.constants_for_run(model, bundle))
        c2 = sa.constants_for_run(scaled, bundle)
        m2 = sa.apriori_check(acc2, c2)
        # growth factors differ only through the data term, which scales out
        ratio = m2[1:] / m1[1:] * (c2.c_est / sa.constants_for_run(model, bundle).c_est)
        assert np.allclose(ratio, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_margins_are_the_energy_terms_of_the_trajectory(self, grid1d, grid2d, dim):
        # bit for bit the per-field norms of the trajectory, which the march
        # hands the estimates node by node (here also stored at stride 1), and
        # of the rescaled Robin datum k0 exp(-W), integrated by the trapezoid rule
        grid = grid1d if dim == 1 else grid2d
        rates = dataclasses.replace(logistic_rates(), k0=sa.ConstantRate(0.05))
        model = build_model(grid, rates=rates)
        bundle = sa.sample_bundle(5, model.noise.n_modes, grid.n_t, grid.T)
        (rep,), acc = observed(model, bundle, stride=1)
        consts = sa.constants_for_run(model, bundle)
        traj, vol, dt = rep.snapshots, grid.cell_volume, grid.dt
        coeffs = RescaledCoefficients(model, [bundle])   # the noise vanishes at time zero
        k_sq = np.array([boundary_norm_sq(evaluate_on_faces(rates.k0, grid, 0.0), grid)] + [
            boundary_norm_sq(coeffs.k_faces(i), grid)[0] for i in range(1, grid.n_t + 1)])
        sq = np.array([l2_norm(s, grid) for s in traj]) ** 2
        grad = np.array([gradient_energy(s, grid) for s in traj])
        exit_trace = np.array([np.sum(s[grid.rows(-1)] ** 2) * vol for s in traj])
        assert np.all(k_sq > 0) and np.all(grad[1:] > 0)
        left = sq + _cumtrapz(exit_trace, dt) + _cumtrapz(sq + grad, dt)
        right = consts.c_est * (sq[0] + _cumtrapz(k_sq, dt))
        margins = sa.apriori_check(acc, consts)
        assert margins.tobytes() == np.array([_ratio(l, r) for l, r in zip(left, right)]).tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_march_keeps_the_sweeps_robin_norms(self, grid1d, grid2d, dim):
        # a 5-path batch at the automatic radius gathers each path's per-node
        # norms of k0 exp(-W) in its march; they, and the margins read from
        # them with the path's own estimates, are bitwise those of a one-path
        # sweep of the path's bundle
        grid = grid1d if dim == 1 else grid2d
        rates = dataclasses.replace(logistic_rates(), k0=sa.ConstantRate(0.05))
        model = build_model(grid, rates=rates)
        bundles = [sa.sample_bundle(s, model.noise.n_modes, grid.n_t, grid.T) for s in range(5)]
        reports = sa.solve_rescaled_batch(model, bundles, sa.SolverConfig(snapshot_stride=0))
        for bundle, rep in zip(bundles, reports):
            _, acc = observed(model, bundle)
            marched, swept = rep.guard.constants, sa.constants_for_run(model, bundle)
            assert rep.bundle is bundle
            assert len(marched.sups.k_sq) == grid.n_t + 1 and min(marched.sups.k_sq) > 0
            assert (np.array(marched.sups.k_sq).tobytes()
                    == np.array(swept.sups.k_sq).tobytes())
            assert marched == swept
            assert (sa.apriori_check(acc, marched).tobytes()
                    == sa.apriori_check(acc, swept).tobytes())

    def test_needs_an_observed_rescaled_march(self, grid1d):
        # the direct route takes no observer: estimates beside its solve have
        # seen no march, and the checks refuse them
        model = build_model(grid1d)
        bundle = sa.sample_bundle(5, 1, grid1d.n_t, grid1d.T)
        acc = sa.EstimateAccumulator(model)
        sa.solve_direct(model, bundle, sa.SolverConfig(snapshot_stride=1))
        consts = sa.constants_for_run(model, bundle)
        for check in (lambda: sa.apriori_check(acc, consts),
                      lambda: sa.dependence_check(acc, 1, consts), acc.weak_residual):
            with pytest.raises(ConfigurationError, match="observed no rescaled march"):
                check()


class TestDependence:
    def test_identical_runs_zero(self, grid1d):
        model = build_model(grid1d)
        bundle = sa.sample_bundle(5, 1, grid1d.n_t, grid1d.T)
        _, acc = observed(model, bundle, model.p0)
        consts = sa.constants_for_run(model, bundle)
        res = sa.dependence_check(acc, 1, consts)
        assert res.difference_energy == 0.0
        assert res.ratio == 0.0

    def test_quadratic_scaling_in_delta(self, grid1d):
        # the stored run and its three bumped runs march as one batch
        base = smooth_p0(grid1d)
        model = build_model(grid1d, p0=base)
        bundle = sa.sample_bundle(5, 1, grid1d.n_t, grid1d.T)
        consts = sa.constants_for_run(model, bundle)
        bump = sample(
            grid1d, lambda a, x: np.exp(-((a - 0.3) / 0.2) ** 2) + 0 * x)
        deltas = (1e-2, 5e-3, 2.5e-3)
        _, acc = observed(model, bundle, *(base + d * bump for d in deltas))
        ratios = [sa.dependence_check(acc, j, consts).ratio for j in range(1, len(deltas) + 1)]
        spread = (max(ratios) - min(ratios)) / max(ratios)
        assert spread <= 0.10

    def test_symmetric_under_swap(self, grid1d):
        base = smooth_p0(grid1d)
        model = build_model(grid1d, p0=base)
        bundle = sa.sample_bundle(5, 1, grid1d.n_t, grid1d.T)
        pert = build_model(grid1d, p0=base + 0.01)
        _, acc12 = observed(model, bundle, pert.p0)
        _, acc21 = observed(pert, bundle, model.p0)
        c1 = sa.constants_for_run(model, bundle)
        c2 = sa.constants_for_run(pert, bundle)
        r12 = sa.dependence_check(acc12, 1, c1, c2)
        r21 = sa.dependence_check(acc21, 1, c2, c1)
        assert r12.ratio == pytest.approx(r21.ratio, rel=1e-12)


class TestWeakResidualRandom:
    def test_zero_trajectory_zero_residual(self, grid1d):
        p0 = np.zeros(grid1d.field_shape)
        _, _, _, acc = solved_pair(grid1d, p0=p0)
        res = acc.weak_residual()
        assert res.max_abs == 0.0

    def test_stationary_constant_solution_rounding(self, grid1d):
        """A constant state with fertility 1/a_max is a steady solution;
        every quadrature in the assembly is exact for it, so the residual
        drops to rounding level.  The estimates are driven node by node with
        the closed-form trajectory, not the solver's, as a march would."""
        rates = sa.VitalRates(m0=sa.ConstantRate(1.0 / grid1d.a_max))
        model = build_model(grid1d, rates=rates,
                            amplitudes=(sa.constant_amplitude(0.0, 1),))
        bundle = sa.sample_bundle(0, 1, grid1d.n_t, grid1d.T)
        coeffs = RescaledCoefficients(model, [bundle])
        gamma = evaluate_gamma(rates, grid1d)
        acc = sa.EstimateAccumulator(model, n_psi=4)
        const = np.ones((1,) + grid1d.field_shape) * 1.7
        for i in range(grid1d.n_t + 1):
            node = coeffs.node_fields(i)
            u = weighted_population(node["exp_w"] * const, gamma, model.region, grid1d)
            acc(i, const, np.arange(1), u, None if i == 0 else (
                node["g1"], node["g2"], node["exp_dw0"], coeffs.k_faces(i)))
        res = acc.weak_residual()
        assert len(res.residuals) == 4
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
            _, acc = observed(model, bundle)
            vals.append(acc.weak_residual().max_abs)
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
            _, acc = observed(model, b)
            res.append(acc.weak_residual().max_abs)
            hs.append(grid.dt)
        assert fit_order(hs, res) >= 0.9


class TestWeakResidualStochastic:
    def test_zero_trajectory(self, grid1d):
        model = build_model(grid1d, p0=np.zeros(grid1d.field_shape))
        bundle = sa.sample_bundle(3, 1, grid1d.n_t, grid1d.T)
        rep = sa.solve_direct(model, bundle, sa.SolverConfig(snapshot_stride=1))
        res = sa.weak_residual_stochastic(rep, model)
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
        res = sa.weak_residual_stochastic(rep, model, n_psi=6)
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
            vals.append(sa.weak_residual_stochastic(rep, model).max_abs)
        assert vals[1] < vals[0]

    @pytest.mark.parametrize("stride", [0, 2])
    def test_strided_report_rejected(self, grid1d, stride):
        # the residual reads every node of the stored snapshots; a report
        # that skipped some would give a wrong number, so it is refused
        model = build_model(grid1d)
        bundle = sa.sample_bundle(3, 1, grid1d.n_t, grid1d.T)
        rep = sa.solve_direct(model, bundle, sa.SolverConfig(snapshot_stride=stride))
        with pytest.raises(ConfigurationError, match="needs every time node"):
            sa.weak_residual_stochastic(rep, model)


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
