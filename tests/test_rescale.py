import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy

import stochage as sa
from stochage import rescale, solver
from stochage.errors import ConfigurationError, NoiseMagnitudeError
from stochage.grid import Face, boundary_faces
from stochage.modelfile import parse_model
from stochage.noise import evaluate_noise
from stochage.rates import ConstantRate, evaluate_on_faces, evaluate_on_grid
from stochage.rescale import RescaledCoefficients

from conftest import build_model, linear_rates, sample

MODELS = Path(__file__).resolve().parent.parent / "models"


class TestTransforms:
    def test_identity_at_zero_noise(self, grid1d):
        rng = np.random.default_rng(0)
        y = rng.normal(size=grid1d.field_shape)
        w = np.zeros(grid1d.field_shape)
        assert np.array_equal(sa.forward_transform(y, w), y)

    def test_log2_scaling(self, grid1d):
        y = np.full(grid1d.field_shape, 3.0)
        w = np.full(grid1d.field_shape, np.log(2.0))
        p = sa.forward_transform(y, w)
        assert np.allclose(p, 6.0, rtol=1e-15)

    def test_round_trip(self, grid1d):
        rng = np.random.default_rng(1)
        y = rng.normal(size=grid1d.field_shape)
        w = rng.normal(scale=0.5, size=grid1d.field_shape)
        back = sa.forward_transform(sa.forward_transform(y, w), -w)
        assert np.allclose(back, y, rtol=1e-14)

    def test_zero_density_maps_to_zero(self, grid1d):
        p = np.zeros(grid1d.field_shape)
        w = np.random.default_rng(2).normal(size=grid1d.field_shape)
        assert np.all(sa.forward_transform(p, -w) == 0.0)

    def test_overflow_guard(self, grid1d):
        y = np.ones(grid1d.field_shape)
        w = np.full(grid1d.field_shape, 701.0)
        with pytest.raises(NoiseMagnitudeError) as err:
            sa.forward_transform(y, w)
        assert err.value.w_max == pytest.approx(701.0)


class TestCoefficients:
    def test_zero_noise_identity_reduction(self, grid1d):
        model = build_model(grid1d, rates=linear_rates(k0=0.3),
                            amplitudes=(sa.constant_amplitude(0.0, 1),))
        bundle = sa.sample_bundle(0, 1, grid1d.n_t, grid1d.T)
        coeffs = RescaledCoefficients(model, [bundle])
        i = grid1d.n_t // 2
        fields = coeffs.node_fields(i)
        assert np.all(fields["g1"] == 0.0)
        assert np.all(fields["g2"][0] == 0.0)
        assert np.all(fields["exp_w"] == 1.0)
        face = Face(0, 0)
        k0 = evaluate_on_faces(model.rates.k0, grid1d, grid1d.times[i])
        assert np.array_equal(coeffs.k_faces(i)[face][0], k0[face])
        u = 1.23
        m0_direct = 0.6 * np.ones(grid1d.field_shape)
        m0 = evaluate_on_grid(model.rates.m0, grid1d, grid1d.times[i], u)
        assert np.array_equal(m0 * fields["exp_dw0"][0], m0_direct)

    def test_age_linear_mode(self, grid1d):
        # mu(a) = a: g1 = b + a^2/2, g2 = 0
        model = build_model(grid1d,
                            amplitudes=(sa.age_polynomial_amplitude((0.0, 1.0), 1),))
        bundle = sa.sample_bundle(3, 1, grid1d.n_t, grid1d.T)
        i = 11
        b = bundle.betas[0, i]
        fields = RescaledCoefficients(model, [bundle]).node_fields(i)
        ages = grid1d.age_mesh
        assert np.allclose(fields["g1"], b + ages ** 2 / 2, rtol=1e-13)
        assert np.all(fields["g2"][0] == 0.0)

    def test_advection_normal_component_vanishes_on_boundary(self, grid1d):
        # compatible amplitudes have zero normal derivative on the box, so
        # the first-order coefficient has no flux through the boundary
        spec = sa.NoiseSpec((sa.cosine_amplitude(0.4, (3,), grid1d.extent),))
        bundle = sa.sample_bundle(7, 1, grid1d.n_t, grid1d.T)
        from stochage.grid import boundary_faces, face_meshes
        for face in boundary_faces(grid1d):
            ages, coords = face_meshes(grid1d, face)
            for amp in spec.amplitudes:
                g = amp.grad[face.axis](ages, *coords)
                assert np.max(np.abs(np.asarray(g) * bundle.betas[0, -1])) <= 1e-12

    def test_cosine_mode_against_symbolic_oracle(self):
        # independent derivation of g1 and g2 via sympy
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=16, n_a=32, extent=(1.0,), n_x=(12,))
        c, k = 0.4, 2
        model = build_model(grid, amplitudes=(sa.cosine_amplitude(c, (k,), (1.0,)),))
        bundle = sa.sample_bundle(5, 1, grid.n_t, grid.T)
        i = 9
        beta = bundle.betas[0, i]

        x = sympy.symbols("x")
        mu_sym = c * sympy.cos(k * sympy.pi * x)
        w_sym = mu_sym * beta
        g1_sym = (-sympy.diff(w_sym, x, 2) - sympy.diff(w_sym, x) ** 2
                  + sympy.Rational(1, 2) * mu_sym ** 2)
        g2_sym = -2 * sympy.diff(w_sym, x)
        g1_fn = sympy.lambdify(x, g1_sym, "numpy")
        g2_fn = sympy.lambdify(x, g2_sym, "numpy")

        fields = RescaledCoefficients(model, [bundle]).node_fields(i)
        xs = grid.cell_centers[0]
        assert np.allclose(fields["g1"][0, 0], g1_fn(xs), rtol=1e-12)
        assert np.allclose(fields["g2"][0][0, 0], g2_fn(xs), rtol=1e-12)

    def test_boundary_datum_rescaled(self, grid1d):
        model = build_model(grid1d, rates=linear_rates(k0=0.5),
                            amplitudes=(sa.constant_amplitude(0.3, 1),))
        bundle = sa.sample_bundle(8, 1, grid1d.n_t, grid1d.T)
        i = 13
        beta = bundle.betas[0, i]
        coeffs = RescaledCoefficients(model, [bundle])
        face = Face(0, 1)
        expected = 0.5 * np.exp(-0.3 * beta)
        assert np.allclose(coeffs.k_faces(i)[face], expected, rtol=1e-14)

    def test_fertility_transform_age_mode(self, grid1d):
        # m = m0 exp(W(a) - W(0)) with W = a b: factor exp(a b)
        model = build_model(grid1d,
                            amplitudes=(sa.age_polynomial_amplitude((0.0, 1.0), 1),))
        bundle = sa.sample_bundle(4, 1, grid1d.n_t, grid1d.T)
        i = 6
        b = bundle.betas[0, i]
        exp_dw0 = RescaledCoefficients(model, [bundle]).node_fields(i)["exp_dw0"][0]
        m = evaluate_on_grid(model.rates.m0, grid1d, grid1d.times[i], 0.0) * exp_dw0
        expected = 0.6 * np.exp(grid1d.age_mesh * b)
        assert np.allclose(m, np.broadcast_to(expected, grid1d.field_shape), rtol=1e-13)

    def test_incompatible_bundle_rejected(self, grid1d):
        model = build_model(grid1d)
        bundle = sa.sample_bundle(0, 1, grid1d.n_t * 2, grid1d.T)
        with pytest.raises(ConfigurationError):
            RescaledCoefficients(model, [bundle])

    def test_mode_count_mismatch_rejected(self, grid1d):
        model = build_model(grid1d)
        bundle = sa.sample_bundle(0, 3, grid1d.n_t, grid1d.T)
        with pytest.raises(ConfigurationError):
            RescaledCoefficients(model, [bundle])

    def test_one_bundle_is_not_a_batch(self, grid1d):
        model = build_model(grid1d)
        bundle = sa.sample_bundle(0, 1, grid1d.n_t, grid1d.T)
        with pytest.raises(TypeError):
            RescaledCoefficients(model, bundle)


class TestConstants:
    def test_zero_noise(self, grid1d):
        model = build_model(grid1d, amplitudes=(sa.constant_amplitude(0.0, 1),))
        bundle = sa.sample_bundle(0, 1, grid1d.n_t, grid1d.T)
        (sups,) = RescaledCoefficients(model, [bundle]).coefficient_sups()
        assert sups.c_w0 == 1.0
        assert sups.c_w == 1.0
        assert sups.c_w0 * model.rates.m0.sup == pytest.approx(model.rates.m0.sup)

    def test_age_linear_monotone(self, grid1d):
        # W = a b: sup over (a, t) of exp(W - W(0-row)) is exp(a_max * max b+)
        model = build_model(grid1d,
                            amplitudes=(sa.age_polynomial_amplitude((0.0, 1.0), 1),))
        bundle = sa.sample_bundle(12, 1, grid1d.n_t, grid1d.T)
        (sups,) = RescaledCoefficients(model, [bundle]).coefficient_sups()
        beta_max = bundle.betas[0].max()
        expected = np.exp(grid1d.a_max * max(beta_max, 0.0))
        assert sups.c_w0 == pytest.approx(expected, rel=1e-12)
        assert sups.c_w0 * model.rates.m0.sup == pytest.approx(sups.c_w0 * 0.6, rel=1e-14)


class TestOneEvaluationPerSolve:
    @pytest.mark.parametrize("solve", [sa.solve_rescaled_batch, sa.solve_direct_batch])
    def test_k0_is_evaluated_once_per_face(self, solve, monkeypatch):
        # sample1d's k0 ignores t: a solve of a batch, the coefficient sups
        # its march gathers included, evaluates it once on each face
        model, cfg = parse_model(Path(__file__).resolve().parent.parent
                                 / "models" / "sample1d.ini")
        calls = []
        call = ConstantRate.__call__

        def counting(self, t, a, x, r):
            if self is model.rates.k0:
                calls.append(t)
            return call(self, t, a, x, r)

        monkeypatch.setattr(ConstantRate, "__call__", counting)
        bundles = [sa.sample_bundle(s, model.noise.n_modes, model.grid.n_t, model.grid.T)
                   for s in range(3)]
        assert cfg.truncation_radius is None
        reports = solve(model, bundles, cfg)
        assert all(isinstance(r, sa.SolveReport) for r in reports)
        assert len(calls) == len(boundary_faces(model.grid))

    def test_noise_is_evaluated_once_per_node(self, monkeypatch):
        # with an automatic radius that never clips, the march gathers the
        # coefficient sups: the noise is evaluated once per node for the batch
        model, cfg = parse_model(MODELS / "sample1d.ini")
        calls = []
        evaluate = rescale.evaluate_noise
        monkeypatch.setattr(rescale, "evaluate_noise",
                            lambda *args: (calls.append(args[2]), evaluate(*args))[1])
        bundles = [sa.sample_bundle(s, model.noise.n_modes, model.grid.n_t, model.grid.T)
                   for s in range(5)]
        assert cfg.truncation_radius is None
        reports = sa.solve_rescaled_batch(model, bundles, cfg)
        assert all(r.guard.activations == 0 for r in reports)
        assert sorted(calls) == list(range(model.grid.n_t + 1))

    def test_sweep_without_the_march_reads_k0_once_per_face_and_node(self, monkeypatch):
        # the sweep behind check evaluates k0 afresh at every node, once on each face
        model, _ = parse_model(Path(__file__).resolve().parent.parent / "models" / "sample2d.ini")
        calls = []
        call = ConstantRate.__call__
        monkeypatch.setattr(ConstantRate, "__call__", lambda self, *args: (
            calls.append(args[0]) if self is model.rates.k0 else None, call(self, *args))[1])
        bundle = sa.sample_bundle(0, model.noise.n_modes, model.grid.n_t, model.grid.T)
        RescaledCoefficients(model, [bundle]).coefficient_sups()
        assert len(calls) == len(boundary_faces(model.grid)) * (model.grid.n_t + 1)


class TestGuardModes:
    @staticmethod
    def agepoly_model(grid, k):
        # W = beta k (a - 1/2): sup |W - W(t,0,x)| is twice sup |W|
        return build_model(grid, amplitudes=(sa.age_polynomial_amplitude((-0.5 * k, k), 1),))

    def test_auto_and_fixed_radius_fail_a_path_alike(self, grid1d):
        # seed 3 passes the exp guard on W - W(t,0,x) only (sup |W| about 400,
        # its age increment about 800): the sups behind the automatic radius
        # are guarded by the march itself, so both modes give the same error
        model = self.agepoly_model(grid1d, 800.0)
        bundles = [sa.sample_bundle(s, 1, grid1d.n_t, grid1d.T) for s in (3, 0)]
        assert 350 < 800.0 * 0.5 * np.abs(bundles[0].betas).max() < 700
        statuses = []
        for radius in (None, 1000.0):
            cfg = sa.SolverConfig(truncation_radius=radius, snapshot_stride=0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reports = sa.solve_rescaled_batch(model, bundles, cfg)
            statuses.append([str(r) if isinstance(r, Exception) else "converged"
                             for r in reports])
            assert isinstance(reports[0], NoiseMagnitudeError)
        assert statuses[0] == statuses[1]
        (one,) = RescaledCoefficients(model, bundles[:1]).coefficient_sups()   # its sweep alone
        assert isinstance(one, NoiseMagnitudeError)
        assert str(one) == statuses[0][0]
        with pytest.raises(NoiseMagnitudeError) as raised:   # a fixed-radius check's constants
            sa.constants_for_run(model, bundles[0])
        assert str(raised.value) == statuses[0][0]

    def test_bound_past_a_float_fails_the_path_not_the_batch(self, grid1d):
        # sup |W - W(t,0,x)| near 400 keeps the exponentials finite, but the
        # energy bound squares exp(400): the path fails with the bound's error
        model = self.agepoly_model(grid1d, 400.0)
        bundle = sa.sample_bundle(3, 1, grid1d.n_t, grid1d.T)
        report = sa.solve_rescaled_batch(model, [bundle], sa.SolverConfig(snapshot_stride=0))[0]
        assert isinstance(report, sa.StochageError)
        assert str(report).startswith("energy bound exponent")


class TestBoundRadius:
    @staticmethod
    def model(name, grid, tmp_path):
        if name.startswith("agepoly"):
            return TestGuardModes.agepoly_model(grid, float(name[7:]))
        if name == "loud":
            path = tmp_path / "loud.ini"
            path.write_text((MODELS / "sample1d.ini").read_text().replace(
                "mu1 = cosine:0.2:1", "mu1 = cosine:2.0:4"))
            return parse_model(path)[0]
        return parse_model(MODELS / f"{name}.ini")[0]

    @pytest.mark.parametrize("name", ["sample1d", "sample2d", "loud", "agepoly400", "agepoly800"])
    def test_node_zero_radius_is_a_lower_bound(self, name, grid1d, tmp_path, monkeypatch):
        # the automatic radius starts every path at the bound of node 0's
        # sups (-inf if it overflows); the bound of the nodes seen so far
        # only grows node by node, to the radius of each path that
        # converges (no path of the age-polynomial models does: each passes
        # the exp guard or its bound overflows, at node 0 already)
        model = self.model(name, grid1d, tmp_path)
        grid = model.grid
        bundles = [sa.sample_bundle(s, model.noise.n_modes, grid.n_t, grid.T) for s in range(6)]
        guard_starts, bound_guard = [], solver._bound_guard
        monkeypatch.setattr(solver, "_bound_guard", lambda *args: (
            guard := bound_guard(*args), guard_starts.append(guard.radius.copy()))[0])
        reports = sa.solve_rescaled_batch(model, bundles, sa.SolverConfig(snapshot_stride=0))
        converged = [isinstance(r, sa.SolveReport) for r in reports]
        assert any(converged) != name.startswith("agepoly")
        starts = set()
        for bundle, report in zip(bundles, reports):
            coeffs, radii, over = RescaledCoefficients(model, [bundle]), [], np.zeros(1)
            for i in range(grid.n_t + 1):
                coeffs.k_faces(i, over=over)
                coeffs.node_fields(i, over=over)
                if over[0]:   # the exp guard fails the path from here on
                    break
                try:
                    (sups,) = coeffs.sups_so_far()
                    radii.append(float(sa.constants_for_run(model, sups=sups).n0))
                except sa.StochageError:   # the bound overflows a float
                    radii.append(np.inf)
            starts.add(radii[0])
            assert radii == sorted(radii)
            if isinstance(report, sa.SolveReport):
                assert len(radii) == grid.n_t + 1 and radii[-1] == report.guard.radius
        (start,) = starts
        assert np.all(guard_starts[0] == (start if np.isfinite(start) else -np.inf))


class TestItoConsistency:
    def test_geometric_brownian_motion_exact(self):
        """Pure multiplicative noise, one cell: the rescaled route gives the
        closed-form answer exactly (decay factors multiply into exp(-t/2)
        and the transform restores exp(beta)).
        """
        n_t = 256
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=n_t, n_a=2 * n_t,
                       extent=(1.0,), n_x=(1,))
        rates = sa.VitalRates()
        model = build_model(grid, rates=rates,
                            amplitudes=(sa.constant_amplitude(1.0, 1),),
                            p0=sample(grid, lambda a, x: np.full(
                                np.broadcast_shapes(np.shape(a), np.shape(x)), 2.0)))
        bundle = sa.sample_bundle(17, 1, n_t, 0.5)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=0))
        # probe an age row the zero inflow from the birth boundary has not
        # reached: a > T there, so the value is the scalar solution
        y_probe = rep.final[-1, 0]
        assert y_probe == pytest.approx(2.0 * np.exp(-0.5 / 2), rel=1e-12)
        nf = evaluate_noise(model.noise, [bundle], n_t, grid)
        p_probe = np.exp(nf.value[0, -1, 0]) * y_probe
        exact = 2.0 * np.exp(bundle.betas[0, -1] - 0.5 / 2)
        assert p_probe == pytest.approx(exact, rel=1e-12)
