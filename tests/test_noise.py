import functools

import numpy as np
import pytest

import stochage as sa
from stochage.errors import ConfigurationError
from stochage.grid import face_shape
from stochage.noise import AmplitudeGrids, amplitude_grids, evaluate_noise


def mixed_spec(grid, n_modes):
    """The first ``n_modes`` of four modes from every amplitude family."""
    d = grid.dim
    return sa.NoiseSpec((
        sa.cosine_amplitude(0.3, (1,) * d, grid.extent),
        sa.age_polynomial_amplitude((0.1, -0.2), d),
        sa.cosine_amplitude(-0.2, (2,) * d, grid.extent, age_coeffs=(0.5, 1.0)),
        sa.sine_amplitude(0.4, (1,) * d, grid.extent))[:n_modes])


def noise_arrays(nf):
    return (nf.value, nf.d_age, *nf.gradient, nf.laplacian)


class TestBundle:
    def test_deterministic_resampling(self):
        b1 = sa.sample_bundle(42, 3, 64, 1.0)
        b2 = sa.sample_bundle(42, 3, 64, 1.0)
        assert np.array_equal(b1.increments, b2.increments)
        assert np.array_equal(b1.betas, b2.betas)

    def test_different_seeds_differ(self):
        b1 = sa.sample_bundle(1, 1, 64, 1.0)
        b2 = sa.sample_bundle(2, 1, 64, 1.0)
        assert not np.array_equal(b1.increments, b2.increments)

    def test_paths_independent_of_count(self):
        # per-path streams derive from (seed, index): adding a path does
        # not perturb the existing ones
        b2 = sa.sample_bundle(7, 2, 32, 1.0)
        b3 = sa.sample_bundle(7, 3, 32, 1.0)
        assert np.array_equal(b2.increments, b3.increments[:2])

    def test_increment_moments(self):
        n = 1_000_000
        b = sa.sample_bundle(0, 1, n, 1.0)
        dt = 1.0 / n
        inc = b.increments[0]
        # CLT bound: |mean| <= 4 sigma / sqrt(n) with sigma = sqrt(dt)
        assert abs(inc.mean()) <= 4 * np.sqrt(dt) / np.sqrt(n)
        # chi-square concentration: variance within 5%
        assert inc.var() == pytest.approx(dt, rel=0.05)

    def test_betas_start_at_zero(self):
        b = sa.sample_bundle(3, 2, 16, 1.0)
        assert np.all(b.betas[:, 0] == 0.0)

    def test_immutable(self):
        b = sa.sample_bundle(3, 1, 16, 1.0)
        with pytest.raises(ValueError):
            b.increments[0, 0] = 1.0


class TestCoarsen:
    def test_identity_factor(self):
        b = sa.sample_bundle(5, 1, 16, 1.0)
        assert sa.coarsen(b, 1) is b

    def test_block_sums(self):
        inc = np.array([[0.1, -0.2, 0.3, 0.4]])
        betas = np.zeros((1, 5))
        np.cumsum(inc, axis=1, out=betas[:, 1:])
        b = sa.BrownianBundle(inc, betas, 0, 0.25)
        c = sa.coarsen(b, 2)
        expected = np.array([[0.1 + -0.2, 0.3 + 0.4]])
        assert np.array_equal(c.increments, expected)
        assert c.dt == 0.5
        assert c.level == 1

    def test_shared_nodes_bit_for_bit(self):
        b = sa.sample_bundle(11, 2, 64, 1.0)
        for factor in (2, 4, 8):
            c = sa.coarsen(b, factor)
            assert np.array_equal(c.betas, b.betas[:, ::factor])

    def test_endpoint_invariant(self):
        b = sa.sample_bundle(11, 2, 64, 1.0)
        for factor in (2, 4, 8, 16):
            c = sa.coarsen(b, factor)
            assert np.array_equal(c.betas[:, -1], b.betas[:, -1])

    def test_increments_are_exact_block_sums(self):
        b = sa.sample_bundle(11, 2, 64, 1.0)
        c = sa.coarsen(b, 4)
        assert np.array_equal(c.increments,
                              b.increments.reshape(2, 16, 4).sum(axis=2))

    def test_bad_factor(self):
        b = sa.sample_bundle(5, 1, 16, 1.0)
        with pytest.raises(ConfigurationError):
            sa.coarsen(b, 3)
        with pytest.raises(ConfigurationError):
            sa.coarsen(b, 32)


class TestAmplitudes:
    def test_constant(self, grid1d):
        amp = sa.constant_amplitude(2.0, 1)
        grids = AmplitudeGrids(sa.NoiseSpec((amp,)), grid1d)
        assert np.all(grids.values[0] == 2.0)
        assert np.all(grids.d_age[0] == 0.0)
        assert np.all(grids.laplacians[0] == 0.0)

    def test_age_polynomial(self, grid1d):
        amp = sa.age_polynomial_amplitude((0.0, 1.0), 1)  # mu = a
        grids = AmplitudeGrids(sa.NoiseSpec((amp,)), grid1d)
        assert np.allclose(grids.values[0], grid1d.age_mesh, atol=0, rtol=0)
        assert np.all(grids.d_age[0] == 1.0)

    def test_cosine_neumann_compatible(self, grid1d):
        spec = sa.NoiseSpec((sa.cosine_amplitude(0.5, (2,), grid1d.extent),))
        worst = spec.check_neumann(grid1d)
        assert worst <= 1e-12

    def test_sine_not_compatible(self, grid1d):
        spec = sa.NoiseSpec((sa.sine_amplitude(0.5, (1,), grid1d.extent),))
        assert not spec.neumann_compatible
        assert spec.check_neumann(grid1d) > 0.1

    def test_cosine_2d_neumann(self, grid2d):
        spec = sa.NoiseSpec((sa.cosine_amplitude(0.3, (1, 2), grid2d.extent),))
        assert spec.check_neumann(grid2d) <= 1e-12

    @pytest.mark.parametrize("ctor", [sa.cosine_amplitude, sa.sine_amplitude])
    def test_mode_numbers_must_be_whole(self, ctor):
        # a fractional mode number is an error, not a truncated mode
        with pytest.raises(ConfigurationError, match="1.5"):
            ctor(0.2, (1.5,), (1.0,))
        assert "k=(2,)" in ctor(0.2, (2.0,), (1.0,)).label


    @pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
    def test_age_cosine_product_mode(self, request, grid_name):
        # mu = c (a0 + a1 a) prod_i cos(w_i x_i), w_i = k_i pi / L_i
        grid = request.getfixturevalue(grid_name)
        c, a0, a1 = 0.3, 0.5, -0.8
        ks = (2, 1)[:grid.dim]
        amp = sa.cosine_amplitude(c, ks, grid.extent, age_coeffs=(a0, a1))
        grids = AmplitudeGrids(sa.NoiseSpec((amp,)), grid)
        w = [k * np.pi / length for k, length in zip(ks, grid.extent)]

        def closed(poly, xs, axis=None):
            """``c poly prod_i cos``, with ``-w sin`` along ``axis``."""
            factors = [-wi * np.sin(wi * x) if i == axis else np.cos(wi * x)
                       for i, (wi, x) in enumerate(zip(w, xs))]
            return c * poly * functools.reduce(np.multiply, factors)

        def check(got, want, shape=grid.field_shape):
            np.testing.assert_allclose(got, np.broadcast_to(want, shape), rtol=0, atol=1e-13)

        poly, xs = a0 + a1 * grid.age_mesh, grid.space_meshes
        check(grids.values[0], closed(poly, xs))
        check(grids.d_age[0], closed(a1, xs))
        for axis in range(grid.dim):
            check(grids.gradients[axis][0], closed(poly, xs, axis))
        check(grids.laplacians[0], -sum(wi * wi for wi in w) * closed(poly, xs))
        for face, (ages, coords) in grid.boundary_meshes.items():
            shape = face_shape(grid, face)
            coords = [np.asarray(x, dtype=float) for x in coords]
            check(grids.face_values[face][0], closed(a0 + a1 * ages, coords), shape)
            check(grids.face_values[face][0], amp.fn(ages, *coords), shape)


class TestEvaluateNoise:
    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    @pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
    def test_batch_rows_equal_single_bundles(self, request, grid_name, n_modes):
        # products over a whole batch round differently from 4 modes up, so
        # a path's row must come from the product a lone bundle gets
        grid = request.getfixturevalue(grid_name)
        spec = mixed_spec(grid, n_modes)
        bundles = [sa.sample_bundle(s, n_modes, grid.n_t, grid.T) for s in (3, 4, 5)]
        i = grid.n_t // 2 + 1
        batch = evaluate_noise(spec, bundles, i, grid)
        assert batch.value.shape == (3,) + grid.field_shape
        for j, bundle in enumerate(bundles):
            one = evaluate_noise(spec, [bundle], i, grid)
            for rows, single in zip(noise_arrays(batch), noise_arrays(one)):
                assert rows[j].tobytes() == single[0].tobytes()

    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    @pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
    def test_single_bundle_matches_tensordot(self, request, grid_name, n_modes):
        # the formula the golden digests were recorded with
        grid = request.getfixturevalue(grid_name)
        spec = mixed_spec(grid, n_modes)
        b = sa.sample_bundle(8, n_modes, grid.n_t, grid.T)
        i = grid.n_t - 3
        want = np.tensordot(b.betas[:, i], amplitude_grids(spec, grid).values, axes=1)
        assert evaluate_noise(spec, [b], i, grid).value[0].tobytes() == want.tobytes()

    def test_zero_at_time_zero(self, grid1d):
        spec = sa.NoiseSpec((sa.cosine_amplitude(0.5, (1,), grid1d.extent),))
        b = sa.sample_bundle(1, 1, grid1d.n_t, grid1d.T)
        nf = evaluate_noise(spec, [b], 0, grid1d)
        assert np.all(nf.value == 0.0)
        assert np.all(nf.gradient[0] == 0.0)
        assert np.all(nf.laplacian == 0.0)

    def test_age_linear_mode(self, grid1d):
        # mu(a) = a: W = a b, dW/da = b, grad = lap = 0
        spec = sa.NoiseSpec((sa.age_polynomial_amplitude((0.0, 1.0), 1),))
        b = sa.sample_bundle(4, 1, grid1d.n_t, grid1d.T)
        i = 7
        beta = b.betas[0, i]
        nf = evaluate_noise(spec, [b], i, grid1d)
        assert np.allclose(nf.value, grid1d.age_mesh * beta, rtol=1e-15)
        assert np.allclose(nf.d_age, beta, rtol=1e-15)
        assert np.all(nf.gradient[0] == 0.0)
        assert np.all(nf.laplacian == 0.0)

    def test_sine_mode_derivatives(self):
        # mu(x) = sin(x) on (0, pi): grad = b cos(x), lap = -b sin(x)
        grid = sa.Grid(T=1.0, a_max=1.0, n_t=8, n_a=8, extent=(np.pi,), n_x=(16,))
        spec = sa.NoiseSpec((sa.sine_amplitude(1.0, (1,), (np.pi,)),))
        b = sa.sample_bundle(9, 1, 8, 1.0)
        i = 5
        beta = b.betas[0, i]
        nf = evaluate_noise(spec, [b], i, grid)
        x = grid.space_meshes[0]
        assert np.allclose(nf.value, beta * np.sin(x), rtol=1e-13)
        assert np.allclose(nf.gradient[0], beta * np.cos(x), rtol=1e-13, atol=1e-15)
        assert np.allclose(nf.laplacian, -beta * np.sin(x), rtol=1e-13)

    def test_linear_in_path_values(self, grid1d):
        spec = sa.NoiseSpec((sa.cosine_amplitude(0.5, (1,), grid1d.extent),
                             sa.age_polynomial_amplitude((0.2, 0.3), 1)))
        b = sa.sample_bundle(2, 2, grid1d.n_t, grid1d.T)
        doubled = sa.BrownianBundle(2.0 * b.increments, 2.0 * b.betas,
                                    b.seed, b.dt)
        i = grid1d.n_t
        nf = evaluate_noise(spec, [b], i, grid1d)
        nf2 = evaluate_noise(spec, [doubled], i, grid1d)
        # scaling by two is exact in floating point
        assert np.array_equal(nf2.value, 2.0 * nf.value)
        assert np.array_equal(nf2.d_age, 2.0 * nf.d_age)
        assert np.array_equal(nf2.gradient[0], 2.0 * nf.gradient[0])
        assert np.array_equal(nf2.laplacian, 2.0 * nf.laplacian)

    def test_coarsened_bundle_agrees_bit_for_bit(self, grid1d):
        spec = sa.NoiseSpec((sa.cosine_amplitude(0.5, (1,), grid1d.extent),))
        fine = sa.sample_bundle(6, 1, 2 * grid1d.n_t, grid1d.T)
        coarse = sa.coarsen(fine, 2)
        i = 9
        nf_c = evaluate_noise(spec, [coarse], i, grid1d)
        grid_fine = sa.Grid(grid1d.T, grid1d.a_max, 2 * grid1d.n_t,
                            grid1d.n_a, grid1d.extent, grid1d.n_x)
        nf_f = evaluate_noise(spec, [fine], 2 * i, grid_fine)
        assert np.array_equal(nf_c.value, nf_f.value)

    def test_index_out_of_range(self, grid1d):
        spec = sa.NoiseSpec((sa.constant_amplitude(1.0, 1),))
        b = sa.sample_bundle(0, 1, grid1d.n_t, grid1d.T)
        with pytest.raises(ConfigurationError):
            evaluate_noise(spec, [b], grid1d.n_t + 1, grid1d)

    def test_one_bundle_is_not_a_batch(self, grid1d):
        spec = sa.NoiseSpec((sa.constant_amplitude(1.0, 1),))
        b = sa.sample_bundle(0, 1, grid1d.n_t, grid1d.T)
        with pytest.raises(TypeError):
            evaluate_noise(spec, b, 1, grid1d)


class TestItoCorrection:
    def test_constant_two(self, grid1d):
        f = sa.ito_correction(sa.NoiseSpec((sa.constant_amplitude(2.0, 1),)), grid1d)
        assert np.all(f == 2.0)  # half of 4

    def test_two_unit_modes(self, grid1d):
        spec = sa.NoiseSpec((sa.constant_amplitude(1.0, 1),
                             sa.constant_amplitude(1.0, 1)))
        assert np.all(sa.ito_correction(spec, grid1d) == 1.0)

    def test_age_mode(self, grid1d):
        spec = sa.NoiseSpec((sa.age_polynomial_amplitude((0.0, 1.0), 1),))
        f = sa.ito_correction(spec, grid1d)
        assert np.allclose(f, grid1d.age_mesh ** 2 / 2, rtol=1e-15)

    def test_nonnegative_and_zero_iff(self, grid1d):
        spec = sa.NoiseSpec((sa.cosine_amplitude(0.5, (1,), grid1d.extent),))
        f = sa.ito_correction(spec, grid1d)
        assert np.all(f >= 0.0)
        # cos(pi x) vanishes only at x = 1/2, not at any cell center here
        assert np.all(f > 0.0)
