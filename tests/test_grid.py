import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stochage as sa
from stochage.errors import ConfigurationError, InvalidFieldError
from stochage.grid import (Face, boundary_faces, boundary_norm_sq,
                           face_measure, face_meshes, face_shape)

from conftest import build_model


def reference_norm(values, grid):
    """Independent quadrature: python loops, trapezoid in age, midpoint in space."""
    total = 0.0
    for k in range(grid.n_a + 1):
        w = 0.5 * grid.da if k in (0, grid.n_a) else grid.da
        total += w * float(np.sum(np.asarray(values[k]) ** 2))
    return np.sqrt(total * np.prod(grid.dx))


class TestGrid:
    def test_basic_properties(self, grid1d):
        assert grid1d.dim == 1
        assert grid1d.aligned
        assert grid1d.dt == grid1d.da
        assert grid1d.field_shape == (65, 8)
        assert len(grid1d.ages) == 65
        assert grid1d.age_weights.sum() == pytest.approx(grid1d.a_max)

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            sa.Grid(T=-1, a_max=1, n_t=4, n_a=4, extent=(1.0,), n_x=(4,))
        with pytest.raises(ConfigurationError):
            sa.Grid(T=1, a_max=1, n_t=1, n_a=4, extent=(1.0,), n_x=(4,))
        with pytest.raises(ConfigurationError):
            sa.Grid(T=1, a_max=1, n_t=4, n_a=4, extent=(1.0, 1.0, 1.0), n_x=(4, 4, 4))

    def test_coarsen_time(self, grid1d):
        g = grid1d.coarsen_time(2)
        assert g.n_t == grid1d.n_t // 2
        assert g.n_a == grid1d.n_a // 2  # aligned grid coarsens age too
        with pytest.raises(ConfigurationError):
            grid1d.coarsen_time(5)
        with pytest.raises(ConfigurationError):
            grid1d.coarsen_time(0)


class TestModelInitialDensity:
    def test_rejects_nonfinite(self, grid1d):
        bad = np.zeros(grid1d.field_shape)
        bad[3, 2] = np.nan
        with pytest.raises(InvalidFieldError):
            build_model(grid1d, p0=bad)

    def test_rejects_wrong_shape(self, grid1d):
        with pytest.raises(ConfigurationError, match=r"p0 has shape \(3, 3\)"):
            build_model(grid1d, p0=np.zeros((3, 3)))

    def test_immutable(self, grid1d):
        values = np.ones(grid1d.field_shape)
        model = build_model(grid1d, p0=values)
        values[0, 0] = 2.0   # the model keeps its own copy
        with pytest.raises(ValueError):
            model.p0[0, 0] = 2.0
        with pytest.raises(AttributeError):
            model.p0 = np.zeros(grid1d.field_shape)
        assert np.all(model.p0 == 1.0)


class TestL2Norm:
    def test_zero_field(self, grid1d):
        assert sa.l2_norm(np.zeros(grid1d.field_shape), grid1d) == 0.0

    def test_constant_field_exact(self):
        # integral of 1 over (0, 2) x unit box is 2
        grid = sa.Grid(T=1.0, a_max=2.0, n_t=16, n_a=32, extent=(1.0,), n_x=(5,))
        f = np.ones(grid.field_shape)
        assert sa.l2_norm(f, grid) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_matches_independent_quadrature(self, grid1d, grid2d):
        rng = np.random.default_rng(0)
        for grid in (grid1d, grid2d):
            vals = rng.normal(size=grid.field_shape)
            ours = sa.l2_norm(vals, grid)
            ref = reference_norm(vals, grid)
            assert ours == pytest.approx(ref, rel=1e-14)

    def test_nonfinite_raises(self, grid1d):
        vals = np.zeros(grid1d.field_shape)
        vals[0, 0] = np.inf
        with pytest.raises(InvalidFieldError):
            sa.l2_norm(vals, grid1d)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           scale=st.floats(-3.0, 3.0).filter(lambda s: s == 0 or abs(s) > 1e-6))
    def test_triangle_and_homogeneity(self, seed, scale):
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=8, n_a=8, extent=(1.0,), n_x=(4,))
        rng = np.random.default_rng(seed)
        f = rng.normal(size=grid.field_shape)
        g = rng.normal(size=grid.field_shape)
        nf, ng = sa.l2_norm(f, grid), sa.l2_norm(g, grid)
        assert sa.l2_norm(f + g, grid) <= (nf + ng) * (1 + 1e-12)
        assert sa.l2_norm(scale * f, grid) == pytest.approx(abs(scale) * nf, rel=1e-12, abs=1e-300)


class TestWeightedPopulation:
    def test_unit_volume(self):
        grid = sa.Grid(T=1.0, a_max=1.0, n_t=8, n_a=8, extent=(1.0,), n_x=(4,))
        f = np.ones(grid.field_shape)
        assert sa.weighted_population(f, 1.0, None, grid) == pytest.approx(1.0, rel=1e-14)

    def test_zero_weight(self, grid1d):
        f = np.full(grid1d.field_shape, 3.0)
        assert sa.weighted_population(f, 0.0, None, grid1d) == 0.0

    def test_age_weight(self):
        # weight a on (0, 2): integral of a over age is 2 (trapezoid exact)
        grid = sa.Grid(T=1.0, a_max=2.0, n_t=8, n_a=16, extent=(1.0,), n_x=(4,))
        f = np.ones(grid.field_shape)
        val = sa.weighted_population(f, grid.age_mesh, None, grid)
        assert val == pytest.approx(2.0, rel=1e-14)

    def test_linearity(self, grid1d):
        rng = np.random.default_rng(1)
        f = rng.normal(size=grid1d.field_shape)
        g = rng.normal(size=grid1d.field_shape)
        w = 1 + 0.5 * grid1d.age_mesh
        lhs = sa.weighted_population(2.5 * f + (-1.5) * g, w, None, grid1d)
        rhs = (2.5 * sa.weighted_population(f, w, None, grid1d)
               - 1.5 * sa.weighted_population(g, w, None, grid1d))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_cauchy_schwarz_bound(self, grid1d):
        # weighted total < sup(weight) * sqrt(a_max * volume) * norm
        rng = np.random.default_rng(2)
        gamma_inf = 0.7
        region = sa.SubDomain((0.0,), (0.5,))
        for _ in range(10):
            f = rng.normal(size=grid1d.field_shape)
            val = abs(sa.weighted_population(f, gamma_inf, region, grid1d))
            bound = gamma_inf * np.sqrt(grid1d.a_max * 0.5) * sa.l2_norm(f, grid1d)
            assert val <= bound * (1 + 1e-12)

    def test_subdomain_restriction(self, grid1d):
        f = np.ones(grid1d.field_shape)
        region = sa.SubDomain((0.0,), (0.5,))
        assert sa.weighted_population(f, 1.0, region, grid1d) == pytest.approx(0.5, rel=1e-14)

    def test_misaligned_region_rejected(self, grid1d):
        region = sa.SubDomain((0.0,), (0.4321,))
        with pytest.raises(ConfigurationError):
            sa.weighted_population(np.zeros(grid1d.field_shape), 1.0, region, grid1d)


class TestFaces:
    def test_enumeration(self, grid2d):
        faces = boundary_faces(grid2d)
        assert len(faces) == 4
        assert face_shape(grid2d, Face(0, 0)) == (grid2d.n_a + 1, 5)
        assert face_shape(grid2d, Face(1, 1)) == (grid2d.n_a + 1, 6)

    def test_face_meshes_coordinates(self, grid2d):
        ages, coords = face_meshes(grid2d, Face(0, 1))
        assert float(np.max(coords[0])) == grid2d.extent[0]
        assert ages.shape[0] == grid2d.n_a + 1

    def test_boundary_norm_counting_measure_1d(self, grid1d):
        # constant 1 on both faces: ages integrate to a_max per face
        data = {f: np.ones(face_shape(grid1d, f)) for f in boundary_faces(grid1d)}
        assert boundary_norm_sq(data, grid1d) == pytest.approx(2 * grid1d.a_max, rel=1e-14)

    def test_face_measure(self, grid1d, grid2d):
        assert face_measure(grid1d, Face(0, 0)) == 1.0
        assert face_measure(grid2d, Face(0, 0)) == pytest.approx(grid2d.dx[1])
