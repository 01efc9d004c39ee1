import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

import stochage as sa
from stochage import grid as grid_module
from stochage import solver
from stochage.cli import _perturbed_model
from stochage.errors import (ConfigurationError, InvalidFieldError, NoiseMagnitudeError,
                             NonconvergenceError)
from stochage.grid import Face, boundary_faces, l2_norm, weighted_population
from stochage.modelfile import parse_model
from stochage.rates import CustomRate, evaluate_gamma
from stochage.solver import (DiffusionFactors, StepResult, TruncationGuard, _advection,
                             _march, _thomas_factor, _thomas_solve, diffusion_substep,
                             renewal_row, transport_reaction_substep,
                             truncate_argument)

from conftest import (PINNED_NUMPY, build_model, fails_alone, linear_rates, logistic_rates,
                      nan_fertility_model, same, sample, smooth_p0)

MODELS = Path(__file__).resolve().parent.parent / "models"


def slice_transport(values, g1, mu_s, advection, grid, dt):
    """The textbook slice form of :func:`transport_reaction_substep`: one
    update per upwind neighbour over the strided rows of the space axis."""
    older, younger = grid.rows(np.s_[1:]), grid.rows(np.s_[:-1])
    src = younger if grid.aligned else older
    decay = np.exp(-(mu_s[src] if g1 is None else g1[src] + mu_s[src]) * dt)
    out = np.zeros_like(values)
    if grid.aligned:
        out[older] = values[younger] * decay
    else:
        c = dt / grid.da
        out[older] = ((1.0 - c) * values[older] + c * values[younger]) * decay
    if advection is None:
        return out, 0.0
    cfl, still, weights = advection
    for axis, (cp, cm, stay) in enumerate(weights):
        first, last, tail, head = (
            (Ellipsis, s) + (slice(None),) * (grid.dim - 1 - axis)
            for s in (np.s_[:1], np.s_[-1:], np.s_[1:], np.s_[:-1]))
        moved = out * stay
        moved[first] += cp[first] * out[first]
        moved[tail] += cp[tail] * out[head]
        moved[head] += cm[head] * out[tail]
        moved[last] += cm[last] * out[last]
        out = moved if still is None else np.where(still, out, moved)
    return out, cfl


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
            # the solve axis leads in the factor and the right side
            factor = _thomas_factor(lower.T, diag.T, upper.T)
            ours = _thomas_solve(factor, rhs.T.copy()).T
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
            x = _thomas_solve(_thomas_factor(lower, diag, upper), rhs)
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
        out, cfl = transport_reaction_substep(
            vals, zeros, zeros, _advection(g2, grid1d, grid1d.dt), grid1d, grid1d.dt)
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
        _advection(None, grid, grid.dt)
        with pytest.raises(ConfigurationError):
            _advection(None, grid, 10 * grid.da)


class TestAdvectionWeights:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("aligned", [True, False])
    def test_still_path_in_a_batch_matches_one_path_transport(self, dim, aligned):
        # path 1 has all-zero g2: the batch leaves it in place through the
        # still mask, a one-path transport through having no weights at all
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=32, n_a=64 if aligned else 32,
                       extent=(1.0,) * dim, n_x=(8,) if dim == 1 else (6, 5))
        assert grid.aligned == aligned
        rng = np.random.default_rng(11)
        shape = (3,) + grid.field_shape
        vals, g1, mu = rng.random(shape), rng.random(shape), rng.random(shape)
        g2 = tuple(0.4 * grid.dx[ax] / grid.dt * rng.uniform(-1.0, 1.0, shape)
                   for ax in range(dim))
        for comp in g2:
            comp[1] = 0.0
        batch, cfl = transport_reaction_substep(
            vals, g1, mu, _advection(g2, grid, grid.dt), grid, grid.dt)
        assert cfl[1] == 0.0 and cfl[0] > 0.0 and cfl[2] > 0.0
        for j in range(3):
            weights = _advection(tuple(c[j] for c in g2), grid, grid.dt)
            assert (weights is None) == (j == 1)
            one, one_cfl = transport_reaction_substep(vals[j], g1[j], mu[j], weights,
                                                      grid, grid.dt)
            assert batch[j].tobytes() == one.tobytes(), j
            assert cfl[j] == one_cfl, j

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("aligned", [True, False])
    @pytest.mark.parametrize("rescaled", [True, False])
    def test_shifted_copies_match_the_slice_form_bitwise(self, dim, aligned, rescaled):
        # the neighbour arrays are shifted copies of the flat state, the
        # decay is formed in one buffer; every bit must match the slices,
        # with a still path (all-zero g2) in the middle of the batch
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=32, n_a=64 if aligned else 32,
                       extent=(1.0,) * dim, n_x=(9,) if dim == 1 else (6, 5))
        assert grid.aligned == aligned
        rng = np.random.default_rng(17)
        shape = (3,) + grid.field_shape
        vals, mu = rng.random(shape), rng.normal(0.0, 2.0, shape)
        g1 = rng.normal(0.0, 3.0, shape) if rescaled else None
        g2 = tuple(0.45 * grid.dx[ax] / grid.dt * rng.uniform(-1.0, 1.0, shape)
                   for ax in range(dim))
        for comp in g2:
            comp[1] = 0.0
        for adv in (_advection(g2, grid, grid.dt), None):
            ours, cfl = transport_reaction_substep(vals, g1, mu, adv, grid, grid.dt)
            ref, ref_cfl = slice_transport(vals, g1, mu, adv, grid, grid.dt)
            assert ours.tobytes() == ref.tobytes()
            assert np.array_equal(cfl, ref_cfl)
        for j in range(3):   # one path alone, no path axis
            one = tuple(c[j] for c in g2)
            adv = _advection(one, grid, grid.dt)
            args = (vals[j], None if g1 is None else g1[j], mu[j], adv, grid, grid.dt)
            ours, _ = transport_reaction_substep(*args)
            assert ours.tobytes() == slice_transport(*args)[0].tobytes(), j

    def test_both_routes_reject_unaligned_step_above_age_step(self):
        # dt = 1/16 > da = 1/32: the age upwind would lose positivity
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=8, n_a=32, extent=(1.0,), n_x=(4,))
        model = build_model(grid)
        bundle = sa.sample_bundle(0, 1, grid.n_t, grid.T)
        for solve in (sa.solve_direct, sa.solve_rescaled):
            with pytest.raises(ConfigurationError, match="dt <= da"):
                solve(model, bundle, sa.SolverConfig())


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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_per_path_alpha_matches_one_path_solves(self, dim, grid1d, grid2d):
        # face data with a leading path axis gives each path the factor of
        # its own coefficient, as the random Robin jump of the rescaled
        # boundary condition needs
        grid = grid1d if dim == 1 else grid2d
        rng = np.random.default_rng(4)
        faces = zero_faces(grid)
        alpha = {f: rng.random((3,) + z.shape) for f, z in faces.items()}
        k = {f: 0.1 * rng.random((3,) + z.shape) for f, z in faces.items()}
        vals = rng.random((3,) + grid.field_shape)
        batch = diffusion_substep(vals, alpha, k, grid, grid.dt, DiffusionFactors())
        for j in range(3):
            one = diffusion_substep(vals[j], {f: a[j] for f, a in alpha.items()},
                                    {f: q[j] for f, q in k.items()}, grid, grid.dt)
            assert batch[j].tobytes() == np.ascontiguousarray(one).tobytes(), j

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("expand", [True, False])
    def test_expanded_and_one_path_rows_match_the_shared_factor(
            self, dim, expand, grid1d, grid2d):
        # a factor shared by the paths gives a batch its eliminated-upper and
        # pivot rows with a path axis, as wide as the batch with expand (made
        # again when the width changes), else one path wide and made once; the
        # constant off-diagonal stays shared
        grid = grid1d if dim == 1 else grid2d
        rng = np.random.default_rng(5)
        alpha = {f: 0.1 + rng.random(z.shape) for f, z in zero_faces(grid).items()}
        factors = DiffusionFactors(expand)
        shared = factors.get(alpha, grid, grid.dt)
        last, last_n = factors.get(alpha, grid, grid.dt, (4,) + grid.field_shape), 4
        for n in (4, 2, 2, 1, 3):
            wide = factors.get(alpha, grid, grid.dt, (n,) + grid.field_shape)
            assert (wide is last) == (not expand or n == last_n)
            last, last_n = wide, n
            for axis in range(dim):
                assert wide[axis][0] is shared[axis][0]
                for rows, wide_rows in zip(shared[axis][1:], wide[axis][1:]):
                    assert all(w.shape == (n if expand else 1,) + r.shape
                               and np.array_equal(w, np.broadcast_to(r, w.shape))
                               for r, w in zip(rows, wide_rows))
                rhs = np.moveaxis(rng.random((n,) + grid.field_shape), 2 + axis, 0)
                ours = _thomas_solve(wide[axis], rhs.copy())
                ref = _thomas_solve(shared[axis], rhs.copy())
                assert ours.tobytes() == ref.tobytes(), (n, axis)

    def test_same_arrays_skip_the_elementwise_compare(self, grid1d, monkeypatch):
        # the very arrays of the previous call are not read again; an equal
        # new array is compared and reuses the factor; a changed one refactors
        compares = []
        array_equal = np.array_equal

        def counting(a, b, *args, **kwargs):
            compares.append(1)
            return array_equal(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "array_equal", counting)
        factors = DiffusionFactors()
        alpha = {f: np.full_like(z, 0.2) for f, z in zero_faces(grid1d).items()}
        first = factors.get(alpha, grid1d, grid1d.dt)
        compares.clear()
        assert factors.get(alpha, grid1d, grid1d.dt) is first
        assert factors.get(dict(alpha), grid1d, grid1d.dt) is first
        assert not compares
        equal = {f: a.copy() for f, a in alpha.items()}
        assert factors.get(equal, grid1d, grid1d.dt) is first
        assert len(compares) == len(equal)
        compares.clear()
        assert factors.get(equal, grid1d, grid1d.dt) is first
        assert not compares
        changed = {**equal, Face(0, 1): equal[Face(0, 1)] + 0.1}
        assert factors.get(changed, grid1d, grid1d.dt) is not first
        assert compares

    def test_refactors_only_on_change(self, grid1d):
        factors = DiffusionFactors()
        alpha = {f: np.full_like(z, 0.2) for f, z in zero_faces(grid1d).items()}
        first = factors.get(alpha, grid1d, grid1d.dt)
        assert factors.get(dict(alpha), grid1d, grid1d.dt) is first
        alpha[Face(0, 1)] = alpha[Face(0, 1)] + 0.1
        assert factors.get(alpha, grid1d, grid1d.dt) is not first
        assert factors.get(alpha, grid1d, grid1d.dt / 2) is not first

    @pytest.mark.parametrize("route", ["direct", "rescaled"])
    def test_negative_robin_coefficient_is_a_configuration_error(self, grid1d, route):
        # the closure keeps an M-matrix only for alpha0 >= 0; a time-dependent
        # coefficient that turns negative mid-march is caught at that node
        # (alpha0 = 0 on the first half of the march still solves)
        def model_with(fn):
            return build_model(grid1d, rates=dataclasses.replace(
                linear_rates(), alpha0=CustomRate(fn=fn, sup=1.0)))

        solve = sa.solve_direct_batch if route == "direct" else sa.solve_rescaled_batch
        half = grid1d.T / 2
        ok = model_with(lambda t, a, x, r: 0.0 * a)
        bundles = bundles_for(ok, 2)
        assert all(isinstance(r, sa.SolveReport) for r in solve(ok, bundles))
        late = model_with(lambda t, a, x, r: (0.0 if t <= half else -0.5) + 0 * a)
        with pytest.raises(ConfigurationError, match=r"alpha0 must be >= 0 .*got -0\.5$"):
            solve(late, bundles)


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
    @staticmethod
    def guard_of_one(radius, constants=None):
        return TruncationGuard(np.array([radius]), constants, np.zeros(1, dtype=int))

    def test_identity_branch(self, grid1d):
        guard = self.guard_of_one(4.0)
        vals = np.ones((1,) + grid1d.field_shape)  # norm 1 < 4
        out = truncate_argument(vals, grid1d, guard, [0])
        assert out is vals
        assert guard.activations[0] == 0

    def test_scaling_branch(self, grid1d):
        guard = self.guard_of_one(1.0)
        vals = np.full((1,) + grid1d.field_shape, 2.0)  # norm 2 > 1
        out = truncate_argument(vals, grid1d, guard, [0])
        assert guard.activations[0] == 1
        assert sa.l2_norm(out[0], grid1d) == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(out, vals / 2.0, rtol=1e-14)

    def test_continuity_at_radius(self, grid1d):
        vals = np.full((1,) + grid1d.field_shape, 2.0)
        norm = sa.l2_norm(vals[0], grid1d)
        guard = self.guard_of_one(norm)
        out = truncate_argument(vals, grid1d, guard, [0])
        assert out is vals  # boundary case takes the identity branch
        scaled = vals * (norm / norm)
        assert np.allclose(out, scaled, rtol=1e-15)

    def test_warns_per_clipped_path_of_a_radius_from_the_bound(
            self, grid1d, linear_model, caplog):
        bundle = sa.sample_bundle(0, 1, linear_model.grid.n_t, linear_model.grid.T)
        consts = sa.constants_for_run(linear_model, bundle)
        # constant fields of norm 0.5, 2 and 3
        vals = np.stack([np.full(grid1d.field_shape, c) for c in (0.5, 2.0, 3.0)])

        def warnings(guard, values, index):
            caplog.clear()
            with caplog.at_level("WARNING", logger="stochage.solver"):
                truncate_argument(values, grid1d, guard, index)
            return [r for r in caplog.records if r.name == "stochage.solver"]

        assert len(warnings(self.guard_of_one(1.0, [consts]), vals[1:2], [0])) == 1
        batch = TruncationGuard(np.ones(3), [consts] * 3, np.zeros(3, dtype=int))
        assert len(warnings(batch, vals, np.arange(3))) == 2
        # the values hold paths 0, 2 and 3 of a batch of four
        batch = TruncationGuard(np.array([1.0, 1.0, 5.0, 1.0]), [consts] * 4,
                                np.zeros(4, dtype=int))
        assert len(warnings(batch, vals, np.array([0, 2, 3]))) == 1
        assert batch.activations.tolist() == [0, 0, 0, 1]
        # a fixed radius keeps no constants and clips silently
        fixed = TruncationGuard(np.ones(3), activations=np.zeros(3, dtype=int))
        assert warnings(fixed, vals, np.arange(3)) == []
        assert fixed.activations.tolist() == [0, 1, 1]


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
        from stochage.rescale import RescaledCoefficients

        grid = linear_model.grid
        bundle = sa.sample_bundle(3, 1, grid.n_t, grid.T)
        cfg = sa.SolverConfig(snapshot_stride=1)
        rep = sa.solve_rescaled(linear_model, bundle, cfg)
        coeffs = RescaledCoefficients(linear_model, [bundle])
        gamma_vals = evaluate_gamma(linear_model.rates, grid)
        step = sa.picard_step_solve(linear_model.p0[None].copy(), 1, coeffs,
                                    gamma_vals, linear_model.region, None, cfg)
        assert np.array_equal(step.state[0], rep.snapshots[1])
        assert step.iterations == rep.picard_iterations[0]


class TestSolveRescaled:
    def test_characteristics_oracle_exact(self):
        # no noise, no renewal, one cell: p(t, a) = p0(a - t) exp(-mu t)
        n_t = 128
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=n_t, n_a=2 * n_t,
                       extent=(1.0,), n_x=(1,))
        mu = 0.4
        rates = sa.VitalRates(mu_s=sa.ConstantRate(mu))
        p0 = sample(grid, lambda a, x: np.broadcast_to(
            np.exp(-((a - 0.4) / 0.15) ** 2),
            np.broadcast_shapes(np.shape(a), np.shape(x))))
        model = build_model(grid, rates=rates,
                            amplitudes=(sa.constant_amplitude(0.0, 1),), p0=p0)
        bundle = sa.sample_bundle(0, 1, n_t, grid.T)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=0))
        oracle = np.zeros(grid.field_shape)
        oracle[n_t:] = p0[:-n_t] * np.exp(-mu * grid.dt) ** n_t
        assert np.max(np.abs(rep.final - oracle)) <= 1e-12 * np.max(oracle)

    def test_renewal_equation_oracle(self):
        # uniform-in-space birth-death system against an independent
        # scalar recursion over the age profile
        n_t = 64
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=n_t, n_a=2 * n_t,
                       extent=(1.0,), n_x=(1,))
        m0 = 1.8
        rates = sa.VitalRates(m0=sa.ConstantRate(m0))
        p0 = sample(grid, lambda a, x: np.broadcast_to(
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
        solver_births = rep.snapshots[:, 0, 0]
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
        assert np.array_equal(rep.snapshots[0], linear_model.p0)
        assert len(rep.snapshots) == len(rep.snapshot_indices) < grid.n_t + 1
        assert 1 not in rep.snapshot_indices

    def test_2d_linear_solve(self, grid2d):
        model = build_model(grid2d, rates=linear_rates(alpha=0.1))
        bundle = sa.sample_bundle(2, 1, grid2d.n_t, grid2d.T)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=1))
        assert np.all(rep.picard_iterations == 1)
        assert rep.snapshots.min() >= 0.0
        assert np.all(np.isfinite(rep.final))


def march_without_path_axis(model, bundle, cfg):
    """Final state, steps and guard of a reference march of one path, as a
    batch of one stepped outside the shared march: the coefficient sups are
    swept before it and the radius is fixed from them (or by ``cfg``)."""
    from stochage.rescale import RescaledCoefficients

    coeffs = RescaledCoefficients(model, [bundle])
    gamma = evaluate_gamma(model.rates, model.grid)
    if cfg.truncation_radius is None:
        (sups,) = coeffs.coefficient_sups()
        consts = sa.constants_for_run(model, sups=sups, c0=cfg.c0, c1=cfg.c1)
        guard = TruncationGuard(np.array([float(consts.n0)]), [consts], np.zeros(1, dtype=int))
    else:
        guard = TruncationGuard(np.array([cfg.truncation_radius]),
                                activations=np.zeros(1, dtype=int))
    y, steps = model.p0[None].copy(), []
    for n in range(1, model.grid.n_t + 1):
        steps.append(sa.picard_step_solve(y, n, coeffs, gamma, model.region,
                                          guard, cfg))
        y = steps[-1].state
    return y[0], steps, guard.path(0)


def bundles_for(model, n, base=0):
    return [sa.sample_bundle(base + m, model.noise.n_modes, model.grid.n_t,
                             model.grid.T) for m in range(n)]


class TestSolveRescaledBatch:
    @pytest.mark.parametrize("name", ["sample1d", "sample2d", "clipping"])
    def test_batch_matches_one_path_march(self, name, tmp_path):
        path = MODELS / f"{name}.ini"
        if name == "clipping":   # norms near 10 pass the bound's radius of 2 to 14
            path = tmp_path / "clipping.ini"
            path.write_text((MODELS / "sample1d.ini").read_text().replace(
                "p0 = ageexp:1.5,1.0", "p0 = ageexp:15,1.0").replace(
                "k0 = constant:0.0", "k0 = constant:0.05") + "c0 = 1e-3\n")
        model, cfg = parse_model(path)
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
        if name == "clipping":
            # the march completes their sups before it clips
            assert 0 < sum(r.guard.activations > 0 for r in singles) < len(singles)
        for size in (3, 10):
            for lo in range(0, len(bundles), size):
                batch = sa.solve_rescaled_batch(model, bundles[lo:lo + size], cfg)
                assert len(batch) == len(bundles[lo:lo + size])
                for rep, single in zip(batch, singles[lo:lo + size]):
                    assert same(rep, single)

    @pytest.mark.parametrize("max_iter", [2, 50])
    def test_a_path_ends_as_if_its_sups_were_swept_first(self, max_iter, tmp_path):
        # the march gathers the sups and completes them for a path that
        # leaves it, so each path ends as when they were swept first: with
        # the exp guard's error, else the bound's, else as a march at its
        # own radius.  With 2 fixed-point iterates every march fails early
        path = tmp_path / "loud.ini"
        path.write_text((MODELS / "sample1d.ini").read_text().replace(
            "mu1 = cosine:0.2:1", "mu1 = cosine:2.0:4").replace(
            "k0 = constant:0.0", "k0 = constant:0.05"))
        model, cfg = parse_model(path)
        cfg = dataclasses.replace(cfg, snapshot_stride=0, picard_max_iter=max_iter)
        bundles = bundles_for(model, 8)
        causes = set()
        for entry, bundle in zip(sa.solve_rescaled_batch(model, bundles, cfg), bundles):
            try:
                consts = sa.constants_for_run(model, bundle, c0=cfg.c0, c1=cfg.c1)
            except sa.StochageError as exc:
                expected = exc
            else:
                own = dataclasses.replace(cfg, truncation_radius=float(consts.n0))
                expected = sa.solve_rescaled_batch(model, [bundle], own)[0]
                if isinstance(expected, sa.SolveReport):
                    expected.guard.constants = consts
            if isinstance(expected, sa.StochageError):
                assert type(entry) is type(expected) and str(entry) == str(expected)
            else:
                assert same(entry, expected)
            causes.add(type(entry))
        assert causes == {sa.StochageError, NonconvergenceError if max_iter == 2 else sa.SolveReport}

    def test_a_path_leaves_at_the_step_its_completed_sups_fail(self, tmp_path, monkeypatch):
        # a norm past node 0's radius completes the path's sups; when its
        # bound overflows, the path marches no further step
        path = tmp_path / "loud.ini"
        path.write_text((MODELS / "sample1d.ini").read_text().replace(
            "mu1 = cosine:0.2:1", "mu1 = cosine:2.0:4"))
        model, cfg = parse_model(path)
        left, step = {}, solver.picard_step_solve

        def recording(y, t_index, coeffs, gamma, region, guard, config, factors, live, observer):
            assert not set(live.tolist()) & set(left)
            result = step(y, t_index, coeffs, gamma, region, guard, config, factors, live,
                          observer)
            left.update((j, t_index) for j in live.tolist()
                        if isinstance(guard.constants[j], sa.StochageError))
            return result

        monkeypatch.setattr(solver, "picard_step_solve", recording)
        cfg = dataclasses.replace(cfg, snapshot_stride=0)
        reports = sa.solve_rescaled_batch(model, bundles_for(model, 8), cfg)
        assert left and max(left.values()) < model.grid.n_t
        assert all(isinstance(reports[j], sa.StochageError) for j in left)

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
            assert rep.guard.constants is None

    @pytest.mark.parametrize("name", ["sample1d", "sample2d"])
    def test_initial_stack_matches_one_path_solves_of_its_densities(self, name):
        # check's batch: the stored density and two bumped copies on one
        # path; each is bitwise the one-path solve of a model carrying its
        # density, its guard's radius and constants from its own data energy
        model, cfg = parse_model(MODELS / f"{name}.ini")
        cfg = dataclasses.replace(cfg, snapshot_stride=1)
        bundle = bundles_for(model, 1)[0]
        p0 = np.stack([model.p0] + [_perturbed_model(model, d) for d in (1e-2, 5e-3)])
        batch = sa.solve_rescaled_batch(model, [bundle] * 3, cfg, p0)
        for rep, row in zip(batch, p0, strict=True):
            own = dataclasses.replace(model, p0=row)
            assert same(rep, sa.solve_rescaled(own, bundle, cfg))
            assert rep.snapshots[0].tobytes() == row.tobytes()
        assert len({rep.guard.constants.y0_norm_sq for rep in batch}) == 3

    @pytest.mark.parametrize("name, change", [
        ("sample1d", None), ("sample2d", None), ("sample1d", "k0"), ("sample2d", "k0"),
        ("sample1d", 0.5), ("sample2d", 0.05)])
    def test_observed_batch_matches_the_unobserved_batch(self, name, change):
        # check's batch marched with and without estimates: every report is
        # bitwise the same, field by field, with Robin data and with clipping
        model, cfg = parse_model(MODELS / f"{name}.ini")
        cfg = dataclasses.replace(cfg, snapshot_stride=1)
        if change == "k0":
            model = dataclasses.replace(model, rates=dataclasses.replace(
                model.rates, k0=sa.ConstantRate(0.05)))
        elif change is not None:
            cfg = dataclasses.replace(cfg, truncation_radius=change)
        bundle = bundles_for(model, 1)[0]
        p0 = np.stack([model.p0] + [_perturbed_model(model, d) for d in (1e-2, 5e-3)])
        acc = sa.EstimateAccumulator(model)
        observed = sa.solve_rescaled_batch(model, [bundle] * 3, cfg, p0, observer=acc)
        plain = sa.solve_rescaled_batch(model, [bundle] * 3, cfg, p0)
        assert all(isinstance(rep, sa.SolveReport) for rep in plain)
        for rep, alone in zip(observed, plain, strict=True):
            assert same(rep, alone)
        assert not np.isnan(acc.terms).any() and acc.weak_residual().max_abs > 0
        if change in (0.5, 0.05):
            assert all(rep.guard.activations > 0 for rep in plain)

    @pytest.mark.parametrize("name", ["sample1d", "loud"])
    def test_observer_sees_each_rows_own_coefficients(self, name, tmp_path):
        # paths of ten bundles leave the fixed point at different iterates,
        # which compacts the step's arrays in place, and on the loud model
        # some leave the march when their energy bound overflows; the observer
        # still gets each live row's own coefficients, bitwise as a fresh
        # build gives them, and the reports are those of the unobserved batch
        from stochage.rescale import RescaledCoefficients

        path = MODELS / "sample1d.ini"
        if name == "loud":
            path = tmp_path / "loud.ini"
            path.write_text((MODELS / "sample1d.ini").read_text().replace(
                "mu1 = cosine:0.2:1", "mu1 = cosine:2.0:4"))
        model, cfg = parse_model(path)
        bundles = bundles_for(model, 10)
        fresh, nodes = RescaledCoefficients(model, bundles), []

        def observer(i, states, paths, u, coefficients):
            nodes.append((i, len(paths)))
            assert len(states) == len(paths) == len(u) and paths.tolist() == sorted(paths)
            if i == 0:
                assert coefficients is None
                return
            g1, g2, exp_dw0, k = coefficients
            node, k_new = fresh.node_fields(i, paths), fresh.k_faces(i, paths)
            assert g1.tobytes() == node["g1"].tobytes()
            assert exp_dw0.tobytes() == node["exp_dw0"].tobytes()
            assert [g.tobytes() for g in g2] == [g.tobytes() for g in node["g2"]]
            assert {f: a.tobytes() for f, a in k.items()} == {
                f: a.tobytes() for f, a in k_new.items()}

        cfg = dataclasses.replace(cfg, snapshot_stride=0)
        reports = sa.solve_rescaled_batch(model, bundles, cfg, observer=observer)
        assert [i for i, _ in nodes] == list(range(model.grid.n_t + 1))
        for rep, alone in zip(reports, sa.solve_rescaled_batch(model, bundles, cfg), strict=True):
            assert same(rep, alone) if isinstance(rep, sa.SolveReport) else str(rep) == str(alone)
        solved = [r for r in reports if isinstance(r, sa.SolveReport)]
        if name == "loud":   # some paths leave mid-march, and some finish
            assert 0 < len(solved) <= nodes[-1][1] < nodes[0][1] == len(bundles)
        else:
            iters = np.array([r.picard_iterations for r in solved])
            assert len(solved) == len(bundles)
            assert np.any(iters.min(axis=0) < iters.max(axis=0))

    def test_fixed_radius_clips_only_the_largest_initial_density(self):
        # a radius between the two largest peak norms clips only the path
        # that starts from the largest density, as its one-path solve does
        model, cfg = parse_model(MODELS / "sample1d.ini", coarsen=4)
        bundle = bundles_for(model, 1, base=3)[0]
        p0 = np.stack([scale * model.p0 for scale in (1.0, 1.5, 3.0)])
        peaks = [r.l2_series.max() for r in sa.solve_rescaled_batch(model, [bundle] * 3, cfg, p0)]
        assert peaks == sorted(peaks)
        cfg = dataclasses.replace(cfg, truncation_radius=0.5 * (peaks[1] + peaks[2]))
        batch = sa.solve_rescaled_batch(model, [bundle] * 3, cfg, p0)
        assert [rep.guard.activations > 0 for rep in batch] == [False, False, True]
        for rep, row in zip(batch, p0):
            own = dataclasses.replace(model, p0=row)
            assert same(rep, sa.solve_rescaled(own, bundle, cfg))

    def test_initial_stack_of_the_wrong_shape_is_a_configuration_error(self, linear_model):
        bundles = bundles_for(linear_model, 2)
        field = linear_model.p0
        for p0 in (field, np.stack([field]), np.stack([field] * 3), np.stack([field[1:]] * 2)):
            with pytest.raises(ConfigurationError, match="initial densities"):
                sa.solve_rescaled_batch(linear_model, bundles, sa.SolverConfig(), p0)

    def test_failed_path_fails_alone_in_ensemble(self, grid1d):
        # fertility turns NaN once a path's population passes a threshold
        # that only some paths reach: the batch fails exactly those paths,
        # each with the error its one-path solve raises
        cfg = sa.SolverConfig(snapshot_stride=0)
        bundles = [sa.sample_bundle(s, 1, grid1d.n_t, grid1d.T) for s in range(6)]
        model = nan_fertility_model(grid1d, bundles, sa.solve_rescaled_batch, cfg)
        errors = fails_alone(sa.solve_rescaled_batch(model, bundles, cfg),
                             sa.solve_rescaled, model, bundles, cfg)
        failed = [e for e in errors if e is not None]
        assert 0 < len(failed) < len(bundles)
        assert all(isinstance(e, InvalidFieldError) for e in failed)

    def test_max_iter_between_paths_fails_the_slower_paths(self, grid1d):
        # paths that need more fixed-point iterates than picard_max_iter
        # allows fail alone, each at its own step with its own last ratio
        rates = dataclasses.replace(logistic_rates(),
                                    m0=sa.LogisticRate(3.0, -0.5, 1.5, 0.5))
        model = build_model(grid1d, rates=rates, amplitudes=(
            sa.constant_amplitude(0.6, 1), sa.cosine_amplitude(0.2, (1,), grid1d.extent)))
        bundles = bundles_for(model, 8)
        cfg = sa.SolverConfig(picard_tol=1e-13)
        needs = [rep.picard_iterations.max()
                 for rep in sa.solve_rescaled_batch(model, bundles, cfg)]
        assert min(needs) < max(needs)
        cfg = dataclasses.replace(cfg, picard_max_iter=int(min(needs)))
        errors = fails_alone(sa.solve_rescaled_batch(model, bundles, cfg),
                             sa.solve_rescaled, model, bundles, cfg)
        assert [e is not None for e in errors] == [n > min(needs) for n in needs]
        assert all(isinstance(e, NonconvergenceError) for e in errors if e is not None)
        assert len({e.ratio for e in errors if e is not None}) > 1

    def test_noise_past_the_exp_guard_fails_its_path_mid_march(self, grid1d):
        # with a fixed radius a path whose |W| passes 700 fails at the
        # first node where it does, with its own |W|
        bundles = [sa.sample_bundle(s, 1, grid1d.n_t, grid1d.T) for s in range(8)]
        peaks = [np.abs(b.betas[0]).max() for b in bundles]
        amp = 700.0 / float(np.median(peaks))
        model = build_model(grid1d, amplitudes=(sa.constant_amplitude(amp, 1),))
        cfg = sa.SolverConfig(truncation_radius=1e3)
        errors = fails_alone(sa.solve_rescaled_batch(model, bundles, cfg),
                             sa.solve_rescaled, model, bundles, cfg)
        assert [e is not None for e in errors] == [p * amp > 700.0 for p in peaks]
        for err, bundle in zip(errors, bundles):
            if err is not None:
                w = np.abs(amp * bundle.betas[0])
                first = np.flatnonzero(w > 700.0)[0]
                assert 0 < first < grid1d.n_t
                assert isinstance(err, NoiseMagnitudeError) and err.w_max == w[first]


class TestMarchRecord:
    @pytest.mark.parametrize("route", ["direct", "rescaled"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_series_are_the_norms_of_the_trajectory(self, grid1d, grid2d, dim, route):
        grid = grid1d if dim == 1 else grid2d
        rates = dataclasses.replace(logistic_rates(), k0=sa.ConstantRate(0.05))
        model = build_model(grid, rates=rates)
        bundle = bundles_for(model, 1, base=5)[0]
        solve = sa.solve_direct if route == "direct" else sa.solve_rescaled
        rep = solve(model, bundle, sa.SolverConfig(snapshot_stride=1))
        traj, vol = rep.snapshots, grid.cell_volume
        expected = {
            "l2_series": [l2_norm(s, grid) for s in traj],
            "births_series": [np.sum(s[grid.rows(0)]) * vol for s in traj],
        }
        for name, values in expected.items():
            assert getattr(rep, name).tobytes() == np.array(values).tobytes(), name

    @pytest.mark.parametrize("route", ["direct", "rescaled"])
    def test_march_takes_no_energy_terms(self, monkeypatch, route):
        # the energy-bound terms are the checks' own work: no march takes a
        # gradient energy, and only the rescaled route takes a boundary norm,
        # once per node, where its Robin datum folds the node's sups
        calls = {name: [] for name in ("gradient_energy", "boundary_norm_sq")}
        for name, seen in calls.items():
            original = getattr(grid_module, name)

            def counting(*args, _original=original, _seen=seen, **kwargs):
                _seen.append(args)
                return _original(*args, **kwargs)

            for module in [m for key, m in sys.modules.items() if key.startswith("stochage")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        model, cfg = parse_model(MODELS / "sample1d.ini", coarsen=4)
        solve = sa.solve_direct_batch if route == "direct" else sa.solve_rescaled_batch
        reports = solve(model, bundles_for(model, 3), cfg)
        assert all(isinstance(r, sa.SolveReport) for r in reports)
        assert calls["gradient_energy"] == []
        assert len(calls["boundary_norm_sq"]) == (model.grid.n_t + 1 if route == "rescaled" else 0)

    def test_nan_state_fails_its_path_alone(self, linear_model):
        # a step that turns path 0 of 2 NaN fails that path alone; path 1
        # finishes with the bits it gets when marched alone
        grid = linear_model.grid
        gamma = evaluate_gamma(linear_model.rates, grid)

        def stepper(poisoned):
            def step(t_index, state, u_value, live):
                new = state * (1.0 + 0.01 * t_index)
                new[live == poisoned, 3, 0] = np.nan
                return StepResult(new, weighted_population(new, gamma, None, grid))
            return step

        cfg = sa.SolverConfig(snapshot_stride=1)
        bundles = bundles_for(linear_model, 2)
        out = _march(linear_model, bundles, gamma, stepper(0), cfg, "direct")
        alone = _march(linear_model, bundles[1:], gamma, stepper(-1), cfg, "direct")
        assert isinstance(out[0], InvalidFieldError)
        assert str(out[0]) == "field contains non-finite entries"
        assert same(out[1], alone[0])


class TestWorkingSet:
    # Peak traced memory of a batch solve of sample1d grows by this many
    # state fields per path (the slope between 3 and 9 paths, stride 0).
    # Set just above what the routes hold, so that a new field-sized array
    # per path alive at the peak fails here.  numpy's temporaries count, so
    # the ceilings hold for the numpy they were measured with.
    CEILING = {"direct": 6.8, "rescaled": 12.5}

    @pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                        reason=f"ceilings were measured with numpy {PINNED_NUMPY}")
    @pytest.mark.parametrize("route", ["direct", "rescaled"])
    def test_peak_fields_per_path_stay_under_the_ceiling(self, route):
        import tracemalloc

        model, cfg = parse_model(MODELS / "sample1d.ini")
        cfg = dataclasses.replace(cfg, snapshot_stride=0)
        solve = sa.solve_direct_batch if route == "direct" else sa.solve_rescaled_batch
        bundles = bundles_for(model, 9)
        solve(model, bundles[:1], cfg)   # module-level caches fill outside the trace
        peaks = []
        for n in (3, 9):
            tracemalloc.start()
            try:
                reports = solve(model, bundles[:n], cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(isinstance(r, sa.SolveReport) for r in reports)
        field_bytes = 8 * int(np.prod(model.grid.field_shape))
        slope = (peaks[1] - peaks[0]) / 6 / field_bytes
        assert 0 < slope < self.CEILING[route], slope

    @pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                        reason=f"ceilings were measured with numpy {PINNED_NUMPY}")
    def test_check_stores_no_trajectory(self, tmp_path):
        # one warm check of sample1d peaks near 91 state fields; its estimates
        # ride the marches, so no stride-1 trajectory of its four runs (4 x 65
        # or 33 fields, a peak near 253) may come back
        import tracemalloc

        from stochage.cli import main

        argv = ["check", "--model", str(MODELS / "sample1d.ini"), "--out"]
        assert main(argv + [str(tmp_path / "warm")]) == 0   # module-level caches fill
        tracemalloc.start()
        try:
            assert main(argv + [str(tmp_path / "chk")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model, _ = parse_model(MODELS / "sample1d.ini")
        fields = peak / (8 * int(np.prod(model.grid.field_shape)))
        assert 0 < fields < 130, fields
