import dataclasses
import sys
import weakref
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
from stochage.rates import CustomRate, evaluate_gamma, evaluate_on_grid
from stochage.rescale import RescaledCoefficients
from stochage.solver import (DiffusionFactors, StepResult, TruncationGuard, _advection,
                             _march, _thomas_factor, _thomas_solve, diffusion_substep,
                             renewal_row, transport_reaction_substep,
                             truncate_argument)

from conftest import (PINNED_NUMPY, build_model, fails_alone, linear_rates, logistic_rates,
                      nan_fertility_model, same, sample, smooth_p0, swept_constants,
                      swept_sups)

MODELS = Path(__file__).resolve().parent.parent / "models"


def slice_transport(values, g1, mu_s, advection, grid):
    """The textbook slice form of :func:`transport_reaction_substep`: one
    update per upwind neighbour over the strided rows of the space axis."""
    older, younger = grid.rows(np.s_[1:]), grid.rows(np.s_[:-1])
    src = younger if grid.aligned else older
    decay = np.exp(-(mu_s[src] if g1 is None else g1[src] + mu_s[src]) * grid.dt)
    out = np.zeros_like(values)
    if grid.aligned:
        out[older] = values[younger] * decay
    else:
        c = grid.dt / grid.da
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
        out, cfl = transport_reaction_substep(vals, zeros, zeros, None, grid1d)
        assert cfl == 0.0
        expected = np.zeros_like(vals)
        expected[6] = 1.0
        assert np.array_equal(out, expected)

    def test_zero_field(self, grid1d):
        zeros = np.zeros(grid1d.field_shape)
        out, _ = transport_reaction_substep(zeros, zeros, zeros, None, grid1d)
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
            state, _ = transport_reaction_substep(state, g1, mu, None, grid1d)
        t = n * grid1d.dt
        expected = np.zeros_like(vals)
        expected[n:] = vals[:-n] * np.exp(-c * grid1d.dt) ** n
        assert np.allclose(state, expected, rtol=1e-12)

    def test_departure_cell_rate(self, grid1d):
        # age-dependent rate: the factor uses the source row, not the target
        rate = np.broadcast_to(grid1d.age_mesh, grid1d.field_shape).copy()
        vals = np.ones(grid1d.field_shape)
        zeros = np.zeros(grid1d.field_shape)
        out, _ = transport_reaction_substep(vals, rate, zeros, None, grid1d)
        expected = np.exp(-grid1d.ages[3] * grid1d.dt)
        assert out[4, 0] == pytest.approx(expected, rel=1e-15)

    def test_upwind_advection_direction(self, grid1d):
        zeros = np.zeros(grid1d.field_shape)
        vals = np.zeros(grid1d.field_shape)
        vals[:, 3] = 1.0
        g2 = (np.full(grid1d.field_shape, grid1d.dx[0] / grid1d.dt * 0.5),)
        out, cfl = transport_reaction_substep(
            vals, zeros, zeros, _advection(g2, grid1d), grid1d)
        assert cfl == pytest.approx(0.5)
        # positive velocity moves mass to the right
        assert out[5, 4] == pytest.approx(0.5)
        assert out[5, 3] == pytest.approx(0.5)

    def test_unaligned_grid(self):
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=32, n_a=32, extent=(1.0,), n_x=(4,))
        assert not grid.aligned  # dt = 1/64, da = 1/32
        vals = np.ones(grid.field_shape)
        zeros = np.zeros(grid.field_shape)
        out, _ = transport_reaction_substep(vals, zeros, zeros, None, grid)
        # interior of a constant profile is unchanged by the age upwind
        assert np.allclose(out[1:], 1.0, rtol=1e-15)
        assert np.all(out[0] == 0.0)

    def test_unaligned_cfl_violation(self):
        # dt = 1/128 < da = 1/16 is accepted; dt = 1/128 > da = 1/256 (same
        # T, n_t and a_max) is rejected where the grid is built
        grid = sa.Grid(T=0.5, a_max=2.0, n_t=64, n_a=32, extent=(1.0,), n_x=(4,))
        assert not grid.aligned and grid.dt < grid.da
        with pytest.raises(ConfigurationError, match="dt <= da"):
            sa.Grid(T=0.5, a_max=2.0, n_t=64, n_a=512, extent=(1.0,), n_x=(4,))


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
            vals, g1, mu, _advection(g2, grid), grid)
        assert cfl[1] == 0.0 and cfl[0] > 0.0 and cfl[2] > 0.0
        for j in range(3):
            weights = _advection(tuple(c[j] for c in g2), grid)
            assert (weights is None) == (j == 1)
            one, one_cfl = transport_reaction_substep(vals[j], g1[j], mu[j], weights, grid)
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
        for adv in (_advection(g2, grid), None):
            ours, cfl = transport_reaction_substep(vals, g1, mu, adv, grid)
            ref, ref_cfl = slice_transport(vals, g1, mu, adv, grid)
            assert ours.tobytes() == ref.tobytes()
            assert np.array_equal(cfl, ref_cfl)
        for j in range(3):   # one path alone, no path axis
            one = tuple(c[j] for c in g2)
            adv = _advection(one, grid)
            args = (vals[j], None if g1 is None else g1[j], mu[j], adv, grid)
            ours, _ = transport_reaction_substep(*args)
            assert ours.tobytes() == slice_transport(*args)[0].tobytes(), j

    def test_both_routes_reject_unaligned_step_above_age_step(self):
        # dt = 1/16 > da = 1/32: the age upwind would lose positivity, so no
        # route can be handed the grid; it fails where it is built
        with pytest.raises(ConfigurationError, match=r"dt <= da, got dt/da = 2 \(T = 0.5, n_t "
                                                     r"= 8, a_max = 1, n_a = 32\)"):
            sa.Grid(T=0.5, a_max=1.0, n_t=8, n_a=32, extent=(1.0,), n_x=(4,))


class ExpSpy:
    """numpy as :mod:`stochage.solver` sees it, keeping the size of every
    array that ``exp`` is called on."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.sizes.append(np.size(x))
        return np.exp(x, *args, **kwargs)


class TestCompactDecay:
    """A mortality reaches the transport at the shape of what it reads: one
    number per path for a rate of ``r`` alone, one number for a constant,
    one value per age for an age table or window."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("aligned", [True, False])
    @pytest.mark.parametrize("rescaled", [True, False])
    @pytest.mark.parametrize("advected", [True, False])
    @pytest.mark.parametrize("rate", [
        sa.LogisticRate(0.1, 0.5, 2.0, 0.5), sa.ConstantRate(0.4),
        sa.AgeWindowRate(0.25, 0.75, 0.8), sa.AgeProfileRate((0.0, 0.5, 1.0), (0.2, 1.0, 0.1)),
    ], ids=lambda r: type(r).__name__)
    def test_compact_mu_matches_the_broadcast_field_bitwise(self, dim, aligned, rescaled,
                                                            advected, rate, monkeypatch):
        # the same values, once at their own shape and once as a contiguous
        # field: every bit of the state and the CFL agree, for the batch and
        # for each path alone (no path axis); without g1 the exp runs on the
        # decay's own size, its age rows cut to those the decay multiplies
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=32, n_a=64 if aligned else 32,
                       extent=(1.0,) * dim, n_x=(9,) if dim == 1 else (6, 5))
        assert grid.aligned == aligned
        rng = np.random.default_rng(29)
        shape = (3,) + grid.field_shape
        u, vals = rng.normal(0.0, 2.0, 3), rng.random(shape)
        g1 = rng.normal(0.0, 3.0, shape) if rescaled else None
        g2 = tuple(0.45 * grid.dx[ax] / grid.dt * rng.uniform(-1.0, 1.0, shape)
                   for ax in range(dim)) if advected else None
        reads_age = isinstance(rate, (sa.AgeWindowRate, sa.AgeProfileRate))
        own = (grid.n_a + 1 if reads_age else 1,) + (1,) * dim
        spy = ExpSpy()
        monkeypatch.setattr(solver, "np", spy)
        for j in (None, 0, 1, 2):
            pick = (lambda a: a) if j is None else (lambda a: a[j])
            mu = evaluate_on_grid(rate, grid, 0.1, u if j is None else float(u[j]))
            per_path = j is None and isinstance(rate, sa.LogisticRate)
            assert mu.shape == (3,) * per_path + own
            adv = None if g2 is None else _advection(tuple(map(pick, g2)), grid)
            args = (pick(vals), None if g1 is None else pick(g1))
            full = np.ascontiguousarray(np.broadcast_to(mu, args[0].shape))
            spy.sizes.clear()
            ours, cfl = transport_reaction_substep(*args, mu, adv, grid)
            older = grid.rows(np.s_[1:])   # as many rows as the decay multiplies
            decay = mu[older] if reads_age else mu
            assert spy.sizes == [decay.size if g1 is None else args[0][older].size]
            ref, ref_cfl = transport_reaction_substep(*args, full, adv, grid)
            assert ours.tobytes() == ref.tobytes(), j
            assert np.array_equal(cfl, ref_cfl), j

    def test_direct_route_exponentiates_one_number_per_path(self, monkeypatch):
        # a batched direct march of a logistic mortality takes the transport's
        # exp of one number per path, never of a field
        grid = sa.Grid(T=0.25, a_max=1.0, n_t=8, n_a=32, extent=(1.0,), n_x=(6,))
        model = build_model(grid, logistic_rates())
        bundles = [sa.sample_bundle(seed, 1, grid.n_t, grid.T) for seed in range(4)]
        spy = ExpSpy()
        monkeypatch.setattr(solver, "np", spy)
        reports = sa.solve_direct_batch(model, bundles)
        assert all(isinstance(r, sa.SolveReport) for r in reports)
        assert spy.sizes == [len(bundles)] * grid.n_t


class TestDiffusion:
    def test_neumann_preserves_constants(self, grid1d):
        vals = np.full(grid1d.field_shape, 3.0)
        out = diffusion_substep(vals, zero_faces(grid1d), zero_faces(grid1d), grid1d)
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
            state = diffusion_substep(state, zero_faces(grid), zero_faces(grid), grid)
        assert np.allclose(state, factor ** 5 * vals, rtol=1e-12)

    def test_robin_monotone_in_alpha(self, grid1d):
        vals = np.ones(grid1d.field_shape)
        weak = diffusion_substep(vals, zero_faces(grid1d), zero_faces(grid1d), grid1d)
        alpha = {f: np.full_like(z, 5.0) for f, z in zero_faces(grid1d).items()}
        strong = diffusion_substep(vals, alpha, zero_faces(grid1d), grid1d)
        assert strong[0, 0] < weak[0, 0]
        assert strong[0, -1] < weak[0, -1]

    def test_negative_k_is_source(self, grid1d):
        vals = np.zeros(grid1d.field_shape)
        k = {f: np.full_like(z, -1.0) for f, z in zero_faces(grid1d).items()}
        out = diffusion_substep(vals, zero_faces(grid1d), k, grid1d)
        assert out[0, 0] > 0.0

    def test_2d_constant_preserved(self, grid2d):
        vals = np.full(grid2d.field_shape, 2.0)
        out = diffusion_substep(vals, zero_faces(grid2d), zero_faces(grid2d), grid2d)
        assert np.allclose(out, 2.0, rtol=1e-13)

    def test_single_cell_identity(self):
        grid = sa.Grid(T=0.5, a_max=1.0, n_t=8, n_a=16, extent=(1.0,), n_x=(1,))
        vals = np.random.default_rng(0).random(grid.field_shape)
        out = diffusion_substep(vals, zero_faces(grid), zero_faces(grid), grid)
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
            kept = diffusion_substep(vals, alpha, k, grid, factors)
            fresh = diffusion_substep(vals, alpha, k, grid)
            assert kept.tobytes() == np.ascontiguousarray(fresh).tobytes(), step
            for j in range(3):
                one = diffusion_substep(vals[j], alpha, k, grid)
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
        batch = diffusion_substep(vals, alpha, k, grid, DiffusionFactors())
        for j in range(3):
            one = diffusion_substep(vals[j], {f: a[j] for f, a in alpha.items()},
                                    {f: q[j] for f, q in k.items()}, grid)
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
        shared = factors.get(alpha, grid)
        last, last_n = factors.get(alpha, grid, (4,) + grid.field_shape), 4
        for n in (4, 2, 2, 1, 3):
            wide = factors.get(alpha, grid, (n,) + grid.field_shape)
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
        first = factors.get(alpha, grid1d)
        compares.clear()
        assert factors.get(alpha, grid1d) is first
        assert factors.get(dict(alpha), grid1d) is first
        assert not compares
        equal = {f: a.copy() for f, a in alpha.items()}
        assert factors.get(equal, grid1d) is first
        assert len(compares) == len(equal)
        compares.clear()
        assert factors.get(equal, grid1d) is first
        assert not compares
        changed = {**equal, Face(0, 1): equal[Face(0, 1)] + 0.1}
        assert factors.get(changed, grid1d) is not first
        assert compares

    def test_refactors_only_on_change(self, grid1d):
        factors = DiffusionFactors()
        alpha = {f: np.full_like(z, 0.2) for f, z in zero_faces(grid1d).items()}
        first = factors.get(alpha, grid1d)
        assert factors.get(dict(alpha), grid1d) is first
        alpha[Face(0, 1)] = alpha[Face(0, 1)] + 0.1
        changed = factors.get(alpha, grid1d)
        assert changed is not first
        # half the step (unaligned, dt < da), the same faces: a new factor
        finer = sa.Grid(grid1d.T, grid1d.a_max, 2 * grid1d.n_t, grid1d.n_a,
                        grid1d.extent, grid1d.n_x)
        assert factors.get(alpha, finer) is not changed

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
    def guard_of_one(radius, settle=None):
        return TruncationGuard(np.array([radius]), settle)

    @staticmethod
    def truncate(values, grid, guard, index):
        return truncate_argument(values, grid, guard, index, l2_norm(values, grid))

    def test_identity_branch(self, grid1d):
        guard = self.guard_of_one(4.0)
        vals = np.ones((1,) + grid1d.field_shape)  # norm 1 < 4
        out = self.truncate(vals, grid1d, guard, [0])
        assert out is vals
        assert guard.activations[0] == 0

    def test_scaling_branch(self, grid1d):
        guard = self.guard_of_one(1.0)
        vals = np.full((1,) + grid1d.field_shape, 2.0)  # norm 2 > 1
        out = self.truncate(vals, grid1d, guard, [0])
        assert guard.activations[0] == 1
        assert sa.l2_norm(out[0], grid1d) == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(out, vals / 2.0, rtol=1e-14)

    def test_continuity_at_radius(self, grid1d):
        vals = np.full((1,) + grid1d.field_shape, 2.0)
        norm = sa.l2_norm(vals[0], grid1d)
        guard = self.guard_of_one(norm)
        out = self.truncate(vals, grid1d, guard, [0])
        assert out is vals  # boundary case takes the identity branch
        scaled = vals * (norm / norm)
        assert np.allclose(out, scaled, rtol=1e-15)

    def test_warns_per_clipped_path_of_a_radius_from_the_bound(
            self, grid1d, linear_model, caplog):
        settle = solver._bound_guard(RescaledCoefficients(linear_model, bundles_for(
            linear_model, 1)), sa.SolverConfig(), linear_model.p0[None]).settle
        # constant fields of norm 0.5, 2 and 3
        vals = np.stack([np.full(grid1d.field_shape, c) for c in (0.5, 2.0, 3.0)])

        def warnings(guard, values, index):
            caplog.clear()
            with caplog.at_level("WARNING", logger="stochage.solver"):
                self.truncate(values, grid1d, guard, index)
            return [r for r in caplog.records if r.name == "stochage.solver"]

        assert len(warnings(self.guard_of_one(1.0, settle), vals[1:2], [0])) == 1
        batch = TruncationGuard(np.ones(3), settle)
        assert len(warnings(batch, vals, np.arange(3))) == 2
        # the values hold paths 0, 2 and 3 of a batch of four
        batch = TruncationGuard(np.array([1.0, 1.0, 5.0, 1.0]), settle)
        assert len(warnings(batch, vals, np.array([0, 2, 3]))) == 1
        assert batch.activations.tolist() == [0, 0, 0, 1]
        # a fixed radius has no settle and clips silently
        fixed = TruncationGuard(np.ones(3))
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
        assert np.array_equal(rep.snapshots[-1], ref.snapshots[-1])

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
        grid = linear_model.grid
        bundle = sa.sample_bundle(3, 1, grid.n_t, grid.T)
        cfg = sa.SolverConfig(snapshot_stride=1)
        rep = sa.solve_rescaled(linear_model, bundle, cfg)
        coeffs = RescaledCoefficients(linear_model, [bundle])
        gamma_vals = evaluate_gamma(linear_model.rates, grid)
        step = sa.picard_step_solve(linear_model.p0[None].copy(), 1, coeffs, gamma_vals,
                                    TruncationGuard(np.full(1, np.inf)), cfg,
                                    DiffusionFactors(), np.arange(1))
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
        assert np.max(np.abs(rep.snapshots[-1] - oracle)) <= 1e-12 * np.max(oracle)

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
        assert rep.truncations > 0

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
        assert np.all(np.isfinite(rep.snapshots[-1]))


def reference_guard(model, coeffs, cfg):
    """The guard of a one-path reference march: ``cfg``'s fixed radius, or
    the energy bound of the sups ``coeffs`` has built so far, from ``-inf``
    and refreshed whenever a candidate passes it."""
    if cfg.truncation_radius is not None:
        return TruncationGuard(np.array([cfg.truncation_radius]))

    def settle(paths):
        assert list(paths) == [0]
        (sups,) = coeffs.sups_so_far()
        try:
            guard.radius[0] = sa.constants_for_run(model, sups, c0=cfg.c0, c1=cfg.c1).n0
        except sa.StochageError as exc:
            guard.radius[0] = np.nan
            return {0: exc}
        return {}

    guard = TruncationGuard(np.array([-np.inf]), settle)
    return guard


def march_without_path_axis(model, bundle, cfg):
    """Final state, steps, guard, coefficient sups and error of a reference
    march of one path, as a batch of one stepped outside the shared march
    with :func:`reference_guard`.  The error is the first a step gives, when
    the march stops, else that of the whole-path bound (``None`` if neither)."""
    coeffs = RescaledCoefficients(model, [bundle])
    coeffs.k_faces(0), coeffs.node_fields(0)   # node 0, which the steps do not build
    gamma = evaluate_gamma(model.rates, model.grid)
    guard = reference_guard(model, coeffs, cfg)
    y, steps, factors, error = model.p0[None].copy(), [], DiffusionFactors(), None
    for n in range(1, model.grid.n_t + 1):
        steps.append(sa.picard_step_solve(y, n, coeffs, gamma, guard, cfg, factors,
                                          np.arange(1)))
        y = steps[-1].state
        if steps[-1].failed:
            (error,) = steps[-1].failed.values()
            break
        assert np.isfinite(l2_norm(y[0], model.grid))
    else:
        if guard.settle is not None:
            error = guard.settle([0]).get(0)
    return y[0], steps, guard, coeffs.sups_so_far()[0], error


def bundles_for(model, n, base=0):
    return [sa.sample_bundle(base + m, model.noise.n_modes, model.grid.n_t,
                             model.grid.T) for m in range(n)]


def clipping_model(tmp_path):
    """``sample1d`` with norms near 10 that pass the automatic radius of the
    early nodes in some paths, and a whole-path radius of 16 to 197."""
    path = tmp_path / "clipping.ini"
    path.write_text((MODELS / "sample1d.ini").read_text().replace(
        "p0 = ageexp:1.5,1.0", "p0 = ageexp:15,1.0").replace(
        "k0 = constant:0.0", "k0 = constant:0.05") + "c0 = 1.6e-2\n")
    return parse_model(path)


class TestSolveRescaledBatch:
    @pytest.mark.parametrize("name", ["sample1d", "sample2d", "clipping"])
    def test_batch_matches_one_path_march(self, name, tmp_path):
        model, cfg = (clipping_model(tmp_path) if name == "clipping"
                      else parse_model(MODELS / f"{name}.ini"))
        cfg = dataclasses.replace(cfg, snapshot_stride=1)
        bundles = bundles_for(model, 10)
        singles = [sa.solve_rescaled(model, b, cfg) for b in bundles]
        for rep, bundle in zip(singles, bundles):
            final, steps, guard, sups, error = march_without_path_axis(model, bundle, cfg)
            assert error is None
            assert rep.snapshots[-1].tobytes() == final.tobytes()
            assert rep.u_series[1:].tobytes() == np.array(
                [s.u_value for s in steps]).tobytes()
            assert rep.picard_iterations.tolist() == [s.iterations for s in steps]
            assert rep.contraction_ratios.tobytes() == np.array(
                [s.contraction_ratio for s in steps], dtype=float).tobytes()
            assert rep.cfl_max == max(s.cfl for s in steps)
            assert rep.truncations == guard.activations[0]
            assert rep.sups == sups == swept_sups(model, bundle)
            if guard.settle is not None:   # the reference's last radius, from the report's sups
                assert float(sa.constants_for_run(model, rep.sups, c0=cfg.c0,
                                                  c1=cfg.c1).n0) == guard.radius[0]
        if name == "sample1d":
            # paths leave the fixed point at different iterates
            iters = np.array([r.picard_iterations for r in singles])
            assert np.any(iters.min(axis=0) < iters.max(axis=0))
        if name == "clipping":
            # a path clips at the bound of the nodes its march has built
            assert 0 < sum(r.truncations > 0 for r in singles) < len(singles)
        for size in (3, 10):
            for lo in range(0, len(bundles), size):
                batch = sa.solve_rescaled_batch(model, bundles[lo:lo + size], cfg)
                assert len(batch) == len(bundles[lo:lo + size])
                for rep, single in zip(batch, singles[lo:lo + size]):
                    assert same(rep, single)

    def test_radius_clips_at_the_bound_of_the_nodes_built_so_far(self, tmp_path, monkeypatch):
        # a candidate norm within the bound of its path's whole sups but past
        # that of the nodes its march has built so far is clipped at exactly
        # the latter, as in a one-path march stepped here, and in any batch
        model, cfg = clipping_model(tmp_path)
        cfg = dataclasses.replace(cfg, snapshot_stride=1)
        bundles = bundles_for(model, 10)
        references = [march_without_path_axis(model, b, cfg) for b in bundles]
        clips, step, truncate = [], solver.picard_step_solve, solver.truncate_argument

        def stepping(y, t_index, *args):
            at[1] = t_index
            return step(y, t_index, *args)

        def recording(values, grid, guard, index, norm):   # each iterate, after its settle
            ((radius,), (n,)) = guard.radius[index], norm
            if n > radius:
                clips.append((*at, radius, n))
            return truncate(values, grid, guard, index, norm)

        monkeypatch.setattr(solver, "picard_step_solve", stepping)
        monkeypatch.setattr(solver, "truncate_argument", recording)
        singles = []
        for j, bundle in enumerate(bundles):   # at: the path and node of the solve
            at = [j, 0]
            singles.append(sa.solve_rescaled(model, bundle, cfg))
        monkeypatch.undo()
        clipped = {j for j, *_ in clips}
        assert 0 < len(clipped) < len(bundles)
        for j, t_index, radius, norm in clips:
            whole = sa.constants_for_run(model, singles[j].sups, c0=cfg.c0, c1=cfg.c1).n0
            so_far = sa.constants_for_run(model, swept_sups(model, bundles[j], last=t_index),
                                          c0=cfg.c0, c1=cfg.c1).n0
            assert radius == so_far < norm <= whole
        for j, (rep, (final, steps, guard, sups, error)) in enumerate(zip(singles, references)):
            assert error is None and sups == rep.sups
            assert rep.truncations == guard.activations[0] == sum(c[0] == j for c in clips)
            assert rep.snapshots[-1].tobytes() == final.tobytes()
            assert rep.u_series[1:].tobytes() == np.array([s.u_value for s in steps]).tobytes()
            assert rep.picard_iterations.tolist() == [s.iterations for s in steps]
        for size in (3, 10):
            for lo in range(0, len(bundles), size):
                batch = sa.solve_rescaled_batch(model, bundles[lo:lo + size], cfg)
                for rep, single in zip(batch, singles[lo:lo + size], strict=True):
                    assert same(rep, single)

    @pytest.mark.parametrize("max_iter", [2, 50])
    def test_a_path_ends_as_if_its_sups_were_swept_first(self, max_iter, tmp_path):
        # the same paths fail as when their sups are swept first, and each
        # with the first cause its march meets: the exp guard's, the bound's
        # of its nodes so far or the march's own, else its whole-path
        # bound's.  With 2 fixed-point iterates every march fails to converge
        # at an early step, before its bound overflows
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
                consts = swept_constants(model, bundle, c0=cfg.c0, c1=cfg.c1)
            except sa.StochageError:
                swept = None
            else:   # a march at its own fixed radius
                own = dataclasses.replace(cfg, truncation_radius=float(consts.n0))
                swept = sa.solve_rescaled_batch(model, [bundle], own)[0]
            assert (swept is None or isinstance(swept, sa.StochageError)) == isinstance(
                entry, sa.StochageError)
            final, steps, guard, sups, error = march_without_path_axis(model, bundle, cfg)
            if error is None:   # every field of the report, as its reference march gives it
                assert entry.snapshots[-1].tobytes() == final.tobytes() and entry.sups == sups
                assert entry.l2_series[1:].tobytes() == np.array(
                    [l2_norm(s.state[0], model.grid) for s in steps]).tobytes()
                assert entry.u_series[1:].tobytes() == np.array(
                    [s.u_value for s in steps]).tobytes()
                assert entry.picard_iterations.tolist() == [s.iterations for s in steps]
                assert entry.contraction_ratios.tobytes() == np.array(
                    [s.contraction_ratio for s in steps], dtype=float).tobytes()
                assert entry.cfl_max == max(s.cfl for s in steps)
                assert entry.truncations == guard.activations[0]
            else:
                assert type(entry) is type(error) and str(entry) == str(error)
            causes.add(type(entry))
        assert causes == ({NonconvergenceError} if max_iter == 2
                          else {sa.StochageError, sa.SolveReport})

    def test_a_path_leaves_at_the_step_its_completed_sups_fail(self, tmp_path, monkeypatch):
        # a norm past the radius refreshes it from the path's sups so far;
        # when their bound overflows, the radius is NaN and the path marches
        # no further step
        path = tmp_path / "loud.ini"
        path.write_text((MODELS / "sample1d.ini").read_text().replace(
            "mu1 = cosine:0.2:1", "mu1 = cosine:2.0:4"))
        model, cfg = parse_model(path)
        left, step = {}, solver.picard_step_solve

        def recording(y, t_index, coeffs, gamma, guard, config, factors, live, observer):
            assert not set(live.tolist()) & set(left)
            result = step(y, t_index, coeffs, gamma, guard, config, factors, live, observer)
            left.update((j, t_index) for j in live.tolist() if np.isnan(guard.radius[j]))
            return result

        monkeypatch.setattr(solver, "picard_step_solve", recording)
        cfg = dataclasses.replace(cfg, snapshot_stride=0)
        reports = sa.solve_rescaled_batch(model, bundles_for(model, 8), cfg)
        assert left and max(left.values()) < model.grid.n_t
        assert all(str(reports[j]).startswith("energy bound exponent") for j in left)

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
        clipped = [rep.truncations > 0 for rep in batch]
        assert 0 < sum(clipped) < len(batch)
        for rep, bundle in zip(batch, bundles):
            assert same(rep, sa.solve_rescaled(model, bundle, cfg))
            assert rep.sups == swept_sups(model, bundle)

    @pytest.mark.parametrize("name", ["sample1d", "sample2d"])
    def test_initial_stack_matches_one_path_solves_of_its_densities(self, name, monkeypatch):
        # check's batch: the stored density and two bumped copies on one
        # path; each is bitwise the one-path solve of a model carrying its
        # density, and its guard's radius is that of its own data energy
        model, cfg = parse_model(MODELS / f"{name}.ini")
        cfg = dataclasses.replace(cfg, snapshot_stride=1)
        bundle = bundles_for(model, 1)[0]
        p0 = np.stack([model.p0] + [_perturbed_model(model, d) for d in (1e-2, 5e-3)])
        guards, bound_guard = [], solver._bound_guard
        monkeypatch.setattr(solver, "_bound_guard",
                            lambda *args: guards.append(bound_guard(*args)) or guards[-1])
        energies, constants = [], solver.estimates.constants_for_run
        monkeypatch.setattr(solver.estimates, "constants_for_run", lambda *args, **kwargs: (
            energies.append(kwargs["y0_norm_sq"]), constants(*args, **kwargs))[1])
        batch = sa.solve_rescaled_batch(model, [bundle] * 3, cfg, p0)
        assert len(set(energies[:3])) == 3
        for j, (rep, row) in enumerate(zip(batch, p0, strict=True)):
            assert energies[j] == l2_norm(row, model.grid) ** 2
            own = dataclasses.replace(model, p0=row)
            assert same(rep, sa.solve_rescaled(own, bundle, cfg))
            assert rep.snapshots[0].tobytes() == row.tobytes()
            assert guards[0].radius[j] == guards[-1].radius[0] == sa.constants_for_run(
                own, rep.sups, c0=cfg.c0, c1=cfg.c1).n0

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
            assert all(rep.truncations > 0 for rep in plain)

    @pytest.mark.parametrize("name", ["sample1d", "loud"])
    def test_observer_sees_each_rows_own_coefficients(self, name, tmp_path):
        # paths of ten bundles leave the fixed point at different iterates,
        # which compacts the step's arrays in place, and on the loud model
        # some leave the march when their energy bound overflows; the observer
        # still gets each live row's own coefficients, node 0's included,
        # bitwise as a fresh build gives them, and the reports are those of the unobserved batch
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

    def test_node_zero_coefficients_die_after_the_observer_saw_them(self):
        # no frame of the march keeps node 0's (g1, g2, exp_dw0, k) past the
        # observer's node-0 call; each later node's die at the node after it
        model, cfg = parse_model(MODELS / "sample1d.ini", coarsen=4)
        refs, alive = [], []

        def observer(i, states, paths, u, coefficients):
            g1, g2, exp_dw0, k = coefficients
            alive.append([ref() is not None for ref in refs])
            refs[:] = [weakref.ref(a) for a in (g1, *g2, exp_dw0, *k.values())]

        reports = sa.solve_rescaled_batch(model, bundles_for(model, 3), cfg, observer=observer)
        assert all(isinstance(rep, sa.SolveReport) for rep in reports)
        assert len(alive) == model.grid.n_t + 1
        assert not any(any(seen) for seen in alive)

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
        assert [rep.truncations > 0 for rep in batch] == [False, False, True]
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
