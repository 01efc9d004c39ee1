"""Acceptance suite: one test per acceptance criterion, desk scale.

Each test prints a single ``criterion N: PASS/FAIL`` line with the
measured numbers so the suite output doubles as a report.  Configurations
and seeds are frozen; every expected value below was computed from an
independent oracle (closed forms, an independently coded recursion, or a
pre-registered measurement design), never from the code under test.
"""

import numpy as np

import stochage as sa
from stochage.ensemble import fit_order, path_chunks, path_seed
from stochage.noise import coarsen, evaluate_noise
from stochage.rescale import densities

from conftest import (build_model, linear_rates, logistic_rates, sample, smooth_p0,
                      swept_constants)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    return ok


def aligned_grid(n_t, n_x, T=0.5, a_max=1.0):
    return sa.Grid(T=T, a_max=a_max, n_t=n_t, n_a=int(round(a_max / (T / n_t))),
                   extent=(1.0,), n_x=(n_x,))


def const_age_p0(grid, value=2.0):
    return sample(grid, lambda a, x: np.full(
        np.broadcast_shapes(np.shape(a), np.shape(x)), value))


# ---------------------------------------------------------------------------
# 1. cross-route equivalence under time refinement


def equivalence_model(n_t):
    grid = aligned_grid(n_t, 16)
    rates = sa.VitalRates(
        mu_s=sa.ConstantRate(0.3), m0=sa.ConstantRate(0.6),
        gamma=sa.ConstantRate(0.0), alpha0=sa.ConstantRate(0.2),
        k0=sa.ConstantRate(2.0))
    return build_model(grid, rates=rates,
                       amplitudes=(sa.constant_amplitude(0.15, 1),
                                   sa.age_polynomial_amplitude((0.1, 0.1), 1)),
                       p0=smooth_p0(grid))


def test_criterion_01_rescaling_equivalence():
    levels = [64, 128, 256, 512]
    n_fine = levels[-1]
    n_paths = 8
    models = {n_t: equivalence_model(n_t) for n_t in levels}
    masters = [sa.sample_bundle(300 + m, 2, n_fine, 0.5) for m in range(n_paths)]
    cfg = sa.SolverConfig(snapshot_stride=0)
    pair = np.zeros((n_paths, len(levels)))
    rel_finest = np.zeros(n_paths)
    for i, n_t in enumerate(levels):
        model = models[n_t]
        bundles = [coarsen(master, n_fine // n_t) for master in masters]
        reps_r = sa.solve_rescaled_batch(model, bundles, cfg)
        reps_d = sa.solve_direct_batch(model, bundles, cfg)
        for m, (bundle, rep_r, rep_d) in enumerate(zip(bundles, reps_r, reps_d)):
            p_r = densities(rep_r, model)[-1]
            pair[m, i] = sa.l2_norm(rep_d.snapshots[-1] - p_r, model.grid)
            if i == len(levels) - 1:
                rel_finest[m] = pair[m, i] / sa.l2_norm(p_r, model.grid)
    mean_pair = pair.mean(axis=0)
    order = fit_order([0.5 / n for n in levels], mean_pair)
    rel = float(rel_finest.mean())
    ok = (order >= 0.5) and np.all(np.diff(mean_pair) < 0) and rel <= 1e-2
    assert report(1, ok,
                  f"route difference order {order:.3f} (>= 0.5), "
                  f"finest relative difference {rel:.2e} (<= 1e-2)")


# ---------------------------------------------------------------------------
# 2. scalar exact-solution oracle


def gbm_model(n_t):
    grid = aligned_grid(n_t, 1)
    return build_model(grid, rates=sa.VitalRates(),
                       amplitudes=(sa.constant_amplitude(1.0, 1),),
                       p0=const_age_p0(grid))


def test_criterion_02a_scalar_oracle_rescaled_exact():
    n_t = 512
    model = gbm_model(n_t)
    bundle = sa.sample_bundle(17, 1, n_t, 0.5)
    rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=0))
    nf = evaluate_noise(model.noise, [bundle], n_t, model.grid)
    # age rows beyond the reach of the birth boundary carry the scalar
    # solution; the closed form is the oracle
    probe = np.exp(nf.value[0, -1, 0]) * rep.snapshots[-1][-1, 0]
    exact = 2.0 * np.exp(bundle.betas[0, -1] - 0.5 / 2)
    err = abs(probe - exact) / abs(exact)
    assert report("2a", err <= 1e-12,
                  f"rescaled route relative error {err:.2e} (<= 1e-12)")


def test_criterion_02b_scalar_oracle_em_order():
    """The stated window is order 1 +- 0.2.  The direct route's default
    Milstein factor 1 + dB + ((dB)^2 - dt)/2 carries the quadratic-variation
    correction that the Euler update 1 + dB misses, so its strong order for
    this equation is 1 (Euler's would be 1/2).  128 paths make the estimate
    a property of the scheme rather than of the seed family: with 16 paths
    it ranged over 0.65-1.16 across seed families."""
    n_fine = 256
    levels = [32, 64, 128, 256]
    n_paths = 128
    masters = [sa.sample_bundle(400 + m, 1, n_fine, 0.5) for m in range(n_paths)]
    exact = np.array([2.0 * np.exp(b.betas[0, -1] - 0.25) for b in masters])
    errs = np.zeros((n_paths, len(levels)))
    for i, n_t in enumerate(levels):
        reps = sa.solve_direct_batch(
            gbm_model(n_t), [coarsen(b, n_fine // n_t) for b in masters],
            sa.SolverConfig(snapshot_stride=0))
        errs[:, i] = np.abs([rep.snapshots[-1][-1, 0] for rep in reps] - exact)
    order = fit_order([0.5 / n for n in levels], errs.mean(axis=0))
    ok = 0.8 <= order <= 1.2
    assert report("2b", ok,
                  f"direct route strong order {order:.3f} "
                  f"(stated window [0.8, 1.2]; true order for this scheme is 1)")


# ---------------------------------------------------------------------------
# 3. characteristics oracle


def test_criterion_03a_characteristics_exact():
    n_t = 256
    grid = aligned_grid(n_t, 1)
    mu = 0.4
    p0 = sample(grid, lambda a, x: np.broadcast_to(
        np.exp(-((a - 0.4) / 0.15) ** 2),
        np.broadcast_shapes(np.shape(a), np.shape(x))))
    model = build_model(grid, rates=sa.VitalRates(mu_s=sa.ConstantRate(mu)),
                        amplitudes=(sa.constant_amplitude(0.0, 1),), p0=p0)
    bundle = sa.sample_bundle(0, 1, n_t, grid.T)
    rep = sa.solve_rescaled(model, bundle,
                            sa.SolverConfig(snapshot_stride=0,
                                            include_diffusion=False))
    oracle = np.zeros(grid.field_shape)
    oracle[n_t:] = p0[:-n_t] * np.exp(-mu * grid.dt) ** n_t
    err = np.max(np.abs(rep.snapshots[-1] - oracle)) / np.max(oracle)
    assert report("3a", err <= 1e-12,
                  f"aligned shift against characteristics, relative error "
                  f"{err:.2e} (<= 1e-12)")


def diffusive_model(n_t):
    grid = aligned_grid(n_t, 24)
    rates = sa.VitalRates(mu_s=sa.ConstantRate(0.4), alpha0=sa.ConstantRate(0.3))
    p0 = sample(grid, lambda a, x: np.exp(-((a - 0.4) / 0.15) ** 2)
                                * (1 + 0.3 * np.cos(np.pi * x)))
    return build_model(grid, rates=rates,
                       amplitudes=(sa.constant_amplitude(0.0, 1),), p0=p0)


def test_criterion_03b_diffusive_self_convergence():
    seq = [32, 64, 128, 256, 512]
    finals = {}
    for n_t in seq:
        model = diffusive_model(n_t)
        bundle = sa.sample_bundle(0, 1, n_t, model.grid.T)
        rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=0))
        finals[n_t] = (rep.snapshots[-1], model)
    diffs, dts = [], []
    for a, b in zip(seq[:-1], seq[1:]):
        coarse, model = finals[a]
        fine, _ = finals[b]
        diffs.append(sa.l2_norm(coarse - fine[::2], model.grid))
        dts.append(model.grid.dt)
    order = fit_order(dts, diffs)
    ok = 0.9 <= order <= 1.1
    assert report("3b", ok,
                  f"self-convergence order with diffusion {order:.3f} "
                  f"(window [0.9, 1.1])")


# ---------------------------------------------------------------------------
# 4. deterministic reduction


def test_criterion_04_deterministic_reduction():
    grid = aligned_grid(32, 8)
    model = build_model(grid, amplitudes=(sa.constant_amplitude(0.0, 1),))
    trajs = {}
    for solver in ("rescaled", "direct"):
        for seed in (1, 999):
            bundle = sa.sample_bundle(seed, 1, grid.n_t, grid.T)
            fn = sa.solve_rescaled if solver == "rescaled" else sa.solve_direct
            rep = fn(model, bundle, sa.SolverConfig(snapshot_stride=1))
            trajs[(solver, seed)] = rep.snapshots
    ok = (np.array_equal(trajs[("rescaled", 1)], trajs[("rescaled", 999)])
          and np.array_equal(trajs[("direct", 1)], trajs[("direct", 999)]))
    assert report(4, ok, "zero amplitudes: trajectories bit-identical across seeds "
                         "for both solvers")


# ---------------------------------------------------------------------------
# regression suite shared by criteria 5 and 7


def observed_solve(model, bundle, p0=None):
    """Reports of a rescaled batch on ``bundle`` (one run per row of ``p0``,
    else the model's) and the estimates its march gathered, at stride 0."""
    acc = sa.EstimateAccumulator(model)
    n = 1 if p0 is None else len(p0)
    reports = sa.solve_rescaled_batch(model, [bundle] * n, sa.SolverConfig(snapshot_stride=0),
                                      p0, observer=acc)
    assert all(isinstance(r, sa.SolveReport) for r in reports)
    return reports, acc


def regression_runs():
    """Frozen desk-scale suite: linear/nonlinear, quiet/noisy."""
    runs = []
    grid = aligned_grid(32, 8)
    for rates, label in ((linear_rates(k0=0.1), "linear"),
                         (logistic_rates(), "logistic")):
        for amps, noise_label in (
                ((sa.constant_amplitude(0.0, 1),), "quiet"),
                ((sa.cosine_amplitude(0.2, (1,), (1.0,)),
                  sa.age_polynomial_amplitude((0.1, 0.1), 1)), "noisy")):
            model = build_model(grid, rates=rates, amplitudes=amps,
                                p0=smooth_p0(grid))
            n_modes = len(amps)
            bundle = sa.sample_bundle(5, n_modes, grid.n_t, grid.T)
            (rep,), acc = observed_solve(model, bundle)
            runs.append((f"{label}/{noise_label}", model, bundle, rep, acc))
    return runs


def test_criterion_05_apriori_bound():
    worst = -np.inf
    for label, model, bundle, rep, acc in regression_runs():
        consts = sa.constants_for_run(model, rep.sups)  # c0 = c1 = 1 frozen
        margins = sa.apriori_check(acc, consts)
        worst = max(worst, float(np.max(margins)))
    ok = worst <= 1.0
    assert report(5, ok,
                  f"energy-bound margin max {worst:.3f} over the regression "
                  f"suite (<= 1, calibration c0 = c1 = 1)")


def test_criterion_07_truncation_threshold():
    activations_at_n0 = 0
    for label, model, bundle, rep, acc in regression_runs():
        activations_at_n0 += rep.truncations
    # force a radius far below the solution norm: the guard must fire
    grid = aligned_grid(32, 6, T=0.25, a_max=0.5)
    rates = sa.VitalRates(mu_s=sa.ConstantRate(0.2), m0=sa.ConstantRate(0.5),
                          gamma=sa.ConstantRate(0.5), alpha0=sa.ConstantRate(0.1),
                          k0=sa.ConstantRate(0.0))
    model = build_model(grid, rates=rates,
                        amplitudes=(sa.constant_amplitude(0.2, 1),),
                        p0=const_age_p0(grid, 6.0))
    bundle = sa.sample_bundle(9, 1, grid.n_t, grid.T)
    consts = swept_constants(model, bundle)
    rep_small = sa.solve_rescaled(
        model, bundle, sa.SolverConfig(snapshot_stride=0,
                                       truncation_radius=consts.n0 / 100))
    ok = activations_at_n0 == 0 and rep_small.truncations > 0
    assert report(7, ok,
                  f"0 activations at the derived radius across the suite; "
                  f"{rep_small.truncations} activations at radius/100 "
                  f"(threshold {consts.n0})")


# ---------------------------------------------------------------------------
# 6. continuous dependence


def test_criterion_06_continuous_dependence():
    grid = aligned_grid(64, 8)
    base = smooth_p0(grid)
    model = build_model(grid, p0=base)
    bundle = sa.sample_bundle(5, 1, grid.n_t, grid.T)
    bump = sample(
        grid, lambda a, x: np.exp(-((a - 0.3) / 0.2) ** 2) + 0 * x)
    # the stored run and the three bumped runs share the noise path: one batch
    deltas = (1e-2, 5e-3, 2.5e-3)
    (rep, *_), acc = observed_solve(model, bundle, np.stack(
        [base] + [base + delta * bump for delta in deltas]))
    consts = sa.constants_for_run(model, rep.sups)
    ratios = [sa.dependence_check(acc, j, consts).ratio for j in range(1, len(deltas) + 1)]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    ok = spread <= 0.10
    assert report(6, ok,
                  f"difference-energy/data ratio spread {spread:.2e} across "
                  f"delta halvings (<= 0.10)")


# ---------------------------------------------------------------------------
# 8. fixed-point behavior


def test_criterion_08_picard_behavior():
    grid = aligned_grid(64, 8)
    lin = build_model(grid, rates=linear_rates())
    bundle = sa.sample_bundle(3, 1, grid.n_t, grid.T)
    rep_lin = sa.solve_rescaled(lin, bundle, sa.SolverConfig())
    nl = build_model(grid, rates=logistic_rates(),
                     p0=smooth_p0(grid, decay=0.5))
    rep_nl = sa.solve_rescaled(nl, bundle, sa.SolverConfig())
    ratios = rep_nl.contraction_ratios[np.isfinite(rep_nl.contraction_ratios)]
    ok = (np.all(rep_lin.picard_iterations == 1)
          and rep_nl.picard_iterations.max() <= 10
          and len(ratios) > 0 and float(ratios.max()) < 1.0)
    assert report(8, ok,
                  f"linear model: 1 iteration/step; logistic model: max "
                  f"{rep_nl.picard_iterations.max()} iterations, contraction "
                  f"ratio max {ratios.max():.3g} (< 1)")


# ---------------------------------------------------------------------------
# 9. positivity


def test_criterion_09_positivity():
    grid = aligned_grid(48, 8)
    model = build_model(grid, rates=logistic_rates(),
                        amplitudes=(sa.cosine_amplitude(0.2, (1,), (1.0,)),),
                        p0=smooth_p0(grid, ripple=0.999))
    bundle = sa.sample_bundle(21, 1, grid.n_t, grid.T)
    rep = sa.solve_rescaled(model, bundle, sa.SolverConfig(snapshot_stride=1))
    low = float(rep.snapshots.min())
    ok = low >= 0.0 and rep.cfl_max <= 1.0
    assert report(9, ok,
                  f"minimum over all cells and times {low:.3e} (>= 0 exactly, "
                  f"advection CFL {rep.cfl_max:.2f})")


# ---------------------------------------------------------------------------
# 10. mean consistency of the direct route


def test_criterion_10_mean_consistency():
    n_t = 16
    grid = sa.Grid(T=0.25, a_max=0.25, n_t=n_t, n_a=n_t, extent=(1.0,), n_x=(4,))
    rates = linear_rates(m0=0.8, alpha=0.1)
    p0 = smooth_p0(grid, decay=2.0, ripple=0.3)
    noisy = build_model(grid, rates=rates, p0=p0,
                        amplitudes=(sa.cosine_amplitude(0.3, (1,), (1.0,)),))
    quiet = build_model(grid, rates=rates, p0=p0,
                        amplitudes=(sa.constant_amplitude(0.0, 1),))
    det = sa.solve_direct(quiet, sa.sample_bundle(0, 1, n_t, grid.T),
                          sa.SolverConfig(snapshot_stride=0)).snapshots[-1]

    M = 10_000
    cfg = sa.SolverConfig(snapshot_stride=0)
    count = 0
    mean = np.zeros(grid.field_shape)
    m2 = np.zeros(grid.field_shape)
    # the ensemble's chunks, each marched as one array; the Welford update
    # runs in path order
    for chunk in path_chunks(M, grid):
        bundles = [sa.sample_bundle(path_seed(12345, m), 1, n_t, grid.T)
                   for m in chunk]
        reports = sa.solve_direct_batch(noisy, bundles, cfg)
        if chunk.start == 0:
            for bundle, rep in list(zip(bundles, reports))[:50]:
                one = sa.solve_direct(noisy, bundle, cfg).snapshots[-1]
                assert rep.snapshots[-1].tobytes() == one.tobytes()
        for rep in reports:
            x = rep.snapshots[-1]
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
    half = 2.5758293035489004 * np.sqrt(m2 / (M - 1) / M)

    rng = np.random.default_rng(0)
    cells = set()
    while len(cells) < 20:
        cells.add((int(rng.integers(0, n_t + 1)), int(rng.integers(0, 4))))
    inside = [abs(mean[c] - det[c]) <= half[c] for c in sorted(cells)]
    ok = all(inside)
    assert report(10, ok,
                  f"ensemble mean (M = {M}) within the 99% band at "
                  f"{sum(inside)}/20 probe cells")


# ---------------------------------------------------------------------------
# 11. weak residual decay


def test_criterion_11_weak_residual_order():
    master = sa.sample_bundle(4, 1, 128, 0.5)
    residuals, steps = [], []
    for n_t, n_x in ((32, 8), (64, 16), (128, 32)):
        grid = aligned_grid(n_t, n_x)
        model = build_model(grid, rates=linear_rates(k0=0.1),
                            amplitudes=(sa.cosine_amplitude(0.2, (1,), (1.0,)),),
                            p0=smooth_p0(grid))
        bundle = coarsen(master, 128 // n_t)
        _, acc = observed_solve(model, bundle)
        residuals.append(acc.weak_residual().max_abs)
        steps.append(grid.dt)
    order = fit_order(steps, residuals)
    ok = order >= 0.9
    assert report(11, ok,
                  f"weak-residual decay order {order:.3f} under simultaneous "
                  f"halving (>= 0.9)")
