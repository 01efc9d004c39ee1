"""Command-line interface.

Subcommands: ``ensemble`` (one or both solvers over Monte Carlo paths),
``compare`` (both solvers on one path), ``convergence`` (fixed-path
refinement study), ``check`` (estimate checks).

Exit codes, set here only: 0 all good, 1 solver failure (a failed
ensemble path too), 2 check failure, 3 bad configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import estimates
from .errors import ConfigurationError, StochageError
from .fileio import (ensure_dir, save_bundle, save_field, write_check_report,
                     write_series_csv)
from .grid import l2_norm
from .oracle import solve_direct
from .rescale import densities
from .solver import _only, solve_rescaled, solve_rescaled_batch

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CHECK = 2
EXIT_CONFIG = 3


def _common(parser: argparse.ArgumentParser, level: bool = True):
    parser.add_argument("--model", required=True, help="model definition file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    if level:
        parser.add_argument("--level", type=int, default=0,
                            help="power-of-two coarsening level of the master grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochage",
        description="Pathwise solvers for noisy age-structured population models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ens = sub.add_parser("ensemble", help="Monte Carlo ensemble statistics")
    _common(p_ens)
    p_ens.add_argument("--stride", type=int, default=0,
                       help="snapshot stride (0 keeps first/last only)")
    p_ens.add_argument("--paths", type=int, default=1, help="ensemble size")
    p_ens.add_argument("--workers", type=int, default=1, help="worker processes")
    p_ens.add_argument("--solver", default="direct",
                       choices=["rescaled", "direct", "both"])
    p_ens.add_argument("--save-bundle", action="store_true",
                       help="export the Brownian bundle of path 0")
    p_ens.set_defaults(handler=_cmd_ensemble)

    p_cmp = sub.add_parser("compare", help="both solvers on one fixed path")
    _common(p_cmp)
    p_cmp.set_defaults(handler=_cmd_compare)

    p_conv = sub.add_parser("convergence", help="fixed-path refinement study")
    _common(p_conv, level=False)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.set_defaults(handler=_cmd_convergence)

    p_chk = sub.add_parser("check", help="estimate checks on one model")
    _common(p_chk, level=False)
    p_chk.set_defaults(handler=_cmd_check)
    return parser


def _cmd_ensemble(args) -> int:
    stats = ens.run(ens.RunConfig(
        model_path=args.model, solver=args.solver, level=args.level,
        n_paths=args.paths, base_seed=args.seed, out_dir=args.out,
        snapshot_stride=args.stride, workers=args.workers))
    if args.save_bundle:
        save_bundle(Path(args.out) / "bundle_path00000.bin",
                    ens.path_bundle(args.model, args.level, args.seed, [0])[0])
    return EXIT_SOLVER if stats.failures else EXIT_OK


def _cmd_compare(args) -> int:
    model, cfg = ens._cached_model(args.model, 2 ** args.level)
    bundle = ens.path_bundle(args.model, args.level, args.seed, [0])[0]
    cfg = dataclasses.replace(cfg, snapshot_stride=0)
    rep_r = solve_rescaled(model, bundle, cfg)
    rep_d = solve_direct(model, bundle, cfg)
    p_r = densities(rep_r, model)[-1]
    p_d = rep_d.final
    out = ensure_dir(args.out)
    save_field(out / "final_rescaled.bin", p_r)
    save_field(out / "final_direct.bin", p_d)
    diff = l2_norm(p_d - p_r, model.grid)
    rel = estimates._ratio(diff, l2_norm(p_r, model.grid))
    write_series_csv(out / "compare.csv", {
        "quantity": np.array(["l2_diff_final", "l2_diff_final_rel"]),
        "value": np.array([diff, rel])})
    for name, rep in (("rescaled", rep_r), ("direct", rep_d)):
        write_series_csv(out / f"series_{name}.csv", {
            "t": rep.grid.times, "l2_norm": rep.l2_series, "u_value": rep.u_series,
            "births": rep.births_series})
    return EXIT_OK


def _cmd_convergence(args) -> int:
    ens.convergence_study(args.model, args.levels, seed=args.seed,
                          out_dir=args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .rates import validate_rates

    model, cfg = ens._cached_model(args.model, 1)
    bundle = ens.path_bundle(args.model, 0, args.seed, [0])[0]
    cfg = dataclasses.replace(cfg, snapshot_stride=0)
    # one batch of the stored run and its bumped runs, which share grid, rates
    # and noise path; each error is raised where its one-path solve would be
    p0 = np.stack([model.p0] + [_perturbed_model(model, d) for d in (1e-2, 5e-3)])
    fine = estimates.EstimateAccumulator(model)
    report, *perturbed = solve_rescaled_batch(model, [bundle] * 3, cfg, p0, observer=fine)
    report = _only([report])
    consts = report.guard.constants
    if consts is None:  # a fixed radius keeps no energy-bound constants
        consts = estimates.constants_for_run(model, bundle, c0=cfg.c0, c1=cfg.c1)
    rows = [
        estimates.CheckRow("rate_validation_violations",
                           len(validate_rates(model.rates, model.grid)), 0),
        estimates.CheckRow("apriori_margin_max",
                           np.max(estimates.apriori_check(fine, consts)), 1.0),
        estimates.CheckRow("truncation_activations", report.guard.activations, 0)]

    # continuous dependence: quadratic scaling in an initial-data bump
    for rep2 in perturbed:   # raises a bumped run's error
        _only([rep2])
    ratios = [estimates.dependence_check(fine, j, consts).ratio for j in (1, 2)]
    drift = abs(ratios[0] - ratios[1]) / max(abs(ratios[0]), 1e-300)
    rows.append(estimates.CheckRow("dependence_ratio_drift", drift, 0.10))

    # weak residual decreases under one refinement of the stored run
    coarse_model, coarse_cfg = ens._cached_model(args.model, 2)
    coarse_cfg = dataclasses.replace(coarse_cfg, snapshot_stride=0)
    coarse = estimates.EstimateAccumulator(coarse_model)
    _only(solve_rescaled_batch(coarse_model, ens.path_bundle(args.model, 1, args.seed, [0]),
                               coarse_cfg, observer=coarse))
    rows.append(estimates.CheckRow(
        "weak_residual_refinement_ratio",
        fine.weak_residual().max_abs / max(coarse.weak_residual().max_abs, 1e-300), 0.75))

    out = ensure_dir(args.out)
    write_check_report(out / "checks.csv", rows)
    return EXIT_OK if all(r.passed for r in rows) else EXIT_CHECK


def _perturbed_model(model, delta: float) -> np.ndarray:
    """The initial density of ``model`` plus an age bump of height ``delta``."""
    a, a_max = model.grid.age_mesh, model.grid.a_max
    return model.p0 + delta * np.exp(-((a - 0.3 * a_max) / (0.2 * a_max)) ** 2)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if getattr(args, "level", 0) < 0:
            raise ConfigurationError(f"--level must be at least 0, got {args.level}")
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StochageError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
