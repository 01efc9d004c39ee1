"""Command-line interface.

Subcommands: ``run`` (ensemble or single path), ``compare`` (both solvers
on one path), ``convergence`` (fixed-path refinement study), ``ensemble``
(alias of run with paths > 1 semantics), ``check`` (estimate checks).

Exit codes: 0 all good, 1 solver failure, 2 check failure, 3 bad
configuration.
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
from .solver import solve_rescaled

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CHECK = 2
EXIT_CONFIG = 3


def _common(parser: argparse.ArgumentParser, paths: bool = False,
            level: bool = True):
    parser.add_argument("--model", required=True, help="model definition file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    if level:
        parser.add_argument("--level", type=int, default=0,
                            help="power-of-two coarsening level of the master grid")
        parser.add_argument("--stride", type=int, default=0,
                            help="snapshot stride (0 keeps first/last only)")
    if paths:
        parser.add_argument("--paths", type=int, default=1, help="ensemble size")
        parser.add_argument("--workers", type=int, default=1,
                            help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochage",
        description="Pathwise solvers for noisy age-structured population models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the selected solver over an ensemble")
    _common(p_run, paths=True)
    p_run.add_argument("--solver", default="rescaled",
                       choices=["rescaled", "direct", "both"])
    p_run.add_argument("--save-bundle", action="store_true",
                       help="export the Brownian bundle of path 0")

    p_cmp = sub.add_parser("compare", help="both solvers on one fixed path")
    _common(p_cmp)

    p_conv = sub.add_parser("convergence", help="fixed-path refinement study")
    p_conv.add_argument("--model", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--levels", type=int, default=3)

    p_ens = sub.add_parser("ensemble", help="Monte Carlo ensemble statistics")
    _common(p_ens, paths=True)
    p_ens.add_argument("--solver", default="direct",
                       choices=["rescaled", "direct", "both"])

    p_chk = sub.add_parser("check", help="estimate checks on one model")
    _common(p_chk, level=False)
    return parser


def _cmd_run(args) -> int:
    config = ens.RunConfig(
        model_path=args.model, solver=args.solver, level=args.level,
        n_paths=args.paths, base_seed=args.seed, out_dir=args.out,
        snapshot_stride=args.stride, workers=args.workers)
    result = ens.run(config)
    if getattr(args, "save_bundle", False):
        save_bundle(Path(args.out) / "bundle_path00000.bin",
                    ens.path_bundle(args.model, args.level, args.seed, 0))
    return result.exit_code


def _cmd_compare(args) -> int:
    model, cfg = ens._cached_model(args.model, 2 ** args.level)
    bundle = ens.path_bundle(args.model, args.level, args.seed, 0)
    cfg = dataclasses.replace(cfg, snapshot_stride=args.stride if args.stride else 0)
    rep_r = solve_rescaled(model, bundle, cfg)
    rep_d = solve_direct(model, bundle, cfg)
    p_r = ens.density_final(rep_r, model, bundle)
    p_d = rep_d.final
    out = ensure_dir(args.out)
    save_field(out / "final_rescaled.bin", p_r)
    save_field(out / "final_direct.bin", p_d)
    diff = l2_norm(p_d - p_r, model.grid)
    rel = diff / max(l2_norm(p_r, model.grid), 1e-300)
    write_series_csv(out / "compare.csv", {
        "quantity": np.array(["l2_diff_final", "l2_diff_final_rel"]),
        "value": np.array([diff, rel])})
    for name, rep in (("rescaled", rep_r), ("direct", rep_d)):
        write_series_csv(out / f"series_{name}.csv", {
            "t": rep.times, "l2_norm": rep.l2_series, "u_value": rep.u_series,
            "births": rep.births_series})
    return EXIT_OK


def _cmd_convergence(args) -> int:
    ens.convergence_study(args.model, args.levels, seed=args.seed,
                          out_dir=args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .rates import validate_rates

    model, cfg = ens._cached_model(args.model, 1)
    bundle = ens.path_bundle(args.model, 0, args.seed, 0)
    cfg = dataclasses.replace(cfg, snapshot_stride=1)
    report = solve_rescaled(model, bundle, cfg)
    consts = estimates.constants_for_run(model, bundle, c0=cfg.c0, c1=cfg.c1)
    rows = []

    validation = validate_rates(model.rates, model.grid)
    rows.append(estimates.CheckRow.leq("rate_validation_violations",
                                       len(validation.violations), 0))

    margins = estimates.apriori_check(report, consts)
    rows.append(estimates.CheckRow.leq("apriori_margin_max",
                                       float(np.max(margins)), 1.0))

    rows.append(estimates.CheckRow.leq("truncation_activations",
                                       report.guard.activations if report.guard else 0, 0))

    # continuous dependence: quadratic scaling in an initial-data bump
    ratios = []
    for delta in (1e-2, 5e-3):
        pert = _perturbed_model(model, delta)
        rep2 = solve_rescaled(pert, bundle, cfg)
        res = estimates.dependence_check(report, rep2, consts)
        ratios.append(res.ratio)
    drift = abs(ratios[0] - ratios[1]) / max(abs(ratios[0]), 1e-300)
    rows.append(estimates.CheckRow.leq("dependence_ratio_drift", drift, 0.10))

    # weak residual decreases under one refinement of the stored run
    res_fine = estimates.weak_residual_random(report, model, bundle).max_abs
    coarse_model, coarse_cfg = ens._cached_model(args.model, 2)
    coarse_cfg = dataclasses.replace(coarse_cfg, snapshot_stride=1)
    coarse_bundle = ens.path_bundle(args.model, 1, args.seed, 0)
    rep_c = solve_rescaled(coarse_model, coarse_bundle, coarse_cfg)
    res_coarse = estimates.weak_residual_random(rep_c, coarse_model,
                                                coarse_bundle).max_abs
    rows.append(estimates.CheckRow.leq("weak_residual_refinement_ratio",
                                       res_fine / max(res_coarse, 1e-300), 0.75))

    out = ensure_dir(args.out)
    write_check_report(out / "checks.csv", rows)
    return EXIT_OK if all(r.passed for r in rows) else EXIT_CHECK


def _perturbed_model(model, delta: float):
    from .grid import Field
    from .rates import InitialData

    bump = Field.from_function(
        model.grid, lambda a, *x: delta * np.exp(-((a - 0.3 * model.grid.a_max)
                                                   / (0.2 * model.grid.a_max)) ** 2))
    p0 = Field(model.initial.p0.values + bump.values, model.grid)
    return dataclasses.replace(model, initial=InitialData(p0))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.command in ("run", "ensemble"):
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        if args.command == "check":
            return _cmd_check(args)
        return EXIT_CONFIG
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StochageError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
