#!/usr/bin/env python3
"""stochage benchmark: Monte Carlo throughput per route, verification time,
set-up time and memory, with an optional traced run for per-layer metrics.

    python3 perfbench/run.py --workload mc-direct-1d --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository (the directory holding ``src/``
and ``models/``).  Every command runs ``stochage.cli.main(argv)`` in a
fresh child interpreter with BLAS/OpenMP threads pinned to 1 and
``--workers 1``; the client is a closed loop that issues the next command
after the previous one returns.  The workload's command list is repeated
with the same ``--seed`` until ``--seconds`` have passed (at least
``MIN_ITERATIONS`` times); every repetition passes the correctness gate.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import array
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from tracer import layer_metrics, merge_raw  # noqa: E402

MODEL_1D = "models/sample1d.ini"
MODEL_2D = "models/sample2d.ini"
REQUIRED = ("src/stochage/cli.py", MODEL_1D, MODEL_2D)

MIN_ITERATIONS = 2
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150.0
# Largest tolerated relative L2 gap between the rescaled and direct routes
# in `compare`; about 6x the largest value seen on seeds 0-11 (7.9e-3).
ROUTE_GAP_TOL = 0.05
# Pathwise solves in one verify-mixed pass at the commit that defined the
# benchmark: check 4 (stored run, two perturbed runs, one coarse run),
# compare 2, convergence --levels 3 six (two routes per level).
VERIFY_SOLVES = {"check": 4, "compare": 2, "convergence": 6}
MC_PATHS = {"mc-direct-1d": 128, "mc-rescaled-1d": 24}
MC_PATHS_SMALL = {"mc-direct-1d": 8, "mc-rescaled-1d": 2}
WORKLOADS = ("mc-direct-1d", "mc-rescaled-1d", "verify-mixed")


class Command:
    """One CLI invocation of a workload pass."""

    def __init__(self, label: str, argv: list, paths: int = 0):
        self.label = label
        self.kind = argv[0]
        self.argv = argv
        self.paths = paths          # ensemble paths; 0 for single-path commands

    @property
    def operations(self) -> int:
        return self.paths or 1

    @property
    def solves(self) -> int:
        return self.paths or VERIFY_SOLVES[self.kind]


def workload_commands(name: str, small: bool) -> list:
    if name in MC_PATHS:
        paths = (MC_PATHS_SMALL if small else MC_PATHS)[name]
        solver = name.split("-")[1]
        return [Command("ensemble", [
            "ensemble", "--model", MODEL_1D, "--solver", solver,
            "--paths", str(paths), "--stride", "0", "--workers", "1"], paths)]
    return [
        Command("check-1d", ["check", "--model", MODEL_1D]),
        Command("compare-1d", ["compare", "--model", MODEL_1D]),
        Command("check-2d", ["check", "--model", MODEL_2D]),
        Command("compare-2d", ["compare", "--model", MODEL_2D]),
        Command("convergence-1d", ["convergence", "--model", MODEL_1D,
                                   "--levels", "3"]),
    ]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list, result_path: Path) -> tuple[dict | None, str, float]:
    """Run child.py; return its JSON record (None on failure), the tail of
    its standard error, and its wall time from start to exit."""
    if result_path.exists():
        result_path.unlink()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s", math.nan
    wall = time.perf_counter() - start
    tail = proc.stderr.strip().splitlines()[-3:]
    if proc.returncode != 0 or not result_path.exists():
        return None, f"child exit {proc.returncode}: " + " | ".join(tail), wall
    with open(result_path) as fh:
        return json.load(fh), " | ".join(tail), wall


# ---------------------------------------------------------------------------
# correctness gate


def read_field(path: Path) -> array.array:
    """Values of a STAGFLD1 field file (magic, uint32 rank, uint64 shape, f8)."""
    data = path.read_bytes()
    if data[:8] != b"STAGFLD1":
        raise ValueError(f"{path.name}: bad magic")
    (rank,) = struct.unpack_from("<I", data, 8)
    shape = struct.unpack_from(f"<{rank}Q", data, 12)
    values = array.array("d")
    values.frombytes(data[12 + 8 * rank:])
    if sys.byteorder != "little":
        values.byteswap()
    if len(values) != math.prod(shape):
        raise ValueError(f"{path.name}: {len(values)} values for shape {shape}")
    return values


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def gate(cmd: Command, out: Path) -> tuple[int, list, float | None]:
    """Check one command's output tree against the invariants.

    Returns the failed operation count, the problems found, and the
    route gap for ``compare``.
    """
    problems: list = []
    failed = 0
    gap = None
    if cmd.kind == "ensemble":
        rows = read_csv(out / "paths.csv")
        failed = sum(1 for r in rows if r["status"] != "converged")
        if len(rows) != cmd.paths:
            problems.append(f"paths.csv has {len(rows)} rows, expected {cmd.paths}")
            failed = max(failed, cmd.paths - len(rows))
        means = sorted(out.glob("stats_mean_*.bin"))
        if not means:
            problems.append("no stats_mean_*.bin written")
        for path in means:
            values = read_field(path)
            if not all(math.isfinite(v) and v >= 0.0 for v in values):
                problems.append(f"{path.name} has negative or non-finite entries")
    elif cmd.kind == "check":
        rows = read_csv(out / "checks.csv")
        bad = [r["check"] for r in rows if r["status"] != "pass"]
        if not rows or bad:
            problems.append(f"checks.csv failing rows: {bad or 'none written'}")
    elif cmd.kind == "compare":
        rows = {r["quantity"]: float(r["value"]) for r in read_csv(out / "compare.csv")}
        gap = rows.get("l2_diff_final_rel", math.nan)
        if not (math.isfinite(gap) and gap <= ROUTE_GAP_TOL):
            problems.append(f"route gap {gap!r} exceeds {ROUTE_GAP_TOL}")
    elif cmd.kind == "convergence":
        rows = read_csv(out / "convergence.csv")
        if len(rows) != 3 or not (out / "orders.csv").exists():
            problems.append("convergence.csv/orders.csv incomplete")
    return failed, problems, gap


# ---------------------------------------------------------------------------
# passes


def run_pass(commands: list, seed: int, iteration: int, traced: bool,
             base: Path) -> dict:
    """Run the workload's commands once; gate and digest every output tree."""
    tag = f"iter{iteration:03d}_{'traced' if traced else 'plain'}"
    rec = {"wall_s": 0.0, "main_s": 0.0, "peak_rss_mb": 0.0, "attempted": 0, "failed": 0,
           "converged_solves": 0, "problems": [], "gaps": [], "raws": [],
           "command_wall_s": {}, "digest": hashlib.sha256()}
    for cmd in commands:
        out = base / tag / cmd.label
        argv = cmd.argv + ["--seed", str(seed), "--out", str(out)]
        spans = base / "spans" / f"{cmd.label}.csv"   # the last pass is kept
        result, err, wall = run_child(
            ["cmd", str(base / "child_result.json"), "1" if traced else "0",
             str(iteration), str(spans), "--", *argv], base / "child_result.json")
        rec["attempted"] += cmd.operations
        if result is None or result["exit_code"] != 0:
            code = None if result is None else result["exit_code"]
            rec["problems"].append(f"{cmd.label}: exit {code} {err}")
            rec["failed"] += cmd.operations
            continue
        rec["wall_s"] += wall
        rec["main_s"] += result["main_s"]
        rec["command_wall_s"][cmd.label] = wall
        rec["peak_rss_mb"] = max(rec["peak_rss_mb"], result["peak_rss_mb"])
        if traced:
            rec["raws"].append(result["raw"])
        try:
            failed, problems, gap = gate(cmd, out)
        except (OSError, ValueError, KeyError) as exc:
            failed, problems, gap = cmd.operations, [f"unreadable output: {exc}"], None
        rec["failed"] += failed
        rec["converged_solves"] += cmd.solves - failed
        rec["problems"] += [f"{cmd.label}: {p}" for p in problems]
        if gap is not None:
            rec["gaps"].append(gap)
        rec["digest"].update(cmd.label.encode() + tree_digest(out).encode())
    rec["digest"] = rec["digest"].hexdigest()
    shutil.rmtree(base / tag, ignore_errors=True)
    return rec


def median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def environment(setup_record: dict | None) -> dict:
    env = {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
           "commit": None}
    if setup_record:
        env.update(numpy=setup_record["numpy"], blas=setup_record["blas"])
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stochage").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = h.hexdigest()
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced path counts (harness self-test only)")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: not a stochage checkout, missing {missing}",
              file=sys.stderr)
        return 2

    base = WORK / f"{args.workload}_trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    (base / "spans").mkdir(parents=True)
    commands = workload_commands(args.workload, args.small)

    probes = []
    setup_records = []
    for _ in range(SETUP_PROBES if args.trace == 0 else 1):
        record, err, _ = run_child(["setup", str(base / "setup.json"), MODEL_1D,
                                 MODEL_2D], base / "setup.json")
        if record is None:
            print(f"benchmark: set-up probe failed: {err}", file=sys.stderr)
            return 1
        setup_records.append(record)
        probes.append(record["setup_s"])
    env = environment(setup_records[0])

    plain, traced = [], []
    reference = None
    problems: list = []
    start = time.perf_counter()
    iteration = 0
    while iteration < MIN_ITERATIONS or time.perf_counter() - start < args.seconds:
        passes = [run_pass(commands, args.seed, iteration, False, base)]
        plain.append(passes[0])
        if args.trace:
            passes.append(run_pass(commands, args.seed, iteration, True, base))
            traced.append(passes[1])
        for rec in passes:
            problems += rec["problems"]
            reference = reference or rec["digest"]
            if rec["digest"] != reference:
                problems.append(f"iteration {iteration}: output tree differs "
                                f"from the first iteration")
        iteration += 1
        if problems:
            break

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    gaps = [g for r in runs for g in r["gaps"]]
    if args.trace == 0:
        metrics = {
            "setup_s": (median(probes), "s"),
            "paths_per_s": (median([r["converged_solves"] / r["wall_s"]
                                    for r in plain if r["wall_s"] > 0]), "paths/s"),
            "verify_s": (median([r["wall_s"] for r in plain]), "s"),
            "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), "MiB"),
        }
    else:
        per_iter = [layer_metrics(merge_raw(r["raws"])) for r in traced]
        metrics = {name: (median([m[name][0] for m in per_iter]), unit)
                   for name, (_, unit) in per_iter[0].items()} if per_iter else {}
        # main() time only: the traced child also writes its spans on exit
        overhead = median([r["main_s"] for r in traced]) / max(
            median([r["main_s"] for r in plain]), 1e-12) - 1.0
        metrics["trace_overhead_share"] = (overhead, "1")

    correct = not problems and failed == 0
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iterations": iteration, "setup_probes": probes,
        "pass_wall_s": [r["wall_s"] for r in plain],
        "pass_main_s": [r["main_s"] for r in plain],
        "traced_pass_main_s": [r["main_s"] for r in traced],
        "command_wall_s": {c.label: median([r["command_wall_s"][c.label] for r in plain
                                            if c.label in r["command_wall_s"]])
                           for c in commands},
        "route_gap_rel": max(gaps) if gaps else None,
        "problems": problems[:20], "environment": env,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(WORK / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json",
              "w") as fh:
        json.dump({**summary, **result}, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:32s} {value:.6g} {unit}")
    if gaps:
        print(f"{args.workload:15s} {'route_gap_rel':32s} {max(gaps):.6g} 1 "
              f"(gate: <= {ROUTE_GAP_TOL})")
    print(f"iterations {iteration}; attempted {attempted}; failed {failed}; "
          f"correct {correct}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
