#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from a checkout of the repository; takes a few minutes.  It checks:

1. ``BENCHMARK.json`` stays within the limits on names, units, bounds and
   workload count that its consumers accept;
2. the tracer's wrappers return results identical to unwrapped calls, cover
   every public function of every layer, replace every binding of each, and
   are removed again by ``uninstall``;
3. a reduced-size run of every workload emits exactly the metrics that
   ``BENCHMARK.json`` names, traced and untraced, with a passing gate;
4. the traced counters match a reading of the code (fixed-point solves
   per step on the rescaled route, no rescaled work on the direct route,
   no Euler-Maruyama steps on the rescaled route);
5. the correctness invariants hold on a second seed;
6. the benchmark exits nonzero, printing no result, in a directory that
   holds only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def same(a, b) -> bool:
    """Bitwise equality of two solve results, field by field."""
    import numpy as np

    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    return a == b


def wrapper_identity() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import stochage
    from stochage import ensemble, modelfile, noise, oracle, solver

    def solve_all():
        out = []
        for path, coarsen in ((bench.MODEL_2D, 1), (bench.MODEL_1D, 4)):
            model, cfg = modelfile.parse_model(str(ROOT / path), coarsen=coarsen)
            bundle = noise.sample_bundle(5, model.noise.n_modes, model.grid.n_t,
                                         model.grid.T)
            rep_r = solver.solve_rescaled(model, bundle, cfg)
            rep_d = oracle.solve_direct(model, bundle, cfg)
            out += [rep_r, rep_d, ensemble.density_final(rep_r, model, bundle)]
        return out

    plain = solve_all()
    tracer = Tracer()
    tracer.install()
    try:
        traced = solve_all()
        raw = tracer.raw()
        layers = {name.split(".")[0] for name in raw["calls"]}
        unwrapped = []
        for layer in LAYERS:
            mod = sys.modules[f"stochage.{layer}"]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__
                        and not hasattr(value, "__wrapped__")):
                    unwrapped.append(f"{layer}.{attr}")
        stale = [f"{m}.{a}" for m, mod in sys.modules.items()
                 if m.startswith("stochage") and mod is not None
                 for a, v in vars(mod).items()
                 if inspect.isfunction(v) and not hasattr(v, "__wrapped__")
                 and v.__module__.startswith("stochage.")
                 and not v.__name__.startswith("_")]
    finally:
        tracer.uninstall()
    check(all(same(a, b) for a, b in zip(plain, traced)) and len(plain) == len(traced),
          "traced solves are bitwise identical to untraced solves")
    check(not unwrapped and not stale,
          f"every public function and every binding of it is wrapped {unwrapped + stale}")
    check({"solver", "oracle", "rescale", "noise", "rates", "grid", "ensemble",
           "modelfile", "estimates"} <= layers, f"spans recorded for layers {sorted(layers)}")
    check(not hasattr(stochage.solver.solve_rescaled, "__wrapped__")
          and not hasattr(stochage.rescale.RescaledCoefficients.k_face, "__wrapped__"),
          "uninstall restores the original bindings")


def spec_limits() -> None:
    """BENCHMARK.json stays inside the limits its consumers accept."""
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}").fullmatch
    unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}").fullmatch
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    check(all(map(name_ok, names)) and len(set(names)) == len(names),
          "metric and workload names are well formed and unique")
    check(all(unit_ok(m["unit"]) and m["better"] in ("lower", "higher")
              for m in metrics), "units and directions are well formed")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values())
          and bounds.get("setup_s") == max(bounds.values()),
          "bounds are at most 0.25 and setup_s has the largest")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
          and 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60,
          "workload reasons and run length are within limits")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
              script: Path = HERE / "run.py") -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode == 0 and result is None:
        print(proc.stdout, proc.stderr)
    return proc.returncode, result


def reduced_runs() -> None:
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layer = {m["name"] for m in SPEC["per_layer"]}
    check({w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS),
          "BENCHMARK.json lists the harness's workloads")
    traced = {}
    for workload in bench.WORKLOADS:
        for trace, names in ((0, e2e), (1, layer)):
            code, result = run_bench(workload, 1, trace)
            check(code == 0 and result is not None, f"{workload} trace={trace} runs")
            check(list(result) == ["correct", "attempted", "failed", "metrics"]
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} trace={trace} passes the gate")
            check(set(result["metrics"]) == names,
                  f"{workload} trace={trace} emits every metric "
                  f"{sorted(set(result['metrics']) ^ names)}")
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{workload} end-to-end metrics are nonzero")
            else:
                traced[workload] = {k: m["value"] for k, m in result["metrics"].items()}
        code, result = run_bench(workload, 2, 0)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{workload} passes the gate on a second seed")

    resc, direct = traced["mc-rescaled-1d"], traced["mc-direct-1d"]
    check(4.0 <= resc["solver.solves_per_step"] <= 6.0,
          f"solves per step on mc-rescaled-1d is {resc['solver.solves_per_step']:.3f}")
    check(resc["oracle.em_steps"] == 0, "no Euler-Maruyama steps on mc-rescaled-1d")
    rescale_counts = ["solver.picard_steps", "solver.solves_per_step",
                      "rescale.k_face_per_node"]
    check(all(direct[k] == 0 for k in rescale_counts) and direct["oracle.em_steps"] > 0,
          "no fixed-point or rescaled-coefficient work on mc-direct-1d")
    check(traced["verify-mixed"]["estimates.weak_residual_s"] > 0
          and resc["estimates.weak_residual_s"] == 0,
          "weak residuals run on verify-mixed only")


def bare_directory() -> None:
    """The benchmark refuses to run where there is no program to measure."""
    bench.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK, prefix="bare_") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run_bench("mc-direct-1d", 1, 0, cwd=bare,
                                 script=bare / "perfbench" / "run.py")
        check(code != 0 and result is None,
              "exits nonzero without a result in a directory without the program")


def main() -> int:
    spec_limits()
    wrapper_identity()
    bare_directory()
    reduced_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
