"""Contract between the package and the benchmark's span tracer.

``perfbench/tracer.py`` wraps package functions and methods by name from
outside the package and reads ``em_step``'s overshoot flag as one truth
value.  A refactor that renames a hooked name or changes that flag would
break a traced benchmark run; these tests make it fail the suite instead.
So does a change that silently moves a per-layer metric: a public time
loop or split step would take their time out of the march metrics, and a
bypassed ``k_face`` would zero its per-node count.  The tracer module is
loaded from its file and not modified.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

import stochage as sa
from stochage import ensemble, noise, oracle, rates, solver

ROOT = Path(__file__).resolve().parent.parent
MODEL = str(ROOT / "models" / "sample1d.ini")


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def direct_work(out_dir):
    """One small one-path solve and a 3-path direct ensemble."""
    model, cfg = ensemble._cached_model(MODEL, 4)
    bundle = sa.sample_bundle(5, model.noise.n_modes, model.grid.n_t, model.grid.T)
    report = sa.solve_direct(model, bundle, cfg)
    stats = ensemble.run(ensemble.RunConfig(
        model_path=MODEL, solver="direct", level=2, n_paths=3, base_seed=1,
        out_dir=str(out_dir), snapshot_stride=1))
    return report, stats


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    return a == b


def test_traced_direct_route_is_bitwise_and_restorable(tmp_path):
    originals = {
        "solve_direct": sa.solve_direct, "em_step": oracle.em_step,
        "diffusion_substep": solver.diffusion_substep,
        "build": vars(oracle._DirectContext)["build"],
        "logistic": rates.LogisticRate.__call__,
        "amplitude_grids": noise.AmplitudeGrids.__init__,
        "sweep": solver._sweep, "cached_model": ensemble._cached_model,
    }
    plain_report, plain_stats = direct_work(tmp_path / "plain")

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert hasattr(oracle.em_step, "__wrapped__")
        traced_report, traced_stats = direct_work(tmp_path / "traced")
        raw = tracer.raw()
    finally:
        tracer.uninstall()

    assert same(plain_report, traced_report)
    assert same(plain_stats, traced_stats)
    assert tree_bytes(tmp_path / "plain") == tree_bytes(tmp_path / "traced")
    calls = raw["calls"]
    for name in ("oracle.em_step", "oracle.solve_direct",
                 "oracle._DirectContext.build", "oracle._DirectContext.boundary",
                 "noise.AmplitudeGrids.__init__", "rates.LogisticRate.__call__",
                 "solver.diffusion_substep", "solver._sweep",
                 "ensemble._cached_model"):
        assert calls.get(name, 0) > 0, name
    restored = {
        "solve_direct": sa.solve_direct, "em_step": oracle.em_step,
        "diffusion_substep": solver.diffusion_substep,
        "build": vars(oracle._DirectContext)["build"],
        "logistic": rates.LogisticRate.__call__,
        "amplitude_grids": noise.AmplitudeGrids.__init__,
        "sweep": solver._sweep, "cached_model": ensemble._cached_model,
    }
    assert all(restored[k] is v for k, v in originals.items())


def test_traced_rescaled_route_is_bitwise_and_keeps_layer_metrics():
    tracer_module = load_tracer()
    model, cfg = ensemble._cached_model(MODEL, 4)
    bundle = sa.sample_bundle(5, model.noise.n_modes, model.grid.n_t, model.grid.T)
    plain = sa.solve_rescaled(model, bundle, cfg)

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = sa.solve_rescaled(model, bundle, cfg)
        sa.solve_direct(model, bundle, cfg)
        raw = tracer.raw()
    finally:
        tracer.uninstall()

    assert same(plain, traced)
    edge = raw["edges"].get("solver.picard_step_solve>solver.diffusion_substep", 0)
    assert edge == int(plain.picard_iterations.sum()) + model.grid.n_t
    metrics = tracer_module.layer_metrics(raw)
    for name in ("solver.march_s", "oracle.march_s", "rescale.k_face_per_node"):
        assert metrics[name][0] > 0, name
    assert not [name for name in raw["calls"]
                if "march" in name or "split_step" in name]
