"""Monte Carlo orchestration, ensemble statistics, and convergence studies.

Every ensemble path gets its own Brownian bundle whose seed derives from
``(base_seed, path_index)`` through numpy's ``SeedSequence`` spawning, so
re-running any subset of paths reproduces identical noise regardless of
worker scheduling.  Paths are handed out in contiguous chunks whose size
depends only on the grid (see :data:`CHUNK_BYTES`).  Both routes march a
chunk as one array with a leading path axis, and a chunk whose march
fails is solved again path by path.  Aggregation happens in path order in
the parent process, which makes the whole artifact tree a deterministic
function of the configuration.
"""

from __future__ import annotations

import dataclasses
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, StochageError
from .fileio import ensure_dir, save_field, write_series_csv
from .grid import Field, Grid, l2_norm, weighted_population
from .model import PopulationModel
from .noise import BrownianBundle, coarsen, evaluate_noise, sample_bundle
from .oracle import solve_direct, solve_direct_batch
from .rescale import forward_transform
from .solver import SolveReport, SolverConfig, solve_rescaled, solve_rescaled_batch

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

# Byte budget of one chunk's state array.  Bigger chunks spread a batched
# march's per-step overhead over more paths but hold more paths in memory
# at once; 128 KiB is 7 paths of models/sample1d.ini.
CHUNK_BYTES = 128 * 1024

_SOLVERS = ("rescaled", "direct")


@dataclass
class RunConfig:
    """Everything one ensemble run depends on."""

    model_path: str
    solver: str = "rescaled"        # "rescaled" | "direct" | "both"
    level: int = 0                  # power-of-two coarsening of the master grid
    n_paths: int = 1
    base_seed: int = 0
    out_dir: str | None = None
    snapshot_stride: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.n_paths < 1 or self.snapshot_stride < 0 or self.base_seed < 0:
            raise ConfigurationError(
                f"need paths >= 1, stride >= 0 and seed >= 0; got paths "
                f"{self.n_paths}, stride {self.snapshot_stride}, seed {self.base_seed}")

    def solvers(self) -> tuple[str, ...]:
        if self.solver == "both":
            return _SOLVERS
        if self.solver not in _SOLVERS:
            raise ConfigurationError(f"unknown solver {self.solver!r}")
        return (self.solver,)


def path_seed(base_seed: int, index: int) -> int:
    """Derived seed for one ensemble path (documented, stable scheme)."""
    if base_seed < 0:
        raise ConfigurationError(f"a seed must be nonnegative, got {base_seed}")
    return int(np.random.SeedSequence(base_seed, spawn_key=(index,)).generate_state(1)[0])


def _cached_model(path: str, coarsen_factor: int):
    """Parsed model file, cached on its content hash and the coarsening
    factor, so a file edited during the process is parsed again."""
    import hashlib  # deferred: it loads OpenSSL, a cost `import stochage` need not pay

    try:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise ConfigurationError(f"cannot read model file {path}: {exc}") from exc
    return _parse_model(digest, coarsen_factor, str(path))


@functools.lru_cache(maxsize=8)
def _parse_model(digest: str, coarsen_factor: int, path: str):
    from .modelfile import parse_model

    return parse_model(path, coarsen=coarsen_factor)


def path_bundle(model_path: str, level: int, base_seed: int,
                index: int) -> BrownianBundle:
    """Brownian bundle of ensemble path ``index`` at coarsening ``level``:
    sampled on the master grid from :func:`path_seed`, then coarsened."""
    master, _ = _cached_model(model_path, 1)
    model, _ = _cached_model(model_path, 2 ** level)
    bundle = sample_bundle(path_seed(base_seed, index), master.noise.n_modes,
                           master.grid.n_t, master.grid.T)
    return coarsen(bundle, master.grid.n_t // model.grid.n_t)


def path_chunks(n_paths: int, grid: Grid) -> list[range]:
    """Contiguous path ranges of at most :data:`CHUNK_BYTES` of state each."""
    size = max(1, CHUNK_BYTES // (8 * int(np.prod(grid.field_shape))))
    return [range(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def density_final(report: SolveReport, model: PopulationModel,
                  bundle: BrownianBundle) -> np.ndarray:
    """Final population density for either solver's report."""
    if report.variable == "p":
        return report.final
    nf = evaluate_noise(model.noise, bundle, model.grid.n_t, model.grid)
    return forward_transform(report.final_field, nf.value).values


def density_at(report: SolveReport, model: PopulationModel,
               bundle: BrownianBundle, t_index: int) -> np.ndarray:
    vals = report.field_at(t_index)
    if report.variable == "p":
        return vals
    nf = evaluate_noise(model.noise, bundle, t_index, model.grid)
    return forward_transform(Field(vals, model.grid), nf.value).values


def mass_series(report: SolveReport, model: PopulationModel,
                bundle: BrownianBundle) -> np.ndarray:
    """Total population at each stored snapshot index."""
    grid = model.grid
    out = np.zeros(len(report.snapshot_indices))
    for pos, idx in enumerate(report.snapshot_indices):
        p = density_at(report, model, bundle, int(idx))
        out[pos] = weighted_population(p, 1.0, None, grid)
    return out


def _solve_paths(name: str, model: PopulationModel, bundles: list,
                 config: SolverConfig) -> list:
    """One route's reports for a chunk of paths; a failed path gives its
    error instead.

    The chunk is solved as one batch.  Should that fail, the chunk is
    solved again path by path, so the failure stays with the path that
    caused it.  A configuration error ends the run.
    """
    solve = solve_rescaled_batch if name == "rescaled" else solve_direct_batch
    try:
        return solve(model, bundles, config)
    except ConfigurationError:
        raise
    except StochageError as exc:
        if len(bundles) == 1:
            return [exc]
    out = []
    for bundle in bundles:
        try:
            out.append(solve(model, [bundle], config)[0])
        except ConfigurationError:
            raise
        except StochageError as exc:
            out.append(exc)
    return out


def _run_chunk(config: RunConfig, indices: range, out_dir: str | None) -> list[dict]:
    model, cfg = _cached_model(config.model_path, 2 ** config.level)
    cfg = dataclasses.replace(cfg, snapshot_stride=config.snapshot_stride)
    bundles = [path_bundle(config.model_path, config.level, config.base_seed, index)
               for index in indices]
    results = [{"index": index, "seed": bundle.seed, "solvers": {}}
               for index, bundle in zip(indices, bundles)]
    for name in config.solvers():
        reports = _solve_paths(name, model, bundles, cfg)
        for result, bundle, report in zip(results, bundles, reports):
            index = result["index"]
            entry: dict = {"status": "converged"}
            result["solvers"][name] = entry
            if isinstance(report, StochageError):
                entry["status"] = f"failed: {report}"
                continue
            p_final = density_final(report, model, bundle)
            entry.update(
                final=p_final,
                final_l2=l2_norm(p_final, model.grid),
                mass=mass_series(report, model, bundle),
                mass_indices=report.snapshot_indices,
                picard_max=int(report.picard_iterations.max()) if len(report.picard_iterations) else 0,
                truncations=report.guard.activations if report.guard else 0,
            )
            if out_dir is not None and config.snapshot_stride > 0:
                save_field(Path(out_dir) / f"path_{index:05d}_{name}.bin", p_final)
                write_series_csv(
                    Path(out_dir) / f"path_{index:05d}_{name}.csv",
                    {"t": report.times, "l2_norm": report.l2_series,
                     "u_value": report.u_series, "births": report.births_series})
    return results


@dataclass
class EnsembleStats:
    """Cell statistics of the density at the final time plus totals."""

    n_paths: int
    mean_final: dict = field(default_factory=dict)   # solver -> field
    var_final: dict = field(default_factory=dict)    # solver -> field (ddof=1)
    mass_mean: dict = field(default_factory=dict)    # solver -> series
    mass_ci_half: dict = field(default_factory=dict)
    mass_indices: np.ndarray | None = None
    failures: int = 0


@dataclass
class RunResult:
    exit_code: int
    stats: EnsembleStats
    out_dir: str | None
    summaries: list


def run(config: RunConfig) -> RunResult:
    """Execute the ensemble and aggregate statistics deterministically.

    Chunks of paths may run in a process pool; the reduction always
    happens in path order so repeated runs produce byte-identical
    artifacts.
    """
    solvers = config.solvers()
    model, _ = _cached_model(config.model_path, 2 ** config.level)
    out_dir = str(ensure_dir(config.out_dir)) if config.out_dir else None

    ranges = path_chunks(config.n_paths, model.grid)
    if config.workers > 1 and config.n_paths > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunks = list(pool.map(_run_chunk, repeat(config), ranges, repeat(out_dir)))
    else:
        chunks = [_run_chunk(config, r, out_dir) for r in ranges]
    results = [res for chunk in chunks for res in chunk]

    stats = EnsembleStats(n_paths=config.n_paths)
    acc: dict = {}
    summaries = []
    failures = 0
    for res in results:
        for name in solvers:
            entry = res["solvers"][name]
            summaries.append({
                "path": res["index"], "seed": res["seed"], "solver": name,
                "status": entry["status"],
                "final_l2": entry.get("final_l2", np.nan),
                "picard_max": entry.get("picard_max", 0),
                "truncations": entry.get("truncations", 0)})
            if entry["status"] != "converged":
                failures += 1
                continue
            slot = acc.setdefault(name, {"count": 0, "mean": None, "m2": None,
                                         "mass": []})
            slot["count"] += 1
            x = entry["final"]
            if slot["mean"] is None:
                slot["mean"] = np.array(x)
                slot["m2"] = np.zeros_like(x)
            else:
                delta = x - slot["mean"]
                slot["mean"] += delta / slot["count"]
                slot["m2"] += delta * (x - slot["mean"])
            slot["mass"].append(entry["mass"])
            stats.mass_indices = entry["mass_indices"]

    for name, slot in acc.items():
        n = slot["count"]
        stats.mean_final[name] = slot["mean"]
        stats.var_final[name] = (slot["m2"] / (n - 1) if n > 1
                                 else np.zeros_like(slot["mean"]))
        mass = np.asarray(slot["mass"])
        stats.mass_mean[name] = mass.mean(axis=0)
        sd = mass.std(axis=0, ddof=1) if n > 1 else np.zeros(mass.shape[1])
        stats.mass_ci_half[name] = Z_99 * sd / np.sqrt(n)
    stats.failures = failures

    if out_dir is not None:
        _persist(config, model, stats, summaries, out_dir)
    exit_code = 1 if failures else 0
    return RunResult(exit_code=exit_code, stats=stats, out_dir=out_dir,
                     summaries=summaries)


def _persist(config: RunConfig, model: PopulationModel, stats: EnsembleStats,
             summaries: list, out_dir: str):
    out = Path(out_dir)
    write_series_csv(out / "paths.csv", {
        "path": np.array([s["path"] for s in summaries]),
        "seed": np.array([s["seed"] for s in summaries]),
        "solver": np.array([s["solver"] for s in summaries]),
        "final_l2": np.array([s["final_l2"] for s in summaries], dtype=float),
        "picard_max": np.array([s["picard_max"] for s in summaries]),
        "truncations": np.array([s["truncations"] for s in summaries]),
        "status": np.array([s["status"] for s in summaries]),
    })
    for name in stats.mean_final:
        save_field(out / f"stats_mean_{name}.bin", stats.mean_final[name])
        save_field(out / f"stats_var_{name}.bin", stats.var_final[name])
        times = model.grid.times[stats.mass_indices]
        write_series_csv(out / f"totals_{name}.csv", {
            "t": times,
            "mass_mean": stats.mass_mean[name],
            "ci_half_99": stats.mass_ci_half[name]})


# ---------------------------------------------------------------------------
# fixed-path convergence study


@dataclass
class StudyRow:
    level: int
    n_t: int
    dt: float
    pair_diff: float          # |direct - rescaled| at this level, same grid
    pair_diff_rel: float
    err_rescaled: float       # against the finest rescaled reference
    err_direct: float


@dataclass
class StudyResult:
    rows: list
    order_pair: float
    order_rescaled: float
    order_direct: float
    exact: bool               # errors at rounding level, order meaningless


def fit_order(dts, errs, floor: float = 1e-13) -> float:
    dts = np.asarray(dts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = errs > floor
    if mask.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log2(dts[mask]), np.log2(errs[mask]), 1)[0]
    return float(slope)


def convergence_study(model_path: str, levels: int, seed: int = 0,
                      out_dir: str | None = None) -> StudyResult:
    """Solve both routes at nested coarsenings of one fixed path.

    The finest rescaled solution is the reference; errors are measured in
    the discrete L2 norm of the density at the final time, restricting the
    reference by age subsampling (the space grid is shared).
    """
    if levels < 3:
        raise ConfigurationError("a convergence study needs at least 3 levels")
    model_fine, base_cfg = _cached_model(model_path, 1)
    if model_fine.grid.n_t % 2 ** (levels - 1):
        raise ConfigurationError(
            f"master n_t={model_fine.grid.n_t} does not allow {levels} halvings")
    master = sample_bundle(seed, model_fine.noise.n_modes,
                           model_fine.grid.n_t, model_fine.grid.T)

    finals = []
    rows = []
    for lev in range(levels):
        factor = 2 ** lev
        model, _ = _cached_model(model_path, factor)
        bundle = coarsen(master, factor)
        cfg = dataclasses.replace(base_cfg, snapshot_stride=0)
        rep_r = solve_rescaled(model, bundle, cfg)
        rep_d = solve_direct(model, bundle, cfg)
        p_r = density_final(rep_r, model, bundle)
        p_d = rep_d.final
        finals.append((model, p_r, p_d))
        scale = l2_norm(p_r, model.grid)
        diff = l2_norm(p_d - p_r, model.grid)
        rows.append(StudyRow(level=lev, n_t=model.grid.n_t, dt=model.grid.dt,
                             pair_diff=diff,
                             pair_diff_rel=diff / scale if scale else np.inf,
                             err_rescaled=0.0, err_direct=0.0))

    ref_model, ref_p, _ = finals[0]
    for lev in range(levels):
        model, p_r, p_d = finals[lev]
        factor = 2 ** lev
        sub = ref_p[::factor] if ref_model.grid.aligned else ref_p
        rows[lev].err_rescaled = l2_norm(p_r - sub, model.grid)
        rows[lev].err_direct = l2_norm(p_d - sub, model.grid)

    scale = l2_norm(ref_p, ref_model.grid)
    exact = all(r.err_rescaled <= 1e-12 * max(scale, 1.0) for r in rows[1:])
    dts = [r.dt for r in rows]
    result = StudyResult(
        rows=rows,
        order_pair=fit_order(dts, [r.pair_diff for r in rows]),
        order_rescaled=float("nan") if exact else
        fit_order(dts[1:], [r.err_rescaled for r in rows[1:]]),
        order_direct=fit_order(dts, [r.err_direct for r in rows]),
        exact=exact)

    if out_dir:
        out = ensure_dir(out_dir)
        write_series_csv(out / "convergence.csv", {
            "level": np.array([r.level for r in rows]),
            "n_t": np.array([r.n_t for r in rows]),
            "dt": np.array([r.dt for r in rows], dtype=float),
            "pair_diff": np.array([r.pair_diff for r in rows]),
            "pair_diff_rel": np.array([r.pair_diff_rel for r in rows]),
            "err_rescaled": np.array([r.err_rescaled for r in rows]),
            "err_direct": np.array([r.err_direct for r in rows]),
        })
        with open(out / "orders.csv", "w") as fh:
            fh.write("quantity,observed_order\n")
            fh.write(f"pair_difference,{_fmt(result.order_pair, exact=False)}\n")
            fh.write(f"rescaled_self,{_fmt(result.order_rescaled, result.exact)}\n")
            fh.write(f"direct_vs_reference,{_fmt(result.order_direct, exact=False)}\n")
    return result


def _fmt(order: float, exact: bool) -> str:
    if exact or not np.isfinite(order):
        return "exact"
    return f"{order:.4f}"
