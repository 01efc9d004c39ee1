"""Monte Carlo orchestration, ensemble statistics, and convergence studies.

Every ensemble path gets its own Brownian bundle whose seed derives from
``(base_seed, path_index)`` through numpy's ``SeedSequence`` spawning, so
re-running any subset of paths reproduces identical noise regardless of
worker scheduling.  Paths are handed out in contiguous chunks whose size
depends only on the grid (see :data:`CHUNK_BYTES`).  Both routes march a
chunk as one array with a leading path axis, and a path that fails leaves
the march alone, with its error as its status.  Aggregation happens in
path order in the parent process, which makes the whole artifact tree a
deterministic function of the configuration.  :func:`run` returns the
statistics; the command line maps their count of failed paths to its
exit code.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, StochageError
from .estimates import _ratio
from .fileio import ensure_dir, save_field, write_series_csv
from .grid import Grid, l2_norm, weighted_population
from .model import PopulationModel
from .noise import BrownianBundle, coarsen, sample_bundle
from .oracle import solve_direct, solve_direct_batch
from .rescale import densities
from .solver import SolveReport, _snapshot_indices, solve_rescaled, solve_rescaled_batch

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

# Byte budget of one chunk's state array.  Bigger chunks spread a batched
# march's per-step overhead over more paths but hold more in memory and leave
# a pool fewer chunks; 256 KiB is 15 paths of models/sample1d.ini.
CHUNK_BYTES = 256 * 1024

ORDER_FLOOR = 1e-13   # errors at or below it are rounding: fit_order leaves them out

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
        if self.solver not in _SOLVERS + ("both",):
            raise ConfigurationError(f"unknown solver {self.solver!r}")
        if (self.level < 0 or self.n_paths < 1 or self.snapshot_stride < 0
                or self.base_seed < 0 or self.workers < 1):
            raise ConfigurationError(
                f"need level >= 0, paths >= 1, stride >= 0, seed >= 0 and workers "
                f">= 1; got level {self.level}, paths {self.n_paths}, stride "
                f"{self.snapshot_stride}, seed {self.base_seed}, workers {self.workers}")

    def solvers(self) -> tuple[str, ...]:
        return _SOLVERS if self.solver == "both" else (self.solver,)


def path_seed(base_seed: int, index: int) -> int:
    """Derived seed for one ensemble path (documented, stable scheme)."""
    if base_seed < 0:
        raise ConfigurationError(f"a seed must be nonnegative, got {base_seed}")
    return int(np.random.SeedSequence(base_seed, spawn_key=(index,)).generate_state(1)[0])


def _cached_model(path: str, coarsen_factor: int):
    """Parsed model file, cached on the bytes read here, which are the ones
    parsed, and the coarsening factor: an edited file is parsed again."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read model file {path}: {exc}") from exc
    return _parse_model(data, coarsen_factor, str(path))


@functools.lru_cache(maxsize=8)
def _parse_model(data: bytes, coarsen_factor: int, path: str):
    from .modelfile import parse_model

    return parse_model(path, coarsen=coarsen_factor, data=data)


def path_bundle(model_path: str, level: int, base_seed: int,
                indices: Sequence[int]) -> list[BrownianBundle]:
    """Brownian bundles of ensemble paths ``indices`` at coarsening
    ``level``: each sampled on the master grid from :func:`path_seed`, then
    coarsened by ``2 ** level``."""
    master, _ = _cached_model(model_path, 1)
    grid = master.grid
    return [coarsen(sample_bundle(path_seed(base_seed, index), master.noise.n_modes,
                                  grid.n_t, grid.T), 2 ** level)
            for index in indices]


def path_chunks(n_paths: int, grid: Grid) -> list[range]:
    """Contiguous path ranges of at most :data:`CHUNK_BYTES` of state each."""
    size = max(1, CHUNK_BYTES // (8 * int(np.prod(grid.field_shape))))
    return [range(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def density_final(report: SolveReport, model: PopulationModel, bundle: BrownianBundle):
    """:func:`densities` at the final time, for the benchmark's self-test, which calls it."""
    if bundle is not report.bundle:
        raise ConfigurationError("the report was solved on another noise path")
    return densities(report, model)[-1]


@dataclass
class PathResult:
    """One route's outcome on one ensemble path: one row of ``paths.csv``."""

    path: int
    seed: int
    solver: str
    status: str = "converged"
    final: np.ndarray | None = None     # density at the final time
    final_l2: float = np.nan
    mass: np.ndarray | None = None      # total population per snapshot
    picard_max: int = 0
    truncations: int = 0


def _run_chunk(config: RunConfig, indices: range,
               out_dir: str | None) -> list[PathResult]:
    """Every route's result on every path of ``indices``, in path order and
    within a path in the order of :meth:`RunConfig.solvers`."""
    model, cfg = _cached_model(config.model_path, 2 ** config.level)
    cfg = dataclasses.replace(cfg, snapshot_stride=config.snapshot_stride)
    bundles = path_bundle(config.model_path, config.level, config.base_seed, indices)
    records = []
    for name in config.solvers():
        solve = solve_rescaled_batch if name == "rescaled" else solve_direct_batch
        reports = solve(model, bundles, cfg)
        for index, bundle, report in zip(indices, bundles, reports):
            if isinstance(report, StochageError):
                records.append(PathResult(index, bundle.seed, name,
                                          status=f"failed: {report}"))
                continue
            # a copy, not a view that keeps the chunk's snapshot array alive
            p_final = (dens := densities(report, model))[-1].copy()
            records.append(PathResult(
                index, bundle.seed, name, final=p_final,
                final_l2=l2_norm(p_final, model.grid),
                mass=np.array([weighted_population(p, 1.0, None, model.grid) for p in dens]),
                picard_max=int(report.picard_iterations.max()),
                truncations=report.truncations))
            if out_dir is not None and config.snapshot_stride > 0:
                save_field(Path(out_dir) / f"path_{index:05d}_{name}.bin", p_final)
                _save_series(Path(out_dir) / f"path_{index:05d}_{name}.csv", report)
    return sorted(records, key=lambda rec: rec.path)


def _save_series(path, report: SolveReport) -> None:
    """The per-node series of ``report`` as one CSV: time, norm, ``U`` and births."""
    write_series_csv(path, {"t": report.grid.times, "l2_norm": report.l2_series,
                            "u_value": report.u_series, "births": report.births_series})


def _route_pair(model: PopulationModel, bundle: BrownianBundle, config) -> tuple:
    """Both routes on one bundle at stride 0: the reports ``(rescaled, direct)``, their final
    densities, and the L2 gap of the direct density from the rescaled one, then over its norm."""
    config = dataclasses.replace(config, snapshot_stride=0)
    reports = solve_rescaled(model, bundle, config), solve_direct(model, bundle, config)
    p_r, p_d = finals = tuple(densities(rep, model)[-1] for rep in reports)
    gap = l2_norm(p_d - p_r, model.grid)
    return reports, finals, gap, _ratio(gap, l2_norm(p_r, model.grid))


@dataclass
class EnsembleStats:
    """Cell statistics of the density at the final time plus totals."""

    mean_final: dict = field(default_factory=dict)   # solver -> field
    var_final: dict = field(default_factory=dict)    # solver -> field (ddof=1)
    mass_mean: dict = field(default_factory=dict)    # solver -> series
    mass_ci_half: dict = field(default_factory=dict)
    mass_indices: np.ndarray | None = None
    failures: int = 0


def run(config: RunConfig) -> EnsembleStats:
    """Execute the ensemble and aggregate statistics deterministically.

    Chunks of paths may run in a process pool of at most one worker per
    chunk; the reduction always happens in path order so repeated runs
    produce byte-identical artifacts.
    """
    model, _ = _cached_model(config.model_path, 2 ** config.level)
    out_dir = str(ensure_dir(config.out_dir)) if config.out_dir else None

    ranges = path_chunks(config.n_paths, model.grid)
    workers = min(config.workers, len(ranges))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, repeat(config), ranges, repeat(out_dir)))
    else:
        chunks = [_run_chunk(config, r, out_dir) for r in ranges]
    records = [rec for chunk in chunks for rec in chunk]

    stats = EnsembleStats(
        mass_indices=_snapshot_indices(model.grid.n_t, config.snapshot_stride),
        failures=sum(rec.status != "converged" for rec in records))
    for name in config.solvers():
        done = [rec for rec in records
                if rec.solver == name and rec.status == "converged"]
        if not done:
            continue
        # Welford's update, path by path
        mean = np.array(done[0].final)
        m2 = np.zeros_like(mean)
        for count, rec in enumerate(done[1:], start=2):
            delta = rec.final - mean
            mean += delta / count
            m2 += delta * (rec.final - mean)
        n = len(done)
        stats.mean_final[name] = mean
        stats.var_final[name] = m2 / (n - 1) if n > 1 else np.zeros_like(mean)
        mass = np.asarray([rec.mass for rec in done])
        stats.mass_mean[name] = mass.mean(axis=0)
        sd = mass.std(axis=0, ddof=1) if n > 1 else np.zeros(mass.shape[1])
        stats.mass_ci_half[name] = Z_99 * sd / np.sqrt(n)

    if out_dir is not None:
        _persist(model, stats, records, out_dir)
    return stats


def _persist(model: PopulationModel, stats: EnsembleStats,
             records: list[PathResult], out_dir: str):
    out = Path(out_dir)
    write_series_csv(out / "paths.csv", {
        col: np.array([getattr(rec, col) for rec in records])
        for col in ("path", "seed", "solver", "final_l2", "picard_max",
                    "truncations", "status")})
    for name in stats.mean_final:
        save_field(out / f"stats_mean_{name}.bin", stats.mean_final[name])
        save_field(out / f"stats_var_{name}.bin", stats.var_final[name])
        write_series_csv(out / f"totals_{name}.csv", {
            "t": model.grid.times[stats.mass_indices],
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


def fit_order(dts, errs) -> float:
    dts = np.asarray(dts, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = errs > ORDER_FLOOR
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
    models = [_cached_model(model_path, 2 ** k)[0] for k in range(levels)]   # before any solve
    master = sample_bundle(seed, model_fine.noise.n_modes,
                           model_fine.grid.n_t, model_fine.grid.T)

    rows = []
    for lev, model in enumerate(models):
        factor = 2 ** lev
        _, (p_r, p_d), diff, rel = _route_pair(model, coarsen(master, factor), base_cfg)
        if lev == 0:
            ref_p = p_r
        sub = ref_p[::factor] if model_fine.grid.aligned else ref_p
        rows.append(StudyRow(level=lev, n_t=model.grid.n_t, dt=model.grid.dt,
                             pair_diff=diff, pair_diff_rel=rel,
                             err_rescaled=l2_norm(p_r - sub, model.grid),
                             err_direct=l2_norm(p_d - sub, model.grid)))

    scale = l2_norm(ref_p, model_fine.grid)
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
            f.name: np.array([getattr(r, f.name) for r in rows])
            for f in dataclasses.fields(StudyRow)})
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
