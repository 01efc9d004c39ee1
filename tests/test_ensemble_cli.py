import concurrent.futures
import csv
import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stochage as sa
from stochage import ensemble, rescale
from stochage.cli import main
from stochage.ensemble import (RunConfig, _cached_model, convergence_study, path_chunks,
                               path_seed, run)
from stochage.errors import ConfigurationError
from stochage.fileio import load_bundle, load_field, write_series_csv
from stochage.noise import _contract, amplitude_grids
from stochage.rescale import densities

from conftest import build_model, linear_rates

MODELS = Path(__file__).resolve().parent.parent / "models"

NOISY_MODEL = """
[grid]
dim = 1
t_final = 0.5
a_max = 1.0
n_t = 32
n_a = 64
extent = 1.0
n_x = 6

[rates]
mu_s = constant:0.3
m0 = constant:0.6
gamma = constant:0.0
alpha0 = constant:0.2
k0 = constant:0.0

[noise]
mu1 = cosine:0.2:1

[initial]
p0 = ageexp:1.0,1.0
space_mode = 0.2,1
"""

QUIET_MODEL = NOISY_MODEL.replace("mu1 = cosine:0.2:1", "mu1 = constant:0.0")

TRANSPORT_MODEL = """
[grid]
dim = 1
t_final = 0.5
a_max = 1.0
n_t = 64
n_a = 128
extent = 1.0
n_x = 4

[rates]
mu_s = constant:0.4

[noise]
mu1 = constant:0.0

[initial]
p0 = agegauss:1.0,0.4,0.15

[solver]
diffusion = false
"""


@pytest.fixture
def noisy_model_path(tmp_path):
    p = tmp_path / "noisy.ini"
    p.write_text(NOISY_MODEL)
    return str(p)


@pytest.fixture
def quiet_model_path(tmp_path):
    p = tmp_path / "quiet.ini"
    p.write_text(QUIET_MODEL)
    return str(p)


def chunk_paths(monkeypatch, grid, n):
    """Set the chunk budget to ``n`` paths of ``grid``."""
    monkeypatch.setattr(ensemble, "CHUNK_BYTES", n * 8 * int(np.prod(grid.field_shape)))


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestPathSeeds:
    def test_deterministic_and_distinct(self):
        s = [path_seed(5, m) for m in range(10)]
        assert s == [path_seed(5, m) for m in range(10)]
        assert len(set(s)) == 10


class TestRun:
    def test_zero_noise_both_solvers_identical(self, quiet_model_path, tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig(model_path=quiet_model_path, solver="both", n_paths=1,
                        base_seed=3, out_dir=str(out), snapshot_stride=1)
        assert run(cfg).failures == 0
        a = load_field(out / "path_00000_rescaled.bin")
        b = load_field(out / "path_00000_direct.bin")
        assert np.array_equal(a, b)

    def test_repeat_run_bit_identical(self, noisy_model_path, tmp_path):
        trees = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cfg = RunConfig(model_path=noisy_model_path, solver="both",
                            n_paths=4, base_seed=11, out_dir=str(out),
                            snapshot_stride=1)
            run(cfg)
            trees.append(tree_bytes(out))
        assert trees[0].keys() == trees[1].keys()
        for key in trees[0]:
            assert trees[0][key] == trees[1][key], key

    def test_worker_pool_matches_serial(self, noisy_model_path, tmp_path, monkeypatch):
        # 43 paths make two chunks of 42 paths of this grid, so the pool has two workers
        grid = _cached_model(noisy_model_path, 1)[0].grid
        chunk_paths(monkeypatch, grid, 42)
        assert len(path_chunks(43, grid)) == 2
        outs = []
        for name, workers in (("serial", 1), ("pool", 2)):
            out = tmp_path / name
            cfg = RunConfig(model_path=noisy_model_path, solver="rescaled",
                            n_paths=43, base_seed=2, out_dir=str(out),
                            snapshot_stride=1, workers=workers)
            run(cfg)
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_aggregation_matches_recomputation(self, noisy_model_path, tmp_path):
        out = tmp_path / "agg"
        cfg = RunConfig(model_path=noisy_model_path, solver="direct",
                        n_paths=8, base_seed=0, out_dir=str(out),
                        snapshot_stride=1)
        stats = run(cfg)
        finals = np.stack([load_field(out / f"path_{m:05d}_direct.bin")
                           for m in range(8)])
        assert np.allclose(stats.mean_final["direct"],
                           finals.mean(axis=0), rtol=1e-12, atol=1e-15)
        assert np.allclose(stats.var_final["direct"],
                           finals.var(axis=0, ddof=1), rtol=1e-12, atol=1e-15)

    def test_ci_width_scaling(self, noisy_model_path):
        halves = []
        for n in (32, 64, 128):
            cfg = RunConfig(model_path=noisy_model_path, solver="direct",
                            n_paths=n, base_seed=9)
            halves.append(run(cfg).mass_ci_half["direct"][-1])
        for i in range(len(halves) - 1):
            ratio = halves[i + 1] / halves[i]
            assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.20)

    def test_nonconvergence_reported_not_fatal(self, noisy_model_path, tmp_path):
        # absurd solver settings force a per-path failure; the run finishes
        # and counts it (the command line turns the count into exit 1)
        text = NOISY_MODEL + "\n[solver]\npicard_tol = 0.0\npicard_max_iter = 0\n"
        p = tmp_path / "bad.ini"
        p.write_text(text)
        cfg = RunConfig(model_path=str(p), solver="rescaled", n_paths=2,
                        base_seed=0)
        assert run(cfg).failures == 2

    def test_failed_paths_in_paths_csv(self, tmp_path):
        # the rescaled fixed point cannot converge, the direct route can:
        # failed rows keep their path and seed, and only the converged
        # route gets statistics files
        p = tmp_path / "bad.ini"
        p.write_text(NOISY_MODEL + "\n[solver]\npicard_max_iter = 0\n")
        out = tmp_path / "out"
        assert main(["ensemble", "--model", str(p), "--out", str(out),
                     "--paths", "2", "--solver", "both"]) == 1
        with open(out / "paths.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["path"], r["solver"]) for r in rows] == [
            ("0", "rescaled"), ("0", "direct"), ("1", "rescaled"), ("1", "direct")]
        for row in rows:
            assert row["seed"] == str(path_seed(0, int(row["path"])))
            if row["solver"] == "direct":
                assert row["status"] == "converged"
                assert np.isfinite(float(row["final_l2"]))
                continue
            assert row["status"].startswith(
                "failed: fixed-point iteration did not converge")
            assert np.isnan(float(row["final_l2"]))
            assert row["picard_max"] == "0" and row["truncations"] == "0"
        assert not list(out.glob("stats_*_rescaled.bin"))
        assert not (out / "totals_rescaled.csv").exists()
        for name in ("stats_mean_direct.bin", "stats_var_direct.bin",
                     "totals_direct.csv"):
            assert (out / name).exists(), name

    def test_overflowing_energy_bound_fails_its_path(self, tmp_path):
        # a strong high mode makes the energy bound of most paths overflow
        # a float: those paths fail with the cause, the others still count
        p = tmp_path / "strong.ini"
        p.write_text((MODELS / "sample1d.ini").read_text().replace(
            "mu1 = cosine:0.2:1", "mu1 = cosine:2.0:4"))
        out = tmp_path / "out"
        assert main(["ensemble", "--model", str(p), "--out", str(out),
                     "--solver", "rescaled", "--paths", "8"]) == 1
        with open(out / "paths.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        failed = [r["status"] for r in rows if r["status"] != "converged"]
        assert 0 < len(failed) < 8
        assert all(s.startswith("failed: energy bound exponent") for s in failed)
        # each named by its finite exponent, as a float's exp overflows past 709.78
        assert failed == [f"failed: energy bound exponent {e} overflows a float"
                          for e in ("2834", "1865", "975.3", "3426", "858.9", "1248")]
        assert (out / "stats_mean_rescaled.bin").exists()


class TestChunks:
    def test_chunks_cover_paths_in_order(self, grid1d):
        chunks = path_chunks(100, grid1d)
        assert [m for c in chunks for m in c] == list(range(100))
        assert len({len(c) for c in chunks[:-1]}) == 1
        assert path_chunks(3, grid1d) == [range(0, 3)]

    @staticmethod
    def check_outputs_match_one_path_solves(name, solver, tmp_path, monkeypatch):
        # nine paths make two chunks of 7 paths with a ragged second one on
        # both sample models; sample2d's functional integrates over a sub-box
        path = str(MODELS / f"{name}.ini")
        model, cfg = _cached_model(path, 1)
        chunk_paths(monkeypatch, model.grid, 7)
        chunks = path_chunks(9, model.grid)
        assert len(chunks) == 2 and len(chunks[1]) < len(chunks[0])
        out = tmp_path / "ens"
        run(RunConfig(model_path=path, solver=solver, n_paths=9, base_seed=4,
                      out_dir=str(out), snapshot_stride=1))
        cfg = dataclasses.replace(cfg, snapshot_stride=1)
        solve = sa.solve_direct if solver == "direct" else sa.solve_rescaled
        for m in range(9):
            bundle = sa.sample_bundle(path_seed(4, m), model.noise.n_modes,
                                      model.grid.n_t, model.grid.T)
            rep = solve(model, bundle, cfg)
            assert (load_field(out / f"path_{m:05d}_{solver}.bin").tobytes()
                    == densities(rep, model)[-1].tobytes())
            write_series_csv(tmp_path / "one.csv", {
                "t": rep.grid.times, "l2_norm": rep.l2_series,
                "u_value": rep.u_series, "births": rep.births_series})
            assert ((out / f"path_{m:05d}_{solver}.csv").read_bytes()
                    == (tmp_path / "one.csv").read_bytes())

    @pytest.mark.parametrize("name", ["sample1d", "sample2d"])
    def test_per_path_outputs_match_one_path_solves(self, name, tmp_path, monkeypatch):
        self.check_outputs_match_one_path_solves(name, "direct", tmp_path, monkeypatch)

    @pytest.mark.parametrize("name", ["sample1d", "sample2d"])
    def test_rescaled_outputs_match_one_path_solves(self, name, tmp_path, monkeypatch):
        self.check_outputs_match_one_path_solves(name, "rescaled", tmp_path, monkeypatch)

    def test_path_output_independent_of_chunking(self, tmp_path, monkeypatch):
        # paths 0-2 alone, and in the first of two chunks of 7 paths
        path = str(MODELS / "sample1d.ini")
        chunk_paths(monkeypatch, _cached_model(path, 1)[0].grid, 7)
        trees = []
        for n in (3, 9):
            out = tmp_path / f"n{n}"
            run(RunConfig(model_path=path, solver="both", n_paths=n,
                          base_seed=6, out_dir=str(out), snapshot_stride=1))
            trees.append(tree_bytes(out))
        for m in range(3):
            for name in ("direct", "rescaled"):
                for ext in ("bin", "csv"):
                    key = Path(f"path_{m:05d}_{name}.{ext}")
                    assert trees[0][key] == trees[1][key]

    def test_stride0_rescaled_path_contracts_w_twice(self, monkeypatch):
        # post-processing transforms the two stored snapshots once each,
        # and of the noise fields it contracts only the values W: the final
        # density serves both the output field and the mass series
        calls, solved, batch = [], [], ensemble.solve_rescaled_batch

        def solving(*args):
            reports = batch(*args)
            solved.append(True)
            return reports

        def counting(bundles, amp, t_index):
            if solved:   # the march's own contractions are not post-processing
                calls.append((amp, t_index))
            return _contract(bundles, amp, t_index)

        monkeypatch.setattr(ensemble, "solve_rescaled_batch", solving)
        monkeypatch.setattr(rescale, "_contract", counting)
        stats = run(RunConfig(model_path=str(MODELS / "sample1d.ini"),
                              solver="rescaled", n_paths=1, base_seed=2))
        assert stats.failures == 0
        model, _ = _cached_model(str(MODELS / "sample1d.ini"), 1)
        values = amplitude_grids(model.noise, model.grid).values
        assert 1 <= len(calls) <= 2
        assert all(amp is values for amp, _ in calls)

    def test_pool_over_chunks_matches_serial(self, tmp_path, monkeypatch):
        # two chunks of 7 paths spread over two worker processes
        path = str(MODELS / "sample1d.ini")
        grid = _cached_model(path, 1)[0].grid
        chunk_paths(monkeypatch, grid, 7)
        assert len(path_chunks(9, grid)) == 2
        trees = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run(RunConfig(model_path=path, solver="direct", n_paths=9,
                          base_seed=8, out_dir=str(out), snapshot_stride=1,
                          workers=workers))
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_pool_never_exceeds_chunk_count(self, monkeypatch, tmp_path):
        # a stand-in executor records the pool size and maps in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # `run` imports the executor from concurrent.futures when it needs a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        path = str(MODELS / "sample1d.ini")
        grid = _cached_model(path, 1)[0].grid
        chunk_paths(monkeypatch, grid, 7)
        assert len(path_chunks(9, grid)) == 2
        trees = []
        for n_paths, workers in ((9, 8), (9, 1), (2, 8)):
            out = tmp_path / f"n{n_paths}w{workers}"
            run(RunConfig(model_path=path, solver="direct", n_paths=n_paths,
                          base_seed=8, out_dir=str(out), snapshot_stride=1,
                          workers=workers))
            trees.append(tree_bytes(out))
        # two chunks ask for two workers; one chunk runs without a pool
        assert sizes == [2]
        assert trees[0] == trees[1]

    def test_failed_direct_path_stays_with_its_path(self, grid1d):
        # fertility turns NaN once a path's population passes a threshold
        # that only some paths reach: the batch fails exactly those paths,
        # each with the error its one-path solve raises
        from conftest import fails_alone, nan_fertility_model

        cfg = sa.SolverConfig(snapshot_stride=0)
        bundles = [sa.sample_bundle(s, 1, grid1d.n_t, grid1d.T) for s in range(6)]
        model = nan_fertility_model(grid1d, bundles, sa.solve_direct_batch, cfg)
        errors = fails_alone(sa.solve_direct_batch(model, bundles, cfg),
                             sa.solve_direct, model, bundles, cfg)
        assert 0 < sum(e is not None for e in errors) < len(bundles)

    def test_failing_chunk_is_solved_once(self, monkeypatch, tmp_path):
        # paths whose energy bound overflows leave their chunk's batch; the
        # others march on in it, so 8 paths in 2 chunks of 7 take 2 batch
        # solves.  The march gathers the coefficient sups; only a failed
        # path has them completed by a sweep, once
        from stochage.rescale import RescaledCoefficients

        sweep, batch = RescaledCoefficients.coefficient_sups, ensemble.solve_rescaled_batch
        calls, swept, failed = [], [], []

        def counting_sweep(self, rows=None):
            swept.extend(self.bundles if rows is None else [self.bundles[j] for j in rows])
            return sweep(self, rows)

        def counting_batch(model, bundles, config=None):
            calls.append(len(bundles))
            results = batch(model, bundles, config)
            failed.extend(b for b, r in zip(bundles, results) if isinstance(r, sa.StochageError))
            return results

        monkeypatch.setattr(RescaledCoefficients, "coefficient_sups", counting_sweep)
        monkeypatch.setattr(ensemble, "solve_rescaled_batch", counting_batch)
        path = tmp_path / "loud.ini"
        path.write_text((MODELS / "sample1d.ini").read_text().replace(
            "mu1 = cosine:0.2:1", "mu1 = cosine:2.0:4"))
        chunk_paths(monkeypatch, _cached_model(str(path), 1)[0].grid, 7)
        stats = run(RunConfig(model_path=str(path), solver="rescaled", n_paths=8))
        assert 0 < stats.failures < 8
        assert calls == [7, 1]
        assert len(failed) == stats.failures
        # a failed path is completed at most once; one that marched to the
        # end fails from the sups its march gathered, with no sweep
        assert len(set(map(id, swept))) == len(swept)
        assert set(map(id, swept)) <= set(map(id, failed))
        assert 0 < len(swept) < len(failed)


SINE_MODEL = NOISY_MODEL.replace("mu1 = cosine:0.2:1", "mu1 = sine:0.2:1")


class TestModelBoundary:
    def test_sine_amplitude_rejected_on_rescaled_route(self, tmp_path):
        # the rescaled route keeps alpha unchanged, which is only valid for
        # amplitudes with zero normal derivative; the direct route has no
        # such restriction
        p = tmp_path / "sine.ini"
        p.write_text(SINE_MODEL)
        args = ["ensemble", "--model", str(p), "--paths", "2"]
        assert main(args + ["--out", str(tmp_path / "r"), "--solver", "rescaled"]) == 3
        assert main(args + ["--out", str(tmp_path / "d"), "--solver", "direct"]) == 0

    def test_unknown_solver_rejected_before_output(self, noisy_model_path, tmp_path):
        with pytest.raises(ConfigurationError, match="bogus"):
            run(RunConfig(model_path=noisy_model_path, solver="bogus",
                          out_dir=str(tmp_path / "o")))
        assert not (tmp_path / "o").exists()

    def test_negative_level_rejected_and_named(self, noisy_model_path, tmp_path):
        with pytest.raises(ConfigurationError, match="got level -1"):
            run(RunConfig(model_path=noisy_model_path, level=-1,
                          out_dir=str(tmp_path / "o")))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new", [
        (b"[grid]\n", b"[grid]\n# \xff\n"),
        (b"mu2 = agepoly:0.1,0.1", b"mu2 = agepoly:"),
        (b"mu2 = agepoly:0.1,0.1", b"mu2 = agecos:0.1:1:"),
        (b"mu2 = agepoly:0.1,0.1", b"mu2 = agepoly:0.1,,0.2"),
    ], ids=["not-utf8", "agepoly-no-coefficients", "agecos-no-coefficients", "empty-entry"])
    def test_unreadable_model_value_is_config_error(self, old, new, tmp_path, capsys):
        text = (MODELS / "sample1d.ini").read_bytes()
        assert text.count(old) == 1
        path = tmp_path / "m.ini"
        path.write_bytes(text.replace(old, new))
        assert main(["ensemble", "--model", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert ("utf-8" if old == b"[grid]\n" else new.decode().split(" = ")[1]) in err

    @pytest.mark.parametrize("solver", ["rescaled", "direct"])
    def test_negative_robin_coefficient_is_config_error(self, solver, tmp_path, capsys):
        text = (MODELS / "sample1d.ini").read_text()
        assert "alpha0 = constant:0.2" in text
        path = tmp_path / "m.ini"
        path.write_text(text.replace("alpha0 = constant:0.2", "alpha0 = constant:-5.0"))
        assert main(["ensemble", "--model", str(path), "--solver", solver, "--paths", "2",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "alpha0 = constant:-5.0 must be >= 0 everywhere, got a lowest value of -5" in err

    @pytest.mark.parametrize("old, new", [
        ("p0 = ageexp:1.5,1.0", "p0 = ageexp:-1.5,1.0"),
        ("mu_s = logistic:0.1,0.5,2.0,0.5", "mu_s = constant:-1"),
        ("m0 = logistic:0.8,-0.5,1.5,0.5", "m0 = constant:-1"),
        ("gamma = constant:1.0", "gamma = constant:-1"),
        ("mu_s = logistic:0.1,0.5,2.0,0.5", "mu_s = logistic:0.1,-0.5,2.0,0.5"),
        ("m0 = logistic:0.8,-0.5,1.5,0.5", "m0 = window:0.1,0.4,-1.2"),
        ("m0 = logistic:0.8,-0.5,1.5,0.5", "m0 = table:0:0.5;1:-0.1"),
        ("mu1 = cosine:0.2:1", "mu1 = constant:1e308"),
        ("gamma = constant:1.0", "gamma = constant:1e308"),
        ("p0 = ageexp:1.5,1.0", "p0 = constant:1e308"),
        ("p0 = ageexp:1.5,1.0", "p0 = agegauss:1.64,-1.32,0"),
        ("p0 = ageexp:1.5,1.0", "p0 = agegauss:1.0,0.5,0"),
        ("m0 = logistic:0.8,-0.5,1.5,0.5", "m0 = logistic:1e308,1.91,0.547,0.577"),
        ("k0 = constant:0.0", "k0 = constant:1e160"),
        ("mu_s = logistic:0.1,0.5,2.0,0.5", "mu_s = logistic:1.27,1e160,1.38,1.17"),
        ("p0 = ageexp:1.5,1.0", "p0 = agegauss:1.64,-1.32,1e-300"),
        ("p0 = ageexp:1.5,1.0", "p0 = agegauss:1.0,5.0,0.01"),
        ("alpha0 = constant:0.2", "alpha0 = table:0:-1;0.001:1;1:1"),
        ("alpha0 = constant:0.2", "alpha0 = table:0:0;0.5:1e308;1:1e308"),
    ], ids=["p0-negative", "mu_s-negative", "m0-negative", "gamma-negative",
            "mu_s-logistic-dips-below-0", "m0-window-negative", "m0-table-negative",
            "ito-correction-overflows", "u-overflows", "p0-norm-overflows",
            "agegauss-zero-width-off-node", "agegauss-zero-width-on-node",
            "m0-sup-squared-overflows", "k0-sup-squared-overflows",
            "mu_s-sup-squared-overflows", "agegauss-between-nodes", "agegauss-beyond-nodes",
            "alpha0-negative-at-age-0", "alpha0-slope-overflows"])
    def test_input_the_theory_excludes_is_config_error(self, old, new, tmp_path, capsys):
        # a negative density or rate (alpha0 too, even negative only at age 0,
        # which the diffusion never reads), a Gaussian density of width 0 or 0
        # on every node, or data whose Ito correction, squared norm, squared
        # rate sup, table slope or population functional overflows a float,
        # fails where the file is parsed: exit 3, named by its key and value,
        # and no numpy warning on the way (every warning is recorded here)
        text = (MODELS / "sample1d.ini").read_text()
        assert text.count(old) == 1
        path = tmp_path / "m.ini"
        path.write_text(text.replace(old, new))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["ensemble", "--model", str(path), "--solver", "both", "--paths", "1",
                         "--out", str(out)])
        assert code == 3 and caught == []
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and new in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("edits, code, routes, status", [
        ({"gamma = constant:1.0": "gamma = logistic:0.3,2,-1e308,1e300"}, 0,
         ("rescaled", "direct"), "converged"),
        ({"m0 = logistic:0.8,-0.5,1.5,0.5": "m0 = constant:1e20"}, 1, ("direct",),
         "failed: the L2 norm or the population functional U of the state overflows a float"),
        ({"gamma = constant:1.0": "gamma = constant:1e307",
          "m0 = logistic:0.8,-0.5,1.5,0.5": "m0 = constant:5"}, 1, ("rescaled", "direct"),
         "failed: the L2 norm or the population functional U of the state overflows a float"),
    ], ids=["logistic-argument-overflows", "density-norm-overflows", "u-overflows-in-a-step"])
    def test_overflow_the_program_handles_does_not_warn(self, edits, code, routes, status,
                                                        tmp_path):
        # a logistic argument past a float saturates, and a path whose norm or
        # U overflows, in a step or after it, fails alone and named: no numpy
        # warning on the way
        text = (MODELS / "sample1d.ini").read_text()
        for old, new in edits.items():
            assert text.count(old) == 1
            text = text.replace(old, new)
        path = tmp_path / "m.ini"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["ensemble", "--model", str(path), "--solver", "both", "--paths", "2",
                         "--out", str(tmp_path / "o")]) == code
        assert caught == []
        with open(tmp_path / "o" / "paths.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows if row["solver"] in routes] == [status] * (
            2 * len(routes))

    @pytest.mark.parametrize("scale, gamma", [(1e160, 0.0), (2.0, 1e308)],
                             ids=["p0-norm-overflows", "u-overflows"])
    def test_code_built_model_past_a_float_is_config_error(self, scale, gamma, grid1d):
        # the model checks the data energy and U itself, so a model built in
        # code fails where it is built, before a march warns of an overflow
        rates = dataclasses.replace(linear_rates(), gamma=sa.ConstantRate(gamma))
        p0 = np.full(grid1d.field_shape, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="overflows a float"):
                build_model(grid1d, rates=rates, p0=p0)

    def test_model_is_parsed_from_the_bytes_it_is_cached_on(self, tmp_path, monkeypatch):
        # the file is read once: the bytes of the cache key are the ones parsed
        path = tmp_path / "m.ini"
        path.write_text(NOISY_MODEL)
        edited = NOISY_MODEL.replace("t_final = 0.5", "t_final = 0.25").encode()
        reads = []
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or edited)
        assert _cached_model(str(path), 1)[0].grid.T == 0.25
        assert reads == [path]

    def test_edited_model_file_is_parsed_again(self, tmp_path):
        p = tmp_path / "m.ini"
        p.write_text(NOISY_MODEL)
        first = run(RunConfig(model_path=str(p), solver="direct", n_paths=2,
                              out_dir=str(tmp_path / "a")))
        p.write_text(NOISY_MODEL.replace("t_final = 0.5", "t_final = 0.25"))
        second = run(RunConfig(model_path=str(p), solver="direct", n_paths=2,
                               out_dir=str(tmp_path / "b")))
        assert first.failures == second.failures == 0
        t1 = (tmp_path / "a" / "totals_direct.csv").read_text().splitlines()
        t2 = (tmp_path / "b" / "totals_direct.csv").read_text().splitlines()
        assert t1[-1].startswith("0.5,") and t2[-1].startswith("0.25,")
        assert _cached_model(str(p), 1)[0].grid.T == 0.25


class TestConvergenceStudy:
    def test_needs_three_levels(self, noisy_model_path):
        with pytest.raises(ConfigurationError):
            convergence_study(noisy_model_path, 2)

    def test_deterministic_transport_exact(self, tmp_path):
        p = tmp_path / "transport.ini"
        p.write_text(TRANSPORT_MODEL)
        result = convergence_study(str(p), 3, out_dir=str(tmp_path / "conv"))
        assert result.exact
        assert all(r.pair_diff <= 1e-13 for r in result.rows)
        orders = (tmp_path / "conv" / "orders.csv").read_text()
        assert "rescaled_self,exact" in orders

    def test_zero_population_route_gap_is_zero(self, tmp_path):
        # both routes keep p0 = 0 exactly, so the relative route gap is
        # 0/0, which compare and convergence both count as 0
        text = (MODELS / "sample1d.ini").read_text()
        initial = "p0 = ageexp:1.5,1.0\nspace_mode = 0.2,1\n"
        assert initial in text
        p = tmp_path / "zero.ini"
        p.write_text(text.replace(initial, "p0 = constant:0\n"))
        assert main(["compare", "--model", str(p), "--out", str(tmp_path / "c")]) == 0
        assert main(["convergence", "--model", str(p), "--out", str(tmp_path / "v"),
                     "--levels", "3"]) == 0
        with open(tmp_path / "c" / "compare.csv", newline="") as fh:
            gaps = {r["quantity"]: float(r["value"]) for r in csv.DictReader(fh)}
        assert gaps == {"l2_diff_final": 0.0, "l2_diff_final_rel": 0.0}
        with open(tmp_path / "v" / "convergence.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["pair_diff"]), float(r["pair_diff_rel"])) for r in rows] == [
            (0.0, 0.0)] * 3

    def test_noisy_study_outputs(self, noisy_model_path, tmp_path):
        out = tmp_path / "conv"
        result = convergence_study(noisy_model_path, 3, seed=1, out_dir=str(out))
        assert (out / "convergence.csv").exists()
        assert (out / "orders.csv").exists()
        assert not result.exact
        assert result.rows[0].pair_diff > result.rows[-1].pair_diff * 0  # finite
        assert np.isfinite(result.order_rescaled)


class TestCli:
    def test_ensemble_both_solvers_saves_bundle(self, noisy_model_path, tmp_path):
        code = main(["ensemble", "--model", noisy_model_path,
                     "--out", str(tmp_path / "o"), "--paths", "2",
                     "--solver", "both", "--stride", "1", "--save-bundle"])
        assert code == 0
        assert (tmp_path / "o" / "paths.csv").exists()
        assert (tmp_path / "o" / "totals_rescaled.csv").exists()
        saved = load_bundle(tmp_path / "o" / "bundle_path00000.bin")
        expected = ensemble.path_bundle(noisy_model_path, 0, 0, [0])[0]
        assert saved.seed == expected.seed
        assert saved.increments.tobytes() == expected.increments.tobytes()

    def test_compare(self, noisy_model_path, tmp_path):
        code = main(["compare", "--model", noisy_model_path,
                     "--out", str(tmp_path / "c")])
        assert code == 0
        assert (tmp_path / "c" / "compare.csv").exists()
        assert (tmp_path / "c" / "final_rescaled.bin").exists()

    def test_convergence(self, noisy_model_path, tmp_path):
        code = main(["convergence", "--model", noisy_model_path,
                     "--out", str(tmp_path / "v"), "--levels", "3"])
        assert code == 0
        assert (tmp_path / "v" / "convergence.csv").exists()

    def test_convergence_too_few_levels(self, noisy_model_path, tmp_path):
        code = main(["convergence", "--model", noisy_model_path,
                     "--out", str(tmp_path / "v"), "--levels", "2"])
        assert code == 3

    def test_missing_model_is_config_error(self, tmp_path):
        code = main(["ensemble", "--model", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_bad_cli_args(self, noisy_model_path, tmp_path):
        assert main(["ensemble"]) == 3
        # no `run` subcommand: `ensemble --solver rescaled` does its job
        out = tmp_path / "o"
        assert main(["run", "--model", noisy_model_path, "--out", str(out)]) == 3
        assert not out.exists()

    def test_check_passes(self, noisy_model_path, tmp_path):
        code = main(["check", "--model", noisy_model_path,
                     "--out", str(tmp_path / "chk")])
        assert code == 0
        text = (tmp_path / "chk" / "checks.csv").read_text()
        assert "apriori_margin_max" in text
        assert "fail" not in text

    def test_check_sweeps_once_per_rescaled_solve(self, monkeypatch, tmp_path):
        # check solves the stored run, two perturbations of it and a coarse
        # run; with a radius from the energy bound every solve gathers its
        # sups in the march, and the stored run's constants come from its
        # guard.  A fixed radius above the bound's n0 = 98 never clips, so
        # it writes the same checks, with the constants from one sweep of
        # the stored run.
        from stochage.rescale import RescaledCoefficients

        sweep = RescaledCoefficients.coefficient_sups
        sweeps = []

        def counting(self, rows=None):
            sweeps.append(self)
            return sweep(self, rows)

        monkeypatch.setattr(RescaledCoefficients, "coefficient_sups", counting)
        text = (MODELS / "sample1d.ini").read_text()
        assert "truncation_radius = auto" in text
        fixed = tmp_path / "fixed.ini"
        fixed.write_text(text.replace("truncation_radius = auto",
                                      "truncation_radius = 1000"))
        counts = {}
        for name, path in (("auto", MODELS / "sample1d.ini"), ("fixed", fixed)):
            sweeps.clear()
            assert main(["check", "--model", str(path),
                         "--out", str(tmp_path / name)]) == 0
            counts[name] = len(sweeps)
        assert counts == {"auto": 0, "fixed": 1}
        assert ((tmp_path / "auto" / "checks.csv").read_bytes()
                == (tmp_path / "fixed" / "checks.csv").read_bytes())

    @pytest.mark.parametrize("name, nodes", [("sample1d", 98), ("sample2d", 26)])
    def test_check_builds_no_robin_datum_after_its_marches(self, name, nodes, monkeypatch,
                                                           tmp_path):
        # the marches of the 3-path batch and of the coarse run build each
        # node once; the estimates gather their terms from the coefficients
        # the marches built, and the energy check reads the Robin norms its
        # constants were built from, so no node is built a second time
        from stochage.rescale import RescaledCoefficients

        calls = {"k_faces": 0, "node_fields": 0}
        for meth in calls:
            def counting(self, *args, _meth=getattr(RescaledCoefficients, meth), _name=meth):
                calls[_name] += 1
                return _meth(self, *args)

            monkeypatch.setattr(RescaledCoefficients, meth, counting)
        assert main(["check", "--model", str(MODELS / f"{name}.ini"),
                     "--out", str(tmp_path / "chk")]) == 0
        assert calls == {"k_faces": nodes, "node_fields": nodes}

    def test_check_batches_its_same_grid_runs(self, monkeypatch, tmp_path):
        # the stored run and both perturbations are one 3-path batch; the
        # coarse run is a batch of one, and no one-path solve is made
        from stochage import cli, solver

        widths, singles, batch = [], [], solver.solve_rescaled_batch

        def counting(model, bundles, *args, **kwargs):
            widths.append(len(bundles))
            return batch(model, bundles, *args, **kwargs)

        for module in (cli, solver):
            monkeypatch.setattr(module, "solve_rescaled_batch", counting)
            monkeypatch.setattr(module, "solve_rescaled", lambda *args: singles.append(args))
        assert main(["check", "--model", str(MODELS / "sample1d.ini"),
                     "--out", str(tmp_path / "chk")]) == 0
        assert widths == [3, 1] and singles == []

    def test_check_reports_the_stored_runs_error(self, tmp_path, capsys):
        # every run of the batch fails; check reports the stored run's error
        # as its one-path solve raises it
        path = tmp_path / "stuck.ini"
        path.write_text((MODELS / "sample1d.ini").read_text().replace(
            "picard_max_iter = 50", "picard_max_iter = 1"))
        model, cfg = _cached_model(str(path), 1)
        bundle = ensemble.path_bundle(str(path), 0, 0, [0])[0]
        with pytest.raises(sa.StochageError) as alone:
            sa.solve_rescaled(model, bundle, dataclasses.replace(cfg, snapshot_stride=1))
        capsys.readouterr()
        assert main(["check", "--model", str(path), "--out", str(tmp_path / "chk")]) == 1
        assert capsys.readouterr().err == f"solver error: {alone.value}\n"

    def test_check_failure_exit_code(self, tmp_path):
        # a hostile calibration collapses the energy bound, so the margin
        # check (and the truncation guard derived from it) must fail
        bad = NOISY_MODEL + "\n[solver]\nc0 = 1e-12\n"
        p = tmp_path / "m.ini"
        p.write_text(bad)
        code = main(["check", "--model", str(p), "--out", str(tmp_path / "chk2")])
        assert code == 2
        text = (tmp_path / "chk2" / "checks.csv").read_text()
        assert "fail" in text

    def test_ensemble_defaults_to_direct_route(self, noisy_model_path, tmp_path):
        code = main(["ensemble", "--model", noisy_model_path,
                     "--out", str(tmp_path / "e"), "--paths", "3"])
        assert code == 0
        assert (tmp_path / "e" / "totals_direct.csv").exists()
        assert not (tmp_path / "e" / "totals_rescaled.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--paths", "0"],
        ["ensemble", "--paths", "-3"],
        ["ensemble", "--seed", "-1"],
        ["check", "--seed", "-1"],
        ["convergence", "--seed", "-1"],
        ["compare", "--level", "-1"],
        ["compare", "--stride", "-2"],
        ["ensemble", "--stride", "-2"],
        ["check", "--level", "2"],
        ["check", "--stride", "5"],
        ["ensemble", "--workers", "0"],
        ["ensemble", "--workers", "-2"],
        ["compare", "--stride", "1"],
    ])
    def test_out_of_range_input_is_config_error(self, noisy_model_path, tmp_path,
                                                argv):
        out = tmp_path / "o"
        assert main(argv + ["--model", noisy_model_path, "--out", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["ensemble", "compare"])
    def test_negative_level_is_named(self, noisy_model_path, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert main([command, "--level", "-1", "--model", noisy_model_path,
                     "--out", str(out)]) == 3
        assert "--level must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()


def test_import_leaves_the_process_pool_unloaded():
    # `run` imports the executor only for a pool of workers, so importing
    # the package does not load multiprocessing
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, stochage; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_runtime_imports_only_stdlib_and_numpy():
    # the runtime stays numpy-only: importing the package, its command line
    # and its model-file parser adds no top-level module beyond the
    # standard library, numpy and stochage (site may load others first)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; before = set(sys.modules)\n"
            "import stochage, stochage.cli, stochage.modelfile\n"
            "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(added - set(sys.stdlib_module_names) - {'numpy', 'stochage'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
