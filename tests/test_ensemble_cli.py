import dataclasses
import filecmp
from pathlib import Path

import numpy as np
import pytest

import stochage as sa
from stochage.cli import main
from stochage.ensemble import (RunConfig, _cached_model, convergence_study,
                               density_final, path_chunks, path_seed, run)
from stochage.errors import ConfigurationError
from stochage.fileio import load_field, write_series_csv

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
        result = run(cfg)
        assert result.exit_code == 0
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

    def test_worker_pool_matches_serial(self, noisy_model_path, tmp_path):
        outs = []
        for name, workers in (("serial", 1), ("pool", 2)):
            out = tmp_path / name
            cfg = RunConfig(model_path=noisy_model_path, solver="rescaled",
                            n_paths=4, base_seed=2, out_dir=str(out),
                            snapshot_stride=1, workers=workers)
            run(cfg)
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_aggregation_matches_recomputation(self, noisy_model_path, tmp_path):
        out = tmp_path / "agg"
        cfg = RunConfig(model_path=noisy_model_path, solver="direct",
                        n_paths=8, base_seed=0, out_dir=str(out),
                        snapshot_stride=1)
        result = run(cfg)
        finals = np.stack([load_field(out / f"path_{m:05d}_direct.bin")
                           for m in range(8)])
        assert np.allclose(result.stats.mean_final["direct"],
                           finals.mean(axis=0), rtol=1e-12, atol=1e-15)
        assert np.allclose(result.stats.var_final["direct"],
                           finals.var(axis=0, ddof=1), rtol=1e-12, atol=1e-15)

    def test_ci_width_scaling(self, noisy_model_path):
        halves = []
        for n in (32, 64, 128):
            cfg = RunConfig(model_path=noisy_model_path, solver="direct",
                            n_paths=n, base_seed=9)
            result = run(cfg)
            halves.append(result.stats.mass_ci_half["direct"][-1])
        for i in range(len(halves) - 1):
            ratio = halves[i + 1] / halves[i]
            assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.20)

    def test_nonconvergence_reported_not_fatal(self, noisy_model_path, tmp_path):
        # absurd solver settings force a per-path failure; the run finishes
        # and reports it
        from stochage.modelfile import parse_model
        text = NOISY_MODEL + "\n[solver]\npicard_tol = 0.0\npicard_max_iter = 0\n"
        p = tmp_path / "bad.ini"
        p.write_text(text)
        cfg = RunConfig(model_path=str(p), solver="rescaled", n_paths=2,
                        base_seed=0)
        result = run(cfg)
        assert result.exit_code == 1
        assert result.stats.failures == 2


class TestChunks:
    def test_chunks_cover_paths_in_order(self, grid1d):
        chunks = path_chunks(100, grid1d)
        assert [m for c in chunks for m in c] == list(range(100))
        assert len({len(c) for c in chunks[:-1]}) == 1
        assert path_chunks(3, grid1d) == [range(0, 3)]

    @staticmethod
    def check_outputs_match_one_path_solves(name, solver, tmp_path):
        # nine paths make two chunks with a ragged second one on both sample
        # models; sample2d's functional integrates over a sub-box
        path = str(MODELS / f"{name}.ini")
        model, cfg = _cached_model(path, 1)
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
                    == density_final(rep, model, bundle).tobytes())
            write_series_csv(tmp_path / "one.csv", {
                "t": rep.times, "l2_norm": rep.l2_series,
                "u_value": rep.u_series, "births": rep.births_series})
            assert ((out / f"path_{m:05d}_{solver}.csv").read_bytes()
                    == (tmp_path / "one.csv").read_bytes())

    @pytest.mark.parametrize("name", ["sample1d", "sample2d"])
    def test_per_path_outputs_match_one_path_solves(self, name, tmp_path):
        self.check_outputs_match_one_path_solves(name, "direct", tmp_path)

    @pytest.mark.parametrize("name", ["sample1d", "sample2d"])
    def test_rescaled_outputs_match_one_path_solves(self, name, tmp_path):
        self.check_outputs_match_one_path_solves(name, "rescaled", tmp_path)

    def test_path_output_independent_of_chunking(self, tmp_path):
        path = str(MODELS / "sample1d.ini")
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


    def test_pool_over_chunks_matches_serial(self, tmp_path):
        # two chunks spread over two worker processes
        path = str(MODELS / "sample1d.ini")
        trees = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run(RunConfig(model_path=path, solver="direct", n_paths=9,
                          base_seed=8, out_dir=str(out), snapshot_stride=1,
                          workers=workers))
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_failed_direct_path_stays_with_its_path(self, grid1d):
        # fertility turns NaN once a path's population passes a threshold
        # that only some paths reach; the chunk's march fails as a whole,
        # so the chunk is solved path by path and only those paths fail
        from conftest import build_model, linear_rates
        from stochage.ensemble import _solve_paths
        from stochage.rates import CustomRate

        def model_with(m0):
            rates = dataclasses.replace(linear_rates(), m0=m0,
                                        gamma=sa.ConstantRate(1.0))
            return build_model(grid1d, rates=rates,
                               amplitudes=(sa.constant_amplitude(0.8, 1),))

        cfg = sa.SolverConfig(snapshot_stride=0)
        bundles = [sa.sample_bundle(s, 1, grid1d.n_t, grid1d.T) for s in range(6)]
        peaks = [rep.u_series.max() for rep in
                 sa.solve_direct_batch(model_with(sa.ConstantRate(0.6)), bundles, cfg)]
        cut = float(np.median(peaks))
        model = model_with(CustomRate(
            fn=lambda t, a, x, r: np.nan if r > cut else 0.6, sup=0.6))
        out = _solve_paths("direct", model, bundles, cfg)
        failed = [isinstance(r, sa.StochageError) for r in out]
        assert 0 < sum(failed) < len(out)
        for rep, bundle, bad in zip(out, bundles, failed):
            if not bad:
                assert rep.final.tobytes() == sa.solve_direct(model, bundle, cfg).final.tobytes()


SINE_MODEL = NOISY_MODEL.replace("mu1 = cosine:0.2:1", "mu1 = sine:0.2:1")


class TestModelBoundary:
    def test_sine_amplitude_rejected_on_rescaled_route(self, tmp_path):
        # the rescaled route keeps alpha unchanged, which is only valid for
        # amplitudes with zero normal derivative; the direct route has no
        # such restriction
        p = tmp_path / "sine.ini"
        p.write_text(SINE_MODEL)
        args = ["run", "--model", str(p), "--paths", "2"]
        assert main(args + ["--out", str(tmp_path / "r"), "--solver", "rescaled"]) == 3
        assert main(args + ["--out", str(tmp_path / "d"), "--solver", "direct"]) == 0

    def test_edited_model_file_is_parsed_again(self, tmp_path):
        p = tmp_path / "m.ini"
        p.write_text(NOISY_MODEL)
        first = run(RunConfig(model_path=str(p), solver="direct", n_paths=2,
                              out_dir=str(tmp_path / "a")))
        p.write_text(NOISY_MODEL.replace("t_final = 0.5", "t_final = 0.25"))
        second = run(RunConfig(model_path=str(p), solver="direct", n_paths=2,
                               out_dir=str(tmp_path / "b")))
        assert first.exit_code == second.exit_code == 0
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

    def test_noisy_study_outputs(self, noisy_model_path, tmp_path):
        out = tmp_path / "conv"
        result = convergence_study(noisy_model_path, 3, seed=1, out_dir=str(out))
        assert (out / "convergence.csv").exists()
        assert (out / "orders.csv").exists()
        assert not result.exact
        assert result.rows[0].pair_diff > result.rows[-1].pair_diff * 0  # finite
        assert np.isfinite(result.order_rescaled)


class TestCli:
    def test_run_ok(self, noisy_model_path, tmp_path):
        code = main(["run", "--model", noisy_model_path,
                     "--out", str(tmp_path / "o"), "--paths", "2",
                     "--solver", "both", "--stride", "1", "--save-bundle"])
        assert code == 0
        assert (tmp_path / "o" / "paths.csv").exists()
        assert (tmp_path / "o" / "totals_rescaled.csv").exists()
        assert (tmp_path / "o" / "bundle_path00000.bin").exists()

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
        code = main(["run", "--model", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_bad_cli_args(self):
        assert main(["run"]) == 3

    def test_check_passes(self, noisy_model_path, tmp_path):
        code = main(["check", "--model", noisy_model_path,
                     "--out", str(tmp_path / "chk")])
        assert code == 0
        text = (tmp_path / "chk" / "checks.csv").read_text()
        assert "apriori_margin_max" in text
        assert "fail" not in text

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

    def test_ensemble_alias(self, noisy_model_path, tmp_path):
        code = main(["ensemble", "--model", noisy_model_path,
                     "--out", str(tmp_path / "e"), "--paths", "3",
                     "--solver", "direct"])
        assert code == 0
        assert (tmp_path / "e" / "totals_direct.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["ensemble", "--paths", "0"],
        ["ensemble", "--paths", "-3"],
        ["ensemble", "--seed", "-1"],
        ["check", "--seed", "-1"],
        ["convergence", "--seed", "-1"],
        ["compare", "--level", "-1"],
        ["compare", "--stride", "-2"],
        ["run", "--stride", "-2"],
        ["check", "--level", "2"],
        ["check", "--stride", "5"],
    ])
    def test_out_of_range_input_is_config_error(self, noisy_model_path, tmp_path,
                                                argv):
        out = tmp_path / "o"
        assert main(argv + ["--model", noisy_model_path, "--out", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())
