from pathlib import Path

import numpy as np
import pytest

import stochage as sa
from stochage.cli import main
from stochage.errors import ConfigurationError
from stochage.modelfile import parse_amplitude, parse_model, parse_rate

MODELS = Path(__file__).resolve().parent.parent / "models"

FULL_MODEL = """
[grid]
dim = 1
t_final = 0.5
a_max = 1.0
n_t = 32
n_a = 64
extent = 1.0
n_x = 8

[rates]
mu_s = logistic:0.1,0.5,2.0,0.5
m0 = window:0.2,0.8,1.5
gamma = constant:1.0
alpha0 = constant:0.2
k0 = constant:0.05

[noise]
mu1 = cosine:0.25:1
mu2 = agepoly:0.1,0.05

[initial]
p0 = ageexp:1.0,1.0
space_mode = 0.2,1

[population_functional]
region = box:0.0,0.5

[solver]
picard_tol = 1e-9
picard_max_iter = 30
diffusion = true
truncation_radius = auto
"""


def write_model(tmp_path, text=FULL_MODEL, name="model.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseModel:
    def test_full_model(self, tmp_path):
        model, config = parse_model(write_model(tmp_path))
        assert model.grid.n_t == 32
        assert model.grid.aligned
        assert model.noise.n_modes == 2
        assert model.region is not None
        assert model.rates.m0.sup == pytest.approx(1.5)
        assert config.picard_tol == 1e-9
        assert config.picard_max_iter == 30
        assert config.truncation_radius is None

    def test_coarsened_parse(self, tmp_path):
        path = write_model(tmp_path)
        fine, _ = parse_model(path)
        coarse, _ = parse_model(path, coarsen=2)
        assert coarse.grid.n_t == fine.grid.n_t // 2
        assert coarse.grid.n_a == fine.grid.n_a // 2
        # analytic resampling: coarse initial data is the subsampled fine one
        assert np.allclose(coarse.p0, fine.p0[::2], rtol=1e-15)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_model(tmp_path / "absent.ini")

    def test_unknown_section(self, tmp_path):
        path = write_model(tmp_path, FULL_MODEL + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigurationError):
            parse_model(path)

    def test_unknown_key(self, tmp_path):
        path = write_model(tmp_path, FULL_MODEL.replace(
            "picard_tol = 1e-9", "picard_tol = 1e-9\nwhatever = 3"))
        with pytest.raises(ConfigurationError):
            parse_model(path)

    def test_bad_region(self, tmp_path):
        path = write_model(tmp_path, FULL_MODEL.replace(
            "region = box:0.0,0.5", "region = circle:0.5"))
        with pytest.raises(ConfigurationError):
            parse_model(path)

    def test_negative_stride_rejected(self, tmp_path):
        # the snapshot stride is a command-line setting; a model file that
        # sets one, negative or not, has an unknown key
        text = (MODELS / "sample1d.ini").read_text()
        assert "truncation_radius = auto" in text
        path = write_model(tmp_path, text.replace(
            "truncation_radius = auto", "truncation_radius = auto\nsnapshot_stride = -3"))
        with pytest.raises(ConfigurationError, match="snapshot_stride"):
            parse_model(path)
        assert main(["ensemble", "--model", str(path), "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, bad", [
        ("truncation_radius = auto", "truncation_radius = -1"),
        ("truncation_radius = auto", "truncation_radius = 0"),
        ("truncation_radius = auto", "truncation_radius = auto\nc0 = -1.0"),
        ("truncation_radius = auto", "truncation_radius = auto\nc1 = -0.5"),
        ("truncation_radius = auto", "truncation_radius = auto\nc0 = inf"),
        ("truncation_radius = auto", "truncation_radius = auto\nc1 = inf"),
        ("picard_tol = 1e-10", "picard_tol = -1e-10"),
        ("picard_tol = 1e-10", "picard_tol = nan"),
        ("picard_max_iter = 50", "picard_max_iter = -1"),
    ])
    def test_solver_setting_out_of_range_rejected(self, tmp_path, line, bad):
        # a clipping radius or calibration constant outside the estimates,
        # or a fixed-point tolerance no iterate can meet, names its key
        text = (MODELS / "sample1d.ini").read_text()
        assert line in text
        path = write_model(tmp_path, text.replace(line, bad))
        key = bad.splitlines()[-1].split(" = ")[0]
        with pytest.raises(ConfigurationError, match=key):
            parse_model(path)
        assert main(["ensemble", "--model", str(path), "--out", str(tmp_path / "o")]) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, bad", [
        ("mu_s = logistic:0.1,0.5,2.0,0.5", "mu_s = constant:1,2"),
        ("m0 = logistic:0.8,-0.5,1.5,0.5", "m0 = window:0.1,0.4"),
        ("mu1 = cosine:0.2:1", "mu1 = cosine:0.2"),
        ("mu2 = agepoly:0.1,0.1", "mu2 = agecos:0.1:1"),
        ("space_mode = 0.2,1", "space_mode = 0.2"),
        ("n_x = 16", "n_x = 16.5"),
        ("mu1 = cosine:0.2:1", "mu1 = cosine:0.2:1.5"),
        ("space_mode = 0.2,1", "space_mode = 0.2,1.5"),
    ])
    def test_wrong_value_count_is_config_error(self, tmp_path, line, bad):
        text = (MODELS / "sample1d.ini").read_text()
        assert line in text
        path = write_model(tmp_path, text.replace(line, bad))
        with pytest.raises(ConfigurationError, match=bad.split(" = ")[1]):
            parse_model(path)
        assert main(["check", "--model", str(path), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("line, bad, match", [
        # np.interp would read an unsorted table without a word
        ("mu_s = logistic:0.1,0.5,2.0,0.5", "mu_s = table:1:0.5;0:0.1",
         "strictly increasing"),
        ("mu_s = logistic:0.1,0.5,2.0,0.5", "mu_s = table:0:0.1;1:nan", "finite"),
        ("mu_s = logistic:0.1,0.5,2.0,0.5", "mu_s = constant:nan", "nan"),
        ("mu1 = cosine:0.2:1", "mu1 = cosine:inf:1", "inf"),
        ("p0 = ageexp:1.5,1.0", "p0 = ageexp:1.5,-inf", "inf"),
        ("extent = 1.0", "extent = inf", "inf"),
        ("a_max = 1.0", "a_max = inf", "finite"),
    ])
    def test_value_outside_the_mathematics_is_config_error(self, tmp_path, line,
                                                           bad, match):
        text = (MODELS / "sample1d.ini").read_text()
        assert line in text
        path = write_model(tmp_path, text.replace(line, bad))
        with pytest.raises(ConfigurationError, match=match):
            parse_model(path)
        assert main(["check", "--model", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_solvable(self, tmp_path):
        model, config = parse_model(write_model(tmp_path))
        bundle = sa.sample_bundle(0, model.noise.n_modes, model.grid.n_t,
                                  model.grid.T)
        rep = sa.solve_rescaled(model, bundle, config)
        assert rep.picard_iterations.shape == (model.grid.n_t,)
        assert np.all(np.isfinite(rep.final))


class TestRateSyntax:
    def test_constant(self):
        r = parse_rate("constant:0.25")
        assert r.sup == 0.25

    def test_logistic_default_center(self):
        r = parse_rate("logistic:0.1,0.4,2.0")
        assert r.center == 0.0

    def test_table(self):
        r = parse_rate("table:0:0;0.5:1;1:0")
        assert r.sup == 1.0

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            parse_rate("mystery:1,2")

    def test_bad_numbers(self):
        with pytest.raises(ConfigurationError):
            parse_rate("constant:abc")


class TestAmplitudeSyntax:
    def test_families(self):
        assert parse_amplitude("constant:0.5", 1, (1.0,)).neumann_compatible
        assert parse_amplitude("agepoly:0.1,0.2", 1, (1.0,)).neumann_compatible
        assert parse_amplitude("cosine:0.5:2", 1, (1.0,)).neumann_compatible
        assert not parse_amplitude("sine:0.5:1", 1, (1.0,)).neumann_compatible
        amp = parse_amplitude("agecos:0.5:1:0.0,1.0", 1, (1.0,))
        assert amp.neumann_compatible

    def test_mode_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            parse_amplitude("cosine:0.5:1,2", 1, (1.0,))
