import numpy as np
import pytest

import stochage as sa
from stochage.errors import ConfigurationError
from stochage.fileio import (load_bundle, load_field, read_series_csv,
                             save_bundle, save_field, write_check_report,
                             write_series_csv)
from stochage.estimates import CheckRow


class TestFieldFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in ((5,), (9, 4), (3, 4, 5)):
            arr = rng.normal(size=shape)
            path = tmp_path / "f.bin"
            save_field(path, arr)
            back = load_field(path)
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMAGI" + b"\x00" * 16)
        with pytest.raises(ConfigurationError):
            load_field(path)

    def test_truncated(self, tmp_path):
        arr = np.ones((4, 4))
        path = tmp_path / "f.bin"
        save_field(path, arr)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ConfigurationError):
            load_field(path)


class TestBundleFormat:
    def test_round_trip_bitwise(self, tmp_path):
        b = sa.sample_bundle(42, 3, 32, 1.0)
        path = tmp_path / "b.bin"
        save_bundle(path, b)
        back = load_bundle(path)
        assert np.array_equal(back.increments, b.increments)
        assert np.array_equal(back.betas, b.betas)
        assert back.seed == b.seed
        assert back.dt == b.dt
        assert back.level == 0

    def test_coarsened_round_trip(self, tmp_path):
        b = sa.coarsen(sa.sample_bundle(1, 2, 64, 1.0), 4)
        path = tmp_path / "b.bin"
        save_bundle(path, b)
        back = load_bundle(path)
        assert np.array_equal(back.increments, b.increments)
        assert back.level == 2
        # node values re-accumulate from the coarse increments: equal to
        # the subsampled fine nodes up to summation roundoff
        assert np.allclose(back.betas, b.betas, rtol=1e-12, atol=1e-15)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"12345678" + b"\x00" * 40)
        with pytest.raises(ConfigurationError):
            load_bundle(path)


class TestCsv:
    def test_series_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        t = np.linspace(0, 1, 5)
        v = np.array([0.1, 0.2, -0.3, 1e-17, 4.0])
        write_series_csv(path, {"t": t, "value": v})
        back = read_series_csv(path)
        assert np.array_equal(back["t"], t)
        assert np.array_equal(back["value"], v)

    def test_check_report(self, tmp_path):
        path = tmp_path / "checks.csv"
        rows = [CheckRow("a", 0.5, 1.0), CheckRow("b", 2, 1)]
        write_check_report(path, rows)
        text = path.read_text()
        assert "a,0.5,1.0,<=,pass" in text
        assert "b,2.0,1.0,<=,fail" in text
