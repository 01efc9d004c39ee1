import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochage as sa
from stochage.errors import ConfigurationError
from stochage.fileio import (FIELD_MAGIC, load_bundle, load_field, read_series_csv,
                             save_bundle, save_field, write_check_report,
                             write_series_csv)
from stochage.estimates import CheckRow

SRC = Path(__file__).resolve().parent.parent / "src"


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
        # cut in the data, after the magic, and inside the shape
        arr = np.ones((4, 4))
        path = tmp_path / "f.bin"
        save_field(path, arr)
        data = path.read_bytes()
        for end in (-8, 8, 8 + 4 + 8):
            path.write_bytes(data[:end])
            with pytest.raises(ConfigurationError, match="truncated field file"):
                load_field(path)

    def test_rank_past_the_file(self, tmp_path):
        # a rank of 2**31 claims a 16 GiB shape: the loader must find the file
        # short before it reads, so it passes in an address space of 2 GiB
        path = tmp_path / "f.bin"
        path.write_bytes(FIELD_MAGIC + struct.pack("<I", 2 ** 31))
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {hard}))\n"
                "from stochage.errors import ConfigurationError\n"
                "from stochage.fileio import load_field\n"
                "try:\n    load_field(sys.argv[1])\n"
                "except ConfigurationError as exc:\n    print(exc)\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        child = subprocess.run([sys.executable, "-c", code, str(path)],
                               capture_output=True, text=True, env=env, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout == f"{path}: truncated field file\n"

    def test_shape_product_past_int64(self, tmp_path):
        # 2**80 entries: a product in int64 wraps to 0 and matches an empty payload
        path = tmp_path / "f.bin"
        path.write_bytes(FIELD_MAGIC + struct.pack("<I2Q", 2, 2 ** 40, 2 ** 40))
        with pytest.raises(ConfigurationError, match="truncated field file"):
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

    def test_truncated(self, tmp_path):
        # cut in the increments, after the magic, and inside the header
        path = tmp_path / "b.bin"
        save_bundle(path, sa.sample_bundle(3, 2, 8, 1.0))
        data = path.read_bytes()
        for end in (-8, 8, 8 + 20):
            path.write_bytes(data[:end])
            with pytest.raises(ConfigurationError, match="truncated bundle file"):
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
