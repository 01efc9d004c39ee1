"""Versioned binary formats and CSV writers.

Both binary formats start with an 8-byte magic that encodes a format
version; all numbers are little-endian and field data is row-major with
age as the leading axis, so external tools can consume the files without
this package.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .noise import BrownianBundle

FIELD_MAGIC = b"STAGFLD1"
BUNDLE_MAGIC = b"STAGBND1"


def save_field(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<I", values.ndim))
        fh.write(struct.pack(f"<{values.ndim}Q", *values.shape))
        fh.write(np.ascontiguousarray(values).tobytes())


def _unpack(fh, fmt: str, path, kind: str) -> tuple:
    """The next bytes of ``fh`` unpacked by ``fmt``; a file that ends first is truncated."""
    try:
        return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))
    except struct.error:
        raise ConfigurationError(f"{path}: truncated {kind} file") from None


def load_field(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != FIELD_MAGIC:
            raise ConfigurationError(f"{path}: not a field file (magic {magic!r})")
        (rank,) = _unpack(fh, "<I", path, "field")
        shape = _unpack(fh, f"<{rank}Q", path, "field")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != int(np.prod(shape)):
        raise ConfigurationError(f"{path}: truncated field file")
    return data.reshape(shape).copy()


def save_bundle(path, bundle: BrownianBundle) -> None:
    """Header: magic, mode count, step count, seed, step size, level."""
    inc = np.asarray(bundle.increments, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(BUNDLE_MAGIC)
        fh.write(struct.pack("<IQQdI", bundle.n_paths, bundle.n_t,
                             bundle.seed, bundle.dt, bundle.level))
        fh.write(np.ascontiguousarray(inc).tobytes())


def load_bundle(path) -> BrownianBundle:
    """Rebuild a bundle; node values are re-accumulated from the increments."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != BUNDLE_MAGIC:
            raise ConfigurationError(f"{path}: not a bundle file (magic {magic!r})")
        n, n_t, seed, dt, level = _unpack(fh, "<IQQdI", path, "bundle")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * n_t:
        raise ConfigurationError(f"{path}: truncated bundle file")
    inc = data.reshape(n, n_t).copy()
    betas = np.zeros((n, n_t + 1))
    np.cumsum(inc, axis=1, out=betas[:, 1:])
    return BrownianBundle(inc, betas, int(seed), float(dt), int(level))


def write_series_csv(path, columns: dict) -> None:
    """CSV with one row per entry of equal-length column arrays."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    length = len(arrays[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(length):
            writer.writerow([repr(float(a[i])) if a.dtype.kind == "f" else a[i]
                             for a in arrays])


def read_series_csv(path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        return {n: np.array([]) for n in names}
    return {n: data[:, i] for i, n in enumerate(names)}


def write_check_report(path, rows) -> None:
    """One row per check: name, value, threshold, comparison (always
    ``<=``), pass/fail."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "value", "threshold", "comparison", "status"])
        for row in rows:
            writer.writerow([row.name, repr(row.value), repr(row.threshold),
                             "<=", "pass" if row.passed else "fail"])


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
