"""Matrix container and two-column CSV import/export.

Binary container layout (little-endian):
  bytes  0..15   magic ``FTSINV-MATRIX-01``
  bytes 16..23   rows, unsigned 64-bit
  bytes 24..31   cols, unsigned 64-bit
  bytes 32..     row-major IEEE-754 float64 payload
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"FTSINV-MATRIX-01"
assert len(MAGIC) == 16


def write_matrix(path, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(np.atleast_2d(np.asarray(matrix, dtype=np.float64)))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(m.tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 32 or data[:16] != MAGIC:
        raise ValueError(f"{path}: not a matrix container (bad magic)")
    rows, cols = struct.unpack("<QQ", data[16:32])
    payload = data[32:]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload size {len(payload)} != {expected}")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def write_series_csv(path, coordinate_name: str, coords, values) -> None:
    """Two-column CSV with a mandatory header row."""
    coords = np.asarray(coords, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if coords.shape != values.shape:
        raise ValueError("coordinate/value length mismatch")
    with open(path, "w") as fh:
        fh.write(f"{coordinate_name},value\n")
        for c, v in zip(coords, values):
            fh.write(f"{float(c)!r},{float(v)!r}\n")


def read_series_csv(path):
    """Returns (coordinate_name, coords, values)."""
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.split(",")
        if len(parts) != 2 or parts[1] != "value":
            raise ValueError(f"{path}: expected '<coordinate>,value' header row")
        coords, values = [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            c, v = line.split(",")
            coords.append(float(c))
            values.append(float(v))
    return parts[0], np.asarray(coords), np.asarray(values)
