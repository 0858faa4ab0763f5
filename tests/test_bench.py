"""Sweep harness: pinned precision sweep, sweep schemas and determinism."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ftsinv import bench

GOLDEN_PATH = Path(__file__).with_name("matrix_golden.json")


def test_reference_sweep_precision_pinned(reference_setup):
    """Every method's best grid point and SNR per width on the reference
    Airy study, pinned through the CSV bytes."""
    csv = bench.sweep_precision(bench.reference_airy_config(),
                                setup=reference_setup).to_csv()
    want = json.loads(GOLDEN_PATH.read_text())["sweep_precision"]
    assert hashlib.sha256(csv.encode()).hexdigest() == want


def test_sweep_parallelism_schema_and_k_identity(small_cosine_setup):
    cfg = small_cosine_setup.config
    result = bench.sweep_parallelism(cfg, setup=small_cosine_setup)
    assert result.columns == ["method", "k", "identical_to_k1", "snr_db",
                              "latency_cycles", "time_us", "dsp", "bram", "lut",
                              "mults"]
    assert [(row[0], row[1]) for row in result.rows] == [
        (method, k) for method in ("pinv", "tik") for k in cfg.k_list]
    assert all(row[2] is True for row in result.rows)


def test_sweep_precision_csv_is_deterministic(small_cosine_setup):
    cfg = small_cosine_setup.config
    first = bench.sweep_precision(cfg, setup=small_cosine_setup).to_csv()
    again = bench.sweep_precision(cfg, setup=small_cosine_setup).to_csv()
    assert first == again
    assert first.splitlines()[5] == ("method,bits,reg_param,snr_db,mults,"
                                     "latency_cycles,time_us")


@pytest.mark.parametrize("method", ["tsvd", "tik"])
@pytest.mark.parametrize("bits", [8, 12, None])
def test_best_inversion_is_the_best_grid_point(small_cosine_setup, method, bits):
    """The compiled sweep picks what separate one-shot runs would pick."""
    setup = small_cosine_setup
    grid = ([{"rank": r} for r in setup.rank_grid] if method == "tsvd"
            else [{"lam": lam} for lam in setup.lambda_grid])
    points = [bench.invert_once(setup, method, bits, **point) for point in grid]
    want = max(points, key=lambda t: t[0])
    got = bench.best_inversion(setup, method, bits)
    assert (got[3], got[0]) == (want[3], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
