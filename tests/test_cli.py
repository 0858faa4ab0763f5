"""Command-line round trips: simulate to files, invert from them."""

import numpy as np
import pytest

from ftsinv import bench, cli, fileio

N = 32
MODEL_FLAGS = ["--kind", "airy", "--n", str(N), "--m", str(N), "--r", "0.7",
               "--oversampling", "0.9", "--noise-snr", "40", "--seed", "11"]


@pytest.fixture
def simulated(tmp_path):
    y, a = tmp_path / "y.csv", tmp_path / "a.bin"
    assert cli.main(["simulate", *MODEL_FLAGS, "--out", str(y),
                     "--matrix-out", str(a)]) == 0
    return y, a


def test_simulate_matches_build_setup(simulated):
    _, _, values = fileio.read_series_csv(simulated[0])
    cfg = bench.ExperimentConfig(kind="airy", n=N, m=N, r=0.7,
                                 opd_oversampling=0.9, noise_snr_db=40.0, seed=11)
    assert np.array_equal(values, bench.build_setup(cfg).y.values)


@pytest.mark.parametrize("route", [["--method", "pinv"],
                                   ["--method", "tsvd", "--rank", "24"],
                                   ["--method", "tik", "--lambda", "1.0"]])
def test_invert_round_trip(simulated, tmp_path, route):
    y, a = simulated
    out = tmp_path / "x.csv"
    assert cli.main(["invert", *route, "--bits", "16", "--in", str(y),
                     "--matrix", str(a), "--out", str(out)]) == 0
    _, _, x_hat = fileio.read_series_csv(out)
    assert x_hat.size == N and np.all(np.isfinite(x_hat))


@pytest.mark.parametrize("argv", [
    ["simulate", *MODEL_FLAGS, "--out", "y.csv", "--with-factors"],
    ["invert", "--bits", "12", "--frac-bits", "3", "--in", "y.csv", "--out", "x.csv"],
])
def test_removed_flags_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
