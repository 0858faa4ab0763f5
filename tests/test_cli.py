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


@pytest.mark.parametrize("method", ["pinv", "fft"])
@pytest.mark.parametrize("quantize", ["all", "data-only"])
def test_invert_rejects_quantize(simulated, tmp_path, method, quantize):
    y, a = simulated
    out = tmp_path / "x.csv"
    assert cli.main(["invert", "--method", method, "--bits", "8", "--quantize", quantize,
                     "--in", str(y), "--matrix", str(a), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.fixture
def normalized_cosine(tmp_path):
    y, yn = tmp_path / "y.csv", tmp_path / "yn.csv"
    assert cli.main(["simulate", "--kind", "cosine", "--n", "64", "--m", "64",
                     "--seed", "3", "--out", str(y), "--normalized-out", str(yn)]) == 0
    return yn


@pytest.mark.parametrize("mode", ["pre", "post", "fixed"])
def test_invert_fft_route(normalized_cosine, tmp_path, mode):
    out = tmp_path / "x.csv"
    assert cli.main(["invert", "--method", "fft", "--bits", "16", "--fft-mode", mode,
                     "--in", str(normalized_cosine), "--out", str(out)]) == 0
    _, _, x_hat = fileio.read_series_csv(out)
    assert x_hat.size == 64 and np.all(np.isfinite(x_hat))


def test_invert_fft_overflow_exits_3(normalized_cosine, tmp_path, capsys):
    """No headroom under post-normalization breaks the no-overflow invariant."""
    out = tmp_path / "x.csv"
    assert cli.main(["invert", "--method", "fft", "--bits", "16", "--fft-mode", "post",
                     "--headroom", "0", "--in", str(normalized_cosine),
                     "--out", str(out)]) == 3
    assert "no-overflow invariant violated" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_requires_seed(tmp_path, capsys):
    flags = [f for f in MODEL_FLAGS if f not in ("--seed", "11")]
    assert cli.main(["simulate", *flags, "--out", str(tmp_path / "y.csv")]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", *MODEL_FLAGS, "--out", "y.csv", "--with-factors"],
    ["invert", "--bits", "12", "--frac-bits", "3", "--in", "y.csv", "--out", "x.csv"],
])
def test_removed_flags_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
