"""Command-line round trips: simulate to files, invert from them."""

import contextlib
import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ftsinv import bench, cli, fileio, hwmodel
from ftsinv.errors import ConfigError, OverflowViolationError
from ftsinv.fft_inversion import FftPlan, reconstruct_fft
from ftsinv.matrix_inversion import pinv_matrix, reconstruct_pinv, svd_factorize
from ftsinv.optics import Interferogram, OpdGrid, OpticalParams, normalize_interferogram

N = 32
MODEL_FLAGS = ["--kind", "airy", "--n", str(N), "--m", str(N), "--r", "0.7",
               "--oversampling", "0.9", "--noise-snr", "40", "--seed", "11"]


@pytest.fixture
def simulated(tmp_path):
    y, a = tmp_path / "y.csv", tmp_path / "a.bin"
    assert cli.main(["simulate", *MODEL_FLAGS, "--out", str(y),
                     "--matrix-out", str(a)]) == 0
    return y, a


def test_simulate_matches_build_setup(tmp_path):
    """simulate writes build_setup's interferogram and, with --spectrum-out,
    its true spectrum on the spectral grid's midpoints."""
    y, x = tmp_path / "y.csv", tmp_path / "x.csv"
    assert cli.main(["simulate", *MODEL_FLAGS, "--out", str(y),
                     "--spectrum-out", str(x)]) == 0
    cfg = bench.ExperimentConfig(kind="airy", n=N, m=N, r=0.7,
                                 opd_oversampling=0.9, noise_snr_db=40.0, seed=11)
    setup = bench.build_setup(cfg)
    _, _, values = fileio.read_series_csv(y)
    assert np.array_equal(values, setup.y.values)
    _, wavenumbers, spectrum = fileio.read_series_csv(x)
    assert np.array_equal(wavenumbers, setup.spectral_grid.midpoints())
    assert np.array_equal(spectrum, setup.x.values)


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


def _fresh_process_main(argv) -> int:
    """``cli.main(argv)`` in a new interpreter, which no earlier call has touched."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); from ftsinv import cli; "
            "sys.exit(cli.main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True).returncode


def test_calls_in_one_process_carry_no_state(simulated, tmp_path):
    """A flag of one call, or a refused call, leaves nothing for the next."""
    y, a = simulated
    files = ["--in", str(y), "--matrix", str(a)]
    double, fixed, ref = tmp_path / "d.csv", tmp_path / "f.csv", tmp_path / "r.csv"
    assert cli.main(["invert", "--method", "pinv", "--double", *files,
                     "--out", str(double)]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["invert", "--method", "pinv", "--double", "--frac-bits", "3",
                  *files, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert cli.main(["invert", "--method", "pinv", "--bits", "16", *files,
                     "--out", str(fixed)]) == 0
    assert _fresh_process_main(["invert", "--method", "pinv", "--double", *files,
                                "--out", str(ref)]) == 0
    assert double.read_bytes() == ref.read_bytes()
    _, _, x16 = fileio.read_series_csv(fixed)
    _, _, values = fileio.read_series_csv(y)
    alone = reconstruct_pinv(pinv_matrix(svd_factorize(fileio.read_matrix(a))),
                             values, fmt=16).x_hat
    assert np.array_equal(x16, alone)


@pytest.mark.parametrize("argv", [
    ["simulate", *MODEL_FLAGS, "--out", "y.csv"],
    ["invert", "--method", "tik", "--lambda", "1", "--bits", "16", "--in", "y.csv",
     "--out", "x.csv"],
    ["compare", *MODEL_FLAGS, "--quantize", "all", "--out", "c.csv"],
    ["costs"],
    ["--verbose", "invert", "--in", "y.csv"],
    ["invert", "--bogus", "1"],
    ["sweep-parallel", "--rank", "3"],
    ["invert", "-h"],
    ["-h"],
    ["bogus"],
    ["-5", "invert"],
    [],
], ids=lambda argv: " ".join(argv) or "empty")
def test_parser_for_argv_parses_like_the_full_parser(capsys, argv):
    """The parser built for ``argv`` gives it the same arguments, or the same
    exit and messages, as the parser with every command's flags."""
    def parse(parser):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    assert parse(cli.build_parser(argv)) == parse(cli.build_parser())


def test_parser_for_argv_registers_no_other_commands_flags():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser(["costs"]).parse_args(["simulate", "--seed", "1",
                                                "--out", "y.csv"])
    assert exc.value.code == 2


def test_sweeps_run_the_bench_function_present_when_called(tmp_path, capsys,
                                                            monkeypatch):
    """A bench function replaced after an earlier call is the one a sweep
    runs, so a wrapper installed between calls sees every later sweep."""
    assert cli.main(["costs", "--out", "-"]) == 0
    seen = []

    def stub(cfg):
        seen.append(cfg)
        return bench.SweepResult(["method"], [["stub"]], {"operation": "stub"})

    monkeypatch.setattr(bench, "sweep_precision", stub)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep-precision", "--kind", "cosine", "--n", "16", "--m", "16",
                     "--seed", "1", "--out", str(out)]) == 0
    assert [cfg.n for cfg in seen] == [16]
    assert out.read_text() == "# operation=stub\nmethod\nstub\n"
    assert "1 rows" in capsys.readouterr().out


@pytest.mark.parametrize("route", [["--method", "pinv"],
                                   ["--method", "tsvd", "--rank", "24"],
                                   ["--method", "tik", "--lambda", "1.0"]])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_invert_rejects_partition_counts_below_one(simulated, tmp_path, capsys,
                                                    route, k):
    """``--parallel-k 0`` is refused like any K below 1, not run at K = 1."""
    y, a = simulated
    out = tmp_path / "x.csv"
    assert cli.main(["invert", *route, "--bits", "16", "--parallel-k", k,
                     "--in", str(y), "--matrix", str(a), "--out", str(out)]) == 2
    assert "partition count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route,flag", [
    (["--method", "tsvd"], "--rank"),
    (["--method", "tik"], "--lambda"),
    (["--method", "pinv"], "--matrix"),
    (["--method", "tsvd", "--rank", "24"], "--matrix"),
    (["--method", "tik", "--lambda", "1.0"], "--matrix"),
    (["--method", "fft", "--normalize"], "--mean-spectrum"),
])
def test_invert_names_the_missing_flag(simulated, tmp_path, capsys, route, flag):
    """A matrix route without its matrix, or without its grid point, and an
    FFT normalized without the mean spectrum exit 2 naming the flag,
    writing nothing."""
    y, a = simulated
    matrix = [] if flag == "--matrix" or "fft" in route else ["--matrix", str(a)]
    out = tmp_path / "x.csv"
    assert cli.main(["invert", *route, "--bits", "16", *matrix, "--in", str(y),
                     "--out", str(out)]) == 2
    assert f"requires {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_invert_refuses_a_matrix_of_another_length(simulated, tmp_path, capsys):
    """A matrix whose rows are not the interferogram's samples exits 2,
    writing nothing."""
    y, a = simulated
    short, out = tmp_path / "short.bin", tmp_path / "x.csv"
    fileio.write_matrix(short, fileio.read_matrix(a)[:-1])
    assert cli.main(["invert", "--method", "pinv", "--bits", "16", "--in", str(y),
                     "--matrix", str(short), "--out", str(out)]) == 2
    assert f"matrix rows {N - 1} != interferogram length {N}" in capsys.readouterr().err
    assert not out.exists()


def test_invert_refuses_a_truncated_matrix_file(simulated, tmp_path, capsys):
    """A matrix container cut short exits 2, writing nothing."""
    y, a = simulated
    cut, out = tmp_path / "cut.bin", tmp_path / "x.csv"
    cut.write_bytes(a.read_bytes()[:-8])
    assert cli.main(["invert", "--method", "pinv", "--bits", "16", "--in", str(y),
                     "--matrix", str(cut), "--out", str(out)]) == 2
    assert f"payload size {N * N * 8 - 8} != {N * N * 8}" in capsys.readouterr().err
    assert not out.exists()


def test_invert_ridge_parameter_limits(simulated, tmp_path, capsys):
    """--lambda nan exits 2, writing nothing; --lambda inf weighs every
    singular value to zero and writes the zero spectrum."""
    y, a = simulated
    out = tmp_path / "x.csv"
    argv = ["invert", "--method", "tik", "--double", "--in", str(y), "--matrix", str(a),
            "--out", str(out)]
    assert cli.main([*argv, "--lambda", "nan"]) == 2
    assert "ridge parameter must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main([*argv, "--lambda", "inf"]) == 0
    _, _, x_hat = fileio.read_series_csv(out)
    assert x_hat.size == N and not np.any(x_hat)


def test_simulate_refuses_a_nan_noise_snr(tmp_path, capsys):
    """--noise-snr nan exits 2, writing nothing, where it once wrote the
    noiseless interferogram."""
    out = tmp_path / "y.csv"
    flags = [*MODEL_FLAGS[:MODEL_FLAGS.index("--noise-snr")], "--noise-snr", "nan",
             "--seed", "11"]
    assert cli.main(["simulate", *flags, "--out", str(out)]) == 2
    assert "noise_std must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_invert_rejects_non_finite_opd(simulated, tmp_path, capsys):
    """An interferogram with nan in its opd column exits 2, writing nothing."""
    y, a = simulated
    name, coords, values = fileio.read_series_csv(y)
    coords[3] = np.nan
    bad, out = tmp_path / "bad.csv", tmp_path / "x.csv"
    fileio.write_series_csv(bad, name, coords, values)
    assert cli.main(["invert", "--method", "pinv", "--bits", "16", "--in", str(bad),
                     "--matrix", str(a), "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method,flags", [
    ("pinv", ["--rank", "24"]),
    ("pinv", ["--lambda", "0"]),
    ("pinv", ["--twiddle-bits", "16"]),
    ("pinv", ["--fft-mode", "pre"]),
    ("pinv", ["--headroom", "0"]),
    ("pinv", ["--normalize", "--mean-spectrum", "1.0"]),
    ("tsvd", ["--rank", "24", "--lambda", "1.0"]),
    ("tik", ["--lambda", "1.0", "--rank", "24"]),
    ("fft", ["--parallel-k", "2"]),
    ("fft", ["--rank", "24"]),
    ("fft", ["--lambda", "1.0"]),
    ("fft", ["--bandwidth", "2.0"]),
    ("fft", ["--matrix", "a.bin"]),
    ("fft", ["--a", "0.9"]),
])
def test_invert_rejects_flags_its_route_does_not_read(simulated, tmp_path, capsys,
                                                       method, flags):
    y, a = simulated
    out = tmp_path / "x.csv"
    matrix = [] if method == "fft" else ["--matrix", str(a)]
    assert cli.main(["invert", "--method", method, "--bits", "16", *flags, *matrix,
                     "--in", str(y), "--out", str(out)]) == 2
    assert "read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method,flags", [
    ("pinv", ["--bits", "16"]),
    ("tsvd", ["--rank", "24", "--bits", "8"]),
    ("tik", ["--lambda", "1.0", "--bits", "32"]),
    ("fft", ["--bits", "16"]),
    ("fft", ["--twiddle-bits", "16"]),
    ("fft", ["--fft-mode", "fixed"]),
    ("fft", ["--headroom", "0"]),
])
def test_invert_double_rejects_width_flags(tmp_path, capsys, method, flags):
    """Exit 2 before any file is read: the input does not exist."""
    out = tmp_path / "x.csv"
    matrix = [] if method == "fft" else ["--matrix", str(tmp_path / "a.bin")]
    assert cli.main(["invert", "--method", method, "--double", *flags, *matrix,
                     "--in", str(tmp_path / "y.csv"), "--out", str(out)]) == 2
    assert f"{flags[-2]} is not read under --double" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-parallel", "compare"])
def test_sweeps_reject_bits_with_double(tmp_path, capsys, command):
    out = tmp_path / "s.csv"
    assert cli.main([command, *MODEL_FLAGS, "--double", "--bits", "8",
                     "--out", str(out)]) == 2
    assert "--bits is not read under --double" in capsys.readouterr().err
    assert not out.exists()


STUDY_FLAGS = ["--kind", "cosine", "--n", "16", "--m", "16", "--seed", "1"]


@pytest.mark.parametrize("argv,message", [
    *[pytest.param([command, "--double", *flag], f"{flag[0]} is not read under --double",
                   id=f"{command}--double{flag[0]}")
      for command, flag in (("compare", ["--twiddle-bits", "12"]),
                            ("compare", ["--headroom", "2"]),
                            ("compare", ["--quantize", "data-only"]),
                            ("sweep-parallel", ["--quantize", "data-only"]))],
    *[pytest.param([command, *bits, "--quantize", "data-only", *flag],
                   f"{flag[0]} is not read under --quantize data-only",
                   id=f"{command}--data-only{flag[0]}")
      for command, bits in (("sweep-precision", []), ("compare", ["--bits", "12"]))
      for flag in (["--twiddle-bits", "8"], ["--headroom", "1"])],
    # a given 3, the value the plan fits an unset headroom from, counts as given
    *[pytest.param([command, *where, "--headroom", "3"], f"--headroom is not read under {why}",
                   id=f"{command}{where[0]}--headroom-3")
      for command, where, why in (
          ("compare", ["--double"], "--double"),
          ("compare", ["--quantize", "data-only"], "--quantize data-only"),
          ("sweep-precision", ["--quantize", "data-only"], "--quantize data-only"))],
])
def test_studies_refuse_fixed_point_flags_they_do_not_read(tmp_path, capsys, argv, message):
    """Under --double nothing is quantized, and under --quantize data-only
    the FFT runs a double-precision plan: a study refuses the fixed-point
    flags it would not read, exits 2 and writes nothing."""
    out = tmp_path / "s.csv"
    assert cli.main([*argv, *STUDY_FLAGS, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--double"], "--quantize is not read under --double"),
    (["--bits", "12", "--twiddle-bits", "8"], "--twiddle-bits is not read under --quantize data-only"),
])
def test_study_refusals_read_the_config_file(tmp_path, capsys, flags, message):
    """A config file's ``"quantize": "data-only"`` counts like the flag."""
    config, out = tmp_path / "c.json", tmp_path / "s.csv"
    config.write_text(json.dumps({"kind": "cosine", "n": 16, "m": 16, "seed": 1,
                                  "quantize": "data-only"}))
    assert cli.main(["compare", "--config", str(config), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("twiddle_bits", 8), ("headroom", 1),
                                       ("fft_mode", "fixed")])
def test_sweep_parallel_refuses_fft_keys_in_its_config(tmp_path, capsys, key, value):
    """sweep-parallel runs no FFT: its flags leave out the FFT's, and a config
    file may not set them either.  Without the key the same file runs."""
    config, out = tmp_path / "c.json", tmp_path / "s.csv"
    study = {"kind": "cosine", "n": 16, "m": 16, "seed": 1, "bits": 12}
    argv = ["sweep-parallel", "--config", str(config), "--out", str(out)]
    config.write_text(json.dumps(study))
    assert cli.main(argv) == 0 and out.exists()
    out.unlink()
    config.write_text(json.dumps({**study, key: value}))
    assert cli.main(argv) == 2
    assert (f"--{key.replace('_', '-')} is not read by sweep-parallel"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv,config,message", [
    (["compare", *STUDY_FLAGS, "--double", "--quantize", "all"], None,
     "--quantize is not read under --double"),
    (["compare", "--double"], {"quantize": "all"}, "--quantize is not read under --double"),
    (["sweep-parallel", "--bits", "12"], {"fft_mode": "post"},
     "--fft-mode is not read by sweep-parallel"),
    # a null key gives no setting, as an unset flag gives none
    (["sweep-parallel", "--bits", "12"], {"headroom": None}, None),
    (["compare", "--double"], {"twiddle_bits": None}, None),
    # the word widths and bank counts a study does not read
    (["sweep-precision"], {"bits": 12}, "--bits is not read by sweep-precision"),
    (["sweep-precision"], {"bits": 16}, "--bits is not read by sweep-precision"),
    (["sweep-precision"], {"k_list": [1, 2]},
     'config key "k_list" is not read by sweep-precision'),
    (["compare"], {"bits_list": [8]}, 'config key "bits_list" is not read by compare'),
    (["compare"], {"k_list": [2]}, 'config key "k_list" is not read by compare'),
    (["sweep-parallel", "--bits", "12"], {"k": 2}, "--parallel-k is not read by sweep-parallel"),
    (["sweep-parallel", "--bits", "12"], {"bits_list": [8]},
     'config key "bits_list" is not read by sweep-parallel'),
    (["compare", "--double"], {"bits": 12}, "--bits is not read under --double"),
    (["sweep-precision"], {"bits_list": [8], "k": 2}, None),
    (["sweep-parallel"], {"bits": 12, "k_list": [1, 2]}, None),
])
def test_a_setting_given_at_its_default_is_refused_where_unread(tmp_path, capsys, argv,
                                                                config, message):
    """A setting a study does not read exits 2 when it is given, by flag or
    by config key, also at its ``ExperimentConfig`` default; a config key
    set to null runs as if left out."""
    out = tmp_path / "s.csv"
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "cosine", "n": 16, "m": 16, "seed": 1, **config}))
        argv = [*argv, "--config", str(path)]
    code = cli.main([*argv, "--out", str(out)])
    if message is None:
        assert code == 0 and out.exists()
    else:
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_double_study_reads_fft_mode(tmp_path):
    """--fft-mode stays read under --double: the FFT row is priced by it."""
    out = tmp_path / "s.csv"
    assert cli.main(["compare", "--double", "--fft-mode", "pre", *STUDY_FLAGS,
                     "--out", str(out)]) == 0
    _, header, rows = _csv(out.read_text())
    (fft,) = [dict(zip(header, r)) for r in rows if r[0] == "fft"]
    assert int(fft["latency_cycles"]) == hwmodel.fft_cost(16, "pre").latency_cycles


# FFT settings no plan can run: the 12-bit headroom 10 leaves the DCT's
# entry words, one headroom bit above the plan's, no mantissa
UNRUNNABLE_FFT = [(["--headroom", "-3"], "headroom_bits out of range"),
                  (["--twiddle-bits", "0"], "total_bits must be in"),
                  (["--headroom", "10"], "headroom 11 leaves no mantissa in 12-bit words")]


@pytest.mark.parametrize("flag,message", UNRUNNABLE_FFT)
def test_compare_refuses_fft_settings_its_plan_cannot_run(tmp_path, capsys, flag, message):
    """A study hands its FFT settings to the plan, which refuses these, as
    ``ftsinv invert`` does: exit 2, nothing written."""
    out = tmp_path / "s.csv"
    assert cli.main(["compare", *STUDY_FLAGS, "--bits", "12", *flag, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,message", UNRUNNABLE_FFT)
def test_invert_refuses_fft_settings_its_plan_cannot_run(normalized_cosine, tmp_path, capsys,
                                                         flag, message):
    """``ftsinv invert`` makes its plan where the studies make theirs, with the
    same refusals."""
    out = tmp_path / "x.csv"
    assert cli.main(["invert", "--method", "fft", "--bits", "12", *flag,
                     "--in", str(normalized_cosine), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_precision_runs_a_given_headroom_at_every_width(tmp_path, capsys):
    """A given headroom is not fitted to a sweep's narrow widths, 3 no more
    than 2: 3 leaves the 4-bit plan no mantissa, and 2 the 4-bit DCT entry
    words, so the default widths exit 2 and write nothing."""
    out = tmp_path / "s.csv"
    for headroom, message in (("2", "headroom 3 leaves no mantissa in 4-bit words"),
                              ("3", "data width leaves no mantissa below the headroom")):
        assert cli.main(["sweep-precision", *STUDY_FLAGS, "--headroom", headroom,
                         "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_compare_runs_the_fft_at_zero_headroom(tmp_path, monkeypatch):
    """--headroom 0 reaches the FFT plan as given."""
    made, make = [], FftPlan.make

    def recording(*args, **settings):
        made.append(inspect.signature(make).bind(*args, **settings).arguments)
        return make(*args, **settings)

    monkeypatch.setattr(FftPlan, "make", recording)
    assert cli.main(["compare", *STUDY_FLAGS, "--bits", "12", "--headroom", "0",
                     "--out", str(tmp_path / "s.csv")]) == 0
    assert made == [dict(n_points=16, bits=12, twiddle_bits=None, mode="post",
                         headroom_bits=0)]


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


@pytest.mark.parametrize("bits", [4, 5])
@pytest.mark.parametrize("mode", ["pre", "post", "fixed"])
def test_invert_fft_runs_the_plan_a_study_makes(normalized_cosine, tmp_path, monkeypatch,
                                                mode, bits):
    """Without --headroom, ``invert`` runs the plan a study of the same
    acquisition makes at ``bits``, its headroom fitted to the width, and
    writes the study's estimate bit for bit.  At every study width of the
    parity of ``bits``, up to 32, with the headroom unset or given, it makes
    the plan a study with the same settings makes, or refuses it alike."""
    out = tmp_path / "x.csv"
    argv = ["invert", "--method", "fft", "--fft-mode", mode, "--in", str(normalized_cosine),
            "--out", str(out)]
    assert cli.main([*argv, "--bits", str(bits)]) == 0
    cfg = bench.ExperimentConfig(kind="cosine", n=64, m=64, seed=3, fft_mode=mode)
    _, estimate, _, _ = bench.invert_once(bench.build_setup(cfg), "fft", bits)
    _, _, x_hat = fileio.read_series_csv(out)
    assert np.array_equal(x_hat, estimate)

    made, make = [], FftPlan.make

    def recording(*args, **settings):
        try:
            made.append(make(*args, **settings))
        except ValueError as exc:
            made.append(str(exc))
            raise
        return made[-1]

    monkeypatch.setattr(FftPlan, "make", recording)
    for headroom in (None, 0, 3):
        setup = bench.build_setup(dataclasses.replace(cfg, headroom=headroom))
        given = [] if headroom is None else ["--headroom", str(headroom)]
        for width in range(bits, 33, 2):
            made.clear()
            cli.main([*argv, "--bits", str(width), *given])
            with contextlib.suppress(ValueError):
                bench._compile_route(setup, "fft", width, 1)
            assert len(made) == 2 and made[0] == made[1], (headroom, width)


def test_invert_fft_normalizes_like_the_library(tmp_path):
    """``--normalize --mean-spectrum M`` writes ``normalize_interferogram``
    (a = 1.0, r = 0.5 by default) followed by ``reconstruct_fft`` on the
    file's interferogram, bit for bit."""
    y, out = tmp_path / "y.csv", tmp_path / "x.csv"
    assert cli.main(["simulate", "--kind", "cosine", "--n", "64", "--m", "64",
                     "--seed", "3", "--out", str(y)]) == 0
    mean = bench.simulate(bench.ExperimentConfig(n=64, m=64, seed=3)).y.mean_spectrum
    assert cli.main(["invert", "--method", "fft", "--bits", "16", "--normalize",
                     "--mean-spectrum", repr(mean), "--in", str(y), "--out", str(out)]) == 0
    _, coords, values = fileio.read_series_csv(y)
    y_norm = normalize_interferogram(Interferogram(values, OpdGrid(coords)),
                                     OpticalParams(1.0, 0.5), mean)
    spectrum, _ = reconstruct_fft(y_norm, FftPlan.make(64, bits=16, mode="post",
                                                       headroom_bits=3))
    _, wavenumbers, x_hat = fileio.read_series_csv(out)
    assert np.array_equal(wavenumbers, spectrum.grid.midpoints())
    assert np.array_equal(x_hat, spectrum.values)


def test_invert_fft_overflow_exits_3(normalized_cosine, tmp_path, capsys):
    """No headroom under post-normalization breaks the no-overflow invariant,
    which raises the overflow error, not just any numerical one."""
    out = tmp_path / "x.csv"
    argv = ["invert", "--method", "fft", "--bits", "16", "--fft-mode", "post",
            "--headroom", "0", "--in", str(normalized_cosine), "--out", str(out)]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(OverflowViolationError):
        args.func(args)
    assert cli.main(argv) == 3
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


# every flag that a command does not read, with a value where it takes one
UNREAD_FLAGS = {
    "sweep-precision": ["--method pinv", "--rank 3", "--lambda 1.0", "--bits 8",
                        "--double"],
    "sweep-parallel": ["--method pinv", "--rank 3", "--lambda 1.0", "--parallel-k 4",
                       "--twiddle-bits 16", "--fft-mode fixed", "--headroom 0"],
    "compare": ["--method pinv", "--rank 3", "--lambda 1.0"],
}


@pytest.mark.parametrize("argv,flag", [
    *[pytest.param([command, *MODEL_FLAGS], flag.split(), id=command + flag.split()[0])
      for command, flags in UNREAD_FLAGS.items() for flag in flags],
    *[pytest.param(["invert", "--method", method, "--bits", "8", "--in", "y.csv"],
                   ["--quantize", quantize], id=f"invert-{method}--quantize-{quantize}")
      for method in ("pinv", "fft") for quantize in ("all", "data-only")],
])
def test_unread_flags_rejected(tmp_path, capsys, argv, flag):
    """A flag its command does not read is unknown to it: the command line
    parses without the flag and exits 2 with it, writing nothing."""
    out = ["--out", str(tmp_path / "out.csv")]
    cli.build_parser().parse_args([*argv, *out])
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *flag, *out])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command,flag,knob,columns,rows", [
    ("sweep-precision", ["--parallel-k", "2"], {"k": 2},
     ["method", "bits", "reg_param", "snr_db", "mults", "latency_cycles", "time_us"],
     4 * 8),
    ("sweep-parallel", ["--bits", "12"], {"bits": 12},
     ["method", "k", "identical_to_k1", "snr_db", "latency_cycles", "time_us", "dsp",
      "bram", "lut", "mults"],
     3 * 6),
], ids=["sweep-precision", "sweep-parallel"])
def test_sweep_round_trip(tmp_path, capsys, command, flag, knob, columns, rows):
    """A sweep on a 16-point cosine study exits 0, and its config echo parses
    back to the study the flags describe."""
    out = tmp_path / "s.csv"
    assert cli.main([command, "--kind", "cosine", "--n", "16", "--m", "16",
                     "--seed", "1", *flag, "--out", str(out)]) == 0
    meta, header, table = _csv(out.read_text())
    assert meta["operation"] == command
    assert header == columns and len(table) == rows
    assert f"{rows} rows" in capsys.readouterr().out
    want = bench.ExperimentConfig(kind="cosine", n=16, m=16, seed=1, **knob)
    assert bench.ExperimentConfig.from_json(meta["config"]) == want


@pytest.mark.parametrize("key,value", [("method", "pinv"), ("rank", 3), ("lam", 1.0)])
def test_config_refuses_removed_keys(key, value):
    with pytest.raises(ConfigError, match="unknown config keys"):
        bench.ExperimentConfig.from_dict({key: value})


@pytest.mark.parametrize("text,message", [
    ('{"kind": "cosine", "n": 16,', "bad config JSON"),
    ('{"kind": "cosine", "k": 0}', "k must be >= 1"),
    ('{"kind": "cosine", "n": 16, "m": 16, "seed": 1, "lambda_points": 0}',
     "lambda_points must be >= 1"),
    ('{"kind": "cosine", "n": 16, "m": 16, "seed": 1, "lambda_rel_max": 1e400}',
     "lambda_rel_min and lambda_rel_max must be finite and > 0"),
])
def test_bad_config_file_exits_2(tmp_path, capsys, text, message):
    config, out = tmp_path / "c.json", tmp_path / "s.csv"
    config.write_text(text)
    assert cli.main(["compare", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _csv(text):
    """(metadata, header, rows) of a sweep CSV."""
    lines = text.splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    table = [line.split(",") for line in lines if not line.startswith("#")]
    return meta, table[0], table[1:]


def test_compare_writes_one_row_per_method(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert cli.main(["compare", "--kind", "cosine", "--n", "16", "--m", "16",
                     "--seed", "1", "--bits", "12", "--out", str(out)]) == 0
    meta, header, rows = _csv(out.read_text())
    assert meta["operation"] == "compare"
    assert header == ["method", "bits", "k", "reg_param", "snr_db", "mults",
                      "latency_cycles", "time_us", "dsp", "bram", "lut"]
    assert [r[0] for r in rows] == list(bench.ALL_METHODS)
    assert all(len(r) == len(header) for r in rows)
    mults = {r[0]: int(r[header.index("mults")]) for r in rows}
    # inverse DCT twiddles plus 4 per butterfly slot; one per pinv MAC
    assert mults["fft"] == 4 * 16 + 4 * 8 * 4
    assert mults["pinv"] == 16 * 16
    assert "4 rows" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep-precision", "compare"])
@pytest.mark.parametrize("mode", ["pre", "post", "fixed"])
def test_fft_rows_are_priced_in_the_fft_mode(tmp_path, command, mode):
    """Every FFT row costs what the transform engine costs in ``--fft-mode``."""
    out = tmp_path / "s.csv"
    assert cli.main([command, "--kind", "cosine", "--n", "16", "--m", "16",
                     "--seed", "1", "--fft-mode", mode, "--out", str(out)]) == 0
    _, header, rows = _csv(out.read_text())
    cost = hwmodel.fft_cost(16, mode)
    fft_rows = [dict(zip(header, r)) for r in rows if r[0] == "fft"]
    assert fft_rows and all(
        (int(r["latency_cycles"]), float(r["time_us"])) == (cost.latency_cycles, cost.time_us)
        for r in fft_rows)


def test_costs_prints_csv_with_ratios(capsys):
    assert cli.main(["costs", "--out", "-"]) == 0
    meta, header, rows = _csv(capsys.readouterr().out)
    assert meta["operation"] == "costs"
    assert header == ["method", "k", "latency_cycles", "fmax_mhz", "time_us",
                      "dsp", "bram", "lut"]
    assert [(r[0], r[1]) for r in rows] == [
        ("fft", "1"), ("pinv", "1"), ("pinv", "6"), ("tsvd", "1"), ("tik", "1"),
        ("tsvd", "6"), ("tik", "6")]
    assert float(meta["ratio.time_pinv_k1_over_fft"]) == pytest.approx(8.0, rel=0.15)
    assert float(meta["ratio.opcount_svd_over_pinv_square"]) == 3.0
    assert not any(key.startswith("flag.") for key in meta)


def test_costs_writes_the_printed_csv(tmp_path, capsys):
    """``--out FILE`` writes what ``costs`` prints, and the packaged
    calibration file named by ``--calibration`` prices as the default."""
    assert cli.main(["costs"]) == 0
    printed = capsys.readouterr().out
    out, packaged = tmp_path / "c.csv", tmp_path / "p.csv"
    assert cli.main(["costs", "--out", str(out)]) == 0
    assert f"wrote {out} (7 rows)" in capsys.readouterr().out
    calibration = Path(hwmodel.__file__).with_name("data") / "calibration.txt"
    assert cli.main(["costs", "--calibration", str(calibration),
                     "--out", str(packaged)]) == 0
    assert out.read_text() == packaged.read_text() == printed
