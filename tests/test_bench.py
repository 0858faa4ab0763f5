"""Sweep harness: pinned precision sweep, sweep schemas and determinism."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ftsinv import bench, fft_inversion
from ftsinv.errors import ConfigError
from ftsinv.fxp import FxpFormat, dequantize_array, quantize_array
from ftsinv.optics import Interferogram

GOLDEN_PATH = Path(__file__).with_name("matrix_golden.json")


def test_reference_sweep_precision_pinned(reference_setup):
    """Every method's best grid point and SNR per width on the reference
    Airy study, pinned through the CSV bytes."""
    csv = bench.sweep_precision(bench.reference_airy_config(),
                                setup=reference_setup).to_csv()
    want = json.loads(GOLDEN_PATH.read_text())["sweep_precision"]
    assert hashlib.sha256(csv.encode()).hexdigest() == want


@pytest.mark.parametrize("bits", [16, None])
def test_sweep_parallelism_schema_and_k_identity(small_cosine_setup, bits):
    """Every K gives the K = 1 estimate bit for bit, on the fixed-point
    datapath and on the double-precision reference alike."""
    cfg = dataclasses.replace(small_cosine_setup.config, bits=bits)
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


@pytest.mark.parametrize("method", ["fft", "pinv", "tik"])
@pytest.mark.parametrize("bits", [8, 12])
def test_data_only_runs_the_double_route_on_quantized_data(small_cosine_setup, monkeypatch,
                                                          method, bits):
    """``quantize="data-only"`` quantizes the acquisition alone, at ``bits``
    over its own range, and runs the double-precision route on it: the FFT on
    an exact plan, a matrix route on a datapath that holds no words, one
    datapath for every grid point of a best-point search."""
    setup = dataclasses.replace(small_cosine_setup, config=dataclasses.replace(
        small_cosine_setup.config, quantize="data-only"))
    name = "y_norm" if method == "fft" else "y"
    y = getattr(setup, name)
    fmt = FxpFormat.for_range(bits, float(np.max(np.abs(y.values))))
    quantized = Interferogram(dequantize_array(quantize_array(y.values, fmt), fmt),
                              y.grid, y.mean_spectrum)
    reference = dataclasses.replace(small_cosine_setup, **{name: quantized})
    point = {"lam": setup.lambda_grid[len(setup.lambda_grid) // 2]} if method == "tik" else {}
    got = bench.invert_once(setup, method, bits, **point)
    want = bench.invert_once(reference, method, None, **point)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    if method == "fft":
        assert got[2] == want[2]
        assert got[2].final_exponent == got[2].overflow_events == 0

    ran = []
    run_route = bench.run_route

    def recording(datapath, *args, **point):
        ran.append(datapath)
        return run_route(datapath, *args, **point)

    monkeypatch.setattr(bench, "run_route", recording)
    bench.best_inversion(setup, method, bits)
    (datapath,) = {id(d): d for d in ran}.values()
    if method == "pinv":
        assert datapath.fmt is None and datapath.words is None
    elif method == "tik":
        assert datapath.fmt is None and datapath._words == {}
    else:
        assert datapath.exact


@pytest.mark.parametrize("method,point,message", [
    ("tsvd", {}, "tsvd requires --rank"),
    ("tsvd", {"lam": 1.0}, "tsvd requires --rank"),
    ("tik", {}, "tik requires --lambda"),
    ("tik", {"rank": 4}, "tik requires --lambda"),
    ("bogus", {}, "unknown method 'bogus'"),
])
def test_invert_once_refuses_a_missing_grid_point(small_cosine_setup, method, point,
                                                  message):
    with pytest.raises(ConfigError, match=message):
        bench.invert_once(small_cosine_setup, method, 12, **point)


def _with_config(setup, **fields):
    """``setup`` studied under its config with ``fields`` replaced."""
    return dataclasses.replace(setup, config=dataclasses.replace(setup.config, **fields))


def test_fft_plans_are_values_that_share_their_tables(reference_setup):
    """A study's FFT plan is its settings: at every width of a sweep and on
    its double plan, two compiles give equal plans with equal hashes, which
    read one set of tables and stage columns, and a plan in another mode is
    another plan on the same tables."""
    def reads(plan):
        key = (plan.n_points, plan.twiddle_format)
        return fft_inversion._tables(*key), fft_inversion._columns(*key, plan.word_type)

    fixed = _with_config(reference_setup, fft_mode="fixed")
    for bits in [None] + list(range(4, 24, 2)):
        plan, again, other = (bench._compile_route(setup, "fft", bits, 1)[1]
                              for setup in (reference_setup, reference_setup, fixed))
        assert plan == again and hash(plan) == hash(again), bits
        assert all(a is b for a, b in zip(reads(plan), reads(again))), bits
        assert other.mode == "fixed" and other != plan, bits
        assert reads(other)[0] is reads(plan)[0], bits


@pytest.mark.parametrize("fields,message", [
    ({"kind": "sinc"}, "unknown model kind 'sinc'"),
    ({"quantize": "coefficients"}, "quantize must be 'all' or 'data-only'"),
    ({"methods": ["pinv", "lsq"]}, "unknown method 'lsq' in methods"),
    ({"k": 0}, "k must be >= 1"),
    ({"bits": 3}, r"bits must lie in \[4, 32\]"),
    ({"bits": 33}, r"bits must lie in \[4, 32\]"),
    ({"bits_list": [8, 40]}, r"bits_list entries must lie in \[4, 32\]"),
    ({"k_list": [1, 17]}, r"k_list entries must lie in \[1, 16\]"),
    ({"k_list": [0]}, r"k_list entries must lie in \[1, 16\]"),
    ({"bits": "16"}, "not supported between"),
    ({"lambda_points": 0}, "lambda_points must be >= 1"),
    *[({key: value}, "lambda_rel_min and lambda_rel_max must be finite and > 0")
      for key in ("lambda_rel_min", "lambda_rel_max")
      for value in (0.0, -1e-8, float("inf"), float("nan"))],
])
def test_config_refuses_bad_fields(fields, message):
    """Every field check raises ConfigError, from a dict or from JSON; so
    does a field of the wrong type."""
    with pytest.raises(ConfigError, match=message):
        bench.ExperimentConfig.from_dict(fields)
    with pytest.raises(ConfigError, match=message):
        bench.ExperimentConfig.from_json(json.dumps(fields))


@pytest.mark.parametrize("text,message", [
    ('{"bits": 16,', "bad config JSON"),
    ("[16]", "config JSON must be an object"),
])
def test_config_refuses_bad_json(text, message):
    with pytest.raises(ConfigError, match=message):
        bench.ExperimentConfig.from_json(text)


def test_study_fft_plans_take_the_config_settings():
    """A study's FFT plan runs the configured twiddle width and headroom.
    Only an unset headroom is fitted, to ``bits - 3``, which it needs at 4
    and 5 bits; a given one is used as given, 3 included, also past
    ``bits - 3``.  A double plan has no words and refuses either setting.
    ``test_cli`` checks that the settings a plan cannot run are refused."""
    setup = bench.build_setup(bench.ExperimentConfig(kind="cosine", n=16, m=16))

    def plan(bits, **fields):
        return bench._compile_route(_with_config(setup, **fields), "fft", bits, 1)[1]

    assert plan(4).headroom_bits == 1 and plan(4).twiddle_format.total_bits == 4
    assert [plan(bits).headroom_bits for bits in (5, 6, 12)] == [2, 3, 3]
    for headroom in (0, 2, 3, 10):
        assert plan(12, headroom=headroom).headroom_bits == headroom
    with pytest.raises(ValueError, match="no mantissa below the headroom"):
        plan(4, headroom=3)
    assert plan(12, twiddle_bits=8).twiddle_format.total_bits == 8
    assert plan(None).exact and plan(None).headroom_bits == 3
    for fields in ({"headroom": 1}, {"twiddle_bits": 8}, {"headroom": 1, "twiddle_bits": 8}):
        with pytest.raises(ValueError, match="a double-precision plan has no words"):
            plan(None, **fields)


@pytest.mark.parametrize("fields", [{"twiddle_bits": 8}, {"headroom": 1}])
def test_double_comparison_refuses_fft_word_settings(fields):
    """A double-precision comparison given an FFT twiddle width or headroom
    raises rather than running its plan without them."""
    cfg = bench.ExperimentConfig(kind="cosine", n=16, m=16, bits=None, methods=["fft"],
                                 **fields)
    with pytest.raises(ValueError, match="a double-precision plan has no words"):
        bench.run_comparison(cfg)


def test_simulate_noise_snr_limits():
    """An infinite acquisition SNR is noiseless; a NaN one is refused."""
    cfg = bench.ExperimentConfig(kind="cosine", n=16, m=16, seed=1, noise_snr_db=float("inf"))
    model = bench.simulate(cfg)
    assert np.array_equal(model.y.values, model.y_clean.values)
    with pytest.raises(ValueError, match="noise_std must be >= 0"):
        bench.simulate(dataclasses.replace(cfg, noise_snr_db=float("nan")))


@pytest.mark.parametrize("reference,estimate,message", [
    ([1.0, 2.0], [1.0], "length mismatch"),
    ([0.0, 0.0], [1.0, 0.0], "identically zero reference"),
])
def test_snr_db_refuses_what_it_cannot_score(reference, estimate, message):
    with pytest.raises(ValueError, match=message):
        bench.snr_db(reference, estimate)


def test_snr_db_is_capped():
    """Exact recovery, and any error more than 300 dB down, read 300 dB."""
    assert bench.snr_db([1.0, 2.0], [1.0, 2.0]) == bench.SNR_CAP_DB
    assert bench.snr_db([1.0, 0.0], [1.0, 1e-20]) == bench.SNR_CAP_DB
    assert bench.snr_db([1.0, 0.0], [1.0, 1e-3]) == pytest.approx(60.0)


def test_cost_table_carries_the_calibration_flags():
    """A ratio that strays from its headline is written as a flag line."""
    text = (Path(bench.__file__).with_name("data") / "calibration.txt").read_text()
    calib = bench.hwmodel.CalibrationTable.parse(text.replace("fft.fmax = 98.0",
                                                              "fft.fmax = 300.0"))
    _, _, flags = bench.hwmodel.compare_methods(calib)
    meta = bench.cost_table(calib).metadata
    assert flags and [meta[f"flag.{i}"] for i in range(len(flags))] == flags
    assert not any(key.startswith("flag.") for key in bench.cost_table().metadata)
