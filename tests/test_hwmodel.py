"""Cost model: anchor fidelity, structural terms, telemetry cross-validation."""

import hashlib
import importlib.util
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ftsinv as fi
from ftsinv import hwmodel
from ftsinv.errors import ConfigError

PINV_ANCHORS = {1: 53965, 2: 27559, 3: 18529, 4: 14014, 5: 11434, 6: 9499}
SVD_ANCHORS = {1: 154673, 2: 77918, 3: 52118, 4: 39218, 5: 31693, 6: 26318}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ftsinv"


class TestCalibration:
    def test_loads_under_another_package_name(self, monkeypatch):
        """The package reaches its modules and its calibration data by
        relative names: loaded as ``ftsinv_alias`` while ``ftsinv`` cannot be
        imported, it reads the same calibration and runs a fixed-point route
        to the same words and latency."""
        want = fi.reconstruct_pinv(np.eye(4) / 3, np.arange(4.0), fmt=16)
        for name in [m for m in sys.modules if m.split(".")[0] == "ftsinv"]:
            monkeypatch.setitem(sys.modules, name, None)
        spec = importlib.util.spec_from_file_location(
            "ftsinv_alias", PACKAGE / "__init__.py",
            submodule_search_locations=[str(PACKAGE)])
        alias = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "ftsinv_alias", alias)
        try:
            spec.loader.exec_module(alias)
            calib = alias.hwmodel.default_calibration()
            assert calib.entries.keys() == hwmodel.default_calibration().entries.keys()
            got = alias.matrix_inversion.reconstruct_pinv(np.eye(4) / 3, np.arange(4.0),
                                                          fmt=16)
        finally:
            for name in [m for m in sys.modules if m.startswith("ftsinv_alias.")]:
                del sys.modules[name]
        assert np.array_equal(got.x_hat, want.x_hat)
        assert got.telemetry.latency_cycles == want.telemetry.latency_cycles > 0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            hwmodel.CalibrationTable.parse("pinv.latency.k1 = not_a_number")
        with pytest.raises(ConfigError):
            hwmodel.CalibrationTable.parse("just words, no assignment")

    def test_provenance_tags_kept(self):
        calib = hwmodel.default_calibration()
        assert calib.entries["pinv.latency.k1"].provenance == "pinv-parallel-sweep"
        assert calib.entries["fft.latency"].provenance == "method-survey"

    def test_fit_residuals_recorded(self):
        calib = hwmodel.default_calibration()
        assert 0 < calib.pinv_fit.max_rel_residual < 0.05
        assert 0 < calib.svd_fit.max_rel_residual < 0.05

    def test_missing_entries_detected(self):
        with pytest.raises(ConfigError, match=r"missing 'pinv\.latency\.k\*' entries"):
            hwmodel.CalibrationTable.parse("fft.latency = 4300")
        text = (PACKAGE / "data" / "calibration.txt").read_text()
        kept = [line for line in text.splitlines() if not line.startswith("svd.dsp")]
        with pytest.raises(ConfigError, match=r"missing 'svd\.dsp_per_memory\.k\*' entries"):
            hwmodel.CalibrationTable.parse("\n".join(kept))

    def test_one_anchor_rows_hold_at_every_k(self):
        """An entry without a ``.k`` suffix and the same entry as a K = 1
        anchor are one row of one anchor."""
        text = (PACKAGE / "data" / "calibration.txt").read_text()
        calib = hwmodel.CalibrationTable.parse(text.replace("pinv.ram =", "pinv.ram.k1 ="))
        for k in (1, 4, 9):
            assert hwmodel.pinv_cost(k, calib) == hwmodel.pinv_cost(k)

    def test_missing_entry_named(self):
        text = (PACKAGE / "data" / "calibration.txt").read_text()
        kept = [line for line in text.splitlines() if not line.startswith("fft.anchor_points")]
        with pytest.raises(ConfigError, match="calibration entry 'fft.anchor_points' missing"):
            hwmodel.CalibrationTable.parse("\n".join(kept))


class TestAnchorFidelity:
    def test_pinv_anchors_within_5_percent(self):
        for k, anchor in PINV_ANCHORS.items():
            got = hwmodel.pinv_cost(k).latency_cycles
            assert abs(got - anchor) / anchor <= 0.05

    def test_svd_anchors_within_5_percent(self):
        for k, anchor in SVD_ANCHORS.items():
            got = hwmodel.svd_cost(k).latency_cycles
            assert abs(got - anchor) / anchor <= 0.05

    def test_pinv_k1_to_k6_ratio(self):
        ratio = (hwmodel.pinv_cost(1).latency_cycles
                 / hwmodel.pinv_cost(6).latency_cycles)
        assert abs(ratio - 5.68) / 5.68 <= 0.10

    def test_fft_anchor_exact(self):
        calib = hwmodel.default_calibration()
        n0 = int(calib["fft.anchor_points"])
        assert hwmodel.fft_cost(n0, "post").latency_cycles == 4300
        assert hwmodel.fft_cost(n0, "post").fmax_mhz == 98.0


class TestStructure:
    def test_butterfly_slot_formula(self):
        c1024 = hwmodel.fft_cost(1024, "post")
        c512 = hwmodel.fft_cost(512, "post")
        # the size-dependent part grows by the slot difference plus io/stage terms
        slots_diff = (1024 // 2) * 10 - (512 // 2) * 9
        calib = hwmodel.default_calibration()
        expected = (slots_diff + 512 * int(calib["fft.io_cycles_per_point"])
                    + int(calib["fft.norm_cycles_per_stage"]))
        assert c1024.latency_cycles - c512.latency_cycles == expected

    def test_pre_mode_never_faster(self):
        for n in (8, 64, 512, 4096):
            assert (hwmodel.fft_cost(n, "pre").latency_cycles
                    >= hwmodel.fft_cost(n, "post").latency_cycles)

    def test_latency_monotone_dsp_increasing(self):
        prev_lat, prev_dsp = np.inf, 0
        for k in range(1, 9):
            cost = hwmodel.pinv_cost(k)
            assert cost.latency_cycles < prev_lat
            assert cost.dsp > prev_dsp
            prev_lat, prev_dsp = cost.latency_cycles, cost.dsp

    def test_time_consistency(self):
        cost = hwmodel.svd_cost(3)
        assert cost.time_us == pytest.approx(cost.latency_cycles / cost.fmax_mhz)

    def test_desk_scale_work_term(self):
        calib = hwmodel.default_calibration()
        got = hwmodel.pinv_cost(1, n=64, m=48).latency_cycles
        assert got == 64 * 48 + round(calib.pinv_fit.intercept)
        got = hwmodel.svd_cost(2, n=64, m=48, rank=10).latency_cycles
        expect = -(-10 * (2 * 64 + 48) // 2) + round(calib.svd_fit.intercept)
        assert got == expect

    def test_validation(self):
        with pytest.raises(ConfigError):
            hwmodel.pinv_cost(0)
        with pytest.raises(ConfigError):
            hwmodel.fft_cost(48)
        with pytest.raises(ConfigError):
            hwmodel.method_cost("dft", 1)
        with pytest.raises(ConfigError, match="unknown matrix method 'lsq'"):
            hwmodel.latency_cycles("lsq", 1)
        with pytest.raises(ConfigError, match="unknown transform mode 'mid'"):
            hwmodel.fft_cost(64, "mid")
        with pytest.raises(ConfigError, match="rank scaling requires explicit n and m"):
            hwmodel.latency_cycles("tsvd", 1, rank=4, n=16)


def _resources(method, k=1, calib=None):
    cost = hwmodel.method_cost(method, k, calib)
    return cost.dsp, cost.bram, cost.lut


class TestResources:
    def test_fft_row_verbatim(self):
        assert _resources("fft") == (5, 3, 5540)

    def test_pinv_rows_verbatim(self):
        for k in range(1, 7):
            dsp, bram, _ = _resources("pinv", k)
            assert dsp == k and bram == 27
        assert _resources("pinv", 1)[2] == 6390
        assert _resources("pinv", 6)[2] == 6670

    def test_svd_rows_verbatim(self):
        ram_row = {1: 73, 2: 76, 3: 76, 4: 80, 5: 80, 6: 78}
        for k in range(1, 7):
            for method in ("tsvd", "tik"):
                dsp, bram, _ = _resources(method, k)
                assert dsp == 2 * k
                assert bram == ram_row[k]


def _gap_calibration():
    """The shipped calibration with only the K = 1 and K = 4 anchors."""
    text = hwmodel.resources.files("ftsinv.data").joinpath("calibration.txt").read_text()
    kept = [line for line in text.splitlines()
            if not re.match(r"\s*(pinv|svd)\.\w+\.k[2356]\s*=", line)]
    return hwmodel.CalibrationTable.parse("\n".join(kept))


class TestOffAnchorK:
    """Resources and fmax between and beyond the measured K anchors: held at
    the last anchor past either end, linear in K between two anchors."""

    # (calibration, method, k): (dsp, bram, lut), latency_cycles, fmax_mhz
    PINNED = {
        (None, "pinv", 7): ((7, 27, 6670), 8350, 147.776),
        (None, "pinv", 16): ((16, 27, 6670), 4067, 147.776),
        (None, "tsvd", 7): ((14, 78, 8176), 22792, 185.49),
        (None, "tsvd", 16): ((32, 78, 8176), 10422, 185.49),
        ("gap", "pinv", 2): ((2, 27, 6451), 27331, 148.86333333333334),
        ("gap", "pinv", 3): ((3, 27, 6511), 18453, 148.31666666666666),
        ("gap", "tsvd", 2): ((4, 75, 7556), 77703, 152.76333333333332),
        ("gap", "tsvd", 3): ((6, 78, 7616), 52047, 160.32666666666665),
    }

    @pytest.mark.parametrize("key", PINNED)
    def test_pinned(self, key):
        calib = _gap_calibration() if key[0] == "gap" else None
        _, method, k = key
        resources, cycles, fmax = self.PINNED[key]
        assert _resources(method, k, calib) == resources
        cost = hwmodel.method_cost(method, k, calib)
        assert cost.latency_cycles == cycles
        assert cost.fmax_mhz == pytest.approx(fmax, rel=1e-12)


COST_GOLDEN_PATH = Path(__file__).with_name("cost_golden.json")


def _cost_golden_digests() -> dict:
    """SHA-256 of every ``HwCost`` field the model prices: ``method_cost`` at
    K = 1-16 for each method, at anchor scale and at the sized cases 64x48 and
    256x256 (tsvd and tik at ranks None, 1, 10 and 48), under the shipped and
    the K = 1/4-only calibration; and ``fft_cost`` at n = 2 ... 65536 in each
    mode.  Keys are ``"calibration/method/size/rank"`` and ``"fft_cost/mode/n"``.

    Regenerate ``cost_golden.json`` (only when a change is meant to move a
    cost) with ``json.dumps(_cost_golden_digests(), indent=1, sort_keys=True)``.
    """
    def digest(costs):
        h = hashlib.sha256()
        for cost in costs:
            h.update(json.dumps(asdict(cost), sort_keys=True).encode())
        return h.hexdigest()

    digests = {}
    for name, calib in (("shipped", None), ("gap", _gap_calibration())):
        cases = [("fft", None, None), ("pinv", None, None)]
        cases += [(m, None, None) for m in ("tsvd", "tik")]
        for n, m in ((64, 48), (256, 256)):
            cases.append(("pinv", (n, m), None))
            cases += [(meth, (n, m), r) for meth in ("tsvd", "tik")
                      for r in (None, 1, 10, 48)]
        for method, size, rank in cases:
            n, m = size or (None, None)
            costs = [hwmodel.method_cost(method, k, calib, n=n, m=m, rank=rank)
                     for k in range(1, 17)]
            where = "anchor" if size is None else f"{n}x{m}"
            digests[f"{name}/{method}/{where}/{rank}"] = digest(costs)
    for mode in ("pre", "post", "fixed"):
        for e in range(1, 17):
            digests[f"fft_cost/{mode}/{2 ** e}"] = digest([hwmodel.fft_cost(2 ** e, mode)])
    return digests


def test_cost_golden():
    """Every cost field the model prices is pinned bit for bit."""
    want = json.loads(COST_GOLDEN_PATH.read_text())
    got = _cost_golden_digests()
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"costs moved at {moved}"


class TestCompareMethods:
    def test_headline_ratios_within_bands(self):
        _, ratios, flags = hwmodel.compare_methods()
        assert 6.8 <= ratios["time_pinv_k1_over_fft"] <= 9.2
        assert 20.4 <= ratios["time_tik_k1_over_fft"] <= 27.6
        assert 1.27 <= ratios["time_pinv_k6_over_fft"] <= 1.73
        assert 2.72 <= ratios["time_tik_k6_over_fft"] <= 3.68
        assert flags == []

    def test_both_svd_pinv_ratio_views_emitted(self):
        _, ratios, _ = hwmodel.compare_methods()
        assert ratios["cycles_svd_over_pinv_k1"] == pytest.approx(2.87, abs=0.05)
        assert ratios["opcount_svd_over_pinv_square"] == 3.0

    def test_flagging_detects_distorted_calibration(self):
        calib = hwmodel.default_calibration()
        text = hwmodel.resources.files("ftsinv.data").joinpath("calibration.txt").read_text()
        distorted = text.replace("fft.fmax = 98.0", "fft.fmax = 300.0")
        calib2 = hwmodel.CalibrationTable.parse(distorted)
        _, _, flags = hwmodel.compare_methods(calib=calib2)
        assert flags


class TestCrossValidation:
    """Latency-model work terms equal the live multiplier counters."""

    def test_pinv_term_vs_counter(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n, m = int(rng.integers(4, 40)), int(rng.integers(4, 40))
            adag = rng.standard_normal((n, m))
            res = fi.reconstruct_pinv(adag, rng.standard_normal(m), fmt=12)
            assert res.telemetry.mults == n * m

    def test_svd_term_vs_counter(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m, n = int(rng.integers(6, 32)), int(rng.integers(6, 32))
            a = rng.standard_normal((m, n))
            f = fi.svd_factorize(a)
            rank = int(rng.integers(1, min(m, n) + 1))
            z = fi.penalize(f.xi, fi.Tsvd(rank))
            res = fi.reconstruct_svd(f, z, rng.standard_normal(m), fmt=12)
            assert res.telemetry.mults == rank * (2 * n + m)

    def test_fft_term_vs_counter(self):
        for n in (16, 128, 1024):
            plan = fi.FftPlan.make(n, bits=14, mode="post", headroom_bits=3)
            res = fi.fft_bfp(np.ones(n, dtype=complex), plan)
            slots = (n // 2) * (n.bit_length() - 1)
            assert res.telemetry.butterflies == slots
            assert res.telemetry.mults == 4 * slots


@pytest.mark.parametrize("call,error,message", [
    (lambda: hwmodel.HwCost(-1, 0, 0, 10, 100.0), ValueError, "non-negative"),
    (lambda: hwmodel.HwCost(1, 0, 0, -10, 100.0), ValueError, "non-negative"),
    (lambda: hwmodel.HwCost(1, 0, 0, 10, 0.0), ValueError, "fmax must be positive"),
    (lambda: hwmodel.CalibrationTable.parse(
        (PACKAGE / "data" / "calibration.txt").read_text().replace(
            "fft.latency = 4300", "fft.latency = 430")),
     ConfigError, "negative overhead"),
    *[(lambda line=line: hwmodel.CalibrationTable.parse(
        (PACKAGE / "data" / "calibration.txt").read_text() + line), ConfigError, message)
      for line, message in (("fft.lut = 1", "'fft.lut' given twice"),
                            ("pinv.latency.k1 = 1", "'pinv.latency.k1' given twice"),
                            ("pinv.ram.k1 = 30", "'pinv.ram.k1' repeats its row's K = 1"),
                            ("pinv.latency.k0 = 5000", "'pinv.latency.k0': K must be >= 1"))],
    *[(lambda points=points: hwmodel.method_cost("fft", 1, fft_points=points), ConfigError,
       "n_points must be a power of two") for points in (0, 48)],
], ids=["resources", "latency", "fmax", "fft-overhead", "calib-twice", "calib-anchor-twice",
        "calib-row-twice", "calib-k0", "fft-points-0", "fft-points-48"])
def test_input_checks_raise_their_errors(call, error, message):
    """A cost with negative resources or no clock, a calibration whose FFT
    anchor is shorter than its structural cycles or that gives an entry or
    an anchor twice or an anchor below K = 1, and an FFT size that is not a
    power of two, 0 included, are refused."""
    with pytest.raises(error, match=message):
        call()
