"""Banked-memory FFT, BFP normalization behavior, and the DCT route."""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ftsinv as fi
from ftsinv.fft_inversion import (
    BankedMemory,
    FftPlan,
    _parity,
    _port_map,
    bank_map,
    butterfly_radix2,
    dct2_via_fft,
    fft_bfp,
    idct2_via_fft,
    quantize_complex_block,
    reconstruct_fft,
)
from ftsinv.fxp import FxpFormat, OpCounter

from conftest import complex_snr_db


def direct_dct2(x):
    n = x.size
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    return np.cos(np.pi * k * (2 * m + 1) / (2 * n)) @ x


def make_sign_adversary(n, seed):
    """Full-scale corner input that defeats a 2-bit headroom budget."""
    rng = np.random.default_rng(seed)
    return 1.999 * (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n))


class TestBankMap:
    def test_partner_separation_examples(self):
        b0, _ = bank_map(0, 0, 8)
        b4, _ = bank_map(4, 0, 8)
        assert {b0, b4} == {0, 1}
        b0, _ = bank_map(0, 2, 8)
        b1, _ = bank_map(1, 2, 8)
        assert {b0, b1} == {0, 1}

    def test_exhaustive_conflict_freedom(self):
        """All butterfly partner pairs land in distinct banks, n <= 1024."""
        n = 2
        while n <= 1024:
            stages = n.bit_length() - 1
            for stage in range(stages):
                half = 1 << stage
                seen = set()
                for i in range(n):
                    bank, addr = bank_map(i, stage, n)
                    assert 0 <= addr < n // 2
                    seen.add((bank, addr))
                    partner = i ^ half
                    pbank, _ = bank_map(partner, stage, n)
                    assert bank != pbank
                assert len(seen) == n            # bijective per stage
            n *= 4

    def test_range_checks(self):
        with pytest.raises(IndexError):
            bank_map(8, 0, 8)
        with pytest.raises(IndexError):
            bank_map(0, 3, 8)

    def test_vectorized_conflict_freedom(self):
        """The parity map the engine uses, every stage, n up to 65536."""
        n = 2
        while n <= 65536:
            idx = np.arange(n)
            par = _parity(idx)
            slots = par * (n // 2) + (idx >> 1)
            assert np.array_equal(np.sort(slots), idx)     # bijective
            for stage in range(n.bit_length() - 1):
                a = idx[(idx >> stage) & 1 == 0]
                assert np.all(par[a] != par[a | (1 << stage)])
            n *= 2

    def test_port_map_matches_bank_map(self):
        """The port's precomputed arrays are the parity bank map."""
        n = 2
        while n <= 65536:
            idx = np.arange(n)
            par, adr, adr_parity = _port_map(n)
            assert np.array_equal(par, _parity(idx))
            assert np.array_equal(adr, idx >> 1)
            assert np.array_equal(adr_parity, _parity(np.arange(n // 2)))
            n *= 2

    def test_banked_memory_round_trip(self):
        rng = np.random.default_rng(0)
        mem = BankedMemory(16)
        re = rng.integers(-100, 100, 16)
        im = rng.integers(-100, 100, 16)
        mem.load(re, im)
        out_re, out_im = mem.unload()
        assert np.array_equal(out_re, re)
        assert np.array_equal(out_im, im)


class TestButterfly:
    FMT = FxpFormat(16, 15)
    TW = FxpFormat(16, 14)

    def test_unit_twiddle_zero_b(self):
        one = (1 << 14, 0)
        out1, out2, ov = butterfly_radix2((100, -50), (0, 0), one, self.FMT, self.TW)
        assert out1 == (100, -50) and out2 == (100, -50) and ov == 0

    def test_unit_twiddle_sum_difference(self):
        one = (1 << 14, 0)
        out1, out2, ov = butterfly_radix2((100, 7), (30, -2), one, self.FMT, self.TW)
        assert out1 == (130, 5) and out2 == (70, 9) and ov == 0

    def test_counter_increments_four(self):
        c = OpCounter()
        butterfly_radix2((1, 2), (3, 4), (5, 6), self.FMT, self.TW, counter=c)
        assert c.mults == 4

    def test_against_exact_complex_oracle(self):
        rng = np.random.default_rng(1)
        ulp = 2.0 ** -(self.FMT.total_bits - 1)
        for _ in range(300):
            a = tuple(int(v) for v in rng.integers(-2000, 2000, 2))
            b = tuple(int(v) for v in rng.integers(-2000, 2000, 2))
            w = tuple(int(v) for v in rng.integers(-(1 << 14), (1 << 14) + 1, 2))
            out1, out2, ov = butterfly_radix2(a, b, w, self.FMT, self.TW)
            assert ov == 0
            av = complex(a[0], a[1]) * ulp
            bv = complex(b[0], b[1]) * ulp
            wv = complex(w[0], w[1]) * 2.0 ** -14
            for got, want in ((out1, av + wv * bv), (out2, av - wv * bv)):
                assert abs(got[0] * ulp - want.real) <= ulp
                assert abs(got[1] * ulp - want.imag) <= ulp


class TestFftBfp:
    def test_zero_input(self):
        plan = FftPlan.make(16, bits=12, mode="post", headroom_bits=3)
        res = fft_bfp(np.zeros(16, dtype=complex), plan)
        assert np.all(np.asarray(res.re, dtype=np.int64) == 0)
        assert res.exponent == 0
        assert res.telemetry.overflow_events == 0

    def test_impulse_constant_output(self):
        plan = FftPlan.make(32, bits=16, mode="post", headroom_bits=3)
        x = np.zeros(32, dtype=complex)
        x[0] = 1.0
        res = fft_bfp(x, plan)
        vals = res.to_complex()
        assert np.allclose(vals, vals[0])
        assert vals[0].real == pytest.approx(1.0, rel=1e-3)

    def test_exact_mode_matches_reference_fft(self):
        plan = FftPlan.make(256)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        res = fft_bfp(x, plan)
        assert np.max(np.abs(res.to_complex() - np.fft.fft(x))) < 1e-11

    def test_bfp_snr_regression(self):
        # measured ~51 dB for 16-bit mantissas at n=1024; fail below 45
        plan = FftPlan.make(1024, bits=16, mode="post", headroom_bits=3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        res = fft_bfp(x, plan)
        assert res.telemetry.overflow_events == 0
        assert complex_snr_db(np.fft.fft(x), res.to_complex()) > 45.0

    def test_bfp_snr_monotone_in_width(self):
        rng = np.random.default_rng(2024)
        inputs = [rng.standard_normal(256) + 1j * rng.standard_normal(256)
                  for _ in range(3)]
        refs = [np.fft.fft(x) for x in inputs]
        prev = -np.inf
        for width in range(10, 25, 2):
            plan = FftPlan.make(256, bits=width, mode="post", headroom_bits=3)
            num = sum(np.linalg.norm(r) ** 2 for r in refs)
            den = sum(np.linalg.norm(r - fft_bfp(x, plan).to_complex()) ** 2
                      for x, r in zip(inputs, refs))
            snr = 10 * np.log10(num / den)
            assert snr >= prev
            prev = snr

    def test_no_overflow_with_three_headroom_bits(self):
        plan = FftPlan.make(1024, bits=16, mode="post", headroom_bits=3)
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
            assert fft_bfp(x, plan).telemetry.overflow_events == 0

    def test_two_headroom_bits_overflow_on_adversary(self):
        plan = FftPlan.make(1024, bits=16, mode="post", headroom_bits=2)
        res = fft_bfp(make_sign_adversary(1024, 0), plan)
        assert res.telemetry.overflow_events >= 1

    def test_adversary_clean_at_three_bits(self):
        plan = FftPlan.make(1024, bits=16, mode="post", headroom_bits=3)
        res = fft_bfp(make_sign_adversary(1024, 0), plan)
        assert res.telemetry.overflow_events == 0

    def test_pre_post_wide_mantissa_equivalence(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        ref = np.fft.fft(x)
        outs = {}
        for mode in ("pre", "post"):
            plan = FftPlan.make(64, bits=48, mode=mode, headroom_bits=3)
            res = fft_bfp(x, plan)
            outs[mode] = res.to_complex()
            assert complex_snr_db(ref, outs[mode]) > 200.0
        assert np.max(np.abs(outs["pre"] - outs["post"])) < 1e-10 * np.max(np.abs(ref))

    def test_parseval_double_mode(self):
        plan = FftPlan.make(512)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        X = fft_bfp(x, plan).to_complex()
        e_time = np.linalg.norm(x) ** 2
        e_freq = np.linalg.norm(X) ** 2 / 512
        assert abs(e_freq - e_time) <= 1e-10 * e_time

    def test_mult_counter_and_slots(self):
        plan = FftPlan.make(128, bits=14, mode="post", headroom_bits=3)
        c = OpCounter()
        res = fft_bfp(np.ones(128, dtype=complex), plan, counter=c)
        slots = (128 // 2) * 7
        assert res.telemetry.butterflies == slots
        assert res.telemetry.cycles == slots
        assert c.mults == 4 * slots == res.telemetry.mults

    def test_length_and_mode_validation(self):
        with pytest.raises(ValueError):
            FftPlan.make(48)
        with pytest.raises(ValueError):
            FftPlan.make(64, mode="sideways")
        plan = FftPlan.make(64)
        with pytest.raises(ValueError):
            fft_bfp(np.zeros(32, dtype=complex), plan)

    def test_insufficient_headroom_rejected(self):
        plan = FftPlan.make(16, bits=12, mode="post", headroom_bits=3)
        re, im, g = quantize_complex_block(np.ones(16, dtype=complex),
                                           plan.data_format, 1)
        from ftsinv.fft_inversion import fft_bfp_block
        with pytest.raises(ValueError):
            fft_bfp_block(re, im, g, plan)

    @pytest.mark.parametrize("bits", [16, 60, 64])
    @pytest.mark.parametrize("headroom", [0, 3])
    def test_entry_mantissas_within_headroom_limit(self, bits, headroom):
        """A power-of-two peak lands on the limit's float neighbour 2**k;
        the mantissas must still stay at or below 2**k - 1."""
        limit = (1 << (bits - 1 - headroom)) - 1
        x = np.array([1.0, -0.5j, 0.25 + 0.75j, 0.0])
        re, im, g = quantize_complex_block(x, FxpFormat(bits, bits - 1), headroom)
        assert re.dtype == im.dtype == np.int64
        assert max(np.abs(re).max(), np.abs(im).max()) <= limit
        assert np.array_equal((re + 1j * im) * 2.0 ** g, x)

    def test_fixed_mode_runs_and_may_overflow(self):
        plan = FftPlan.make(256, bits=10, mode="fixed", headroom_bits=1)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        res = fft_bfp(x, plan)
        assert res.telemetry.overflow_events > 0   # growth with no normalization


class TestDct:
    def test_constant_input(self):
        plan = FftPlan.make(64)
        c, _ = dct2_via_fft(np.full(64, 2.5), plan)
        assert c[0] == pytest.approx(64 * 2.5)
        assert np.max(np.abs(c[1:])) < 1e-10

    def test_zero_input(self):
        plan = FftPlan.make(64)
        c, _ = dct2_via_fft(np.zeros(64), plan)
        assert np.all(c == 0)

    def test_direct_sum_oracle(self):
        plan = FftPlan.make(64)
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.standard_normal(64)
            c, _ = dct2_via_fft(x, plan)
            assert np.max(np.abs(c - direct_dct2(x))) < 1e-9

    def test_inverse_round_trip(self):
        plan = FftPlan.make(128)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(128)
        c, _ = dct2_via_fft(x, plan)
        back, _ = idct2_via_fft(c, plan)
        assert np.max(np.abs(back - x)) < 1e-10

    def test_idct_matches_direct_dct3(self):
        n = 32
        plan = FftPlan.make(n)
        rng = np.random.default_rng(12)
        c = rng.standard_normal(n)
        k = np.arange(n)[:, None]
        m = np.arange(n)[None, :]
        cmat = np.cos(np.pi * k * (2 * m + 1) / (2 * n))
        want = (2.0 / n) * (cmat.T @ c - 0.5 * c[0])
        got, _ = idct2_via_fft(c, plan)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_fixed_point_dct_tracks_oracle(self):
        plan = FftPlan.make(64, bits=18, mode="post", headroom_bits=3)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(64)
        c, tel = dct2_via_fft(x, plan)
        assert tel.overflow_events == 0
        assert complex_snr_db(direct_dct2(x).astype(complex), c.astype(complex)) > 55.0

    def test_length_mismatch(self):
        plan = FftPlan.make(64)
        with pytest.raises(ValueError):
            dct2_via_fft(np.zeros(32), plan)


class TestReconstruct:
    def _forward(self, n=256, seed=0, r=0.5, noise=0.0):
        sg = fi.SpectralGrid(n, 1.0)
        og = fi.OpdGrid.transform_matched(sg, n)
        p = fi.OpticalParams(1.0, r)
        a = fi.build_transfer_matrix(sg, og, "cosine", p)
        x = fi.gaussian_mixture_spectrum(sg, 4, seed=seed)
        y = fi.simulate_interferogram(a, x, noise_std=noise, seed=seed + 1)
        yt = fi.normalize_interferogram(y, p, y.mean_spectrum)
        return x, yt

    def test_round_trip_double(self):
        x, yt = self._forward()
        plan = FftPlan.make(256)
        xh, _ = reconstruct_fft(yt, plan)
        rel = np.linalg.norm(xh.values - x.values) / np.linalg.norm(x.values)
        assert rel <= 1e-8
        assert xh.grid.bandwidth == pytest.approx(1.0)

    def test_zero_interferogram(self):
        _, yt = self._forward()
        zero = fi.Interferogram(np.zeros(256), yt.grid)
        plan = FftPlan.make(256)
        xh, _ = reconstruct_fft(zero, plan)
        assert np.all(xh.values == 0)

    def test_irregular_grid_refused(self):
        delta = np.sort(np.random.default_rng(1).uniform(0.01, 10, 256))
        delta[0] = 0.0
        y = fi.Interferogram(np.zeros(256), fi.OpdGrid(delta))
        with pytest.raises(ValueError, match="regular"):
            reconstruct_fft(y, FftPlan.make(256))

    def test_square_problem_required(self):
        _, yt = self._forward()
        with pytest.raises(ValueError):
            reconstruct_fft(yt, FftPlan.make(128))

    def test_airy_data_reconstructs_poorly(self, reference_setup):
        """Model mismatch: the transform route on Fabry-Perot data stays far
        below the matrix routes (the regularized route exceeds it by >20 dB
        on the reference study)."""
        from ftsinv import bench
        setup = reference_setup
        plan = FftPlan.make(256)
        xh, _ = reconstruct_fft(setup.y_norm, plan)
        fft_snr = bench.snr_db(setup.x, xh)
        assert fft_snr < 0.0


GOLDEN_PATH = Path(__file__).with_name("fft_golden.json")
GOLDEN_FUNCTIONS = ("fft_bfp", "dct2_via_fft", "idct2_via_fft")


def _golden_digests(function: str) -> dict:
    """SHA-256 of every output bit and telemetry field of one transform over
    modes x widths x sizes, keyed ``"mode/bits/n"``; ``bits`` None is the
    double-precision path.

    Regenerate ``fft_golden.json`` (only when a change is meant to move
    bits) with ``{f: _golden_digests(f) for f in GOLDEN_FUNCTIONS}``.
    """
    digests = {}
    for mode in ("pre", "post", "fixed"):
        for bits in (8, 12, 16, 24, 40, None):
            for n in (8, 256, 4096):
                rng = np.random.default_rng(1000 * n + (bits or 0))
                plan = FftPlan.make(n, bits=bits, mode=mode)
                h = hashlib.sha256()
                if function == "fft_bfp":
                    res = fft_bfp(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                  plan)
                    # object-dtype mantissas are cast: their bytes are pointers
                    for part in (res.re, res.im):
                        part = np.asarray(part)
                        if not plan.exact:
                            part = part.astype(np.int64)
                        h.update(part.tobytes())
                    h.update(str(int(res.exponent)).encode())
                    tel = res.telemetry
                else:
                    fn = dct2_via_fft if function == "dct2_via_fft" else idct2_via_fft
                    values, tel = fn(rng.standard_normal(n), plan)
                    h.update(np.asarray(values, dtype=np.float64).tobytes())
                h.update(json.dumps(asdict(tel), sort_keys=True, default=int).encode())
                digests[f"{mode}/{bits}/{n}"] = h.hexdigest()
    return digests


@pytest.mark.parametrize("function", GOLDEN_FUNCTIONS)
def test_golden_bits(function):
    """Mantissas, exponents and telemetry are pinned bit for bit."""
    want = json.loads(GOLDEN_PATH.read_text())[function]
    got = _golden_digests(function)
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{function} output moved at {moved}"


WIDE_GOLDEN_PATH = Path(__file__).with_name("fft_wide_golden.json")


def _wide_golden_digests(function: str) -> dict:
    """SHA-256 of one transform's mantissas (as int64), exponent, values and
    telemetry over modes x widths {48, 56, 64} x sizes {8, 256}, keyed
    ``"mode/bits/n"``: the widths whose products overflow an int64.

    Regenerate ``fft_wide_golden.json`` (only when a change is meant to move
    bits) with ``{f: _wide_golden_digests(f) for f in GOLDEN_FUNCTIONS}``.
    """
    digests = {}
    for mode in ("pre", "post", "fixed"):
        for bits in (48, 56, 64):
            for n in (8, 256):
                rng = np.random.default_rng(1000 * n + bits)
                plan = FftPlan.make(n, bits=bits, mode=mode)
                h = hashlib.sha256()
                if function == "fft_bfp":
                    res = fft_bfp(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                  plan)
                    for part in (res.re, res.im):
                        h.update(np.asarray(part).astype(np.int64).tobytes())
                    h.update(str(int(res.exponent)).encode())
                    values, tel = res.to_complex(), res.telemetry
                else:
                    fn = dct2_via_fft if function == "dct2_via_fft" else idct2_via_fft
                    values, tel = fn(rng.standard_normal(n), plan)
                h.update(np.asarray(values).tobytes())
                h.update(json.dumps(asdict(tel), sort_keys=True, default=int).encode())
                digests[f"{mode}/{bits}/{n}"] = h.hexdigest()
    return digests


@pytest.mark.parametrize("function", GOLDEN_FUNCTIONS)
def test_wide_golden_bits(function):
    """Words too wide for an int64 product are pinned bit for bit too, and
    are int64 words like every other width."""
    want = json.loads(WIDE_GOLDEN_PATH.read_text())[function]
    got = _wide_golden_digests(function)
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{function} output moved at {moved}"
    for bits in (40, 64):
        res = fft_bfp(np.arange(8.0) - 3.5j, FftPlan.make(8, bits=bits))
        assert res.re.dtype == res.im.dtype == np.int64
