"""Banked-memory FFT, BFP normalization behavior, and the DCT route."""

import hashlib
import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftsinv as fi
from ftsinv import fft_inversion, fxp
from ftsinv.fft_inversion import (
    BankedMemory,
    FftPlan,
    _bit_reverse_permutation,
    _load_order,
    _parity,
    _port_map,
    dct2_via_fft,
    fft_bfp,
    fft_bfp_block,
    idct2_via_fft,
    quantize_complex_block,
    reconstruct_fft,
)
from ftsinv.fxp import FxpFormat

from conftest import complex_snr_db
from reference import (
    bank_map,
    bfp_stages,
    block_headroom,
    butterfly_radix2,
    entry_block_words,
    least_entry_exponent,
    to_complex,
)


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
        b0, _ = bank_map(0, 8)
        b4, _ = bank_map(4, 8)
        assert {b0, b4} == {0, 1}
        b1, _ = bank_map(1, 8)
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
                    bank, addr = bank_map(i, n)
                    assert 0 <= addr < n // 2
                    seen.add((bank, addr))
                    partner = i ^ half
                    pbank, _ = bank_map(partner, n)
                    assert bank != pbank
                assert len(seen) == n            # bijective per stage
            n *= 4

    def test_range_checks(self):
        with pytest.raises(IndexError):
            bank_map(8, 8)
        with pytest.raises(IndexError):
            bank_map(-1, 8)

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
            par, adr = _port_map(n)
            assert np.array_equal(par, _parity(idx))
            assert np.array_equal(adr, idx >> 1)
            n *= 2
        par, adr = _port_map(64)
        assert [bank_map(i, 64) for i in range(64)] == list(zip(par.tolist(), adr.tolist()))

    def test_partial_port_lists_are_refused(self):
        """The port moves only whole stores: any (bank, address) list other
        than the full map is refused; with the full map, or a copy of it,
        natural-order words scatter into the load order and gather back as
        stored."""
        n = 64
        rng = np.random.default_rng(3)
        mem = BankedMemory(n, np.int64)
        slots = rng.choice(n, size=20, replace=False)
        par, adr = _port_map(n)
        for partial in ((slots & 1, slots >> 1), (par[slots], adr[slots]),
                        (par, adr[::-1].copy())):
            with pytest.raises(ValueError, match="whole store"):
                mem.gather(*partial)
            with pytest.raises(ValueError, match="whole store"):
                mem.scatter(*partial, slots, -slots)
        order = _load_order(n)
        for full in ((par, adr), (par.copy(), adr.copy())):
            mem.scatter(*full, 1000 + np.arange(n), -1000 - np.arange(n))
            re, im = mem.gather(*full)
            assert np.array_equal(re, 1000 + order)
            assert np.array_equal(im, -1000 - order)

    def test_banked_memory_round_trip(self):
        """Scatter then gather gives the words in load order, in the store's
        int64 word type, for int32 input too."""
        rng = np.random.default_rng(0)
        port = _port_map(16)
        for dtype in (np.int64, np.int32):
            mem = BankedMemory(16, np.int64)
            re = rng.integers(-100, 100, 16).astype(dtype)
            im = rng.integers(-100, 100, 16).astype(dtype)
            mem.scatter(*port, re, im)
            out_re, out_im = mem.gather(*port)
            assert out_re.dtype == out_im.dtype == np.int64
            assert np.array_equal(out_re, re[_load_order(16)])
            assert np.array_equal(out_im, im[_load_order(16)])


def _at_sizes(cases, sizes=(2, 8, 32)):
    """Each case at every transform size; n = 8 keeps the case's bare id."""
    return [pytest.param(*case, n, id="-".join(map(str, case)) + ("" if n == 8 else f"-n{n}"))
            for n in sizes for case in cases]


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

    @staticmethod
    def _scalar_stages(plan, re, im):
        """The stage loop on Python ints, one scalar butterfly at a time;
        returns the words in natural order and the saturated outputs."""
        n = plan.n_points
        brev = _bit_reverse_permutation(n)
        words = [(int(r), int(i)) for r, i in zip(re[brev], im[brev])]
        tw_re, tw_im = fft_inversion._tables(n, plan.twiddle_format)[:2]
        overflows = 0
        for s in range(plan.n_stages):
            h, step = 1 << s, n >> (s + 1)
            for base in range(0, n, 2 * h):
                for k in range(h):
                    w = (int(tw_re[k * step]), int(tw_im[k * step]))
                    words[base + k], words[base + k + h], nov = butterfly_radix2(
                        words[base + k], words[base + k + h], w, plan.data_format,
                        plan.twiddle_format)
                    overflows += nov
        return words, overflows

    @pytest.mark.parametrize("bits,twiddle_bits,n", _at_sizes(
        [(30, 32), (31, 31), (31, 32), (32, 32), (33, 30)]))
    def test_stage_loop_matches_scalar_butterflies(self, bits, twiddle_bits, n):
        """The vector stage loop against the scalar butterfly on Python ints,
        at widths that straddle where a butterfly's two products stop
        fitting one int64 word each: at data + twiddle bits of 62 and 63 they
        do, at 64 (32 + 32) they are split into limbs.  With 1, 3
        and 5 stages, none, one and two of them run on the transposed
        store."""
        plan = FftPlan.make(n, bits=bits, twiddle_bits=twiddle_bits, mode="fixed")
        fmt = plan.data_format
        rng = np.random.default_rng(bits * 100 + twiddle_bits)
        saturated = 0
        for _ in range(4):
            re, im = rng.integers(fmt.min_raw, fmt.max_raw, size=(2, n),
                                  endpoint=True, dtype=np.int64)
            res = fft_bfp_block(re, im, 0, plan)
            words, overflows = self._scalar_stages(plan, re, im)
            assert res.re.tolist() == [w[0] for w in words]
            assert res.im.tolist() == [w[1] for w in words]
            assert res.telemetry.overflow_events == overflows
            # a single n = 2 draw stays in range with probability 1/4
            assert overflows > 0 or n == 2
            saturated += overflows
        assert saturated > 0

    @settings(max_examples=8)
    @given(n=st.sampled_from((2, 8, 16)), twiddle_bits=st.integers(2, 64),
           words=st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=32, max_size=32))
    def test_fixed_stages_match_the_model_at_every_width(self, n, twiddle_bits, words):
        """``fft_bfp_block`` in fixed mode against ``butterfly_radix2`` on
        Python ints at every data width from 2 to 64: n = 2 is one stage of
        one butterfly, n = 8 and 16 add stages on the transposed store and
        nontrivial twiddles.  ``v >> (64 - bits)`` keeps the top bits of
        each drawn 64-bit word."""
        for bits in range(2, 65):
            plan = FftPlan.make(n, bits=bits, twiddle_bits=twiddle_bits, mode="fixed",
                                headroom_bits=0)
            re, im = (np.array([v >> (64 - bits) for v in part], dtype=np.int64)
                      for part in (words[:n], words[16:16 + n]))
            res = fft_bfp_block(re, im, 0, plan)
            want, overflows = self._scalar_stages(plan, re, im)
            assert res.re.tolist() == [w[0] for w in want], bits
            assert res.im.tolist() == [w[1] for w in want], bits
            assert res.telemetry.overflow_events == overflows, bits

    @pytest.mark.parametrize("fill,n", _at_sizes([("max_raw",), ("min_raw",)]))
    def test_extreme_words_match_scalar_butterflies(self, fill, n):
        """64-bit words all at one extreme, where the stage loop saturates
        and sums two products of split words in every butterfly."""
        plan = FftPlan.make(n, bits=64, mode="fixed")
        word = getattr(plan.data_format, fill)
        re, im = np.full(n, word, dtype=np.int64), np.full(n, word, dtype=np.int64)
        res = fft_bfp_block(re, im, 0, plan)
        words, overflows = self._scalar_stages(plan, re, im)
        assert res.re.tolist() == [w[0] for w in words]
        assert res.im.tolist() == [w[1] for w in words]
        assert res.telemetry.overflow_events == overflows

    @staticmethod
    def _bfp_block(plan, words, n):
        """The first ``n`` drawn words and the ``n`` from the 17th on as one
        block of ``plan``'s width: their top bits, shifted right as far as
        the plan's headroom requires."""
        bits = plan.data_format.total_bits
        block = [v >> (64 - bits) for v in words[:n] + words[16:16 + n]]
        block = [v >> max(0, plan.headroom_bits - block_headroom(block, bits))
                 for v in block]
        return (np.array(block[:n], dtype=np.int64),
                np.array(block[n:], dtype=np.int64))

    @staticmethod
    def _check_bfp_stages(plan, re, im):
        """``fft_bfp_block`` against the Python-int stage loop; returns the
        model's block exponents and saturated outputs."""
        res = fft_bfp_block(re, im, 0, plan)
        want, exponents, overflows = bfp_stages(plan, re, im)
        bits = plan.data_format.total_bits
        assert res.re.tolist() == [w[0] for w in want], bits
        assert res.im.tolist() == [w[1] for w in want], bits
        assert res.telemetry.stage_exponents == exponents, bits
        assert res.telemetry.overflow_events == overflows, bits
        return exponents, overflows

    @settings(max_examples=12)
    @given(n=st.sampled_from((2, 8, 16)), twiddle_bits=st.integers(2, 64),
           mode=st.sampled_from(("pre", "post")), headroom_bits=st.integers(0, 3),
           scale=st.integers(0, 63),
           words=st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=32, max_size=32))
    def test_bfp_stages_match_the_model_at_every_width(self, n, twiddle_bits, mode,
                                                       headroom_bits, scale, words):
        """``fft_bfp_block`` in pre and post mode against ``bfp_stages`` on
        Python ints at every data width the headroom leaves: words, block
        exponents and saturated outputs.  ``scale`` drops low bits of the
        draws, so small blocks take left shifts and full ones right shifts."""
        words = [v >> scale for v in words]
        for bits in range(headroom_bits + 2, 65):
            plan = FftPlan.make(n, bits=bits, twiddle_bits=twiddle_bits, mode=mode,
                                headroom_bits=headroom_bits)
            self._check_bfp_stages(plan, *self._bfp_block(plan, words, n))

    @pytest.mark.parametrize("mode", ["pre", "post"])
    @pytest.mark.parametrize("block", ["zero", "minus_one", "small", "full"])
    def test_bfp_blocks_match_the_model(self, mode, block):
        """Named blocks at every width: an all-zero block keeps its exponent,
        an all-(-1) block and a block of small words shift left, and a
        full-scale block shifts right, against ``bfp_stages``."""
        pair = {"zero": (0, 0), "minus_one": (-1, -1), "small": (1 << 56, 3 << 55),
                "full": (-(1 << 63), 1 << 62)}[block]
        words = list(pair) * 16
        for bits in range(8, 65):
            plan = FftPlan.make(16, bits=bits, mode=mode)
            exponents, _ = self._check_bfp_stages(plan, *self._bfp_block(plan, words, 16))
            if block == "zero":
                assert exponents == [0] * 4
            elif block == "full":
                assert exponents[-1] > 0, bits
            else:
                assert exponents[0] < 0, bits

    @pytest.mark.parametrize("mode", fft_inversion.MODES)
    @pytest.mark.parametrize("headroom_bits", [0, 1, 2, 3])
    def test_int32_words_at_their_width_bound(self, mode, headroom_bits):
        """Data and twiddle widths summing to 31, 32 and 33 bits, where the
        word type turns from int32 to int64: a post-mode plan below two
        headroom bits counts the ``2 - headroom_bits`` bits its shifts carry
        words past their format.  On the sign adversary, full-scale blocks
        and -1 blocks, words, exponents and saturated outputs equal the
        Python-int model's."""
        n = 16
        excess = max(0, 2 - headroom_bits) if mode == "post" else 0
        for bits, twiddle_bits in ((16, 15), (16, 16), (16, 17), (12, 19), (20, 12), (20, 13)):
            plan = FftPlan.make(n, bits=bits, twiddle_bits=twiddle_bits, mode=mode,
                                headroom_bits=headroom_bits)
            int32 = bits + excess + twiddle_bits <= 32
            assert plan.word_type is (np.int32 if int32 else np.int64), (bits, twiddle_bits)
            adversary = quantize_complex_block(make_sign_adversary(n, bits), plan.data_format,
                                               headroom_bits)[:2]
            blocks = [adversary] + [self._bfp_block(plan, [v] * 32, n)
                                    for v in (-(1 << 63), (1 << 63) - 1, -1)]
            for re, im in blocks:
                self._check_bfp_stages(plan, re, im)

    @pytest.mark.parametrize("headroom_bits,n,widths", [
        (0, 16, range(2, 65)), (1, 16, range(3, 65)), (2, 1024, (14, 16, 40, 62, 63, 64))])
    def test_post_blocks_below_three_headroom_bits_saturate_like_the_model(
            self, headroom_bits, n, widths):
        """Post mode corrects a stage's growth one stage late, so with fewer
        than three headroom bits a full-scale block saturates (at two bits
        only an adversary of many stages does); words, exponents and
        saturated outputs still match the model."""
        x = make_sign_adversary(n, 0)
        for bits in widths:
            plan = FftPlan.make(n, bits=bits, mode="post", headroom_bits=headroom_bits)
            re, im, _ = quantize_complex_block(x, plan.data_format, headroom_bits)
            _, overflows = self._check_bfp_stages(plan, re, im)
            assert overflows > 0, bits


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
        vals = to_complex(res)
        assert np.allclose(vals, vals[0])
        assert vals[0].real == pytest.approx(1.0, rel=1e-3)

    def test_exact_mode_matches_reference_fft(self):
        plan = FftPlan.make(256)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        res = fft_bfp(x, plan)
        assert np.max(np.abs(to_complex(res) - np.fft.fft(x))) < 1e-11

    def test_bfp_snr_regression(self):
        # measured ~51 dB for 16-bit mantissas at n=1024; fail below 45
        plan = FftPlan.make(1024, bits=16, mode="post", headroom_bits=3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        res = fft_bfp(x, plan)
        assert res.telemetry.overflow_events == 0
        assert complex_snr_db(np.fft.fft(x), to_complex(res)) > 45.0

    def test_bfp_snr_monotone_in_width(self):
        rng = np.random.default_rng(2024)
        inputs = [rng.standard_normal(256) + 1j * rng.standard_normal(256)
                  for _ in range(3)]
        refs = [np.fft.fft(x) for x in inputs]
        prev = -np.inf
        for width in range(10, 25, 2):
            plan = FftPlan.make(256, bits=width, mode="post", headroom_bits=3)
            num = sum(np.linalg.norm(r) ** 2 for r in refs)
            den = sum(np.linalg.norm(r - to_complex(fft_bfp(x, plan))) ** 2
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
            outs[mode] = to_complex(res)
            assert complex_snr_db(ref, outs[mode]) > 200.0
        assert np.max(np.abs(outs["pre"] - outs["post"])) < 1e-10 * np.max(np.abs(ref))

    def test_parseval_double_mode(self):
        plan = FftPlan.make(512)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        X = to_complex(fft_bfp(x, plan))
        e_time = np.linalg.norm(x) ** 2
        e_freq = np.linalg.norm(X) ** 2 / 512
        assert abs(e_freq - e_time) <= 1e-10 * e_time

    def test_mult_counter_and_slots(self):
        """Every entry point on both kinds of plan counts n/2 log2 n
        butterfly slots of four products, and its DCT stage's products; an
        exact plan has no block exponent."""
        n = 128
        rng = np.random.default_rng(6)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        slots = (n // 2) * 7
        for bits in (None, 14):
            plan = FftPlan.make(n, bits=bits, mode="post")
            for tel, dct_mults in ((fft_bfp(x, plan).telemetry, 0),
                                   (dct2_via_fft(x.real, plan)[1], 2 * n),
                                   (idct2_via_fft(x.real, plan)[1], 4 * n)):
                assert tel.butterflies == tel.cycles == slots
                assert tel.dct_stage_mults == dct_mults
                assert tel.mults == 4 * slots + dct_mults
                if bits is None:
                    assert tel.entry_exponent == tel.final_exponent == 0

    def test_length_and_mode_validation(self):
        with pytest.raises(ValueError):
            FftPlan.make(48)
        with pytest.raises(ValueError):
            FftPlan.make(64, mode="sideways")
        plan = FftPlan.make(64)
        with pytest.raises(ValueError):
            fft_bfp(np.zeros(32, dtype=complex), plan)
        # the mantissa entry point checks both parts and the data format
        words = np.arange(8, dtype=np.int64)
        for mode in fft_inversion.MODES:
            plan = FftPlan.make(8, bits=16, mode=mode)
            for im in (np.zeros(9, dtype=np.int64), np.zeros(7, dtype=np.int64)):
                with pytest.raises(ValueError, match="must be"):
                    fft_bfp_block(words, im, 0, plan)
            with pytest.raises(ValueError, match="outside the data format"):
                fft_bfp_block(words << 17, words, 0, plan)        # 21-bit words

    @pytest.mark.parametrize("bits, dtype", [(32, np.int32), (16, np.int16)])
    def test_narrow_mantissas_run_on_int64_words(self, bits, dtype):
        """Mantissas of a narrower integer dtype give the int64 run's bits,
        returned as int64 words whatever the plan's word type (int32 at 16
        bits): with no headroom in fixed mode they saturate, where a store in
        their own dtype would wrap.  Non-integer mantissas are refused."""
        plan = FftPlan.make(64, bits=bits, mode="fixed", headroom_bits=0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        re, im, g = quantize_complex_block(x, plan.data_format, 0)
        want = fft_bfp_block(re, im, g, plan)
        assert want.telemetry.overflow_events > 0
        got = fft_bfp_block(re.astype(dtype), im.astype(dtype), g, plan)
        assert got.re.dtype == got.im.dtype == np.int64
        assert np.array_equal(got.re, want.re) and np.array_equal(got.im, want.im)
        assert got.exponent == want.exponent and got.telemetry == want.telemetry
        for parts in ((re.astype(float), im), (re, im.astype(float)),
                      (re.astype(complex), im)):
            with pytest.raises(ValueError, match="integers"):
                fft_bfp_block(*parts, g, plan)

    def test_twiddle_width_without_data_width_refused(self):
        """A double-precision plan has no twiddle words to size."""
        with pytest.raises(ValueError, match="twiddle_bits"):
            FftPlan.make(64, twiddle_bits=8)

    def test_unset_headroom_is_three_fitted_to_the_width(self):
        """An unset headroom is 3, fitted down to ``bits - 3`` so that the
        DCT's entry words, one headroom bit above the plan's, keep a
        mantissa; a double-precision plan keeps 3."""
        for bits in range(4, 65):
            assert FftPlan.make(16, bits).headroom_bits == min(3, bits - 3), bits
        assert FftPlan.make(16).headroom_bits == 3

    def test_insufficient_headroom_rejected(self):
        plan = FftPlan.make(16, bits=12, mode="post", headroom_bits=3)
        re, im, g = quantize_complex_block(np.ones(16, dtype=complex),
                                           plan.data_format, 1)
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

    @pytest.mark.parametrize("bits", [8, 16, 64])
    @pytest.mark.parametrize("headroom", [0, 3])
    def test_real_entry_matches_complex_entry(self, bits, headroom):
        """A real vector quantizes to the words and exponent of the complex
        vector with a zero imaginary part."""
        rng = np.random.default_rng(bits)
        fmt = FxpFormat(bits, bits - 1)
        for x in (rng.standard_normal(64), np.array([1.0, -0.5, 0.25, -0.0]),
                  np.zeros(4), np.arange(-3, 5), rng.standard_normal(8).astype(np.float32)):
            got = quantize_complex_block(x, fmt, headroom)
            want = quantize_complex_block(np.asarray(x, dtype=np.complex128), fmt, headroom)
            assert got[0].dtype == got[1].dtype == np.int64
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2] == want[2]

    def test_fixed_mode_runs_and_may_overflow(self):
        plan = FftPlan.make(256, bits=10, mode="fixed", headroom_bits=1)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        res = fft_bfp(x, plan)
        assert res.telemetry.overflow_events > 0   # growth with no normalization


@st.composite
def _entry_blocks(draw):
    """``(x, width, headroom)``: a real or complex block whose peak, on
    either part and of either sign, sits on either side of an edge of the
    window ``(limit, limit + 1/2) * 2**k`` (up to two floats away), inside
    it, or at a power of two; the other words are fractions of the peak."""
    width = draw(st.integers(4, 64))
    headroom = draw(st.integers(0, width - 2))
    limit = (1 << (width - 1 - headroom)) - 1
    k = draw(st.integers(-60, 60))
    where = draw(st.sampled_from(["low edge", "high edge", "inside", "power of two"]))
    if where == "inside":
        peak = math.ldexp(limit + draw(st.floats(0, 0.5, exclude_min=True, exclude_max=True)), k)
    else:
        peak = math.ldexp({"low edge": float(limit), "high edge": limit + 0.5,
                           "power of two": 1.0}[where], k)
        steps = draw(st.integers(-2, 2))
        for _ in range(abs(steps)):
            peak = math.nextafter(peak, math.copysign(math.inf, steps))
    size = draw(st.integers(1, 6))
    fractions = st.lists(st.floats(-1, 1), min_size=size, max_size=size)
    parts = [np.array(draw(fractions)) * peak
             for _ in range(1 + draw(st.booleans()))]
    parts[draw(st.integers(0, len(parts) - 1))][draw(st.integers(0, size - 1))] = \
        draw(st.sampled_from([peak, -peak]))
    x = parts[0] + 1j * parts[1] if len(parts) > 1 else parts[0]
    return x, width, headroom


class TestEntryExponent:
    """The entry quantizer against :func:`reference.least_entry_exponent`,
    an exact search for the least exponent at which every word fits.  The
    quantizer is called through its module, so a patch of it applies."""

    @given(_entry_blocks())
    def test_exponent_and_words_match_the_exact_model(self, case):
        """The exponent is the least one at which every word rounds half to
        even into ``width - headroom`` bits, plus one inside the window
        ``(limit, limit + 1/2) * 2**least`` (ROADMAP item 13) wherever the
        float64 estimate ``ceil(log2(peak / limit))`` sees the peak above
        ``limit * 2**least``: next to the window's low edge it rounds that
        excess away.  The words are the values so scaled, rounded half to
        even exactly, as int64."""
        x, width, headroom = case
        re, im, exponent = fft_inversion.quantize_complex_block(
            x, FxpFormat(width, width - 1), headroom)
        parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
        peak = max(float(np.max(np.abs(p))) for p in parts)
        least, in_window = least_entry_exponent(peak, width - headroom)
        limit = (1 << (width - 1 - headroom)) - 1
        assert exponent == least + (in_window and math.ceil(math.log2(peak / limit)) > least)
        words = entry_block_words(parts, exponent)
        assert re.dtype == im.dtype == np.int64
        assert re.tolist() == words[0]
        assert im.tolist() == (words[1] if len(words) > 1 else [0] * x.size)


class TestPlanIsFrozen:
    SETTINGS = ["n_points", "data_format", "twiddle_format", "mode", "headroom_bits"]

    @pytest.mark.parametrize("bits", [None, 16])
    def test_tables_are_read_only(self, bits):
        """The plan's tables, and the per-size load order every plan of the
        size shares, are read-only."""
        plan = FftPlan.make(16, bits=bits)
        for table in (*fft_inversion._tables(16, plan.twiddle_format), _load_order(16)):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_plans_are_values(self):
        """A plan holds its five settings and nothing else, also after it ran,
        so plans with equal settings are equal, hash equal and are one set
        member; other settings make another plan."""
        plan = FftPlan.make(16, bits=12)
        dct2_via_fft(np.ones(16), plan)
        assert [f.name for f in fields(FftPlan)] == list(vars(plan)) == self.SETTINGS
        same = FftPlan.make(16, bits=12)
        assert plan == same and hash(plan) == hash(same)
        others = [FftPlan.make(16, bits=12, mode="pre"),
                  FftPlan.make(16, bits=12, twiddle_bits=10),
                  FftPlan.make(16, bits=12, headroom_bits=2), FftPlan.make(32, bits=12),
                  FftPlan.make(16)]
        assert len({plan, same, *others}) == 1 + len(others)

    @pytest.mark.parametrize("mode", ["pre", "post", "fixed"])
    def test_runs_change_no_input_and_repeat(self, mode):
        """``reconstruct_fft``, ``dct2_via_fft`` and ``fft_bfp_block`` leave the
        caller's arrays as they were, and a second run on the same plan gives
        the same words, exponents and telemetry."""
        n = 64
        plan = FftPlan.make(n, bits=16, mode=mode)
        rng = np.random.default_rng(5)
        y = fi.Interferogram(rng.standard_normal(n),
                             fi.OpdGrid.transform_matched(fi.SpectralGrid(n, 1.0), n))
        x = rng.standard_normal(n)
        re, im, _ = quantize_complex_block(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                           plan.data_format, plan.headroom_bits)
        inputs = (y.values, x, re, im)
        kept = [a.copy() for a in inputs]
        runs = []
        for _ in range(2):
            spectrum, tel_y = reconstruct_fft(y, plan)
            values, tel_x = dct2_via_fft(x, plan)
            res = fft_bfp_block(re, im, 0, plan)
            runs.append((spectrum.values.tolist(), asdict(tel_y), values.tolist(),
                         asdict(tel_x), res.re.tolist(), res.im.tolist(), res.exponent,
                         asdict(res.telemetry)))
        for a, b in zip(inputs, kept):
            assert np.array_equal(a, b)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bits", [16, 40, None])
    def test_entry_points_leave_their_inputs_unchanged(self, bits):
        """``fft_bfp``, ``fft_bfp_block``, ``dct2_via_fft`` and ``idct2_via_fft``
        leave the caller's arrays as they were on a plan whose stages run in
        place (16 bits), one whose stages take limbs (40 bits) and an exact
        one, which reads the parts of a complex128 input as views."""
        n = 64
        plan = FftPlan.make(n, bits=bits)
        rng = np.random.default_rng(11)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x, c = rng.standard_normal(n), rng.standard_normal(n)
        inputs = [z, x, c]
        calls = [lambda: fft_bfp(z, plan), lambda: dct2_via_fft(x, plan),
                 lambda: idct2_via_fft(c, plan)]
        if bits is not None:
            re, im, exponent = quantize_complex_block(z, plan.data_format,
                                                      plan.headroom_bits)
            inputs += [re, im]
            calls.append(lambda: fft_bfp_block(re, im, exponent, plan))
        kept = [a.copy() for a in inputs]
        for call in calls:
            call()
        for a, b in zip(inputs, kept):
            assert np.array_equal(a, b)


def test_benchmark_plans_word_types():
    """The word types the benchmark's plans run on: int32 at 16 data and
    twiddle bits in every mode (``fft-65536``, and ``airy-sweep`` up to 16
    bits), int64 above, int64 with limbs at 40 bits (``wide-k``), and
    float64 on exact plans.  The entry points still return int64 words."""
    for mode in fft_inversion.MODES:
        assert FftPlan.make(65536, bits=16, mode=mode).word_type is np.int32
    cfg = fi.bench.reference_airy_config()
    for bits, word in ((4, np.int32), (16, np.int32), (18, np.int64), (None, np.float64)):
        assert FftPlan.make(cfg.n, bits, mode=cfg.fft_mode).word_type is word, bits
    wide = FftPlan.make(4096, bits=40, mode="post")
    assert wide.word_type is np.int64
    assert fxp._limb_plan(wide.twiddle_format.total_bits, wide.data_format.total_bits,
                          1)[0] is not None
    plan = FftPlan.make(64, bits=16)
    res = fft_bfp(np.ones(64), plan)
    assert res.re.dtype == res.im.dtype == np.int64
    assert fft_bfp_block(res.re >> 8, res.im >> 8, 0, plan).re.dtype == np.int64


class TestWorkspace:
    """Every transform of a size and word type runs on one store and one set
    of scratch planes, and reads its twiddle columns from one set."""

    PLANS = ((64, 16, "post"), (64, 24, "pre"), (64, None, "post"), (256, 16, "fixed"),
             (256, 40, "post"))

    @staticmethod
    def _runs(plan, seed):
        """The words of every entry point on ``plan``, as bytes."""
        n = plan.n_points
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = rng.standard_normal(n)
        y = fi.Interferogram(x, fi.OpdGrid.transform_matched(fi.SpectralGrid(n, 1.0), n))
        res = fft_bfp(z, plan)
        out = [res.re, res.im, dct2_via_fft(x, plan)[0], idct2_via_fft(x, plan)[0],
               reconstruct_fft(y, plan)[0].values]
        if not plan.exact:
            re, im, exponent = quantize_complex_block(z, plan.data_format, plan.headroom_bits)
            block = fft_bfp_block(re, im, exponent, plan)
            out += [block.re, block.im]
        return [a.tobytes() for a in out]

    def test_interleaved_runs_give_the_bits_of_fresh_runs(self):
        """Runs that alternate two sizes, and plans of one size with other
        word types, give the bits of runs on a fresh plan and a fresh
        workspace."""
        fresh = {}
        for spec in self.PLANS:
            for seed in (1, 2):
                fft_inversion._workspace.cache_clear()
                plan = FftPlan.make(spec[0], bits=spec[1], mode=spec[2])
                fresh[spec, seed] = self._runs(plan, seed)
        plans = {spec: FftPlan.make(spec[0], bits=spec[1], mode=spec[2]) for spec in self.PLANS}
        for seed in (1, 2):
            for spec in self.PLANS[::-1] + self.PLANS:
                assert self._runs(plans[spec], seed) == fresh[spec, seed], spec

    @pytest.mark.parametrize("bits", [16, 40, None])
    def test_results_outlive_the_next_run(self, bits):
        """The result of run i is unchanged after run i + 1 on the same plan,
        for every entry point: no result aliases the workspace."""
        n = 64
        plan = FftPlan.make(n, bits=bits)
        rng = np.random.default_rng(17)
        z1, z2 = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        grid = fi.OpdGrid.transform_matched(fi.SpectralGrid(n, 1.0), n)
        calls = [lambda z: fft_bfp(z, plan).re, lambda z: fft_bfp(z, plan).im,
                 lambda z: dct2_via_fft(z.real, plan)[0],
                 lambda z: idct2_via_fft(z.real, plan)[0],
                 lambda z: reconstruct_fft(fi.Interferogram(z.real, grid), plan)[0].values]
        if bits is not None:
            def block(z, part):
                re, im, exponent = quantize_complex_block(z, plan.data_format,
                                                          plan.headroom_bits)
                return getattr(fft_bfp_block(re, im, exponent, plan), part)
            calls += [lambda z: block(z, "re"), lambda z: block(z, "im")]
        for call in calls:
            first = call(z1)
            kept = first.copy()
            second = call(z2)
            assert np.array_equal(first, kept)
            assert not np.array_equal(first, second)

    def test_columns_are_read_only_table_entries_in_the_word_type(self):
        """Each stage's columns are the strided table entries in the plan's
        word type, read-only, and built once per size, twiddle format and
        word type."""
        for bits in (16, 40, None):
            plan = FftPlan.make(32, bits=bits)
            key = (32, plan.twiddle_format, plan.word_type)
            columns = fft_inversion._columns(*key)
            assert columns is fft_inversion._columns(*key)
            tables = fft_inversion._tables(32, plan.twiddle_format)[:2]
            for s, (wr, wi) in enumerate(columns):
                step = 32 >> (s + 1)
                assert wr.shape == wi.shape == (1 << s, 1)
                for col, table in zip((wr, wi), tables):
                    assert col.dtype == plan.word_type
                    assert np.array_equal(col[:, 0], table[::step])
                    with pytest.raises(ValueError):
                        col[0] = 0


@pytest.mark.parametrize("n,bits", [(4096, 16), (4096, None), (256, 16)])
def test_entry_points_leave_numpy_state_as_found(n, bits):
    """At n = 4096 (rows of 64 words) the stage loop sizes numpy's ufunc
    buffer to its rows; at n = 256 (rows of 16) it keeps the caller's.  Under
    a caller's own buffer size and error state, every entry point gives the
    bits of a run under numpy's defaults and leaves that state as it was."""
    plan = FftPlan.make(n, bits=bits)
    rng = np.random.default_rng(13)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = rng.standard_normal(n)
    y = fi.Interferogram(x, fi.OpdGrid.transform_matched(fi.SpectralGrid(n, 1.0), n))
    calls = [lambda: fft_bfp(z, plan), lambda: dct2_via_fft(x, plan),
             lambda: idct2_via_fft(x, plan), lambda: reconstruct_fft(y, plan)]
    if bits is not None:
        re, im, exponent = quantize_complex_block(z, plan.data_format, plan.headroom_bits)
        calls.append(lambda: fft_bfp_block(re, im, exponent, plan))

    def bits_of(out):
        if isinstance(out, fft_inversion.FftResult):
            return out.re.tobytes(), out.im.tobytes(), out.exponent, asdict(out.telemetry)
        values, telemetry = out
        return getattr(values, "values", values).tobytes(), asdict(telemetry)

    default = [bits_of(call()) for call in calls]
    with np.errstate(divide="ignore"):
        np.setbufsize(16)
        state = np.getbufsize(), np.geterr()
        for call, want in zip(calls, default):
            assert bits_of(call()) == want
            assert (np.getbufsize(), np.geterr()) == state


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

    @pytest.mark.parametrize("bits", [None, 12])
    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_idct_output_never_reads_the_dc_imaginary_word(self, monkeypatch, bits, n):
        """The pre-twiddle's DC imaginary word enters the inverse FFT at store
        position 0, an a-operand of every stage, so it reaches imaginary
        outputs only, which the inverse DCT drops.  An exact plan gives the
        same output bits with that word replaced by NaN, on inputs whose first
        coefficient is -1 or -0.0 (which make the word -0.0) and whose others
        are signed zeros or random; on a fixed-point plan the word is 0."""
        rng = np.random.default_rng(14)
        inputs = []
        for rest in (*rng.choice([-0.0, 0.0], size=(6, n)), rng.standard_normal(n)):
            for c0 in (-1.0, -0.0):
                inputs.append(np.concatenate([[c0], rest[1:]]))
        plan = FftPlan.make(n, bits=bits)
        want = [idct2_via_fft(c, plan)[0].tobytes() for c in inputs]
        core, words = fft_inversion._fft_core, []

        def poisoned(re, im, *args, **kwargs):
            words.append(im[0])
            if plan.exact:
                im = im.copy()
                im[0] = np.nan
            return core(re, im, *args, **kwargs)

        monkeypatch.setattr(fft_inversion, "_fft_core", poisoned)
        assert [idct2_via_fft(c, plan)[0].tobytes() for c in inputs] == want
        if not plan.exact:
            assert words == [0] * len(inputs)

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
                    values, tel = to_complex(res), res.telemetry
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


LARGE_GOLDEN_PATH = Path(__file__).with_name("fft_large_golden.json")


def _large_golden_digests() -> dict:
    """SHA-256 of ``reconstruct_fft``'s mantissas (as int64), exponent, values
    and telemetry at n = 65536 and 16 bits, keyed ``"mode/bits/n"``: the
    16-stage transform, the largest size any test or workload runs.

    Regenerate ``fft_large_golden.json`` (only when a change is meant to move
    bits) with ``{"reconstruct_fft": _large_golden_digests()}``.
    """
    n, bits = 65536, 16
    grid = fi.OpdGrid.transform_matched(fi.SpectralGrid(n, 1.0), n)
    digests = {}
    for mode in ("pre", "post", "fixed"):
        rng = np.random.default_rng(n + bits)
        y = fi.Interferogram(rng.standard_normal(n), grid)
        spectrum, tel = reconstruct_fft(y, FftPlan.make(n, bits=bits, mode=mode))
        h = hashlib.sha256()
        h.update(np.ldexp(spectrum.values, -tel.final_exponent).astype(np.int64).tobytes())
        h.update(str(int(tel.final_exponent)).encode())
        h.update(spectrum.values.tobytes())
        h.update(json.dumps(asdict(tel), sort_keys=True, default=int).encode())
        digests[f"{mode}/{bits}/{n}"] = h.hexdigest()
    return digests


def test_large_golden_bits():
    """The transform at n = 65536 is pinned bit for bit."""
    want = json.loads(LARGE_GOLDEN_PATH.read_text())["reconstruct_fft"]
    got = _large_golden_digests()
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"reconstruct_fft output moved at {moved}"


@pytest.mark.parametrize("call,message", [
    (lambda: FftPlan.make(16, bits=4, headroom_bits=3), "no mantissa below the headroom"),
    (lambda: FftPlan.make(16, bits=8, headroom_bits=-1), "headroom_bits out of range"),
    (lambda: FftPlan.make(16, headroom_bits=3), "a double-precision plan has no words"),
    (lambda: quantize_complex_block(np.ones(4), FxpFormat(8, 7), 7), "leaves no mantissa"),
    (lambda: fft_bfp_block(np.zeros(16, np.int64), np.zeros(16, np.int64), 0,
                           FftPlan.make(16)), "requires a fixed-point plan"),
    (lambda: idct2_via_fft(np.ones(8), FftPlan.make(16)), "input length 8 != plan size 16"),
], ids=["width", "headroom", "exact-headroom", "block-headroom", "exact-block", "idct-length"])
def test_input_checks_raise_value_error(call, message):
    """Each check of a transform's inputs raises ValueError naming what it
    refuses."""
    with pytest.raises(ValueError, match=message):
        call()
