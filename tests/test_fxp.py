"""Fixed-point and block-floating-point primitives against exact oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ftsinv.fxp import (
    DATAPATH_POLICY,
    ENTRY_POLICY,
    BfpBlock,
    FxpFormat,
    FxpValue,
    OpCounter,
    OverflowMode,
    RoundingMode,
    RoundingPolicy,
    fxp_add,
    fxp_mul,
    leading_bit,
    normalize_block,
    quantize,
    quantize_array,
    rshift_round,
)


def exact_quantize(x, fmt, mode):
    """Independent oracle: exact rational scaling + rounding + clamp."""
    q = Fraction(x) * fmt.scale
    raw = round(q) if mode is RoundingMode.ROUND_HALF_EVEN else math.floor(q)
    return min(max(raw, fmt.min_raw), fmt.max_raw)


class TestFormat:
    def test_ranges(self):
        fmt = FxpFormat(8, 7)
        assert fmt.min_raw == -128 and fmt.max_raw == 127
        assert fmt.value_of(64) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            FxpFormat(1, 0)
        with pytest.raises(ValueError):
            FxpFormat(8, 8)
        with pytest.raises(ValueError):
            FxpFormat(65, 10)

    def test_for_range_uses_widest_frac(self):
        fmt = FxpFormat.for_range(8, 0.9)
        assert fmt.frac_bits == 7
        fmt = FxpFormat.for_range(8, 3.0)
        # 3.0 * 2**5 = 96 fits, 3.0 * 2**6 = 192 does not
        assert fmt.frac_bits == 5

    def test_raw_bounds_enforced(self):
        with pytest.raises(ValueError):
            FxpValue(200, FxpFormat(8, 7))


class TestQuantize:
    def test_exact_half(self):
        assert quantize(0.5, FxpFormat(8, 7)).raw == 64

    def test_saturates_at_max(self):
        v = quantize(1.0, FxpFormat(8, 7))
        assert v.raw == 127
        assert v.value == pytest.approx(0.9921875)

    def test_round_half_even_negative(self):
        # -0.3 * 128 = -38.4 -> -38
        assert quantize(-0.3, FxpFormat(8, 7)).raw == -38

    def test_against_exact_rational_oracle(self):
        rng = np.random.default_rng(11)
        fmt = FxpFormat(12, 9)
        for x in rng.uniform(-6, 6, 300):
            for mode in RoundingMode:
                got = quantize(float(x), fmt, RoundingPolicy(mode)).raw
                assert got == exact_quantize(float(x), fmt, mode)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        fmt = FxpFormat(10, 6)
        for x in rng.uniform(-10, 10, 100):
            v1 = quantize(float(x), fmt)
            v2 = quantize(v1.value, fmt)
            assert v1.raw == v2.raw

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            quantize(float("nan"), FxpFormat(8, 4))
        with pytest.raises(ValueError):
            quantize(float("inf"), FxpFormat(8, 4))

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2, 2, 64)
        fmt = FxpFormat(14, 11)
        raw = quantize_array(xs, fmt)
        assert [int(r) for r in raw] == [quantize(float(x), fmt).raw for x in xs]


class TestMulAdd:
    def test_mul_simple(self):
        fmt = FxpFormat(8, 7)
        half = FxpValue(64, fmt)
        assert fxp_mul(half, half, fmt).raw == 32   # 0.25

    def test_mul_overflow_corner_saturates(self):
        fmt = FxpFormat(8, 7)
        neg1 = FxpValue(-128, fmt)
        out = fxp_mul(neg1, neg1, fmt)
        assert out.raw == 127   # +1.0 clamps to format max

    def test_mul_against_exact_oracle(self):
        rng = np.random.default_rng(7)
        fa, fb, fo = FxpFormat(10, 8), FxpFormat(12, 7), FxpFormat(14, 9)
        for _ in range(300):
            a = FxpValue(int(rng.integers(fa.min_raw, fa.max_raw + 1)), fa)
            b = FxpValue(int(rng.integers(fb.min_raw, fb.max_raw + 1)), fb)
            got = fxp_mul(a, b, fo, DATAPATH_POLICY).raw
            exact = Fraction(a.raw * b.raw, 1 << (fa.frac_bits + fb.frac_bits))
            want = math.floor(exact * fo.scale)
            want = min(max(want, fo.min_raw), fo.max_raw)
            assert got == want

    def test_mul_counter(self):
        fmt = FxpFormat(8, 7)
        c = OpCounter()
        v = FxpValue(10, fmt)
        for _ in range(5):
            fxp_mul(v, v, fmt, counter=c)
        assert c.mults == 5

    def test_add_identity_and_saturation(self):
        fmt = FxpFormat(8, 7)
        x = FxpValue(57, fmt)
        assert fxp_add(FxpValue(0, fmt), x).raw == 57
        assert fxp_add(FxpValue(127, fmt), FxpValue(127, fmt)).raw == 127
        assert fxp_add(FxpValue(-128, fmt), FxpValue(-128, fmt)).raw == -128

    def test_add_format_mismatch(self):
        with pytest.raises(ValueError):
            fxp_add(FxpValue(1, FxpFormat(8, 7)), FxpValue(1, FxpFormat(8, 6)))

    def test_add_against_exact_oracle(self):
        rng = np.random.default_rng(8)
        fmt = FxpFormat(9, 5)
        for _ in range(200):
            a = int(rng.integers(fmt.min_raw, fmt.max_raw + 1))
            b = int(rng.integers(fmt.min_raw, fmt.max_raw + 1))
            got = fxp_add(FxpValue(a, fmt), FxpValue(b, fmt)).raw
            assert got == min(max(a + b, fmt.min_raw), fmt.max_raw)

    def test_saturate_never_out_of_range(self):
        rng = np.random.default_rng(13)
        fmt = FxpFormat(6, 4)
        for _ in range(500):
            a = FxpValue(int(rng.integers(fmt.min_raw, fmt.max_raw + 1)), fmt)
            b = FxpValue(int(rng.integers(fmt.min_raw, fmt.max_raw + 1)), fmt)
            m = fxp_mul(a, b, fmt)
            s = fxp_add(a, b)
            assert fmt.min_raw <= m.raw <= fmt.max_raw
            assert fmt.min_raw <= s.raw <= fmt.max_raw


def brute_force_headroom(values, width):
    """Oracle: largest shift applicable to every element without overflow."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    for shift in range(width):
        if any(not (lo <= v << shift <= hi) for v in values):
            return shift - 1
    return width - 1


class TestLeadingBit:
    def test_all_zero_convention(self):
        assert leading_bit([0, 0, 0], 8) == 7

    def test_boundary(self):
        assert leading_bit([64, -3], 8) == 0

    def test_small_example(self):
        assert leading_bit([5, -3, 2], 8) == 4

    def test_negative_power_of_two_asymmetry(self):
        # -64 can shift once (to -128); +64 cannot shift at all
        assert leading_bit([-64], 8) == 1
        assert leading_bit([64], 8) == 0
        assert leading_bit([-128], 8) == 0

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for width in (4, 8, 12, 16):
            lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
            for _ in range(100):
                vals = [int(v) for v in rng.integers(lo, hi + 1, size=5)]
                assert leading_bit(vals, width) == brute_force_headroom(vals, width)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            leading_bit([1], 1)


class TestNormalizeBlock:
    def test_all_zero_unchanged(self):
        b = BfpBlock(np.zeros(4, dtype=np.int64), 8, exponent=3)
        out = normalize_block(b, 2)
        assert np.array_equal(out.mantissas, b.mantissas)
        assert out.exponent == 3

    def test_already_at_target_identity(self):
        b = BfpBlock(np.array([5, -3, 2]), 8, exponent=0)
        out = normalize_block(b, 4)
        assert np.array_equal(out.mantissas, b.mantissas)
        assert out.exponent == 0

    def test_left_shift_exact(self):
        b = BfpBlock(np.array([5, -3, 2]), 8, exponent=0)
        out = normalize_block(b, 2)
        assert np.array_equal(out.mantissas, [20, -12, 8])
        assert out.exponent == -2
        assert np.array_equal(out.values(), b.values())

    def test_value_preservation_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            width = int(rng.integers(6, 17))
            lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
            m = rng.integers(lo, hi + 1, size=8)
            b = BfpBlock(m, width, exponent=int(rng.integers(-5, 6)))
            target = int(rng.integers(0, width))
            out = normalize_block(b, target)
            diff = np.abs(out.values() - b.values())
            assert np.all(diff <= 2.0 ** out.exponent + 1e-12)
            if out.exponent <= b.exponent:   # left shift is exact
                assert np.all(diff == 0)

    def test_target_validation(self):
        b = BfpBlock(np.array([1]), 8)
        with pytest.raises(ValueError):
            normalize_block(b, 8)


class TestRounding:
    def test_rshift_round_half_even(self):
        assert rshift_round(5, 1, RoundingMode.ROUND_HALF_EVEN) == 2   # 2.5 -> 2
        assert rshift_round(7, 1, RoundingMode.ROUND_HALF_EVEN) == 4   # 3.5 -> 4
        assert rshift_round(-5, 1, RoundingMode.ROUND_HALF_EVEN) == -2
        assert rshift_round(5, 1, RoundingMode.TRUNCATE) == 2
        assert rshift_round(-5, 1, RoundingMode.TRUNCATE) == -3

    def test_rshift_against_fraction_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            v = int(rng.integers(-10000, 10000))
            s = int(rng.integers(1, 8))
            exact = Fraction(v, 1 << s)
            assert rshift_round(v, s, RoundingMode.ROUND_HALF_EVEN) == round(exact)
            assert rshift_round(v, s, RoundingMode.TRUNCATE) == math.floor(exact)

    def test_wrap_mode(self):
        fmt = FxpFormat(8, 0)
        raw = quantize_array(np.array([130.0]),
                             fmt, RoundingPolicy(RoundingMode.ROUND_HALF_EVEN,
                                                 OverflowMode.WRAP))
        assert int(raw[0]) == -126

    def test_saturation_beyond_int64(self):
        """Values whose scaled magnitude passes 2**63 saturate by their sign,
        without an overflowing cast."""
        raw = quantize_array(np.array([1e30, -1e30]), FxpFormat(16, 8))
        assert raw.tolist() == [32767, -32768]
        fmt = FxpFormat(64, 0)
        raw = quantize_array(np.array([1e30, -1e30, 2.0 ** 62]), fmt)
        assert raw.dtype == np.int64
        assert raw.tolist() == [fmt.max_raw, fmt.min_raw, 2 ** 62]
