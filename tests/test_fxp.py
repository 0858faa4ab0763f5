"""Fixed-point and block-floating-point primitives against exact oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftsinv import fxp
from ftsinv.fxp import (
    DATAPATH_POLICY,
    FxpFormat,
    RoundingMode,
    _guard_bits,
    _lazy_digits_fit,
    _limb_magnitudes,
    _limb_plan,
    _mac,
    _macs,
    _requantize,
    _Wide,
    block_extremes,
    frac_bits_for_range,
    headroom,
    quantize_array,
    shift_block,
)

from reference import (
    FxpValue,
    apply_overflow,
    fxp_add,
    fxp_mul,
    quantize,
    rshift_round,
    value_of,
)


def exact_quantize(x, fmt, mode):
    """Independent oracle: exact rational scaling + rounding + clamp."""
    q = Fraction(x) * fmt.scale
    raw = round(q) if mode is RoundingMode.ROUND_HALF_EVEN else math.floor(q)
    return min(max(raw, fmt.min_raw), fmt.max_raw)


def _for_range_by_search(total_bits: int, max_abs: float) -> FxpFormat:
    """The binary-point search ``FxpFormat.for_range`` used to run: one
    fractional bit fewer until the rounded scaled value fits."""
    if max_abs <= 0 or not math.isfinite(max_abs):
        return FxpFormat(total_bits, total_bits - 1)
    frac = total_bits - 1
    while frac > 0 and round(max_abs * (1 << frac)) > (1 << (total_bits - 1)) - 1:
        frac -= 1
    return FxpFormat(total_bits, frac)


def _widest_frac(total_bits: int, max_abs: float) -> int:
    """Exact model of ``FxpFormat.for_range``: the most fractional bits in
    ``[0, total_bits - 1]`` at which ``max_abs``, scaled exactly, rounds half
    to even to at most ``max_raw``; ``total_bits - 1`` for a range that is
    not positive and finite."""
    if not (max_abs > 0 and math.isfinite(max_abs)):
        return total_bits - 1
    for frac in range(total_bits - 1, 0, -1):
        if round(Fraction(max_abs) * 2 ** frac) <= (1 << (total_bits - 1)) - 1:
            return frac
    return 0


def _range_cases(total_bits: int) -> list:
    """0, the smallest subnormal, inf, NaN, and at each of a spread of
    exponents e: 2**e, and (1 - 2**-w) 2**e, where one fractional bit fewer
    starts to be needed, with the floats one ulp either side of it."""
    cases = [0.0, 5e-324, math.inf, math.nan]
    for e in (-1022, -40, -1, 0, 1, total_bits - 2, total_bits - 1, total_bits, 62, 63, 64, 1023):
        edge = math.ldexp(1.0 - 2.0 ** -total_bits, e)
        cases += [math.ldexp(1.0, e), math.nextafter(edge, 0.0), edge,
                  math.nextafter(edge, math.inf)]
    return cases


class TestFormat:
    def test_ranges(self):
        fmt = FxpFormat(8, 7)
        assert fmt.min_raw == -128 and fmt.max_raw == 127
        assert value_of(fmt, 64) == 0.5

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

    @pytest.mark.parametrize("width", range(2, 65))
    def test_for_range_matches_the_search(self, width):
        """The closed form against the search it replaced, at powers of two,
        at the rounding threshold (``m * 2**(w-1)`` rounding to
        ``2**(w-1) - 1``, a tie, and above it), at subnormals, past
        ``2**(w-1)``, and at 0, inf and nan."""
        values = [0.0, -0.0, -1.0, math.inf, math.nan, 5e-324, 3 * 5e-324,
                  2.0 ** -1030, 2.0 ** -1022, math.nextafter(2.0 ** -1022, 0.0),
                  1e30, 2.0 ** 900]
        values += [2.0 ** e for e in range(-70, width + 4)]
        for m in (1 - 2.0 ** -(width - 1), 1 - 2.0 ** -width, 1 - 2.0 ** -(width + 1)):
            values += [m * 2.0 ** e for e in range(-66, width + 4)]
        values += [2.0 ** (width - 1) * f for f in (1.0, 1.5, 2.0, 1 + 2.0 ** -20)]
        for v in values:
            assert FxpFormat.for_range(width, v) == _for_range_by_search(width, v), v

    @pytest.mark.parametrize("width", range(2, 65))
    def test_for_range_matches_the_exact_model(self, width):
        """``for_range`` and its grid form, over the same cases, give the
        fractional bits of an exact rational model."""
        cases = _range_cases(width)
        want = [_widest_frac(width, v) for v in cases]
        assert [FxpFormat.for_range(width, v).frac_bits for v in cases] == want
        assert frac_bits_for_range(width, np.array(cases)).tolist() == want

    def test_for_range_past_the_float_range_saturates(self):
        """Where the search overflowed a float, the closed form gives the
        format with no fractional bits."""
        assert FxpFormat.for_range(64, 1e300) == FxpFormat(64, 0)

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
                got = quantize(float(x), fmt, mode).raw
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
    """:func:`headroom` of a block's :func:`block_extremes`: the redundant
    sign bits of its words."""

    def test_all_zero_convention(self):
        assert headroom(block_extremes([0, 0, 0]), 8) == 7

    def test_boundary(self):
        assert headroom(block_extremes([64, -3]), 8) == 0

    def test_small_example(self):
        assert headroom(block_extremes([5, -3, 2]), 8) == 4

    def test_negative_power_of_two_asymmetry(self):
        # -64 can shift once (to -128); +64 cannot shift at all
        assert headroom(block_extremes([-64]), 8) == 1
        assert headroom(block_extremes([64]), 8) == 0
        assert headroom(block_extremes([-128]), 8) == 0

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for width in (4, 8, 12, 16):
            lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
            for _ in range(100):
                vals = [int(v) for v in rng.integers(lo, hi + 1, size=5)]
                want = brute_force_headroom(vals, width)
                assert headroom(block_extremes(vals), width) == want

    def test_width_validation(self):
        with pytest.raises(ValueError):
            headroom(block_extremes([1]), 1)


def normalize(parts, width, target, mode, shift=None):
    """One block normalization of a BFP stage on copies of ``parts``:
    :func:`shift_block` by ``shift``, or by the shift that brings the
    block's headroom to ``target``.  The extremes it carries must be those
    of the shifted block.  It looks ``shift_block`` up on its module, so a
    defect planted there runs here."""
    parts = tuple(np.array(p, dtype=np.int64) for p in parts)
    extremes = block_extremes(parts)
    if shift is None:
        shift = headroom(extremes, width) - target
    applied, carried = fxp.shift_block(parts, shift, mode, extremes)
    assert carried == block_extremes(parts)
    return parts, applied


class TestNormalizeBlock:
    """Block normalization by ``shift_block``: the shared exponent falls by
    the shift it returns."""

    TRUNC = RoundingMode.TRUNCATE

    def test_all_zero_unchanged(self):
        m = np.zeros(4, dtype=np.int64)
        (out,), shift = normalize((m,), 8, 2, self.TRUNC)
        assert np.array_equal(out, m) and shift == 0

    def test_zero_and_minus_one_block_shifts(self):
        """A block of 0 and -1 words has ``width - 1`` bits of headroom and
        shifts like any other; only an all-zero block is left as it is."""
        m = np.array([-1, 0, -1])
        (out,), shift = normalize((m,), 8, 2, self.TRUNC)
        assert out.tolist() == [-32, 0, -32] and shift == 5
        (out,), shift = normalize((m,), 8, 2, self.TRUNC, 3)
        assert out.tolist() == [-8, 0, -8] and shift == 3

    def test_left_shift_past_int64_reads_the_block_again(self):
        """A left shift past the block's headroom wraps the int64 words, so
        the extremes of the shifted block come from its words: also where
        the greatest word reaches exactly 2**63, or the least one just
        passes -2**63."""
        (out,), shift = normalize((np.array([1 << 62, -3]),), 64, 0, self.TRUNC, 2)
        assert out.tolist() == [0, -12] and shift == 2
        (out,), shift = normalize((np.array([1 << 62, -3]),), 64, 0, self.TRUNC, 1)
        assert out.tolist() == [-(1 << 63), -6] and shift == 1
        (out,), shift = normalize((np.array([-(1 << 62) - 1, 3]),), 64, 0, self.TRUNC, 1)
        assert out.tolist() == [(1 << 63) - 2, 6] and shift == 1

    def test_already_at_target_identity(self):
        m = np.array([5, -3, 2])
        (out,), shift = normalize((m,), 8, 4, self.TRUNC)
        assert np.array_equal(out, m) and shift == 0

    def test_left_shift_exact(self):
        (out,), shift = normalize((np.array([5, -3, 2]),), 8, 2, self.TRUNC)
        assert np.array_equal(out, [20, -12, 8])
        assert shift == 2

    def test_value_preservation_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            width = int(rng.integers(6, 17))
            lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
            m = rng.integers(lo, hi + 1, size=8)
            exponent = int(rng.integers(-5, 6))
            target = int(rng.integers(0, width))
            (out,), shift = normalize((m,), width, target, self.TRUNC)
            diff = np.abs(np.ldexp(out, exponent - shift) - np.ldexp(m, exponent))
            assert np.all(diff <= 2.0 ** (exponent - shift) + 1e-12)
            if shift >= 0:   # left shift is exact
                assert np.all(diff == 0)


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

    def test_saturation_beyond_int64(self):
        """Values whose scaled magnitude passes 2**63 saturate by their sign,
        without an overflowing cast."""
        raw = quantize_array(np.array([1e30, -1e30]), FxpFormat(16, 8))
        assert raw.tolist() == [32767, -32768]
        fmt = FxpFormat(64, 0)
        raw = quantize_array(np.array([1e30, -1e30, 2.0 ** 62]), fmt)
        assert raw.dtype == np.int64
        assert raw.tolist() == [fmt.max_raw, fmt.min_raw, 2 ** 62]


WIDTHS = range(2, 65)


def _at_width(v: int, width: int, low: bool) -> int:
    """A ``width``-bit word from a 64-bit draw: its top bits, so that the
    int64 extremes give each width's extremes, or its low bits sign-extended,
    so that small draws stay small words."""
    if low:
        half = 1 << (width - 1)
        return (v + half) % (2 * half) - half
    return v >> (64 - width)


class TestAgainstReference:
    """The vector primitives against the Python-int model: each example is
    checked at every width from 2 to 64."""

    @settings(max_examples=60)
    @given(raws=st.lists(st.integers(-(1 << 64), (1 << 64) - 1), min_size=1, max_size=8),
           steps=st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75)), min_size=8, max_size=8),
           reals=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
           frac=st.integers(0, 63), mode=st.sampled_from(list(RoundingMode)))
    def test_quantize_array_matches_quantize(self, raws, steps, reals, frac, mode):
        """Reals up to twice each format's range, on its grid points, quarter
        steps and ties, and reals of any magnitude; float64 words, which
        hold every word up to 53 bits, give the same integers."""
        for width in WIDTHS:
            fmt = FxpFormat(width, min(frac, width - 1))
            xs = [math.ldexp((v >> (65 - width)) + step, -fmt.frac_bits)
                  for v, step in zip(raws, steps)] + reals
            want = [quantize(x, fmt, mode).raw for x in xs]
            got = quantize_array(np.array(xs), fmt, mode)
            assert got.dtype == np.int64
            assert got.tolist() == want, width
            if width <= 53:
                got = quantize_array(np.array(xs), fmt, mode, dtype=np.float64)
                assert got.dtype == np.float64
                assert got.tolist() == want, width

    @settings(max_examples=60)
    @given(parts=st.lists(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=6,
                                   max_size=6), min_size=1, max_size=2),
           low=st.booleans(), scale=st.integers(0, 63), target=st.integers(0, 63),
           mode=st.sampled_from(list(RoundingMode)),
           shift=st.none() | st.integers(-66, 63))
    def test_shift_block_matches_rshift_round(self, parts, low, scale, target, mode,
                                              shift):
        """The applied shift brings the block to its target headroom, or is
        the caller's (an exact left shift or any right shift), and each word
        is ``rshift_round`` of it, saturated."""
        for width in WIDTHS:
            fmt = FxpFormat(width, 0)
            # words of every magnitude: ``scale`` of the width's bits dropped
            block = [[_at_width(v, width, low) >> min(scale, width - 1) for v in p]
                     for p in parts]
            words = [v for p in block for v in p]
            room = brute_force_headroom(words, width)
            aim = min(target, width - 1)
            given_shift = None if shift is None else min(shift, room)
            got, applied = normalize(block, width, aim, mode, given_shift)
            # an all-zero block carries no scale and is left as it is
            if not any(words):
                want = 0
            else:
                want = room - aim if given_shift is None else given_shift
            assert applied == want, width
            for p, q in zip(block, got):
                assert q.tolist() == [apply_overflow(rshift_round(v, -want, mode), fmt)[0]
                                      for v in p], width


def _mac_words(rng, width: int, shape, fill: str) -> np.ndarray:
    """``width``-bit words: all ``max_raw``, all ``min_raw``, or random at
    every magnitude with a tenth of them set to either extreme."""
    fmt = FxpFormat(width, 0)
    if fill != "random":
        return np.full(shape, fmt.max_raw if fill == "max" else fmt.min_raw, np.int64)
    words = rng.integers(fmt.min_raw, fmt.max_raw, size=shape, endpoint=True,
                         dtype=np.int64)
    words >>= rng.integers(0, width, size=shape)
    extreme = rng.random(shape) < 0.1
    words[extreme] = rng.choice([fmt.min_raw, fmt.max_raw], size=int(extreme.sum()))
    return words


@st.composite
def _mac_cases(draw):
    wa, wb = draw(st.integers(2, 64)), draw(st.integers(2, 64))
    length, matmul = draw(st.integers(1, 300)), draw(st.booleans())
    accumulators = draw(st.integers(1, 3))
    terms = accumulators * (length if matmul else 1)
    guard = _guard_bits(terms) if terms > 1 else draw(st.integers(0, 1))
    top = 2 * max(wa, wb)
    bits = _limb_plan(wa, wb, guard)[0] or 62
    # every shift in range, and more often those next to a digit boundary
    near_digits = [s for k in range(1, top // bits + 1)
                   for s in (k * bits - 1, k * bits, k * bits + 1)
                   if s <= top]
    shift = draw(st.one_of(st.integers(-3, top), st.sampled_from(near_digits))
                 if near_digits else st.integers(-3, top))
    # often an output wide enough for the rounded sum, where a wide sum's
    # rounding shows instead of saturating
    fits = min(64, max(2, wa + wb + guard + 1 - max(shift, 0)))
    return dict(
        wa=wa, wb=wb, length=length, op=np.matmul if matmul else np.multiply,
        rows=draw(st.integers(1, 3)) if matmul else None, guard=guard,
        signs=draw(st.lists(st.sampled_from((1, -1)), min_size=accumulators - 1,
                            max_size=accumulators - 1)),
        shift=shift, mode=draw(st.sampled_from(list(RoundingMode))),
        out_fmt=FxpFormat(draw(st.just(fits) | st.integers(2, 64)), 0),
        fills=draw(st.tuples(*[st.sampled_from(("random", "random", "max", "min"))] * 2)),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestExactMac:
    """``_mac``, ``_Wide.plus`` and ``_requantize`` against the Python-int
    model."""

    @pytest.mark.parametrize("wa,wb", [(16, 16), (24, 30), (32, 40), (64, 64)])
    @pytest.mark.parametrize("op", [np.multiply, np.matmul])
    def test_macs_share_the_vector(self, wa, wb, op):
        """``_macs`` of several coefficient operands by one vector gives each
        operand's ``_mac``."""
        rng = np.random.default_rng(wa * 100 + wb)
        length = 50
        shape = (3, length) if op is np.matmul else (length,)
        coefs = [_mac_words(rng, wa, shape, "random") for _ in range(3)]
        b = _mac_words(rng, wb, (length,), "random")
        guard = _guard_bits(2 * length if op is np.matmul else 2)

        def digits(acc):
            return [d.tolist() for d in acc.digits]

        accs = _macs(coefs, b, wa, wb, guard, op)
        assert [digits(x) for x in accs] == [digits(_mac(a, b, wa, wb, guard, op))
                                             for a in coefs]

    @given(_mac_cases())
    def test_mac_plus_requantize_match_python_ints(self, case):
        rng = np.random.default_rng(case["seed"])
        wa, wb, n = case["wa"], case["wb"], len(case["signs"]) + 1
        a_shape = (case["rows"], case["length"]) if case["rows"] else (case["length"],)
        a = [_mac_words(rng, wa, a_shape, case["fills"][0]) for _ in range(n)]
        b = [_mac_words(rng, wb, (case["length"],), case["fills"][1]) for _ in range(n)]
        accs = [_mac(x, v, wa, wb, case["guard"], case["op"]) for x, v in zip(a, b)]
        if case["op"] is np.matmul:
            exact = [[sum(p * q for p, q in zip(row, v.tolist())) for row in x.tolist()]
                     for x, v in zip(a, b)]
        else:
            exact = [[p * q for p, q in zip(x.tolist(), v.tolist())]
                     for x, v in zip(a, b)]
        # the butterfly's shape: p0 + s1 (p1 + s2 p2)
        acc, want = accs[-1], exact[-1]
        for sign, term, values in zip(case["signs"][::-1], accs[-2::-1], exact[-2::-1]):
            acc = term.plus(acc, sign)
            want = [t + sign * w for t, w in zip(values, want)]
        out, overflows = _requantize(acc, case["shift"], case["mode"], case["out_fmt"])
        results = [apply_overflow(rshift_round(v, case["shift"], case["mode"]),
                                  case["out_fmt"]) for v in want]
        assert out.dtype == np.int64
        assert out.tolist() == [r for r, _ in results]
        assert overflows == sum(over for _, over in results)

    @pytest.mark.parametrize("mode", list(RoundingMode))
    def test_a_column_of_shifts_runs_each_row_as_its_own_stage(self, mode):
        """A float64 accumulator of 6 rows and a column of shifts, one per
        row (negative, zero and past the words' widths among them), gives
        each row the words and saturation count of that row's own output
        stage under its shift and the Python-int model's; rows 0 and 3
        saturate and row 4 does not."""
        rng = np.random.default_rng(33)
        exact = rng.integers(-(1 << 40), 1 << 40, size=(6, 50)) >> rng.integers(0, 40, (6, 1))
        exact[[0, 3], :2] = [1 << 40, -(1 << 40)]
        shifts = np.array([[0], [3], [-2], [28], [45], [17]])
        fmt = FxpFormat(12, 5)
        words, counts = _requantize(_Wide([exact.astype(np.float64)], 62), shifts, mode, fmt)
        assert counts[0] > 0 and counts[3] > 0 and counts[4] == 0
        for row, shift, got, count in zip(exact, shifts[:, 0].tolist(), words, counts.tolist()):
            alone, overflows = _requantize(_Wide([row.astype(np.float64)], 62), shift, mode, fmt)
            assert got.tobytes() == alone.tobytes() and count == overflows
            model = [apply_overflow(rshift_round(v, shift, mode), fmt) for v in row.tolist()]
            assert got.tolist() == [w for w, _ in model]
            assert count == sum(over for _, over in model)


def test_limb_plan_narrows_its_limbs_until_the_digits_fit():
    """64- by 64-bit words, both split, summed 2**50 at a time: the first
    limb width, ``(62 - 50) // 2 = 6``, and 5 let a digit pass an int64, so
    the plan narrows to 4-bit limbs.  At 58 guard bits no width fits."""
    fit = [_lazy_digits_fit(_limb_magnitudes(64, bits), _limb_magnitudes(64, bits), 50, bits)
           for bits in (6, 5, 4)]
    assert fit == [False, False, True]
    assert _limb_plan(64, 64, 50) == (4, True)
    with pytest.raises(ValueError, match="58 guard bits leave no room in int64"):
        _limb_plan(64, 64, 58)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_array_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        quantize_array(np.array([1.0, bad]), FxpFormat(8, 4))
