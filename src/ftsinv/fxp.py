"""Bit-exact fixed-point and block-floating-point arithmetic.

Every datapath in this package (FFT butterflies, DCT twiddle stages,
matrix-vector MACs) runs on the primitives defined here.  Scalars are carried
as Python integers so that intermediate products are exact at any width;
arrays of words are int64 at every width up to 64 bits.  Products and sums
too wide for an int64 go through one exact MAC, :func:`_mac`, and one output
stage, :func:`_requantize`: the words are split into limbs whose products
are exact in int64 (the error-free splitting of Ozaki, Ogita, Oishi and
Rump, Numer. Algorithms, 2012), and only the accumulator is recombined, in
base-2^b int64 digits, before its one shift, rounding and saturation.

Conventions:
  * two's-complement signed rasters, ``value = raw * 2**(-frac_bits)``
  * round-half-to-even at datapath entry, truncation (floor) inside datapaths
  * saturation at quantization boundaries; wrap exists but is never used by
    the shipped datapaths
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class RoundingMode(Enum):
    TRUNCATE = "truncate"          # toward negative infinity
    ROUND_HALF_EVEN = "round-half-even"


class OverflowMode(Enum):
    SATURATE = "saturate"
    WRAP = "wrap"


@dataclass(frozen=True)
class RoundingPolicy:
    mode: RoundingMode = RoundingMode.ROUND_HALF_EVEN
    overflow: OverflowMode = OverflowMode.SATURATE

    def describe(self) -> str:
        return f"{self.mode.value}/{self.overflow.value}"


ENTRY_POLICY = RoundingPolicy(RoundingMode.ROUND_HALF_EVEN, OverflowMode.SATURATE)
DATAPATH_POLICY = RoundingPolicy(RoundingMode.TRUNCATE, OverflowMode.SATURATE)


@dataclass(frozen=True)
class FxpFormat:
    """Signed fixed-point format: ``total_bits`` wide, ``frac_bits`` fractional."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if not (2 <= self.total_bits <= 64):
            raise ValueError(f"total_bits must be in [2, 64], got {self.total_bits}")
        if not (0 <= self.frac_bits <= self.total_bits - 1):
            raise ValueError(
                f"frac_bits must be in [0, {self.total_bits - 1}], got {self.frac_bits}"
            )

    @property
    def min_raw(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def resolution(self) -> float:
        return 2.0 ** (-self.frac_bits)

    def value_of(self, raw: int) -> float:
        return raw * self.resolution

    @classmethod
    def for_range(cls, total_bits: int, max_abs: float) -> "FxpFormat":
        """Widest fractional split that still represents ``max_abs`` without
        saturating.  This mirrors how a designer fixes the binary point from a
        known coefficient range."""
        if max_abs <= 0 or not math.isfinite(max_abs):
            return cls(total_bits, total_bits - 1)
        frac = total_bits - 1
        while frac > 0 and round(max_abs * (1 << frac)) > (1 << (total_bits - 1)) - 1:
            frac -= 1
        return cls(total_bits, frac)

    def describe(self) -> str:
        return f"Q{self.total_bits - self.frac_bits}.{self.frac_bits}"


@dataclass(frozen=True)
class FxpValue:
    raw: int
    fmt: FxpFormat

    def __post_init__(self):
        if not (self.fmt.min_raw <= self.raw <= self.fmt.max_raw):
            raise ValueError(f"raw {self.raw} outside {self.fmt.describe()}")

    @property
    def value(self) -> float:
        return self.fmt.value_of(self.raw)


class OpCounter:
    """Per-datapath multiplier tally.

    One instance per inversion/transform invocation; never shared between
    concurrent datapaths.
    """

    __slots__ = ("mults",)

    def __init__(self):
        self.mults = 0

    def add(self, n: int) -> None:
        self.mults += n


# ---------------------------------------------------------------------------
# integer rounding / overflow primitives
# ---------------------------------------------------------------------------

def rshift_round(v: int, s: int, mode: RoundingMode) -> int:
    """Round ``v / 2**s`` to an integer under ``mode`` (s >= 0)."""
    if s <= 0:
        return v << (-s)
    if mode is RoundingMode.TRUNCATE:
        return v >> s
    q = v >> s
    r = v - (q << s)
    half = 1 << (s - 1)
    if r > half or (r == half and (q & 1)):
        q += 1
    return q


def apply_overflow(raw: int, fmt: FxpFormat, mode: OverflowMode):
    """Fold ``raw`` into the format range; returns (raw, overflowed)."""
    if fmt.min_raw <= raw <= fmt.max_raw:
        return raw, False
    if mode is OverflowMode.SATURATE:
        return (fmt.max_raw if raw > fmt.max_raw else fmt.min_raw), True
    span = 1 << fmt.total_bits
    return ((raw - fmt.min_raw) % span) + fmt.min_raw, True


def quantize(x: float, fmt: FxpFormat, policy: RoundingPolicy = ENTRY_POLICY) -> FxpValue:
    """Quantize a real number to the nearest representable fixed-point value."""
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    # scaling by a power of two is exact in binary floating point
    scaled = math.ldexp(x, fmt.frac_bits)
    if policy.mode is RoundingMode.ROUND_HALF_EVEN:
        raw = round(scaled)
    else:
        raw = math.floor(scaled)
    raw, _ = apply_overflow(raw, fmt, policy.overflow)
    return FxpValue(raw, fmt)


def fxp_mul(
    a: FxpValue,
    b: FxpValue,
    out_fmt: FxpFormat,
    policy: RoundingPolicy = DATAPATH_POLICY,
    counter: OpCounter | None = None,
) -> FxpValue:
    """Exact double-width product realigned and rounded to ``out_fmt``."""
    prod = a.raw * b.raw                      # exact, arbitrary precision
    shift = a.fmt.frac_bits + b.fmt.frac_bits - out_fmt.frac_bits
    raw = rshift_round(prod, shift, policy.mode)
    raw, _ = apply_overflow(raw, out_fmt, policy.overflow)
    if counter is not None:
        counter.add(1)
    return FxpValue(raw, out_fmt)


def fxp_add(a: FxpValue, b: FxpValue, policy: RoundingPolicy = DATAPATH_POLICY) -> FxpValue:
    """Exact sum (one growth bit) folded back into the common format."""
    if a.fmt != b.fmt:
        raise ValueError("fxp_add requires identical formats")
    raw, _ = apply_overflow(a.raw + b.raw, a.fmt, policy.overflow)
    return FxpValue(raw, a.fmt)


# ---------------------------------------------------------------------------
# block floating point
# ---------------------------------------------------------------------------

def _max_shift_magnitude(mantissas) -> int:
    """max over elements of the two's-complement shift-limiting magnitude.

    A tuple of arrays is one block: the max runs over all of them.
    """
    if isinstance(mantissas, tuple):
        return max(map(_max_shift_magnitude, mantissas), default=0)
    mantissas = np.asarray(mantissas)
    hi = int(mantissas.max(initial=0))
    lo = int(mantissas.min(initial=0))
    # for v >= 0 the limit is v itself; for v < 0 it is ~v = -v－1
    return max(hi, ~lo, 0)


def leading_bit(mantissas, width: int) -> int:
    """Redundant sign bits of the largest-magnitude element.

    Equals the largest left shift applicable to every element of the block
    without overflowing ``width``-bit two's complement.  An all-zero block
    returns ``width - 1``.
    """
    if width < 2:
        raise ValueError("width must be >= 2")
    mag = _max_shift_magnitude(mantissas)
    return width - 1 - mag.bit_length()


@dataclass
class BfpBlock:
    """Vector of uniform-width integer mantissas sharing one exponent.

    Element ``i`` represents the real value ``mantissas[i] * 2**exponent``.
    """

    mantissas: np.ndarray
    width: int
    exponent: int = 0

    def __post_init__(self):
        self.mantissas = np.asarray(self.mantissas)

    def headroom(self) -> int:
        return leading_bit(self.mantissas, self.width)

    def values(self) -> np.ndarray:
        return self.mantissas.astype(np.float64) * 2.0 ** self.exponent


def shift_block(parts: tuple, width: int, target_headroom: int,
                mode: RoundingMode, shift: int | None = None) -> tuple:
    """Shift a block of mantissa arrays that share one exponent.

    The shift brings the block's headroom (:func:`leading_bit` over all of
    ``parts``) to ``target_headroom``, unless the caller decided it earlier
    and passes ``shift``.  Left shifts (positive) are exact; right shifts
    round under ``mode``.  An all-zero block carries no scale and is left as
    it is.  Returns ``(parts, applied)``; the shared exponent falls by
    ``applied``.
    """
    if shift == 0:
        return parts, 0
    mag = _max_shift_magnitude(parts)
    if not mag:
        return parts, 0
    if shift is None:
        shift = width - 1 - mag.bit_length() - target_headroom
    if shift > 0:
        return tuple(p << shift for p in parts), shift
    if shift < 0:
        return tuple(shift_right_array(p, -shift, mode) for p in parts), shift
    return parts, 0


def normalize_block(
    block: BfpBlock,
    target_headroom: int,
    policy: RoundingPolicy = DATAPATH_POLICY,
) -> BfpBlock:
    """Shift every mantissa so the block headroom becomes ``target_headroom``.

    Left shifts are exact; right shifts round under ``policy``.  The shared
    exponent absorbs the shift so real values are preserved up to the
    right-shift rounding loss.
    """
    if not (0 <= target_headroom <= block.width - 1):
        raise ValueError("target_headroom outside [0, width-1]")
    (m,), shift = shift_block((block.mantissas,), block.width, target_headroom,
                              policy.mode)
    return BfpBlock(m if shift else m.copy(), block.width, block.exponent - shift)


# ---------------------------------------------------------------------------
# vectorized helpers (int64 words at every width up to 64 bits)
# ---------------------------------------------------------------------------

def shift_right_array(m: np.ndarray, s: int, mode: RoundingMode) -> np.ndarray:
    if s <= 0:
        return m << (-s)
    if mode is RoundingMode.TRUNCATE:
        return m >> s
    q = m >> s
    r = m - (q << s)
    half = 1 << (s - 1)
    return q + ((r > half) | ((r == half) & ((q & 1) == 1)))


def saturate_array(raw: np.ndarray, fmt: FxpFormat):
    """Clamp to the format range; returns (clamped, overflow_count)."""
    lo, hi = fmt.min_raw, fmt.max_raw
    if not raw.size or (raw.max() <= hi and raw.min() >= lo):
        return raw, 0
    over = (raw > hi) | (raw < lo)
    n = int(np.count_nonzero(over))
    if n:
        raw = np.where(raw > hi, hi, np.where(raw < lo, lo, raw))
    return raw, n


def quantize_array(
    x: np.ndarray,
    fmt: FxpFormat,
    policy: RoundingPolicy = ENTRY_POLICY,
) -> np.ndarray:
    """Vector quantization to int64 mantissas; overflow is resolved on the
    rounded floats, so the one cast never sees a value outside the format."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    scaled = np.ldexp(x, fmt.frac_bits)
    if policy.mode is RoundingMode.ROUND_HALF_EVEN:
        r = np.rint(scaled)
    else:
        r = np.floor(scaled)
    top = 2.0 ** (fmt.total_bits - 1)
    if policy.overflow is OverflowMode.WRAP:
        r = np.fmod(r, 2 * top)
        r = np.where(r >= top, r - 2 * top, np.where(r < -top, r + 2 * top, r))
        return r.astype(np.int64)
    if r.max(initial=0.0) < top and r.min(initial=0.0) >= -top:
        return r.astype(np.int64)
    hi, lo = r >= top, r < -top
    raw = np.where(hi | lo, 0.0, r).astype(np.int64)
    raw[hi], raw[lo] = fmt.max_raw, fmt.min_raw
    return raw


def dequantize_array(raw: np.ndarray, fmt: FxpFormat) -> np.ndarray:
    return np.asarray(raw, dtype=np.float64) * fmt.resolution


# ---------------------------------------------------------------------------
# exact wide accumulation in int64
# ---------------------------------------------------------------------------

_SAFE_BITS = 62     # |sums| <= 2**62 leaves an int64 a bit for carries


def _guard_bits(terms: int) -> int:
    return max(1, math.ceil(math.log2(max(terms, 2))))


def _limb_plan(wa: int, wb: int, guard: int):
    """Limb width for exact int64 products of ``wa``-bit coefficient words
    by ``wb``-bit vector words, up to ``2**guard`` of them summed.

    Returns ``(bits, split_a)``: ``bits`` None when whole words already fit;
    otherwise the vector words are split into ``bits``-bit limbs, and the
    coefficient words as well when ``split_a``, which happens only where
    whole coefficient words leave no room beside them (about 55 bits and
    up).  Splitting the vector costs O(M) per run, where splitting the
    coefficients costs O(N M).
    """
    if wa + wb - 2 + guard <= _SAFE_BITS:
        return None, False
    beside_a = _SAFE_BITS - guard - (wa - 1)
    if beside_a >= 1:
        return beside_a, False
    both = (_SAFE_BITS - guard) // 2
    if both < 1:
        raise ValueError(f"{guard} guard bits leave no room in int64")
    return both, True


def _limbs(words: np.ndarray, width: int, bits: int) -> list:
    """``words == sum(limb << (bits * i))``: unsigned low limbs, a signed top,
    as many as ``width``-bit words need."""
    n = max(1, -(-(width - 1) // bits))
    if n == 1:
        return [words]
    mask = (1 << bits) - 1
    return ([(words >> (bits * i)) & mask for i in range(n - 1)]
            + [words >> (bits * (n - 1))])


class _Wide:
    """Exact integers ``sum(digits[i] << (bits * i))`` in int64 arrays: every
    digit below the top lies in ``[0, 2**bits)``, the top one is signed."""

    __slots__ = ("digits", "bits")

    def __init__(self, digits: list, bits: int):
        self.digits = digits
        self.bits = bits

    def __getitem__(self, rows) -> "_Wide":
        return _Wide([d[rows] for d in self.digits], self.bits)

    def add(self, term: np.ndarray, pos: int) -> None:
        """Add ``term << (bits * pos)``, ``|term| <= 2**62``, below the top."""
        d, mask = self.digits, (1 << self.bits) - 1
        d[pos] = d[pos] + term
        for i in range(pos, len(d) - 1):
            d[i + 1] = d[i + 1] + (d[i] >> self.bits)
            d[i] = d[i] & mask

    def plus(self, other: "_Wide", sign: int = 1) -> "_Wide":
        """``self + sign * other``, both from the same limb plan, whose
        guard bits cover the terms of the sum."""
        op = np.add if sign > 0 else np.subtract
        out = _Wide([op(x, y) for x, y in zip(self.digits, other.digits)], self.bits)
        out.add(0, 0)                    # carry every digit back into range
        return out

    def bit(self, j: int) -> np.ndarray:
        i, e = divmod(j, self.bits)
        return (self.digits[i] >> e) & 1

    def any_below(self, j: int) -> np.ndarray:
        i, e = divmod(j, self.bits)
        out = (self.digits[i] & ((1 << e) - 1)) != 0
        for d in self.digits[:i]:
            out |= d != 0
        return out


def _mac(a: np.ndarray, b: np.ndarray, wa: int, wb: int, guard: int, op) -> _Wide:
    """Exact ``op(a, b)`` of ``wa``-bit coefficient words by ``wb``-bit
    vector words, where ``op`` is ``np.matmul`` (summing at most
    ``2**guard`` products) or ``np.multiply``, computed in int64 limb by
    limb.  A ``guard`` above 0 with ``np.multiply`` leaves room for
    :meth:`_Wide.plus` to sum up to ``2**guard`` such products."""
    bits, split_a = _limb_plan(wa, wb, guard)
    if bits is None:
        return _Wide([op(a, b)], _SAFE_BITS)
    la = _limbs(a, wa, bits) if split_a else [a]
    lb = _limbs(b, wb, bits)
    terms = [(op(x, v), i + j) for i, x in enumerate(la) for j, v in enumerate(lb)]
    acc = _Wide([np.zeros_like(terms[0][0]) for _ in range(len(la) + len(lb))], bits)
    for term, pos in terms:
        acc.add(term, pos)
    return acc


def _requantize(acc: _Wide, shift: int, mode: RoundingMode, fmt: FxpFormat):
    """``acc * 2**-shift`` rounded under ``mode`` and saturated to ``fmt``.

    Returns the int64 words and the number of saturated outputs.
    """
    if len(acc.digits) == 1 and 0 <= shift < 63:
        return saturate_array(shift_right_array(acc.digits[0], shift, mode), fmt)
    bits, mask = acc.bits, (1 << acc.bits) - 1
    d = list(acc.digits)
    if shift < 0:                        # a left shift: zero digits below
        pad = -(shift // bits)
        d = [np.zeros_like(d[0]) for _ in range(pad)] + d
        shift += pad * bits
    sign = shift + fmt.total_bits - 1    # the output word's sign bit
    while bits * (len(d) - 1) <= sign:   # sign-extend so it sits below the top
        d.append(d[-1] >> bits)
        d[-2] = d[-2] & mask
    wide = _Wide(d, bits)
    if mode is RoundingMode.ROUND_HALF_EVEN and shift > 0:
        inc = wide.bit(shift - 1) & (wide.bit(shift) | wide.any_below(shift - 1))
        wide.add(inc << (shift % bits), shift // bits)
    # in range when every bit from the sign bit up repeats it
    c, e = divmod(sign, bits)
    high = d[c] >> e
    zeros, ones = high == 0, high == (mask >> e)
    for x in d[c + 1:-1]:
        zeros &= x == 0
        ones &= x == mask
    fits = (zeros & (d[-1] == 0)) | (ones & (d[-1] == -1))
    # the word itself is bits [shift, shift + 64), wrapped modulo 2**64
    c, e = divmod(shift, bits)
    words = (d[c] >> e).astype(np.uint64)
    for i in range(c + 1, len(d)):
        at = bits * i - shift
        if at >= 64:
            break
        words += d[i].astype(np.uint64) << np.uint64(at)
    words = words.view(np.int64)
    overflows = int(words.size - np.count_nonzero(fits))
    if overflows:
        words = np.where(fits, words, np.where(d[-1] < 0, fmt.min_raw, fmt.max_raw))
    return words, overflows
