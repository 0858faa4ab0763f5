"""Bit-exact fixed-point and block-floating-point arithmetic.

Every datapath in this package (FFT butterflies, matrix-vector MACs) runs on
the primitives defined here.  Scalars are carried as Python integers so that
intermediate products are exact at any width; the vectorized helpers switch
between an int64 fast path and an object-dtype path automatically.

Conventions:
  * two's-complement signed rasters, ``value = raw * 2**(-frac_bits)``
  * round-half-to-even at datapath entry, truncation (floor) inside datapaths
  * saturation at quantization boundaries; wrap exists but is never used by
    the shipped datapaths
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    if isinstance(mantissas, np.ndarray) and mantissas.dtype != object:
        hi = int(mantissas.max(initial=0))
        lo = int(mantissas.min(initial=0))
    else:
        vals = [int(v) for v in np.asarray(mantissas, dtype=object).ravel()]
        if not vals:
            return 0
        hi, lo = max(vals), min(vals)
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
# vectorized helpers (int64 fast path / object-dtype exact path)
# ---------------------------------------------------------------------------

def shift_right_array(m: np.ndarray, s: int, mode: RoundingMode) -> np.ndarray:
    if s <= 0:
        return m << (-s)
    if mode is RoundingMode.TRUNCATE:
        return m >> s
    q = m >> s
    r = m - (q << s)
    half = 1 << (s - 1)
    inc = (r > half) | ((r == half) & ((q & 1) == 1))
    if m.dtype == object:
        return q + np.where(inc, 1, 0).astype(object)
    return q + inc.astype(m.dtype)


def saturate_array(raw: np.ndarray, fmt: FxpFormat):
    """Clamp to the format range; returns (clamped, overflow_count)."""
    lo, hi = fmt.min_raw, fmt.max_raw
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
    """Vector quantization; returns raw mantissas (int64 or object dtype)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    scaled = np.ldexp(x, fmt.frac_bits)
    if policy.mode is RoundingMode.ROUND_HALF_EVEN:
        r = np.rint(scaled)
    else:
        r = np.floor(scaled)
    if fmt.total_bits <= 62:
        raw = r.astype(np.int64)
    else:
        raw = np.array([int(v) for v in r], dtype=object).reshape(x.shape)
    if policy.overflow is OverflowMode.SATURATE:
        raw, _ = saturate_array(raw, fmt)
    else:
        span = 1 << fmt.total_bits
        raw = ((raw - fmt.min_raw) % span) + fmt.min_raw
    return raw


def dequantize_array(raw: np.ndarray, fmt: FxpFormat) -> np.ndarray:
    return np.asarray(raw, dtype=np.float64) * fmt.resolution


def use_int64(*bit_budgets: int) -> bool:
    """True when every intermediate fits an int64 with margin."""
    return sum(bit_budgets) <= 60
