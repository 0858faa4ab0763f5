"""Bit-exact fixed-point and block-floating-point arithmetic.

Every datapath in this package (FFT butterflies, DCT twiddle stages,
matrix-vector MACs) runs on the primitives defined here.  Words are int64
arrays at every width up to 64 bits, with two exceptions, each a datapath
compiled once whose widths bound every integer it forms:

* the FFT's store, whose stages run on int32 words where that bound fits
  one (``FftPlan.word_type``), and which hands its words back as int64;
* the matrix datapaths (``CompiledPinv``, ``CompiledSvd``), whose words are
  float64 where every product's partial sums stay within 2^52 (words up to
  23 bits at 256 terms, :func:`word_type`): every integer they form is then
  exact in float64, by the argument below, so a matrix product runs as one
  float64 BLAS product (numpy has no BLAS for int64) and its output stage
  rounds in float64.

Every array product and sum goes through one exact MAC, :func:`_mac`, and
one output stage, :func:`_requantize` or :func:`_add_floor`: one operation
in the words' type where the words fit, else limbs whose products are exact
in int64 (the error-free splitting of Ozaki, Ogita, Oishi and Rump, Numer.
Algorithms, 2012), summed uncarried into base-2^b int64 digits.  Each
accumulator is carried once, at the output stage, and its high digits
collapse into one int64 wherever they fit, so a wide output costs one
shift, rounding and saturation, as a one-digit output does.  An FFT stage
whose products fit one int64 (:func:`_limb_plan`) forms those same
operations itself, in place, on its store's words.

Conventions:
  * two's-complement signed rasters, ``value = raw * 2**(-frac_bits)``
  * round-half-to-even at datapath entry, truncation (floor) inside datapaths
  * saturation wherever a word leaves its format; no datapath wraps
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class RoundingMode(Enum):
    """How a stage rounds; every stage saturates on overflow."""

    TRUNCATE = "truncate"          # toward negative infinity
    ROUND_HALF_EVEN = "round-half-even"


ENTRY_POLICY = RoundingMode.ROUND_HALF_EVEN     # quantization at datapath entry
DATAPATH_POLICY = RoundingMode.TRUNCATE         # every stage inside a datapath


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

    @classmethod
    def for_range(cls, total_bits: int, max_abs: float) -> "FxpFormat":
        """Widest fractional split that still represents ``max_abs`` without
        saturating.  This mirrors how a designer fixes the binary point from a
        known coefficient range.  A range that is not positive and finite
        gets ``total_bits - 1`` fractional bits; :func:`frac_bits_for_range`
        applies the same rule to an array of ranges."""
        if not max_abs > 0:
            return cls(total_bits, total_bits - 1)
        frac = _frac_bits(total_bits, *math.frexp(max_abs))
        return cls(total_bits, min(max(frac, 0), total_bits - 1))

    def describe(self) -> str:
        return f"Q{self.total_bits - self.frac_bits}.{self.frac_bits}"


def _frac_bits(total_bits: int, m, e):
    """The binary-point rule of :meth:`FxpFormat.for_range` for ``max_abs =
    m * 2**e``, ``0.5 <= m < 1`` (``math.frexp`` or ``np.frexp``, scalars or
    arrays alike), before clamping to ``[0, total_bits - 1]``.

    With ``frac = total_bits - 1 - e``, max_abs scales to ``m *
    2**(total_bits - 1)``, which fits unless it rounds half to even up to
    ``2**(total_bits - 1)``: iff ``m >= 1 - 2**-total_bits`` (the odd
    ``max_raw`` loses the tie), one fractional bit fewer always fits.  That
    bound is exact in float64 up to 53 bits, and above it rounds to 1, which
    no ``m`` reaches, as no float64 below 1 is that close to it.  0 and NaN
    give ``m = e = 0`` and infinity ``m = inf, e = 0``: all
    ``total_bits - 1``.
    """
    return total_bits - 1 - e - ((m >= 1.0 - 2.0 ** -total_bits) & (m < 1.0))


def frac_bits_for_range(total_bits: int, max_abs: np.ndarray) -> np.ndarray:
    """:meth:`FxpFormat.for_range`'s fractional bits for each of an array
    of ranges, each ``>= 0`` or NaN: one pass over the array."""
    return np.minimum(np.maximum(_frac_bits(total_bits, *np.frexp(max_abs)), 0), total_bits - 1)


# ---------------------------------------------------------------------------
# block floating point
# ---------------------------------------------------------------------------

def block_extremes(parts) -> tuple:
    """``(lo, hi)``: the least and greatest word of a block, one array or a
    tuple of arrays that share one exponent, with 0 counted as a word.  The
    block is all zero iff both are 0."""
    if isinstance(parts, tuple):
        ext = [block_extremes(p) for p in parts]
        return min((lo for lo, _ in ext), default=0), max((hi for _, hi in ext), default=0)
    parts = np.asarray(parts)
    return int(parts.min(initial=0)), int(parts.max(initial=0))


def headroom(extremes: tuple, width: int) -> int:
    """Redundant sign bits of the largest-magnitude word of a block whose
    :func:`block_extremes` are ``extremes``: the largest left shift
    applicable to every word without overflowing ``width``-bit two's
    complement.  An all-zero block has ``width - 1``."""
    if width < 2:
        raise ValueError("width must be >= 2")
    lo, hi = extremes
    # for v >= 0 the limit is v itself; for v < 0 it is ~v = -v - 1
    return width - 1 - max(hi, ~lo, 0).bit_length()


def shift_block(parts: tuple, shift: int, mode: RoundingMode, extremes: tuple) -> tuple:
    """Shift a block of mantissa arrays that share one exponent by ``shift``
    bits, in place; ``extremes`` are the block's :func:`block_extremes`.

    Left shifts (positive) are exact; right shifts round under ``mode``.  An
    all-zero block carries no scale and is left as it is.  Returns
    ``(applied, extremes)``: the shared exponent falls by ``applied``, and
    the extremes are those of the shifted block, which rounding keeps in
    order.  A left shift that carries a word past int64 wraps it, and the
    wrapped block is read again for its extremes.
    """
    lo, hi = extremes
    if shift == 0 or not (lo or hi):
        return 0, extremes
    if shift < 0:
        for p in parts:
            p[...] = shift_right_array(p, -shift, mode)
        return shift, tuple(shift_right_array(np.array(extremes), -shift, mode).tolist())
    for p in parts:
        p <<= shift
    lo, hi = lo << shift, hi << shift
    if lo < -(1 << 63) or hi >= 1 << 63:
        return shift, block_extremes(parts)
    return shift, (lo, hi)


# ---------------------------------------------------------------------------
# vectorized helpers (int64 words at every width up to 64 bits; float64
# words where :func:`word_type` makes them exact)
# ---------------------------------------------------------------------------

def shift_right_array(m: np.ndarray, s: int, mode: RoundingMode,
                      sticky: np.ndarray | None = None) -> np.ndarray:
    """``m * 2**-s`` rounded under ``mode``.  ``sticky`` marks words whose
    exact value goes on, nonzero, below the bits of ``m``: a remainder of
    one half is then above half."""
    if s <= 0:
        return m << (-s)
    if mode is RoundingMode.TRUNCATE:
        return m >> s
    if s > 63:                  # |m| <= 2**63 is at most one half: it rounds to 0
        return np.zeros_like(m)
    q = m >> s
    r = m - (q << s)
    half = 1 << (s - 1)
    up = (q & 1) == 1
    if sticky is not None:
        up |= sticky
    return q + ((r > half) | ((r == half) & up))


def saturate_array(raw: np.ndarray, fmt: FxpFormat):
    """Clamp to the format range, in place; returns ``(raw, overflow_count,
    extremes)``, the :func:`block_extremes` of the clamped words."""
    lo, hi = block_extremes(raw)
    if lo >= fmt.min_raw and hi <= fmt.max_raw:
        return raw, 0, (lo, hi)
    n = int(np.count_nonzero((raw > fmt.max_raw) | (raw < fmt.min_raw)))
    np.clip(raw, fmt.min_raw, fmt.max_raw, out=raw)
    return raw, n, (max(lo, fmt.min_raw), min(hi, fmt.max_raw))


def quantize_array(
    x: np.ndarray,
    fmt: FxpFormat,
    mode: RoundingMode = ENTRY_POLICY,
    dtype: type = np.int64,
) -> np.ndarray:
    """Vector quantization to mantissas of type ``dtype``: int64, or float64
    for a datapath whose :func:`word_type` it is.  Overflow is resolved on
    the rounded floats, so the one int64 cast never sees a value outside the
    format; float64 words are those rounded floats, saturated."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    with np.errstate(over="ignore"):        # past the float range: inf, saturated below
        scaled = np.ldexp(x, fmt.frac_bits)
    r = _round_in_place(scaled, mode)
    top = 2.0 ** (fmt.total_bits - 1)
    if r.max(initial=0.0) < top and r.min(initial=0.0) >= -top:
        return r.astype(dtype, copy=False)
    if dtype is np.float64:
        return np.clip(r, fmt.min_raw, fmt.max_raw)
    hi, lo = r >= top, r < -top
    raw = np.where(hi | lo, 0.0, r).astype(np.int64)
    raw[hi], raw[lo] = fmt.max_raw, fmt.min_raw
    return raw


def _round_in_place(values: np.ndarray, mode: RoundingMode) -> np.ndarray:
    """Any float64 ``values`` floored, or rounded half to even (``np.rint``),
    in place under ``mode``, and returned.  Exact: each value's floor and
    nearest integer are float64 values too."""
    return (np.rint if mode is RoundingMode.ROUND_HALF_EVEN else np.floor)(values, out=values)


def dequantize_array(raw: np.ndarray, fmt: FxpFormat) -> np.ndarray:
    """The values of the words ``raw`` in ``fmt``.  A float64 word may be
    -0.0 (``floor(-0.0)``, ``rint(-0.4)``); its value is 0, as an int64
    word's is."""
    out = np.asarray(raw, dtype=np.float64) * fmt.resolution
    out += 0.0
    return out


@contextlib.contextmanager
def _ufunc_buffer(size: int):
    """numpy's ufunc buffer set to ``size`` elements for the scope.  numpy
    copies an operand whose contiguous rows are shorter than the buffer
    (8192 elements by default) through it on every pass, so operations on
    rows of ``size`` words can run faster with a buffer of one row; entering
    the scope costs ~4 us, so each caller measures where it pays.  numpy 2
    keeps the buffer size in the ``errstate`` context, which sets it back to
    what the caller had on exit.  Bits never depend on it."""
    with np.errstate():
        np.setbufsize(size)
        yield


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only as a compiled table is: a write into it raises."""
    a.setflags(write=False)
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` if no write can reach it, else a read-only copy in its own
    memory order, which keeps the bits of a BLAS product with it."""
    link = a
    while isinstance(link, np.ndarray) and not link.flags.writeable:
        link = link.base
    return a if link is None else _read_only(a.copy(order="K"))


# ---------------------------------------------------------------------------
# exact wide accumulation in int64
# ---------------------------------------------------------------------------

_SAFE_BITS = 62     # sums of 2**guard products stay within 2**62; the spare
                    # bit of an int64 absorbs lazy digit sums and their carry
_FLOAT_EXACT_BITS = 52  # sums of 2**guard products within 2**52 are integers
                        # float64 holds exactly, so a matmul of them may run on BLAS


def _guard_bits(terms: int) -> int:
    return max(1, math.ceil(math.log2(max(terms, 2))))


def _float_exact(wa: int, wb: int, guard: int) -> bool:
    """Whether up to ``2**guard`` products of ``wa``- by ``wb``-bit words,
    and every partial sum of them, are integers that float64 holds exactly."""
    return wa + wb - 2 + guard <= _FLOAT_EXACT_BITS


def word_type(*products) -> type:
    """The word type of a compiled matrix datapath whose products are
    ``(wa, wb, guard)``: ``wa``- by ``wb``-bit words, up to ``2**guard`` of
    them summed (a guard of 0 is one product per output).  float64 where
    every product is exact in float64 (:func:`_float_exact`), else int64."""
    return (np.float64 if all(_float_exact(*p) for p in products) else np.int64)


def _limb_magnitudes(width: int, bits: int) -> list:
    """Largest ``|limb|`` of each limb :func:`_limbs` cuts from ``width``-bit
    words: ``2**bits - 1`` below the top, and for the signed top that of its
    most negative value."""
    n = max(1, -(-(width - 1) // bits))
    return [(1 << bits) - 1] * (n - 1) + [1 << (width - 1 - bits * (n - 1))]


def _lazy_digits_fit(mags_a: list, mags_b: list, guard: int, bits: int) -> bool:
    """Whether every digit stays inside an int64 while it is summed and then
    carried: digit p holds ``2**guard`` products of every limb pair with
    ``i + j = p``, plus the carry out of digit p - 1."""
    carry = 0
    for p in range(len(mags_a) + len(mags_b) - 1):
        pairs = sum(x * mags_b[p - i] for i, x in enumerate(mags_a)
                    if 0 <= p - i < len(mags_b))
        digit = (pairs << guard) + carry
        if digit >= 1 << 63:
            return False
        carry = -(-digit >> bits)
    return True


@functools.lru_cache(maxsize=256)
def _limb_plan(wa: int, wb: int, guard: int):
    """Limb width for exact int64 products of ``wa``-bit coefficient words
    by ``wb``-bit vector words, up to ``2**guard`` of them summed.

    Returns ``(bits, split_a)``: ``bits`` None when whole words already fit;
    otherwise the vector words are split into ``bits``-bit limbs, and the
    coefficient words as well when ``split_a``, which happens only where
    whole coefficient words leave no room beside them (about 55 bits and
    up).  Splitting the vector costs O(M) per run, where splitting the
    coefficients costs O(N M).

    Digits are summed lazily and carried once, at the output stage, so the
    plan guarantees from the limb magnitudes alone, whatever the data, that
    every digit stays below 2**63: ``2**guard`` products of each limb pair
    that meets it (the terms of a matrix product, or up to ``2**guard``
    accumulators summed by :meth:`_Wide.plus`), plus the carry from the digit
    below.  With whole coefficient words one pair meets each digit, within
    2**62.  With both split, at most two low-limb pairs share a digit at
    every width for up to 2**19 terms, and ``2 * 2**guard * (2**bits - 1)**2
    < 2**63`` because ``2 bits <= 62 - guard``; past that the plan narrows
    its limbs until the bound holds.
    """
    if wa + wb - 2 + guard <= _SAFE_BITS:
        return None, False
    split_a = wa - 1 + guard >= _SAFE_BITS
    bits = (_SAFE_BITS - guard) // 2 if split_a else _SAFE_BITS - guard - (wa - 1)
    while bits >= 1:
        mags_a = _limb_magnitudes(wa, bits) if split_a else [1 << (wa - 1)]
        if _lazy_digits_fit(mags_a, _limb_magnitudes(wb, bits), guard, bits):
            return bits, split_a
        bits -= 1
    raise ValueError(f"{guard} guard bits leave no room in int64")


def _limbs(words: np.ndarray, width: int, bits: int) -> list:
    """``words == sum(limb << (bits * i))``: unsigned low limbs, a signed top,
    as many as ``width``-bit words need."""
    n = max(1, -(-(width - 1) // bits))
    if n == 1:
        return [words]
    mask = (1 << bits) - 1
    return ([(words >> (bits * i)) & mask for i in range(n - 1)]
            + [words >> (bits * (n - 1))])


def _carry(digits: list, bits: int) -> list:
    """The same integer with every digit below the top in ``[0, 2**bits)``
    and a signed top: one carry pass, into new arrays."""
    d, mask = list(digits), (1 << bits) - 1
    for i in range(len(d) - 1):
        d[i + 1] = d[i + 1] + (d[i] >> bits)
        d[i] = d[i] & mask
    return d


class _Wide:
    """Exact integers ``sum(digits[i] << (bits * i))`` in int64 arrays.

    The digits are lazy sums of limb products, of either sign and never
    carried here: :func:`_limb_plan` bounds them, and :func:`_requantize`
    carries once per accumulator.
    """

    __slots__ = ("digits", "bits")

    def __init__(self, digits: list, bits: int):
        self.digits = digits
        self.bits = bits

    def __getitem__(self, rows) -> "_Wide":
        """The accumulators of ``rows``, copied, as :func:`_requantize`
        spends what it is given."""
        return _Wide([d[rows].copy() for d in self.digits], self.bits)

    def plus(self, other: "_Wide", sign: int = 1) -> "_Wide":
        """``self + sign * other``, both from the same limb plan, whose
        guard bits cover the terms of the sum: digit by digit, no carry."""
        op = np.add if sign > 0 else np.subtract
        return _Wide([op(x, y) for x, y in zip(self.digits, other.digits)], self.bits)

    def plus_shifted(self, words: np.ndarray, shift: int) -> "_Wide":
        """``self + words * 2**shift`` for int64 ``words`` and ``shift >= 0``,
        carried: the words' bits join the digits at the offset of the shift,
        and no product is formed.  The digits are carried and sign-extended
        first, so every digit the words reach holds less than ``2**bits``
        and the sums stay inside an int64."""
        bits, mask = self.bits, (1 << self.bits) - 1
        c, e = divmod(shift, bits)
        # words * 2**e from digit c up: their low bits - e bits, then limbs
        add = [(words & (mask >> e)) << e]
        add += _limbs(words >> (bits - e), 64 - bits + e, bits)
        d = _carry(self.digits, bits)
        while len(d) <= c + len(add):
            d.append(d[-1] >> bits)
            d[-2] = d[-2] & mask
        for i, x in enumerate(add):
            d[c + i] = d[c + i] + x
        return _Wide(d, bits)


def _mac(a: np.ndarray, b: np.ndarray, wa: int, wb: int, guard: int, op) -> _Wide:
    """Exact ``op(a, b)`` of ``wa``-bit coefficient words by ``wb``-bit
    vector words: :func:`_macs` of the one coefficient operand."""
    return _macs([a], b, wa, wb, guard, op)[0]


def _macs(coefs: list, b: np.ndarray, wa: int, wb: int, guard: int, op) -> list:
    """Exact ``op(a, b)`` for each ``a`` of ``coefs``, ``wa``-bit coefficient
    words, by the same ``wb``-bit vector words ``b``, where ``op`` is
    ``np.matmul`` (summing at most ``2**guard`` products) or ``np.multiply``,
    computed in int64 limb by limb.  A ``guard`` above 0 with ``np.multiply``
    leaves room for :meth:`_Wide.plus` to sum up to ``2**guard`` such
    products.  Each limb product lands in its digit uncarried.  ``b`` is
    split into limbs once for all the coefficient operands.  Where whole
    words fit (:func:`_limb_plan` gives no limb width), each accumulator is
    the one ``op(a, b)`` in the words' type.

    Float64 words (a matrix datapath's :func:`word_type`) take that branch:
    their widths keep every sum within ``2**_FLOAT_EXACT_BITS``, so every
    word, product and partial sum is an integer that float64 holds exactly,
    in any order of summation and with or without fused multiply-adds, and a
    matmul runs as one BLAS product with the int64 product's value.  They
    are refused at other widths."""
    if b.dtype == np.float64 and not _float_exact(wa, wb, guard):
        raise ValueError(f"float64 words are not exact for {wa}- by {wb}-bit "
                         f"products with {guard} guard bits")
    bits, split_a = _limb_plan(wa, wb, guard)
    if bits is None:
        return [_Wide([op(a, b)], _SAFE_BITS) for a in coefs]
    lb = _limbs(b, wb, bits)
    accs = []
    for a in coefs:
        la = _limbs(a, wa, bits) if split_a else [a]
        digits = [None] * (len(la) + len(lb) - 1)
        for i, x in enumerate(la):
            for j, v in enumerate(lb):
                term = op(x, v)
                if digits[i + j] is None:
                    digits[i + j] = term
                else:
                    digits[i + j] += term
        accs.append(_Wide(digits, bits))
    return accs


def _collapse(d: list, bits: int, shift: int):
    """The carried digits ``d`` from the one holding bit ``shift - 1`` (or
    the top one, if that is lower) up as one int64 word, and that digit's
    index: ``(high, c)``, or None where they do not make one int64 or the
    shift left below digit ``c`` is not in ``[0, 63)``."""
    c = min(max(shift - 1, 0) // bits, len(d) - 1)
    if not 0 <= shift - bits * c < 63:
        return None
    top, room = d[-1], 63 - bits * (len(d) - 1 - c)
    if c < len(d) - 1 and not (room >= 0 and top.min(initial=0) >= -(1 << room)
                               and top.max(initial=0) < 1 << room):
        return None
    high = top
    for x in reversed(d[c:-1]):
        high = (high << bits) + x
    return high, c


def _requantize(acc: _Wide, shift: int, mode: RoundingMode, fmt: FxpFormat):
    """``acc * 2**-shift`` rounded under ``mode`` and saturated to ``fmt``.

    A float64 accumulator (one digit, from float64 words) is spent: its
    digit is scaled by ``2**-shift`` and floored or rounded half to even
    (``np.rint``) in place, all exact on its integers, and becomes the
    float64 output words.

    Otherwise the digits are carried once.  Where the digits from the one
    holding bit ``shift - 1`` (or the top one, if that is lower) up make one
    int64, they collapse into it (:func:`_collapse`), and the output is one
    shift, rounding and saturation, a one-digit accumulator's whole path;
    round-half-even takes its sticky bit from the digits below.  Left shifts,
    shifts of 63 bits or more past the top digit, and outputs whose high
    digits do not fit one int64 take the bit window below.  Returns the
    words, in the accumulator's type, and the number of saturated outputs.
    """
    if acc.digits[0].dtype == np.float64:
        words = acc.digits[0]           # spent: the output words are formed in it
        if shift:
            # exact: a power of two scales integers below 2**52 with no rounding
            words *= 2.0 ** -shift
        _round_in_place(words, mode)
        return saturate_array(words, fmt)[:2]
    bits, mask = acc.bits, (1 << acc.bits) - 1
    d = _carry(acc.digits, bits)
    collapsed = _collapse(d, bits, shift)
    if collapsed is not None:
        high, c = collapsed
        sticky = None
        if mode is RoundingMode.ROUND_HALF_EVEN and c:
            sticky = _any_below(d, bits, bits * c)
        return saturate_array(shift_right_array(high, shift - bits * c, mode,
                                                sticky), fmt)[:2]
    if shift < 0:                        # a left shift: zero digits below
        pad = -(shift // bits)
        d = [np.zeros_like(d[0]) for _ in range(pad)] + d
        shift += pad * bits
    sign = shift + fmt.total_bits - 1    # the output word's sign bit
    while bits * (len(d) - 1) <= sign:   # sign-extend so it sits below the top
        d.append(d[-1] >> bits)
        d[-2] = d[-2] & mask
    if mode is RoundingMode.ROUND_HALF_EVEN and shift > 0:
        inc = _bit(d, bits, shift - 1) & (_bit(d, bits, shift)
                                         | _any_below(d, bits, shift - 1))
        c, e = divmod(shift, bits)
        d[c] = d[c] + (inc << e)
        d = _carry(d, bits)
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


def _add_floor(addend: np.ndarray, acc: _Wide, sign: int, shift: int,
               fmt: FxpFormat, out: np.ndarray) -> int:
    """Write ``addend + floor(sign * acc * 2**-shift)`` into ``out``, for the
    caller to saturate to ``fmt``.

    A floor moves no integer across the binary point, so this is
    ``floor((addend * 2**shift + sign * acc) * 2**-shift)`` with the addend
    kept out of the accumulator: the truncated output stage of a sum whose
    integer term bypasses the multiplier.  ``acc`` is limbs: a sum of
    products that fit one int64 is one int64 addition of the shifted
    product, which its caller forms in place.  Where the floored
    accumulator collapses into one int64 (:func:`_collapse`), at least one
    bit is floored away below it, and ``fmt`` is at most 61 bits wide, the
    sum is one int64 addition as well, written as it is: addend words within
    four times the format's range cannot carry it past int64.  Otherwise the
    addend joins the accumulator at the digit offset of ``shift``
    (:meth:`_Wide.plus_shifted`), and :func:`_requantize` truncates the sum
    and saturates it to ``fmt`` here; saturating those words again leaves
    them as they are.  ``out`` may be ``addend`` itself.  Returns the number
    of words saturated here.
    """
    if sign < 0:
        acc = _Wide([-x for x in acc.digits], acc.bits)
    d = _carry(acc.digits, acc.bits)
    collapsed = _collapse(d, acc.bits, shift)
    if collapsed is not None and fmt.total_bits <= 61:
        high, c = collapsed
        below = shift - acc.bits * c
        if below:               # |high >> below| <= 2**62: it halves an int64
            np.add(addend, high >> below, out=out)
            return 0
    out[...], overflows = _requantize(_Wide(d, acc.bits).plus_shifted(addend, shift),
                                      shift, RoundingMode.TRUNCATE, fmt)
    return overflows


def _bit(digits: list, bits: int, j: int) -> np.ndarray:
    """Bit ``j`` of carried digits."""
    i, e = divmod(j, bits)
    return (digits[i] >> e) & 1


def _any_below(digits: list, bits: int, j: int) -> np.ndarray:
    """Whether any bit below bit ``j`` of carried digits is set."""
    i, e = divmod(j, bits)
    out = (digits[i] & ((1 << e) - 1)) != 0
    for d in digits[:i]:
        out |= d != 0
    return out
