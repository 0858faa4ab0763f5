"""Python-int model of the fixed-point rules, the oracle tests compare against.

Scalar copies of the rounding, saturation and butterfly rules that
``ftsinv.fxp`` and ``ftsinv.fft_inversion`` apply to int64 arrays, and of
the word-level matrix routes of ``ftsinv.matrix_inversion``.  Python
integers are exact at any width, so every product and sum here is the exact
one.  The last functions read package results in double precision: the
residuals and condition of SVD factors and the value of an FFT result.
Nothing in the package calls this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ftsinv.fxp import (
    DATAPATH_POLICY,
    ENTRY_POLICY,
    FxpFormat,
    RoundingMode,
)


def value_of(fmt: FxpFormat, raw: int) -> float:
    return raw * fmt.resolution


@dataclass(frozen=True)
class FxpValue:
    raw: int
    fmt: FxpFormat

    def __post_init__(self):
        if not (self.fmt.min_raw <= self.raw <= self.fmt.max_raw):
            raise ValueError(f"raw {self.raw} outside {self.fmt.describe()}")

    @property
    def value(self) -> float:
        return value_of(self.fmt, self.raw)


def rshift_round(v: int, s: int, mode: RoundingMode) -> int:
    """Round ``v / 2**s`` to an integer under ``mode``; ``s < 0`` shifts left."""
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


def apply_overflow(raw: int, fmt: FxpFormat):
    """Saturate ``raw`` to the format range; returns (raw, overflowed)."""
    if fmt.min_raw <= raw <= fmt.max_raw:
        return raw, False
    return (fmt.max_raw if raw > fmt.max_raw else fmt.min_raw), True


def quantize(x: float, fmt: FxpFormat, mode: RoundingMode = ENTRY_POLICY) -> FxpValue:
    """Quantize a real number to the nearest representable fixed-point value."""
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    scaled = Fraction(x) * fmt.scale            # exact at any magnitude
    if mode is RoundingMode.ROUND_HALF_EVEN:
        raw = round(scaled)
    else:
        raw = math.floor(scaled)
    return FxpValue(apply_overflow(raw, fmt)[0], fmt)


def least_entry_exponent(peak: float, width: int) -> tuple:
    """``(g, in_window)``: the least exponent ``g`` at which ``peak * 2**-g``
    rounds half to even to at most ``limit = 2**(width - 1) - 1``, found by
    search on the exact value, and whether ``peak`` lies in the window
    ``(limit, limit + 1/2) * 2**g``, where it rounds down to ``limit``.

    ``width`` is the entry's word width less its headroom.  Rounding is
    monotone, so the peak decides for a whole block; the search starts
    where the peak scales past ``2**width`` and steps up."""
    limit = (1 << (width - 1)) - 1
    p = Fraction(peak)
    g = p.numerator.bit_length() - p.denominator.bit_length() - 1 - width
    while round(p / Fraction(2) ** g) > limit:
        g += 1
    return g, limit < p / Fraction(2) ** g < limit + Fraction(1, 2)


def entry_block_words(parts, exponent: int) -> list:
    """Each part's values times ``2**-exponent``, rounded half to even
    exactly."""
    scale = Fraction(2) ** -exponent
    return [[round(Fraction(float(v)) * scale) for v in part] for part in parts]


def fxp_mul(a: FxpValue, b: FxpValue, out_fmt: FxpFormat,
            mode: RoundingMode = DATAPATH_POLICY) -> FxpValue:
    """Exact product realigned and rounded to ``out_fmt``."""
    shift = a.fmt.frac_bits + b.fmt.frac_bits - out_fmt.frac_bits
    raw = rshift_round(a.raw * b.raw, shift, mode)
    return FxpValue(apply_overflow(raw, out_fmt)[0], out_fmt)


def fxp_add(a: FxpValue, b: FxpValue) -> FxpValue:
    """Exact sum folded back into the common format."""
    if a.fmt != b.fmt:
        raise ValueError("fxp_add requires identical formats")
    return FxpValue(apply_overflow(a.raw + b.raw, a.fmt)[0], a.fmt)


def butterfly_radix2(a, b, w, data_fmt: FxpFormat, twiddle_fmt: FxpFormat):
    """Radix-2 butterfly on complex mantissa pairs.

    ``a``, ``b`` are (re, im) mantissa pairs in the data format, ``w`` a
    (re, im) twiddle pair in the twiddle format.  ``a 2**ft +- w b`` is
    formed exactly, truncated by ``ft`` bits and saturated to the data
    format once.  Returns ``(a + w*b, a - w*b, overflow_count)``.
    """
    ft = twiddle_fmt.frac_bits
    ar, ai = int(a[0]), int(a[1])
    br, bi = int(b[0]), int(b[1])
    wr, wi = int(w[0]), int(w[1])
    t_re = br * wr - bi * wi
    t_im = br * wi + bi * wr
    outs, overflow = [], 0
    for sign in (1, -1):
        out = []
        for x, t in ((ar, t_re), (ai, t_im)):
            raw, over = apply_overflow(((x << ft) + sign * t) >> ft, data_fmt)
            out.append(raw)
            overflow += over
        outs.append(tuple(out))
    return outs[0], outs[1], overflow


def bank_map(logical_index: int, n_points: int):
    """(bank, address) of a logical index in the two-bank store: the bank is
    the parity of the index's set bits, the address the index over two."""
    if not (0 <= logical_index < n_points):
        raise IndexError(f"index {logical_index} outside [0, {n_points})")
    return bin(logical_index).count("1") & 1, logical_index >> 1


def int64(v: int) -> int:
    """``v`` wrapped to a 64-bit two's-complement word."""
    return (v + (1 << 63)) % (1 << 64) - (1 << 63)


def block_headroom(words, width: int) -> int:
    """``fxp.headroom(fxp.block_extremes(words), width)`` on Python ints:
    the redundant sign bits of the largest-magnitude word, ``width - 1`` for
    an all-zero block and negative for a word past the width."""
    return width - 1 - max([v if v >= 0 else ~v for v in words] + [0]).bit_length()


def bfp_stages(plan, re, im):
    """The radix-2 stage loop of ``plan`` on Python ints, one scalar butterfly
    at a time, with its block normalization.

    Every stage decides a shift from the block entering it, its headroom
    less ``plan.headroom_bits``.  ``pre`` shifts the entering block by it and
    ``post`` the stage's outputs; ``fixed`` shifts nothing.  A left shift is
    exact and a right shift truncates; an all-zero block is not shifted and
    keeps its exponent.  The store holds int64 words and a shift does not
    saturate, so a left shift that carries a word past 64 bits wraps it
    (``post`` below two headroom bits, at 63 and 64 bits).  Returns the words
    in natural order as (re, im) pairs, the block exponent after each stage
    and the saturated outputs.
    """
    n, width, target = plan.n_points, plan.data_format.total_bits, plan.headroom_bits
    stages = n.bit_length() - 1
    brev = [int(format(i, f"0{stages}b")[::-1], 2) for i in range(n)] if stages else [0]
    words = [(int(re[i]), int(im[i])) for i in brev]
    # the twiddle ROM, exp(-2 pi i k / n): one array call per part, as the
    # ROM's doubles are made, each rounded half to even
    ang = -2.0 * np.pi * np.arange(n // 2) / n
    tw_re, tw_im = ([quantize(float(c), plan.twiddle_format,
                              RoundingMode.ROUND_HALF_EVEN).raw for c in part(ang)]
                    for part in (np.cos, np.sin))

    def shifted(block, shift):
        if not any(v for w in block for v in w):
            return block, 0
        return [tuple(int64(rshift_round(v, -shift, DATAPATH_POLICY)) for v in w)
                for w in block], shift

    exponent, exponents, overflows = 0, [], 0
    for s in range(stages):
        shift = block_headroom([v for w in words for v in w], width) - target
        if plan.mode == "pre":
            words, applied = shifted(words, shift)
            exponent -= applied
        h, step = 1 << s, n >> (s + 1)
        for base in range(0, n, 2 * h):
            for k in range(h):
                w = (int(tw_re[k * step]), int(tw_im[k * step]))
                words[base + k], words[base + k + h], nov = butterfly_radix2(
                    words[base + k], words[base + k + h], w, plan.data_format,
                    plan.twiddle_format)
                overflows += nov
        if plan.mode == "post":
            words, applied = shifted(words, shift)
            exponent -= applied
        exponents.append(exponent)
    return words, exponents, overflows


def _output_stage(exact, shift: int, mode: RoundingMode, fmt: FxpFormat):
    """The exact integers ``exact`` rounded ``shift`` bits under ``mode`` and
    saturated to ``fmt``: (words, overflow count)."""
    outs = [apply_overflow(rshift_round(v, shift, mode), fmt) for v in exact]
    return [word for word, _ in outs], sum(over for _, over in outs)


def _dot(a, b) -> int:
    return sum(p * q for p, q in zip(a, b))


def _entry_words(values, fmt: FxpFormat) -> list:
    return [quantize(float(v), fmt).raw for v in values]


def pinv_words(adag, y, fmts, mode: RoundingMode = DATAPATH_POLICY):
    """The pseudo-inverse route ``x = A_dagger y`` on Python ints.

    ``fmts`` are the (coefficient, y, output) formats.  The entries of
    ``adag`` and ``y`` are quantized into theirs under the entry policy;
    each output is its row's exact sum of products, rounded under ``mode``
    to the output format and saturated.  Returns (output words, overflow
    count).
    """
    mat_fmt, vec_fmt, out_fmt = fmts
    y_words = _entry_words(y, vec_fmt)
    return _output_stage([_dot(_entry_words(row, mat_fmt), y_words) for row in adag],
                         mat_fmt.frac_bits + vec_fmt.frac_bits - out_fmt.frac_bits,
                         mode, out_fmt)


def svd_words(v, ut, zeta, y, fmts: dict, mode: RoundingMode = DATAPATH_POLICY):
    """The penalized-SVD route ``x = (V Z)(U^T y)`` on Python ints, over the
    lanes where ``zeta`` is nonzero.

    ``fmts`` maps each tensor to its format: ``"y"``, ``"u"`` (U^T),
    ``"o2"`` (U^T y), ``"v"``, ``"z"``, ``"o1"`` (V Z) and ``"x"``.  V,
    U^T, ``zeta`` and ``y`` are quantized into theirs under the entry
    policy.  Product 2 takes each kept row of U^T by y, product 1 each V
    word by its lane's z word and product 3 each row of O1 by O2; each
    output is the exact sum, rounded under ``mode`` to its format and
    saturated.  Returns (x words, overflow counts of products 1, 2 and 3).
    """
    kept = [j for j, value in enumerate(zeta) if value != 0]
    frac = {name: fmt.frac_bits for name, fmt in fmts.items()}
    y_words = _entry_words(y, fmts["y"])
    o2, over2 = _output_stage([_dot(_entry_words(ut[j], fmts["u"]), y_words) for j in kept],
                              frac["u"] + frac["y"] - frac["o2"], mode, fmts["o2"])
    z_words = _entry_words([zeta[j] for j in kept], fmts["z"])
    o1, over1 = [], 0
    for row in v:
        v_words = _entry_words([row[j] for j in kept], fmts["v"])
        words, over = _output_stage([p * q for p, q in zip(v_words, z_words)],
                                    frac["v"] + frac["z"] - frac["o1"], mode, fmts["o1"])
        o1.append(words)
        over1 += over
    x, over3 = _output_stage([_dot(row, o2) for row in o1],
                             frac["o1"] + frac["o2"] - frac["x"], mode, fmts["x"])
    return x, (over1, over2, over3)


def limb_plan(wa: int, wb: int, guard: int):
    """The limb plan of ``wa``- by ``wb``-bit words, ``2**guard`` products
    summed, on Python ints: ``(bits, split_a)`` as
    :func:`~ftsinv.fxp._limb_plan` returns it, from the same start width
    narrowed until the worst-case lazy digits stay below 2**63.

    Limbs below a word's top are unsigned ``bits``-bit values and the top
    holds the rest of the signed word, so each limb's largest magnitude is
    ``2**bits - 1`` or the top's most negative value.  Digit p sums
    ``2**guard`` products of every limb pair with ``i + j = p`` at those
    magnitudes, plus the carry out of digit p - 1, the ceiling of that digit
    over ``2**bits``."""
    if wa + wb - 2 + guard <= 62:
        return None, False
    split_a = wa - 1 + guard >= 62
    bits = (62 - guard) // 2 if split_a else 62 - guard - (wa - 1)
    for bits in range(bits, 0, -1):
        peaks_a = _limb_peaks(wa, bits) if split_a else [2 ** (wa - 1)]
        peaks_b = _limb_peaks(wb, bits)
        carry, fits = 0, True
        for p in range(len(peaks_a) + len(peaks_b) - 1):
            digit = carry + 2 ** guard * sum(
                peaks_a[i] * peaks_b[p - i] for i in range(len(peaks_a))
                if 0 <= p - i < len(peaks_b))
            fits = fits and digit < 2 ** 63
            carry = -(-digit // 2 ** bits)
        if fits:
            return bits, split_a
    raise ValueError(f"{guard} guard bits leave no room in int64")


def _limb_peaks(width: int, bits: int) -> list:
    """The largest magnitude of each ``bits``-bit limb of ``width``-bit
    words, lowest first."""
    count = max(1, math.ceil((width - 1) / bits))
    return [2 ** bits - 1] * (count - 1) + [2 ** (width - 1 - bits * (count - 1))]


def svd_residuals(f, a) -> dict:
    """Orthogonality and reconstruction residuals (max norms) of the SVD
    factors ``f`` of the matrix ``a``."""
    r = f.rank_bound
    utu = f.u.T @ f.u - np.eye(r)
    vtv = f.v.T @ f.v - np.eye(r)
    rec = (f.u * f.xi) @ f.v.T - a
    denom = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
    return {
        "orth_u": float(np.max(np.abs(utu))),
        "orth_v": float(np.max(np.abs(vtv))),
        "reconstruction_rel": float(np.max(np.abs(rec))) / denom,
    }


def gram_condition(f) -> float:
    """Condition number of the normal-equations matrix ``A^T A`` from the
    SVD factors ``f`` of ``A``; infinite when a singular value is zero."""
    nz = f.xi[f.xi > 0]
    if nz.size == 0 or nz.size < f.xi.size:
        return math.inf
    return float(f.xi[0] / nz[-1]) ** 2


def to_complex(res) -> np.ndarray:
    """The complex values an ``FftResult`` holds: its words times 2**exponent."""
    return (res.re + 1j * res.im) * 2.0 ** res.exponent
