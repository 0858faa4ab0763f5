"""Memory-based radix-2 FFT on block-floating-point data, and the cosine
transform route for spectrum reconstruction.

The transform emulates a memory-based radix-2 engine that issues one
butterfly per cycle from two memory banks.  Its words enter and leave through
:class:`BankedMemory`, the two-bank port whose parity map puts both operands
of every butterfly in distinct banks; that conflict freedom is modelled,
not walked: the ``_parity`` and ``bank_map`` tests check it.  The port holds
the one store: its scatter is the load, into bit-reversed order, and its
gather the read-out.  Each stage's n/2 butterflies run as one vectorized
step on a view of that store, with the same arithmetic, the same order of
rounding and saturation, and the same cycle count in telemetry (n/2 per
stage) as the one-per-cycle schedule.
The store is laid out so that every stage's operands run along a long
contiguous axis: the first half of the stages works on its transpose, whose
rows they pair, and the second half on the store itself, whose blocks of
h >= sqrt(n) words they pair.  A block normalization stage (before or after
the butterflies of each stage) maintains headroom while a shared exponent
tracks the scale; it acts on the whole block, so the layout does not enter
it.

Normalization modes
-------------------
``pre``    inputs of stage T are shifted to the target headroom using the
           leading bit measured on the block entering the stage (the
           feedback-coupled scheme; exact normalization every stage).
``post``   outputs of stage T are shifted by an amount decided from the block
           that *entered* stage T, so the growth of a stage is corrected one
           stage late.  This removes the scheduling feedback loop but needs
           3 headroom bits to absorb two consecutive stages of growth
           (per-stage growth factor 1 + sqrt(2) = 2.414).
``fixed``  plain fixed point, no normalization (overflow is possible and is
           counted in telemetry).

A butterfly output ``(a 2**ft +- w b) >> ft`` is formed as
``a + (+-w b >> ft)``: the datapath truncates, and a floor moves no integer
across the binary point, so ``a`` bypasses the multiplier as in a BFP engine
(Welch, 1969).  ``w b`` sums two products.  Where they fit one int64, as
:func:`~ftsinv.fxp._limb_plan` decides, a stage forms them with
``np.multiply(..., out=)`` in three half-store scratch planes and writes its
outputs from there, so it allocates nothing; wider words take the exact limb
MAC of :mod:`ftsinv.fxp`.  A stage's outputs are saturated once, as one
block, which yields the block's least and greatest words; the block exponent
is decided from those, carried from stage to stage, so no stage reads the
store again to normalize it.

An engine's ROMs and memories are fixed when it is synthesized, by its size
and word formats, so each is built once, keyed by what it is built from, and
every plan with that key shares it.  A plan's word type
(:attr:`FftPlan.word_type`) is int32 where its widths prove that every
integer a stage forms fits one, else int64, and float64 on an exact plan.
The read-only twiddle and DCT tables exist once per size and twiddle format
(:func:`_tables`), and the stages' twiddle columns once per word type as
well (:func:`_columns`).  The port's store and the scratch planes exist once
per size and word type (:func:`_workspace`), so a compiled FFT is not
re-entrant: two threads may not run transforms of one size and word type at
once.  No result aliases them: ``fft_bfp`` and ``fft_bfp_block`` copy their
words out as int64 (float64 on an exact plan), and the DCT routes read the
store into new arrays.

numpy's ufunc iterator copies every operand whose contiguous rows are shorter
than its buffer (8192 elements) through that buffer, and the stages' operands
are rows of n / 2**split or blocks of h words, so with one-word products the
stage loop sets the buffer to its shortest row, and sets it back on return:
``reconstruct_fft`` at n = 65 536 takes 0.86-0.91x the time at 16 bits.  Limb
plans and rows under 64 words keep numpy's default, because there the
row-sized buffer measured no clear gain (:func:`_fft_core` gives the figures).

Each entry point runs one body for both kinds of plan; a double-precision
plan differs only in its entry, its word type (float64 words and scratch
planes, with no floor or saturation) and its lack of block normalization,
and the stage loop :func:`_fft_core` alone writes telemetry.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fxp import (
    DATAPATH_POLICY,
    ENTRY_POLICY,
    FxpFormat,
    _add_floor,
    _frac_bits,
    _limb_plan,
    _mac,
    _macs,
    _read_only,
    _requantize,
    _round_in_place,
    _ufunc_buffer,
    block_extremes,
    headroom,
    quantize_array,
    saturate_array,
    shift_block,
)
from .optics import Interferogram, SpectralGrid, Spectrum

MODES = ("pre", "post", "fixed")


def _parity(idx: np.ndarray) -> np.ndarray:
    """Parity of the population count of each index, as int64."""
    return np.bitwise_count(idx).astype(np.int64) & 1


@functools.lru_cache(maxsize=8)
def _port_map(n_points: int) -> tuple:
    """The two-bank map as the port reads it: ``(par, adr)``, the bank and
    address of every logical index.

    Index ``i`` sits in bank ``parity(i)``, the XOR fold of its bits, at
    address ``i >> 1``.  Butterfly partners at any stage differ in exactly
    one index bit, so they always land in different banks; indices 2a and
    2a + 1 share address a, one per bank, so the map is bijective.  The
    ``_parity`` and ``bank_map`` tests check both; read in full, the map is
    the identity permutation of the store.  It depends on the size alone, so
    it is computed once per size and kept read-only.
    """
    idx = np.arange(n_points)
    return tuple(map(_read_only, (_parity(idx).astype(np.int8), idx >> 1)))


class BankedMemory:
    """Two-bank complex word store: the transform's input/output port.

    Logical index ``i`` sits in bank ``parity(i)`` at address ``i >> 1``
    (:func:`_port_map`), so a full butterfly issue needs one read per bank
    per cycle; the ``_parity`` and ``bank_map`` tests check that layout.
    ``re`` and ``im`` are the one store the stage loop works on, in one word
    type.  The transforms keep one port per size and word type
    (:func:`_workspace`), so it persists as an engine's memory does, and
    every transform loads it and reads it out once.  :meth:`scatter`, the
    load, writes natural-order words of any dtype into the slots the stages
    read them from (:func:`_load_order`), and :meth:`gather`, the read-out,
    hands over the store itself, which the next load overwrites.  Both
    refuse any ``(par, adr)`` list other than the full map.
    """

    def __init__(self, n_points: int, dtype):
        self._par, self._adr = _port_map(n_points)
        self._order = _load_order(n_points)
        self.re, self.im = np.empty(n_points, dtype), np.empty(n_points, dtype)

    def _check_full_map(self, par, adr) -> None:
        for got, full in ((par, self._par), (adr, self._adr)):
            if got is not full and not np.array_equal(got, full):
                raise ValueError("the port moves the whole store: pass its full "
                                 "(bank, address) map")

    def gather(self, par, adr):
        self._check_full_map(par, adr)
        return self.re, self.im

    def scatter(self, par, adr, re, im) -> None:
        self._check_full_map(par, adr)
        # mode="clip" writes into the store unbuffered; a permutation never clips
        for part, store in ((re, self.re), (im, self.im)):
            np.asarray(part, dtype=store.dtype).take(self._order, out=store, mode="clip")


def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Each index of a power-of-two ``n`` with its bits reversed."""
    return np.arange(n).reshape((2,) * (n.bit_length() - 1)).transpose().ravel()


@functools.lru_cache(maxsize=8)
def _load_order(n: int) -> np.ndarray:
    """The order the port loads the natural-order input in: bit-reversed, and
    transposed to the ``(2**split, n / 2**split)`` array that the first
    ``split = n_stages // 2`` stages run on; read-only, built once per size."""
    rows = 1 << ((n.bit_length() - 1) // 2)
    return _read_only(_bit_reverse_permutation(n).reshape(-1, rows).T.ravel())


@functools.lru_cache(maxsize=8)
def _workspace(n_points: int, word) -> tuple:
    """The engine's memories for ``n_points``-word transforms on ``word``
    words: the port (:class:`BankedMemory`) and the three n/2-word scratch
    planes of :func:`_butterflies`, allocated once per size and word type and
    reused by every transform and every plan of that size; the eight most
    recently used are kept."""
    return BankedMemory(n_points, word), tuple(np.empty(n_points // 2, word)
                                               for _ in range(3))


@functools.lru_cache(maxsize=32)
def _tables(n: int, twiddle_format: FxpFormat | None) -> tuple:
    """The ``n``-point ROMs ``(tw_re, tw_im, dct_cos, dct_sin)``, twiddles
    ``exp(-2 pi i k / n)`` and DCT twiddles ``exp(i pi k / 2n)``: words in
    ``twiddle_format`` rounded under ``ENTRY_POLICY``, doubles where it is
    None.  Read-only, shared by every plan of the size and twiddle format."""
    ang = -2.0 * np.pi * np.arange(n // 2) / n
    angd = np.pi * np.arange(n) / (2.0 * n)
    tables = (np.cos(ang), np.sin(ang), np.cos(angd), np.sin(angd))
    if twiddle_format is not None:
        tables = (quantize_array(t, twiddle_format, ENTRY_POLICY) for t in tables)
    return tuple(map(_read_only, tables))


@functools.lru_cache(maxsize=32)
def _columns(n: int, twiddle_format: FxpFormat | None, word) -> tuple:
    """Every stage's twiddle column pair ``(wr, wi)``: stage s reads the
    h = 2**s entries ``k n / 2h`` of :func:`_tables` as ``(h, 1)`` columns of
    ``word`` words, read-only and contiguous, ``n - 1`` words per table."""
    stages = n.bit_length() - 1
    idx = np.concatenate([np.arange(0, n // 2, n >> (s + 1)) for s in range(stages)])
    wr, wi = (_read_only(t.take(idx).astype(word, copy=False)[:, None])
              for t in _tables(n, twiddle_format)[:2])
    return tuple((wr[h - 1: 2 * h - 1], wi[h - 1: 2 * h - 1])
                 for h in (1 << s for s in range(stages)))


@dataclass(frozen=True)
class FftPlan:
    """Immutable transform descriptor: size, formats, normalization mode.

    ``data_format is None`` selects the double-precision reference: every
    entry point runs the same body, and the same butterfly schedule, on
    float64 words, with float products and no block exponent.  A plan is a
    value, its five settings alone: plans with equal settings compare and
    hash equal, and read one set of tables, columns and memories
    (:func:`_tables`, :func:`_columns`, :func:`_workspace`).
    """

    n_points: int
    data_format: FxpFormat | None
    twiddle_format: FxpFormat | None
    mode: str
    headroom_bits: int

    @classmethod
    def make(
        cls,
        n_points: int,
        bits: int | None = None,
        twiddle_bits: int | None = None,
        mode: str = "post",
        headroom_bits: int | None = None,
    ) -> "FftPlan":
        """The plan of ``n_points`` points at ``bits`` (None: double
        precision), the one place an FFT setting is fitted or refused; None
        is unset.  An unset ``twiddle_bits`` is ``bits``.  An unset
        ``headroom_bits`` is 3 fitted down to ``bits - 3``, since
        :func:`idct2_via_fft` enters its words one headroom bit above the
        plan's; a given one is used as given.  A double-precision plan has
        no words, so it refuses both settings and keeps headroom 3."""
        if n_points < 2 or (n_points & (n_points - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 2, got {n_points}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if bits is None:
            if (twiddle_bits, headroom_bits) != (None, None):
                raise ValueError("twiddle_bits and headroom_bits need bits: a "
                                 "double-precision plan has no words")
            return cls(n_points, None, None, mode, 3)
        if headroom_bits is None:
            headroom_bits = min(3, bits - 3)
        if bits < headroom_bits + 2:
            raise ValueError("data width leaves no mantissa below the headroom")
        if headroom_bits < 0:
            raise ValueError("headroom_bits out of range")
        # frac = width-2 so the +-1.0 twiddles are exactly representable
        tw = bits if twiddle_bits is None else twiddle_bits
        return cls(n_points, FxpFormat(bits, bits - 1), FxpFormat(tw, tw - 2), mode,
                   headroom_bits)

    @property
    def exact(self) -> bool:
        return self.data_format is None

    @property
    def n_stages(self) -> int:
        return self.n_points.bit_length() - 1

    @property
    def word_type(self) -> type:
        """The type of the words the stages run on: float64 on an exact plan,
        and on a fixed-point plan int32 where the widths prove that every
        integer a stage forms fits one, else int64.

        Let ``wd`` and ``wt`` be the data and twiddle widths and
        ``ft = wt - 2`` the twiddle fraction, so every twiddle word is at
        most ``2**ft`` in magnitude.  Every word entering a stage is an
        ``e``-bit signed word, ``e = wd`` except in post mode below two
        headroom bits, where ``e = wd + 2 - headroom_bits``: a stage grows
        its block by under two bits, ``|a| + 2 |b| < 4 * 2**k`` for words
        in ``[-2**k, 2**k)``, and the post shift, decided from the block
        that entered the stage, moves the outputs up to the target headroom
        of the entering block, so up to ``2 - headroom_bits`` bits past the
        format, unsaturated; pre shifts land in the format, and every right
        shift shrinks.  Then each product ``w b`` is within
        ``2**(e + wt - 3)``, their sum ``t`` and its negation within
        ``2**(e + wt - 2)``, ``t >> ft`` within ``2**e``, and a stage
        output before saturation within ``2**(e - 1) + 2**e < 2**(e + 1)``.
        With ``e + wt <= 32`` all of these are within ``2**30``, and since
        ``wt >= 2`` every word is within 30 bits, so a block shift stays
        inside int32 too.  A plan whose products need limbs is far wider
        and keeps int64.
        """
        if self.exact:
            return np.float64
        wd, wt = self.data_format.total_bits, self.twiddle_format.total_bits
        e = wd + max(0, 2 - self.headroom_bits) if self.mode == "post" else wd
        return np.int32 if e + wt <= 32 else np.int64


@dataclass
class FftTelemetry:
    n_points: int
    mode: str
    stage_exponents: list = field(default_factory=list)
    butterflies: int = 0
    mults: int = 0
    dct_stage_mults: int = 0
    cycles: int = 0
    overflow_events: int = 0
    entry_exponent: int = 0
    final_exponent: int = 0


@dataclass
class FftResult:
    re: np.ndarray
    im: np.ndarray
    exponent: int
    telemetry: FftTelemetry


def quantize_complex_block(x: np.ndarray, fmt: FxpFormat, target_headroom: int):
    """Scale-and-quantize a complex vector into int64 mantissas and an exponent.

    Returns (re, im, exponent) with every mantissa magnitude at most
    ``2**(total_bits - 1 - target_headroom) - 1``: the words rounded under
    ``ENTRY_POLICY`` at the least exponent where they fit, which is
    :meth:`FxpFormat.for_range`'s rule in ``total_bits - target_headroom``
    bits, save the one-high window of ROADMAP item 13.  A real vector is a
    complex one with a zero imaginary part: it gives the same words and
    exponent without forming that part.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        x = x.astype(np.complex128, copy=False)
        parts = (x.real, x.imag)
    else:
        parts = (x.astype(np.float64, copy=False),)
    w = fmt.total_bits
    if w - 1 - target_headroom < 1:
        raise ValueError(
            f"headroom {target_headroom} leaves no mantissa in {w}-bit words"
        )
    peak = max(float(np.max(np.abs(p), initial=0.0)) for p in parts)
    if peak == 0.0:
        z = np.zeros(x.size, dtype=np.int64)
        return z, z.copy(), 0
    limit = (1 << (w - 1 - target_headroom)) - 1
    # ROADMAP item 13: the log2 term adds one for most peaks in (limit, limit + 1/2) * 2**k
    gamma = max(math.ceil(math.log2(peak / limit)),
                -_frac_bits(w - target_headroom, *math.frexp(peak)))
    words = [_round_in_place(np.ldexp(p, -gamma), ENTRY_POLICY).astype(np.int64)
             for p in parts]
    return words[0], (words[1] if len(words) > 1 else np.zeros_like(words[0])), gamma


def _twiddle_mac(plan: FftPlan, w1, x1, w2, x2, sign: int):
    """One DCT twiddle stage output ``(w1 x1 + sign w2 x2) >> tf``, truncated
    and saturated to the data format; on an exact plan, ``w1 x1 + sign w2 x2``
    in float64.  Returns the words and the number of saturated outputs."""
    if plan.exact:
        return (np.add if sign > 0 else np.subtract)(w1 * x1, w2 * x2), 0
    wt, wd = plan.twiddle_format.total_bits, plan.data_format.total_bits
    acc = _mac(w1, x1, wt, wd, 1, np.multiply).plus(
        _mac(w2, x2, wt, wd, 1, np.multiply), sign)
    return _requantize(acc, plan.twiddle_format.frac_bits, DATAPATH_POLICY,
                       plan.data_format)


def _butterflies(v_re, v_im, wr, wi, plan: FftPlan, scratch, inverse: bool) -> tuple:
    """A stage's butterflies, in place: ``v[:, 0]`` holds the a-operands and
    ``v[:, 1]`` the b-operands, and the twiddle words ``wr``, ``wi`` broadcast
    against them; ``a + w b`` replaces a and ``a - w b`` replaces b, where
    ``w`` is ``wr + i wi``, or its conjugate if ``inverse``.  Returns the
    number of saturated outputs and the :func:`~ftsinv.fxp.block_extremes`
    of the outputs, which their saturation reads anyway (None on an exact
    plan).

    The conjugate swaps the subtraction and the addition that take in
    ``wi``'s products, where the forward transform would negate ``wi``: the
    same integers, and the same doubles, because ``x - (-y) == x + y`` and
    ``x * -y == -(x * y)`` in IEEE arithmetic.

    ``scratch`` holds three half-store planes of the word type where the
    products fit one word, else None (:func:`_fft_core`).  With them,
    ``w b`` is formed in two planes, the third holding each second product
    and then each negated sum, and the outputs are written from there: the
    stage allocates no temporary.  Without them, ``w b`` is limbs
    (:func:`~ftsinv.fxp._macs`), and :func:`~ftsinv.fxp._add_floor` writes
    each output."""
    a_re, a_im, b_re, b_im = v_re[:, 0], v_im[:, 0], v_re[:, 1], v_im[:, 1]
    fmt = plan.data_format
    overflows = 0
    # a fixed-point (a 2**ft -+ t) >> ft is a + (-+t >> ft) under
    # DATAPATH_POLICY, a truncation (not under round-half-even, whose ties
    # read a's parity), so a bypasses the product; a - w b goes first,
    # because a + w b overwrites a
    if scratch is not None:
        t_re, t_im, u = (p.reshape(b_re.shape) for p in scratch)
        op_re, op_im = (np.add, np.subtract) if inverse else (np.subtract, np.add)
        np.multiply(b_re, wr, out=t_re)
        op_re(t_re, np.multiply(b_im, wi, out=u), out=t_re)     # b_re wr -+ b_im wi
        np.multiply(b_im, wr, out=t_im)
        op_im(t_im, np.multiply(b_re, wi, out=u), out=t_im)     # b_im wr +- b_re wi
        if plan.exact:
            for a, b, t in ((a_re, b_re, t_re), (a_im, b_im, t_im)):
                np.subtract(a, t, out=b)
                a += t
            return 0, None
        ft = plan.twiddle_format.frac_bits
        for a, b, t in ((a_re, b_re, t_re), (a_im, b_im, t_im)):
            np.add(a, np.right_shift(np.negative(t, out=u), ft, out=u), out=b)
            a += np.right_shift(t, ft, out=t)
    else:
        ft = plan.twiddle_format.frac_bits
        # w b sums two products of a data and a twiddle word; each b operand
        # meets both twiddle words, so its limbs are cut once
        widths = (plan.twiddle_format.total_bits, fmt.total_bits, 1, np.multiply)
        t_re, t_im = _macs([wr, wi], b_re, *widths)         # wr b_re, wi b_re
        u_im, u_re = _macs([wr, wi], b_im, *widths)         # wr b_im, wi b_im
        sign = 1 if inverse else -1                         # the sign wi b_im enters with
        t_re, t_im = t_re.plus(u_re, sign), u_im.plus(t_im, -sign)
        del u_re, u_im                                      # free them before the output stage
        for v, a, t in ((v_re, a_re, t_re), (v_im, a_im, t_im)):
            overflows += _add_floor(a, t, -1, ft, fmt, v[:, 1])
            overflows += _add_floor(a, t, 1, ft, fmt, v[:, 0])
    # every output saturated once, as one block
    lo, hi = 0, 0
    for v in (v_re, v_im):
        _, nov, (v_lo, v_hi) = saturate_array(v, fmt)
        overflows += nov
        lo, hi = min(lo, v_lo), max(hi, v_hi)
    return overflows, (lo, hi)


def _fft_core(re, im, exponent: int, plan: FftPlan, extremes,
              inverse: bool = False) -> FftResult:
    """Stage loop of every entry point, for both kinds of plan.

    Input arrives in natural order; the port's scatter loads it into the
    store bit-reversed, transposed for the first ``split = n_stages // 2``
    stages (:func:`_load_order`).  Stage s (h = 2**s) pairs the words at
    bit-reversed positions j and j + h, j with bit s clear, with the twiddle
    ``w[k * n/2h]`` of k = j mod h, and every stage's operands run along a
    long contiguous axis.
    Each stage runs on a ``(groups, 2, h, c)`` view, ``[:, 0]`` the a- and
    ``[:, 1]`` the b-operands, with its twiddles as an ``(h, 1)`` column:

    - s < split runs on the transposed store, a ``(2**split, n / 2**split)``
      array, so c = n / 2**split: rows r and r + h are paired, and each
      operand is a row of c words;
    - the store is then transposed back in place, and s >= split runs on it
      with c = 1, pairing blocks of h >= 2**split words.

    The twiddles of a stage are its column pair (:func:`_columns`).  The
    port's store, and the three scratch planes of :func:`_butterflies` (n/2
    words each), are the size's workspace in the plan's word type
    (:func:`_workspace`), whatever the input's dtype; a plan whose
    butterfly products need limbs uses no planes.  ``exponent`` is the entry
    block's exponent and ``extremes`` its
    :func:`~ftsinv.fxp.block_extremes` (0 and None on an exact plan); after
    that the block is never read for them: each stage's output stage reports
    its outputs' extremes, and a block shift carries them along.  A pre or
    post shift is decided from the extremes of the block entering the
    stage.  The last stage leaves the store in natural order, and the port's
    gather hands it over as the result, which the next transform of the size
    overwrites.  ``inverse`` conjugates the twiddles and takes the 1/N as an
    exponent step of -log2 N.

    The stages run with numpy's ufunc buffer
    (:func:`~ftsinv.fxp._ufunc_buffer`) set to their shortest row,
    ``min(2**split, n / 2**split)`` words, because numpy copies an operand
    whose contiguous rows are shorter than the buffer through it on every
    pass: in process, interleaved, on one thread, that made
    ``reconstruct_fft`` at n = 65 536 take 0.86-0.91x the time at 16 bits and
    0.73x on an exact plan.  A limb plan keeps numpy's default, because with
    the row-sized buffer it read 0.93-1.06x at n = 65 536 and 0.94-1.03x at
    n = 4096, no gain clear of the noise.  Rows under 64 words keep it too,
    because forcing the buffer to them read 1.06x at n = 256 (rows of 16) and
    1.05x at n = 1024 (rows of 32).

    It is the one writer of :class:`FftTelemetry`, whose counts depend on n
    alone (n/2 butterflies, cycles and four products per stage); an exact
    plan has no block exponent, so it reads 0 as entry and final exponent.
    """
    n = plan.n_points
    port = _port_map(n)
    mem, planes = _workspace(n, plan.word_type)
    columns = _columns(n, plan.twiddle_format, plan.word_type)
    mem.scatter(*port, re, im)
    re, im = mem.re, mem.im
    # no limbs means twiddle and data widths sum to at most 63 bits, so data
    # words are within 61: there fxp._add_floor's sum is this same addition
    one_word = plan.exact or _limb_plan(plan.twiddle_format.total_bits,
                                        plan.data_format.total_bits, 1)[0] is None
    scratch = planes if one_word else None

    split = plan.n_stages // 2
    rows, cols = 1 << split, n >> split
    gamma = overflows = 0
    stage_exponents = []
    bfp = None if plan.exact or plan.mode == "fixed" else plan.mode
    short = min(rows, cols)         # the shortest contiguous row of any stage
    buffer = (_ufunc_buffer(short) if scratch is not None and short >= 64
              else contextlib.nullcontext())
    with buffer:
        for s, (wr, wi) in enumerate(columns):
            if s == split and split:
                # transposed back in place: numpy reads an overlapping source first
                for p in (re, im):
                    p.reshape(cols, rows)[...] = p.reshape(rows, cols).T
            if bfp:                 # decided from the block entering the stage
                shift = headroom(extremes, plan.data_format.total_bits) - plan.headroom_bits
            if bfp == "pre":
                applied, extremes = shift_block((re, im), shift, DATAPATH_POLICY, extremes)
                gamma -= applied

            h, c = 1 << s, cols if s < split else 1
            nov, extremes = _butterflies(re.reshape(-1, 2, h, c), im.reshape(-1, 2, h, c),
                                         wr, wi, plan, scratch, inverse)
            overflows += nov

            if bfp == "post":
                applied, extremes = shift_block((re, im), shift, DATAPATH_POLICY, extremes)
                gamma -= applied
            stage_exponents.append(gamma)

    final = exponent + gamma - (plan.n_stages if inverse else 0)
    slots = plan.n_stages * (n // 2)
    telemetry = FftTelemetry(
        n, plan.mode, stage_exponents, butterflies=slots, mults=4 * slots, cycles=slots,
        overflow_events=overflows, entry_exponent=exponent,
        final_exponent=0 if plan.exact else final)
    return FftResult(*mem.gather(*port), final, telemetry)


def _words_out(res: FftResult) -> FftResult:
    """``res`` with its words copied out of the workspace, as int64 words
    (float64 on an exact plan)."""
    word = np.float64 if res.re.dtype == np.float64 else np.int64
    res.re, res.im = res.re.astype(word), res.im.astype(word)
    return res


def fft_bfp(x: np.ndarray, plan: FftPlan) -> FftResult:
    """Forward DFT of a complex vector on the planned datapath.

    Fixed-point plans quantize the input to the plan's headroom first; the
    result mantissas together with the returned exponent satisfy
    ``DFT(x) ~= (re + 1j*im) * 2**exponent``.  The mantissas are int64
    (float64 on an exact plan), whatever the plan's word type.
    """
    return _words_out(_forward(x, plan))


def _forward(x: np.ndarray, plan: FftPlan) -> FftResult:
    """:func:`fft_bfp` with its words left in the workspace."""
    x = np.asarray(x, dtype=np.complex128)
    if x.size != plan.n_points:
        raise ValueError(f"input length {x.size} != plan size {plan.n_points}")
    if plan.exact:
        return _fft_core(x.real, x.imag, 0, plan, None)
    re, im, exponent = quantize_complex_block(x, plan.data_format, plan.headroom_bits)
    return _fft_core(re, im, exponent, plan, block_extremes((re, im)))


def fft_bfp_block(re, im, exponent: int, plan: FftPlan) -> FftResult:
    """Transform pre-quantized integer mantissas, of any integer dtype, on the
    plan's words (headroom must already be in place); the result's words are
    int64."""
    if plan.exact:
        raise ValueError("mantissa entry point requires a fixed-point plan")
    re, im = np.asarray(re), np.asarray(im)
    if re.shape != (plan.n_points,) or im.shape != (plan.n_points,):
        raise ValueError(f"re {re.shape} and im {im.shape} must be ({plan.n_points},)")
    if not (np.issubdtype(re.dtype, np.integer) and np.issubdtype(im.dtype, np.integer)):
        raise ValueError(f"mantissas must be integers, got {re.dtype} and {im.dtype}")
    extremes = block_extremes((re, im))
    head = headroom(extremes, plan.data_format.total_bits)
    if head < 0:
        raise ValueError(f"words {extremes} outside the data format")
    if plan.mode in ("pre", "post") and head < plan.headroom_bits:
        raise ValueError(
            f"input headroom {head} below the plan requirement {plan.headroom_bits}"
        )
    return _words_out(_fft_core(re, im, exponent, plan, extremes))


def _even_odd_permute(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x[0::2], x[1::2][::-1]])


def _even_odd_unpermute(v: np.ndarray) -> np.ndarray:
    n = v.size
    x = np.empty(n, dtype=v.dtype)
    x[0::2] = v[: (n + 1) // 2]
    x[1::2] = v[(n + 1) // 2:][::-1]
    return x


def dct2_via_fft(x: np.ndarray, plan: FftPlan):
    """Unnormalized DCT-II: ``C_k = sum_n x_n cos(pi k (2n+1) / (2N))``.

    Computed as an N-point complex FFT of the even-odd permuted sequence
    followed by a real-part twiddle stage.  Returns (values, telemetry).
    """
    res = _forward(_even_odd_permute(np.asarray(x, dtype=np.float64)), plan)
    _, _, cos_t, sin_t = _tables(plan.n_points, plan.twiddle_format)
    c, nov = _twiddle_mac(plan, cos_t, res.re, sin_t, res.im, 1)
    telemetry = res.telemetry
    telemetry.overflow_events += nov
    telemetry.dct_stage_mults += 2 * plan.n_points
    telemetry.mults += 2 * plan.n_points
    return c * 2.0 ** res.exponent, telemetry


def idct2_via_fft(c: np.ndarray, plan: FftPlan):
    """Exact inverse of :func:`dct2_via_fft`'s sum convention.

    Implements the transposed pipeline: complex pre-twiddle, inverse FFT
    (conjugate twiddles plus a power-of-two exponent step), even-odd
    de-permutation.  The 2/N scale and the half weight of the first
    coefficient are inherent in the construction.  Returns (values, telemetry).
    """
    c = np.asarray(c, dtype=np.float64)
    n = plan.n_points
    if c.size != n:
        raise ValueError(f"input length {c.size} != plan size {n}")
    if plan.exact:
        raw, exponent = c, 0
    else:
        # entry quantization with one extra headroom bit: the pre-twiddle mixes
        # re/im components and can grow magnitudes by sqrt(2)
        raw, _, exponent = quantize_complex_block(c, plan.data_format,
                                                  plan.headroom_bits + 1)
    raw_rev = np.concatenate([np.zeros_like(raw[:1]), raw[:0:-1]])   # C_{N-k}, 0 at k=0
    _, _, cos_t, sin_t = _tables(n, plan.twiddle_format)
    v_re, nov_re = _twiddle_mac(plan, cos_t, raw, sin_t, raw_rev, 1)
    v_im, nov_im = _twiddle_mac(plan, sin_t, raw, cos_t, raw_rev, -1)
    extremes = None
    if not plan.exact:
        # restore the plan headroom before the transform proper
        extremes = block_extremes((v_re, v_im))
        shift, extremes = shift_block(
            (v_re, v_im), headroom(extremes, plan.data_format.total_bits)
            - plan.headroom_bits, DATAPATH_POLICY, extremes)
        exponent -= shift
    res = _fft_core(v_re, v_im, exponent, plan, extremes, inverse=True)
    telemetry = res.telemetry
    telemetry.overflow_events += nov_re + nov_im
    telemetry.dct_stage_mults += 4 * n
    telemetry.mults += 4 * n
    return _even_odd_unpermute(res.re) * 2.0 ** res.exponent, telemetry


def reconstruct_fft(y_norm: Interferogram, plan: FftPlan):
    """Spectrum estimate from a normalized interferogram via the inverse DCT.

    The route requires a regular OPD grid and a square problem
    (``n_samples == n_points``).  Recovery is exact (double-precision path)
    when the grid step is the transform-matched ``1/(2*bandwidth)`` lattice;
    on other regular grids the result carries the corresponding model error.
    Returns (Spectrum, FftTelemetry).
    """
    grid = y_norm.grid
    if not grid.is_regular:
        raise ValueError("FFT route requires a regularly sampled OPD grid")
    if grid.n_samples != plan.n_points:
        raise ValueError(
            f"square problem required: {grid.n_samples} samples vs plan {plan.n_points}"
        )
    # the cosine-transform lattice implies this bandwidth
    bandwidth = 1.0 / (2.0 * grid.step)
    values, telemetry = idct2_via_fft(2.0 * y_norm.values, plan)
    spectrum = Spectrum(values, SpectralGrid(plan.n_points, bandwidth))
    return spectrum, telemetry
