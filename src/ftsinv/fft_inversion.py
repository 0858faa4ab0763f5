"""Memory-based radix-2 FFT on block-floating-point data, and the cosine
transform route for spectrum reconstruction.

The transform emulates a memory-based radix-2 engine that issues one
butterfly per cycle from two memory banks.  Its words enter and leave through
:class:`BankedMemory`, the two-bank port whose parity map puts both operands
of every butterfly in distinct banks; that conflict freedom is a property the
tests check, not a data path the emulation walks.  Each stage's n/2
butterflies run as one vectorized step on a strided view of one bit-reversed
store, with the same arithmetic, the same order of rounding and saturation,
and the same cycle count in telemetry (n/2 per stage) as the one-per-cycle
schedule.  A block normalization stage (before or after the butterflies of
each stage) maintains headroom while a shared exponent tracks the scale.

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

Words are int64 at every width.  A butterfly output ``(a 2**ft +- b w) >> ft``
is computed inline where its three products fit an int64, else through the
exact limb MAC of :mod:`ftsinv.fxp`, which runs the DCT twiddle stages too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fxp import (
    DATAPATH_POLICY,
    ENTRY_POLICY,
    FxpFormat,
    OpCounter,
    RoundingMode,
    RoundingPolicy,
    _limb_plan,
    _mac,
    _requantize,
    leading_bit,
    quantize_array,
    saturate_array,
    shift_block,
)
from .optics import Interferogram, SpectralGrid, Spectrum

MODES = ("pre", "post", "fixed")


def _parity(idx: np.ndarray) -> np.ndarray:
    """Parity of the population count of each index (XOR fold)."""
    v = np.array(idx, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        v ^= v >> s
    return v & 1


def bank_map(logical_index: int, stage: int, n_points: int):
    """Map a logical index to (bank, address) for the two-bank layout.

    The assignment is the XOR fold of the index bits: butterfly partners at
    any stage differ in exactly one address bit, so they always land in
    different banks; indices 2a and 2a+1 share address a, one per bank, which
    makes the map bijective.  The mapping is stage-invariant (``stage`` is
    accepted for interface symmetry).
    """
    if not (0 <= logical_index < n_points):
        raise IndexError(f"index {logical_index} outside [0, {n_points})")
    if not (0 <= stage < max(1, n_points.bit_length() - 1)):
        raise IndexError(f"stage {stage} out of range")
    bank = int(_parity(np.asarray([logical_index]))[0])
    return bank, logical_index >> 1


@functools.lru_cache(maxsize=8)
def _port_map(n_points: int) -> tuple:
    """The two-bank map as the port reads it: ``(par, adr)``, the bank and
    address of every logical index, and the parity of every address.

    It depends on the size alone, so it is computed once per size and kept
    read-only.
    """
    idx = np.arange(n_points)
    adr = idx >> 1
    adr_parity = _parity(np.arange(max(n_points // 2, 1))).astype(np.int8)
    port = (adr_parity[adr] ^ (idx & 1).astype(np.int8), adr, adr_parity)
    for a in port:
        a.setflags(write=False)
    return port


class BankedMemory:
    """Two-bank complex word store: the transform's input/output port.

    Logical index ``i`` sits in bank ``parity(i)`` at address ``i >> 1``
    (:func:`bank_map`), so bank ``b``, address ``a`` holds logical index
    ``(a << 1) | (b ^ parity(a))``.  Both operands of every radix-2 butterfly
    resolve to distinct banks, so a full butterfly issue needs one read per
    bank per cycle.  The words are kept in logical order in ``re`` and ``im``,
    the store the stage loop works on.
    """

    def __init__(self, n_points: int):
        self.n = n_points
        self._par, self._adr, self._adr_parity = _port_map(n_points)
        self.re = self.im = None

    def _index(self, par, adr):
        return (adr << 1) | (par ^ self._adr_parity[adr])

    def load(self, re: np.ndarray, im: np.ndarray) -> None:
        self.re = np.empty(self.n, dtype=re.dtype)
        self.im = np.empty(self.n, dtype=im.dtype)
        self.scatter(self._par, self._adr, re, im)

    def gather(self, par, adr):
        i = self._index(par, adr)
        return self.re[i], self.im[i]

    def scatter(self, par, adr, re, im) -> None:
        i = self._index(par, adr)
        self.re[i] = re
        self.im[i] = im

    def unload(self):
        return self.gather(self._par, self._adr)


def _bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


@dataclass(frozen=True)
class FftPlan:
    """Immutable transform descriptor: size, formats, normalization mode.

    ``data_format is None`` selects the double-precision reference path; the
    transform then runs the same butterfly schedule on float64 words.
    """

    n_points: int
    data_format: FxpFormat | None
    twiddle_format: FxpFormat | None
    mode: str
    headroom_bits: int
    policy: RoundingPolicy
    _brev: np.ndarray = field(repr=False, default=None)
    _tw_re: dict = field(repr=False, default=None)
    _tw_im: dict = field(repr=False, default=None)
    _dct_cos: dict = field(repr=False, default=None)
    _dct_sin: dict = field(repr=False, default=None)

    @classmethod
    def make(
        cls,
        n_points: int,
        bits: int | None = None,
        twiddle_bits: int | None = None,
        mode: str = "post",
        headroom_bits: int = 3,
        policy: RoundingPolicy = DATAPATH_POLICY,
    ) -> "FftPlan":
        if n_points < 2 or (n_points & (n_points - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 2, got {n_points}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        data_fmt = None
        tw_fmt = None
        if bits is not None:
            if twiddle_bits is None:
                twiddle_bits = bits
            if bits < headroom_bits + 2:
                raise ValueError("data width leaves no mantissa below the headroom")
            # frac = width-2 so the +-1.0 twiddles are exactly representable
            data_fmt = FxpFormat(bits, bits - 1)
            tw_fmt = FxpFormat(twiddle_bits, twiddle_bits - 2)
        if not (0 <= headroom_bits <= (bits - 2 if bits else 30)):
            raise ValueError("headroom_bits out of range")

        k = np.arange(n_points // 2)
        ang = -2.0 * np.pi * k / n_points
        tw_re = {"f": np.cos(ang)}
        tw_im = {"f": np.sin(ang)}
        kd = np.arange(n_points)
        angd = np.pi * kd / (2.0 * n_points)
        dct_cos = {"f": np.cos(angd)}
        dct_sin = {"f": np.sin(angd)}
        if tw_fmt is not None:
            tw_re["q"] = quantize_array(tw_re["f"], tw_fmt, ENTRY_POLICY)
            tw_im["q"] = quantize_array(tw_im["f"], tw_fmt, ENTRY_POLICY)
            dct_cos["q"] = quantize_array(dct_cos["f"], tw_fmt, ENTRY_POLICY)
            dct_sin["q"] = quantize_array(dct_sin["f"], tw_fmt, ENTRY_POLICY)

        return cls(
            n_points=n_points,
            data_format=data_fmt,
            twiddle_format=tw_fmt,
            mode=mode,
            headroom_bits=headroom_bits,
            policy=policy,
            _brev=_bit_reverse_permutation(n_points),
            _tw_re=tw_re,
            _tw_im=tw_im,
            _dct_cos=dct_cos,
            _dct_sin=dct_sin,
        )

    @property
    def exact(self) -> bool:
        return self.data_format is None

    @property
    def n_stages(self) -> int:
        return self.n_points.bit_length() - 1


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

    def to_complex(self) -> np.ndarray:
        return (self.re + 1j * self.im) * 2.0 ** self.exponent


def butterfly_radix2(a, b, w, data_fmt: FxpFormat, twiddle_fmt: FxpFormat,
                     policy: RoundingPolicy = DATAPATH_POLICY,
                     counter: OpCounter | None = None):
    """Scalar radix-2 butterfly on complex mantissa pairs.

    ``a``, ``b`` are (re, im) integer mantissa pairs in the data format,
    ``w`` a (re, im) twiddle pair in the twiddle format.  The complex product
    uses 4 real multiplications; the full-precision accumulation is truncated
    to the data format once.  Returns ``(a + w*b, a - w*b, overflow_count)``.
    """
    ft = twiddle_fmt.frac_bits
    ar, ai = int(a[0]), int(a[1])
    br, bi = int(b[0]), int(b[1])
    wr, wi = int(w[0]), int(w[1])
    t_re = br * wr - bi * wi
    t_im = br * wi + bi * wr
    if counter is not None:
        counter.add(4)
    outs = []
    overflow = 0
    for sign in (1, -1):
        o_re = ((ar << ft) + sign * t_re) >> ft
        o_im = ((ai << ft) + sign * t_im) >> ft
        for v in (o_re, o_im):
            if not (data_fmt.min_raw <= v <= data_fmt.max_raw):
                overflow += 1
        o_re = min(max(o_re, data_fmt.min_raw), data_fmt.max_raw)
        o_im = min(max(o_im, data_fmt.min_raw), data_fmt.max_raw)
        outs.append((o_re, o_im))
    return outs[0], outs[1], overflow


def quantize_complex_block(x: np.ndarray, fmt: FxpFormat, target_headroom: int):
    """Scale-and-quantize a complex vector into int64 mantissas and an exponent.

    Returns (re, im, exponent) with every mantissa magnitude at most
    ``2**(total_bits - 1 - target_headroom) - 1``.
    """
    x = np.asarray(x, dtype=np.complex128)
    w = fmt.total_bits
    if w - 1 - target_headroom < 1:
        raise ValueError(
            f"headroom {target_headroom} leaves no mantissa in {w}-bit words"
        )
    limit = (1 << (w - 1 - target_headroom)) - 1
    # |v| <= limit as |v| < 2**k, exact in floats, where limit may round up
    bound = 2.0 ** (w - 1 - target_headroom)
    peak = max(float(np.max(np.abs(x.real), initial=0.0)),
               float(np.max(np.abs(x.imag), initial=0.0)))
    if peak == 0.0:
        z = np.zeros(x.size, dtype=np.int64)
        return z, z.copy(), 0
    gamma = math.ceil(math.log2(peak / limit))
    while True:
        re = np.rint(np.ldexp(x.real, -gamma))
        im = np.rint(np.ldexp(x.imag, -gamma))
        if max(np.max(np.abs(re)), np.max(np.abs(im))) < bound:
            break
        gamma += 1
    return re.astype(np.int64), im.astype(np.int64), gamma


def _twiddle_mac(plan: FftPlan, w1, x1, w2, x2, sign: int):
    """One DCT twiddle stage output ``(w1 x1 + sign w2 x2) >> tf``, rounded
    under the plan's policy and saturated to the data format.  Returns the
    words and the number of saturated outputs."""
    wt, wd = plan.twiddle_format.total_bits, plan.data_format.total_bits
    acc = _mac(w1, x1, wt, wd, 1, np.multiply).plus(
        _mac(w2, x2, wt, wd, 1, np.multiply), sign)
    return _requantize(acc, plan.twiddle_format.frac_bits, plan.policy.mode,
                       plan.data_format)


def _fft_core(re, im, plan: FftPlan, telemetry: FftTelemetry,
              counter: OpCounter, inverse: bool = False):
    """Stage loop shared by the fixed-point and double-precision paths.

    Input arrives in natural order and is loaded through the port in
    bit-reversed order.  Stage s runs on the ``(n/2h, 2, h)`` view of the
    store, h = 2**s: row 0 holds the a-operands, row 1 the b-operands, and
    the twiddle of column k is ``w[k * n/2h]``.  The output is unloaded in
    natural order.  Returns (re, im, exponent_delta).
    """
    n = plan.n_points
    mem = BankedMemory(n)
    mem.load(re[plan._brev], im[plan._brev])
    re, im = mem.re, mem.im

    exact = plan.exact
    key = "f" if exact else "q"
    wre_all = plan._tw_re[key]
    wim_all = -plan._tw_im[key] if inverse else plan._tw_im[key]
    if not exact:
        fmt, width = plan.data_format, plan.data_format.total_bits
        wt, ft = plan.twiddle_format.total_bits, plan.twiddle_format.frac_bits
        target, rounding = plan.headroom_bits, plan.policy.mode
        # a 2**ft +- b w sums three products of a data and a twiddle word
        fits = _limb_plan(wt, width, 2)[0] is None

        def mac(w, x):
            return _mac(w, x, wt, width, 2, np.multiply)

    gamma = 0
    bfp = None if exact or plan.mode == "fixed" else plan.mode
    for s in range(plan.n_stages):
        if bfp == "pre":
            (re, im), shift = shift_block((re, im), width, target, rounding)
            gamma -= shift
        elif bfp == "post":
            # decided from the block entering the stage, applied after it
            shift = leading_bit((re, im), width) - target

        h = 1 << s
        step = n >> (s + 1)
        wr = wre_all[: h * step: step]
        wi = wim_all[: h * step: step]
        v_re, v_im = re.reshape(-1, 2, h), im.reshape(-1, 2, h)
        a_re, a_im, b_re, b_im = v_re[:, 0], v_im[:, 0], v_re[:, 1], v_im[:, 1]
        if exact or fits:
            t_re = b_re * wr - b_im * wi
            t_im = b_re * wi + b_im * wr
        if exact:
            v_re[:, 1], v_im[:, 1] = a_re - t_re, a_im - t_im
            v_re[:, 0], v_im[:, 0] = a_re + t_re, a_im + t_im
        elif fits:
            sa_re, sa_im = a_re << ft, a_im << ft
            v_re[:, 0], n0 = saturate_array((sa_re + t_re) >> ft, fmt)
            v_im[:, 0], n1 = saturate_array((sa_im + t_im) >> ft, fmt)
            v_re[:, 1], n2 = saturate_array((sa_re - t_re) >> ft, fmt)
            v_im[:, 1], n3 = saturate_array((sa_im - t_im) >> ft, fmt)
            telemetry.overflow_events += n0 + n1 + n2 + n3
        else:
            t_re = mac(wr, b_re).plus(mac(wi, b_im), -1)
            t_im = mac(wi, b_re).plus(mac(wr, b_im))
            for v, a, t in ((v_re, a_re, t_re), (v_im, a_im, t_im)):
                sa = mac(np.int64(1 << ft), a)      # a times 1.0 as a twiddle word
                for j, sign in ((0, 1), (1, -1)):
                    v[:, j], nov = _requantize(sa.plus(t, sign), ft,
                                               RoundingMode.TRUNCATE, fmt)
                    telemetry.overflow_events += nov
        counter.add(4 * (n // 2))
        telemetry.mults += 4 * (n // 2)
        telemetry.butterflies += n // 2
        telemetry.cycles += n // 2

        if bfp == "post":
            (re, im), shift = shift_block((re, im), width, target, rounding, shift)
            gamma -= shift
        telemetry.stage_exponents.append(gamma)

    mem.re, mem.im = re, im
    re_out, im_out = mem.unload()
    return re_out, im_out, gamma


def fft_bfp(x: np.ndarray, plan: FftPlan, counter: OpCounter | None = None) -> FftResult:
    """Forward DFT of a complex vector on the planned datapath.

    Fixed-point plans quantize the input to the plan's headroom first; the
    result mantissas together with the returned exponent satisfy
    ``DFT(x) ~= (re + 1j*im) * 2**exponent``.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.size != plan.n_points:
        raise ValueError(f"input length {x.size} != plan size {plan.n_points}")
    counter = counter or OpCounter()
    telemetry = FftTelemetry(plan.n_points, plan.mode)
    if plan.exact:
        re, im, _ = _fft_core(x.real.copy(), x.imag.copy(), plan, telemetry, counter)
        telemetry.final_exponent = 0
        return FftResult(re, im, 0, telemetry)
    re, im, g_in = quantize_complex_block(x, plan.data_format, plan.headroom_bits)
    telemetry.entry_exponent = g_in
    re, im, g_core = _fft_core(re, im, plan, telemetry, counter)
    telemetry.final_exponent = g_in + g_core
    return FftResult(re, im, g_in + g_core, telemetry)


def fft_bfp_block(re, im, exponent: int, plan: FftPlan,
                  counter: OpCounter | None = None,
                  inverse: bool = False) -> FftResult:
    """Transform pre-quantized mantissas (headroom must already be in place)."""
    if plan.exact:
        raise ValueError("mantissa entry point requires a fixed-point plan")
    if len(re) != plan.n_points:
        raise ValueError("length mismatch")
    head = leading_bit((re, im), plan.data_format.total_bits)
    if plan.mode in ("pre", "post") and head < plan.headroom_bits:
        raise ValueError(
            f"input headroom {head} below the plan requirement {plan.headroom_bits}"
        )
    counter = counter or OpCounter()
    telemetry = FftTelemetry(plan.n_points, plan.mode)
    telemetry.entry_exponent = exponent
    re_o, im_o, g_core = _fft_core(np.asarray(re), np.asarray(im), plan,
                                   telemetry, counter, inverse=inverse)
    telemetry.final_exponent = exponent + g_core
    return FftResult(re_o, im_o, exponent + g_core, telemetry)


def _even_odd_permute(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x[0::2], x[1::2][::-1]])


def _even_odd_unpermute(v: np.ndarray) -> np.ndarray:
    n = v.size
    x = np.empty(n, dtype=v.dtype)
    x[0::2] = v[: (n + 1) // 2]
    x[1::2] = v[(n + 1) // 2:][::-1]
    return x


def dct2_via_fft(x: np.ndarray, plan: FftPlan, counter: OpCounter | None = None):
    """Unnormalized DCT-II: ``C_k = sum_n x_n cos(pi k (2n+1) / (2N))``.

    Computed as an N-point complex FFT of the even-odd permuted sequence
    followed by a real-part twiddle stage.  Returns (values, telemetry).
    """
    x = np.asarray(x, dtype=np.float64)
    n = plan.n_points
    if x.size != n:
        raise ValueError(f"input length {x.size} != plan size {n}")
    counter = counter or OpCounter()
    v = _even_odd_permute(x)

    if plan.exact:
        res = fft_bfp(v.astype(np.complex128), plan, counter)
        c = res.re * plan._dct_cos["f"] + res.im * plan._dct_sin["f"]
        res.telemetry.dct_stage_mults += 2 * n
        counter.add(2 * n)
        res.telemetry.mults += 2 * n
        return c, res.telemetry

    fmt = plan.data_format
    re, im, g0 = quantize_complex_block(v.astype(np.complex128), fmt,
                                        plan.headroom_bits)
    res = fft_bfp_block(re, im, g0, plan, counter)
    c_raw, nov = _twiddle_mac(plan, plan._dct_cos["q"], res.re,
                              plan._dct_sin["q"], res.im, 1)
    res.telemetry.overflow_events += nov
    res.telemetry.dct_stage_mults += 2 * n
    res.telemetry.mults += 2 * n
    counter.add(2 * n)
    values = np.asarray(c_raw, dtype=np.float64) * 2.0 ** res.exponent
    return values, res.telemetry


def idct2_via_fft(c: np.ndarray, plan: FftPlan, counter: OpCounter | None = None):
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
    counter = counter or OpCounter()

    if plan.exact:
        cos_t, sin_t = plan._dct_cos["f"], plan._dct_sin["f"]
        c_rev = np.concatenate([[0.0], c[:0:-1]])      # C_{N-k}, zero at k=0
        v_re = c * cos_t + c_rev * sin_t
        v_im = c * sin_t - c_rev * cos_t
        v_im[0] = 0.0
        telemetry = FftTelemetry(n, plan.mode)
        telemetry.dct_stage_mults += 4 * n
        telemetry.mults += 4 * n
        counter.add(4 * n)
        re, im, _ = _fft_core(v_re, v_im, plan, telemetry, counter, inverse=True)
        x = _even_odd_unpermute(re / n)
        return x, telemetry

    fmt = plan.data_format
    # entry quantization with one extra headroom bit: the pre-twiddle mixes
    # re/im components and can grow magnitudes by sqrt(2)
    raw, _, g0 = quantize_complex_block(c.astype(np.complex128), fmt,
                                        plan.headroom_bits + 1)
    raw_rev = np.concatenate([raw[:1] * 0, raw[:0:-1]])
    cos_t, sin_t = plan._dct_cos["q"], plan._dct_sin["q"]
    v_re, nov1 = _twiddle_mac(plan, cos_t, raw, sin_t, raw_rev, 1)
    v_im, nov2 = _twiddle_mac(plan, sin_t, raw, cos_t, raw_rev, -1)
    telemetry = FftTelemetry(n, plan.mode)
    telemetry.overflow_events += nov1 + nov2
    telemetry.dct_stage_mults += 4 * n
    telemetry.mults += 4 * n
    counter.add(4 * n)

    # restore the plan headroom before the transform proper
    (v_re, v_im), shift = shift_block((v_re, v_im), fmt.total_bits,
                                      plan.headroom_bits, plan.policy.mode)
    gamma = g0 - shift
    telemetry.entry_exponent = gamma
    re, im, g_core = _fft_core(v_re, v_im, plan, telemetry, counter, inverse=True)
    exponent = gamma + g_core - plan.n_stages          # the 1/N of the inverse
    telemetry.final_exponent = exponent
    x_raw = _even_odd_unpermute(re)
    return np.asarray(x_raw, dtype=np.float64) * 2.0 ** exponent, telemetry


def reconstruct_fft(y_norm: Interferogram, plan: FftPlan,
                    counter: OpCounter | None = None):
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
    step = float(grid.delta[1])                 # is_regular checked the lattice
    if grid.n_samples != plan.n_points:
        raise ValueError(
            f"square problem required: {grid.n_samples} samples vs plan {plan.n_points}"
        )
    # the cosine-transform lattice implies this bandwidth
    bandwidth = 1.0 / (2.0 * step)
    values, telemetry = idct2_via_fft(2.0 * y_norm.values, plan, counter)
    spectrum = Spectrum(values, SpectralGrid(plan.n_points, bandwidth))
    return spectrum, telemetry
