"""Pseudo-inverse, truncated-SVD and ridge (Tikhonov) spectrum reconstruction
over fixed-point matrix-vector datapaths with K-way row-banked memories.

The factorization is an offline calibration step computed in double precision
(LAPACK, under a canonical sign convention).  Each route is then split the way
the hardware splits it:

* **compile** (:func:`compile_pinv`, :func:`compile_svd`) quantizes the
  coefficient matrices for one word width and fixes the bank count K: what
  is written to on-chip RAM once.  A compiled SVD datapath also compiles
  the penalized diagonals of a whole rank or ridge grid at once
  (:meth:`CompiledSvd.diagonals`): each point's product-1 formats and z
  words, in one pass over the grid, which is compiled to run whole;
* **run** (:func:`reconstruct_pinv`, :func:`reconstruct_svd`) streams one
  acquisition, and on the SVD route one compiled diagonal, through them.
  Given a matrix, factors or a penalized diagonal instead of their compiled
  form, the run step compiles its own, a diagonal as a grid of one.

Every fixed-point product accumulates exactly in the package's one MAC,
:func:`~ftsinv.fxp._mac`, and rounds once in its output stage,
:func:`~ftsinv.fxp._requantize`, in the datapath's word type
(:func:`~ftsinv.fxp.word_type`): float64 where every product's sums fit the
float64 significand (words up to 23 bits at M = 256), so matrix-vector
products run exactly on BLAS and no word is converted, else int64.  The
words are quantized into that type once, at compile time, and each run
quantizes its acquisition into it.  The one banked kernel,
:func:`_banked_mac`, runs the pseudo-inverse and the SVD route's product 1
(column scaling of V) on int64 words whole, and product 3 runs on all rows
at once too: each output row is one bank's own dot product, so K is
modelled, not walked, in ``telemetry.k``, the cost model's latency and the
K-identity tests.  On float64 words product 1 needs no MAC: its compiled z
words carry its output stage's power-of-two scale, so it is one exact
multiply and one rounding in place, and its saturation scans run only where
a bound compiled with the diagonal cannot rule saturation out.  Product 2 (U^T y) changes only with the acquisition and the kept lanes, so
a compiled SVD datapath forms it once per acquisition and kept set of lanes,
output stage included, and every run of a rank or ridge sweep on that set
reads it (see :class:`CompiledSvd`).  So does the output format of product
3, which the range of the double reference x_ref fixes: on the first run of
an acquisition, one product of V by the penalized U^T y of every point of a
grid bounds each point's max |x_ref| tightly enough to decide its format
(:meth:`CompiledSvd.output_format`), and only a point the bound cannot
decide, or a grid of one, forms x_ref.  Products 1 and 3 change with both
the diagonal and the acquisition, but a grid's points share most of their
words, so the first run of any point of a grid on an acquisition forms
every point's product-3 accumulator in one pass
(:meth:`CompiledSvd.accumulator`), and a grid of one forms its own on each
run.  A run of a compiled diagonal of a larger grid thus does only its
output stage and telemetry, which counts every multiply its products
run, shared ones included.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from . import hwmodel
from .errors import SvdConvergenceError
from .fxp import (
    DATAPATH_POLICY,
    ENTRY_POLICY,
    FxpFormat,
    RoundingMode,
    _frozen,
    _guard_bits,
    _mac,
    _read_only,
    _requantize,
    _round_in_place,
    _ufunc_buffer,
    dequantize_array,
    frac_bits_for_range,
    quantize_array,
    saturate_array,
    word_type,
)
from .optics import Interferogram, TransferMatrix


# ---------------------------------------------------------------------------
# offline factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvdFactors:
    """``A = U diag(xi) V^T`` with singular values in decreasing order, and
    the layout every datapath of any width reads: U^T row-major and the
    peaks of V's columns and U^T's rows, built at first use.  Both are
    read-only, so the layout cannot go stale (:func:`~ftsinv.fxp._frozen`)."""

    u: np.ndarray
    xi: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "xi", "v"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def rank_bound(self) -> int:
        return int(self.xi.size)

    @functools.cached_property
    def ut(self) -> np.ndarray:
        return _read_only(np.ascontiguousarray(self.u.T))

    @functools.cached_property
    def v_colmax(self) -> np.ndarray:
        return _read_only(np.max(np.abs(self.v), axis=0, initial=0.0))

    @functools.cached_property
    def ut_rowmax(self) -> np.ndarray:
        return _read_only(np.max(np.abs(self.u), axis=0, initial=0.0))

    @functools.cached_property
    def v_rownorm(self) -> float:
        """The largest 2-norm of a row of V, rounded up (:func:`_norm_bounds`)."""
        return float(_norm_bounds(self.v, 1).max(initial=0.0))


def _norm_bounds(a: np.ndarray, axis: int) -> np.ndarray:
    """Upper bounds on the 2-norms of the vectors of ``a`` along ``axis``.
    A float norm of n terms errs by less than (n/2 + 2) u relative, u =
    2**-53, and by less than sqrt(n) 2**-537 absolute where squares fall
    below the float range; each bound is raised past both, and past the
    roundings of the few products that scale it."""
    n = a.shape[axis]
    return ((np.linalg.norm(a, axis=axis) + math.sqrt(n) * 2.0 ** -537)
            * (1 + (n + 8) * 2.0 ** -52))


def svd_factorize(a) -> SvdFactors:
    """Thin SVD in double precision (LAPACK, via ``np.linalg.svd``).

    Signs are canonical: each (u, v) column pair is flipped so that the
    largest-magnitude entry of the u column is positive.  Floor truncation
    and two's-complement saturation are not sign-symmetric, so without a
    fixed convention the fixed-point SVD routes would depend on the signs
    the factorizer happened to pick.  Raises :class:`SvdConvergenceError`
    if LAPACK does not converge.
    """
    if isinstance(a, TransferMatrix):
        a = a.matrix
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite")
    try:
        u, xi, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
    cols = np.arange(xi.size)
    pivots = u[np.argmax(np.abs(u), axis=0), cols]
    signs = np.where(pivots < 0, -1.0, 1.0)
    u *= signs
    vt *= signs[:, None]
    return SvdFactors(_read_only(u), _read_only(xi), _read_only(vt).T)


# ---------------------------------------------------------------------------
# singular-value penalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tsvd:
    rank: int


@dataclass(frozen=True)
class Tikhonov:
    lam: float


@dataclass
class PenalizedDiagonal:
    zeta: np.ndarray
    scheme: object

    def describe(self) -> str:
        s = self.scheme
        return f"tsvd(rank={s.rank})" if isinstance(s, Tsvd) else f"tik(lambda={s.lam:g})"


def penalize(xi: np.ndarray, scheme) -> PenalizedDiagonal:
    """Penalized reciprocal diagonal for the chosen regularization scheme.

    Truncation keeps the reciprocals of the ``rank`` largest singular values;
    ridge weighting maps each value to ``xi / (xi^2 + lambda^2)``.
    """
    xi = np.asarray(xi, dtype=np.float64)
    r = xi.size
    if isinstance(scheme, Tsvd):
        if not (1 <= scheme.rank <= r):
            raise ValueError(f"rank must be in [1, {r}], got {scheme.rank}")
        kept = xi[: scheme.rank]
        if np.any(kept == 0):
            raise ValueError("zero singular value inside the kept range")
        zeta = np.zeros(r)
        zeta[: scheme.rank] = 1.0 / kept
        return PenalizedDiagonal(zeta, scheme)
    if isinstance(scheme, Tikhonov):
        if not scheme.lam >= 0:                 # NaN fails it too
            raise ValueError("ridge parameter must be >= 0")
        if scheme.lam == 0:
            if np.any(xi == 0):
                raise ValueError("zero singular value with zero ridge parameter")
            return PenalizedDiagonal(1.0 / xi, scheme)
        return PenalizedDiagonal(xi / (xi * xi + scheme.lam ** 2), scheme)
    raise TypeError(f"unknown scheme {scheme!r}")


def pinv_matrix(f: SvdFactors) -> np.ndarray:
    """Moore-Penrose pseudo-inverse from the factors (double precision).

    Singular values below 1e-12 times the largest are treated as zero rather
    than inverted.  The matrix is read-only.
    """
    xi = f.xi
    if xi.size == 0 or xi[0] == 0:
        raise ValueError("cannot invert an all-zero matrix")
    keep = xi >= 1e-12 * xi[0]
    if not np.any(keep):
        raise ValueError("no singular values above the drop threshold")
    inv = np.zeros_like(xi)
    inv[keep] = 1.0 / xi[keep]
    return _read_only((f.v * inv) @ f.u.T)


# ---------------------------------------------------------------------------
# banked fixed-point datapaths
# ---------------------------------------------------------------------------

@dataclass
class InversionTelemetry:
    method: str
    mults: int = 0
    latency_cycles: int = 0
    k: int = 1
    data_format: str = "double"
    scheme: str = ""
    overflow_events: int = 0
    accumulator_bits: int = 0


@dataclass
class InversionResult:
    x_hat: np.ndarray
    telemetry: InversionTelemetry


def _resolve_width(fmt) -> int | None:
    if fmt is None:
        return None
    if isinstance(fmt, FxpFormat):
        return fmt.total_bits
    return int(fmt)


def _tensor_format(fmt, width: int, values: np.ndarray) -> FxpFormat:
    if isinstance(fmt, FxpFormat):
        return fmt
    return FxpFormat.for_range(width, float(np.max(np.abs(values), initial=0.0)))


def _accumulator_bits(mat_fmt: FxpFormat, vec_fmt: FxpFormat, terms: int) -> int:
    return mat_fmt.total_bits + vec_fmt.total_bits + _guard_bits(terms)


def _banked_mac(coef: np.ndarray, op, vec: np.ndarray, fmts: tuple, mode: RoundingMode):
    """The K row-banked MAC streams of one product: ``op(coef, vec)`` of the
    coefficient words by one vector of words, accumulated exactly and
    rounded and saturated once per output.  ``op`` is ``np.matmul`` (a
    matrix-vector product) or ``np.multiply`` (column scaling, one product
    per entry); ``fmts`` are the coefficient, vector and output formats.

    Each output row is one bank's independent dot product, so the words of
    K banks are those of one product over all rows, and it runs as one.

    Returns the output words, the number of saturated outputs and the
    number of multiplies issued, ``coef.shape[0] * vec.size``.
    """
    mat_fmt, vec_fmt, out_fmt = fmts
    guard = _guard_bits(vec.size) if op is np.matmul else 0
    shift = mat_fmt.frac_bits + vec_fmt.frac_bits - out_fmt.frac_bits
    wide = _mac(coef, vec, mat_fmt.total_bits, vec_fmt.total_bits, guard, op)
    out, overflows = _requantize(wide, shift, mode, out_fmt)
    return out, overflows, coef.shape[0] * vec.size


def _samples(y) -> np.ndarray:
    if isinstance(y, Interferogram):
        y = y.values
    return np.asarray(y, dtype=np.float64)


class _Unset:
    """Default of a run's ``fmt`` and ``k``: what a compiled datapath fixes,
    else the double-precision reference on one bank."""

    def __repr__(self) -> str:
        return "<unset>"


_UNSET = _Unset()


def _datapath(source, compiled_type, compile_fn, fmt, k):
    """The compiled datapath a run streams through: ``source`` itself when
    it is one (``fmt`` and ``k``, where given, must restate what it fixes),
    else ``source`` compiled at ``fmt`` (default None) and ``k`` (default 1)."""
    if not isinstance(source, compiled_type):
        return compile_fn(source, None if fmt is _UNSET else fmt, 1 if k is _UNSET else k)
    if (fmt is not _UNSET and fmt != source.fmt) or (k is not _UNSET and k != source.k):
        raise ValueError("a compiled datapath fixes its format and partition count")
    return source


# ---------------------------------------------------------------------------
# pseudo-inverse route
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CompiledPinv:
    """A pseudo-inverse in K row-banked coefficient memories.

    ``matrix`` is the whole double-precision matrix: the double reference's
    one product, and where a fixed-point run fixes its output binary point.
    ``words`` are the coefficient words in ``mat_fmt``, every bank's rows in
    one array (:func:`_banked_mac`), in the datapath's
    :func:`~ftsinv.fxp.word_type`, which each run quantizes y into as well;
    the double reference reads none.
    """

    matrix: np.ndarray
    fmt: object
    k: int
    mat_fmt: FxpFormat | None = None
    words: np.ndarray | None = None

    @property
    def word_type(self) -> type | None:
        """float64 or int64; None on the double reference."""
        return None if self.words is None else self.words.dtype.type


def compile_pinv(adag, fmt=None, k: int = 1) -> CompiledPinv:
    """Quantize the matrix ``adag`` once for the datapath ``fmt`` on ``k``
    row banks, ``1 <= k <= N``, which telemetry and the cost model read; see
    :func:`reconstruct_pinv` for ``fmt``.  Each run reads ``adag`` too, so a
    writable one is kept as a read-only copy (:func:`~ftsinv.fxp._frozen`)."""
    matrix = _frozen(np.atleast_2d(np.asarray(adag)))
    n = matrix.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"partition count must be in [1, {n}], got {k}")
    width = _resolve_width(fmt)
    if width is None:
        return CompiledPinv(matrix, None, k)
    mat_fmt = _tensor_format(fmt, width, matrix)
    # one product: the coefficient words by y's width-bit words, M terms
    word = word_type((mat_fmt.total_bits, width, _guard_bits(matrix.shape[1])))
    return CompiledPinv(matrix, fmt, k, mat_fmt,
                        quantize_array(matrix, mat_fmt, dtype=word))


def reconstruct_pinv(
    adag,
    y,
    fmt=_UNSET,
    k: int = _UNSET,
    mode: RoundingMode = DATAPATH_POLICY,
) -> InversionResult:
    """``x_hat = A_dagger y`` on K independent row-banked MAC streams.

    ``adag`` is the pseudo-inverse matrix or a :class:`CompiledPinv`.
    ``fmt`` selects the datapath: ``None`` (the default) for the
    double-precision reference, an integer word width (per-tensor binary
    points are then derived from the operand ranges), or an explicit
    :class:`~ftsinv.fxp.FxpFormat` used verbatim for every operand; ``k``
    defaults to 1.  A compiled datapath fixes both: left out, they are its
    own; given, they must equal them, or :class:`ValueError` is raised.
    """
    y = _samples(y)
    datapath = _datapath(adag, CompiledPinv, compile_pinv, fmt, k)
    n, m = datapath.matrix.shape
    if y.size != m:
        raise ValueError(f"interferogram length {y.size} != matrix columns {m}")
    telemetry = InversionTelemetry(method="pinv", k=datapath.k, scheme="pinv")

    width = _resolve_width(datapath.fmt)
    if width is None:
        x_hat = datapath.matrix @ y
        telemetry.mults = n * m
    else:
        mat_fmt = datapath.mat_fmt
        vec_fmt = _tensor_format(datapath.fmt, width, y)
        # the output scale, from the double reference where no format is given
        out_fmt = (datapath.fmt if isinstance(datapath.fmt, FxpFormat)
                   else _tensor_format(width, width, datapath.matrix @ y))
        out, telemetry.overflow_events, telemetry.mults = _banked_mac(
            datapath.words, np.matmul,
            quantize_array(y, vec_fmt, dtype=datapath.word_type),
            (mat_fmt, vec_fmt, out_fmt), mode)
        telemetry.accumulator_bits = _accumulator_bits(mat_fmt, vec_fmt, m)
        x_hat = dequantize_array(out, out_fmt)
        telemetry.data_format = f"{width}-bit ({mat_fmt.describe()} coeffs)"
    telemetry.latency_cycles = hwmodel.latency_cycles("pinv", datapath.k, n=n, m=m)
    return InversionResult(x_hat, telemetry)


# ---------------------------------------------------------------------------
# penalized-SVD route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Product2:
    """Everything product 2 gives a run of one acquisition on one kept set of
    lanes, whatever its diagonal: the double reference ``o2_ref = U_k^T y``,
    and on a fixed-point datapath its peak, the formats of y, U_k^T and
    product 2's output, the output words and their saturation count."""

    o2_ref: np.ndarray
    o2_peak: float = 0.0
    fmt_y: FxpFormat | None = None
    fmt_u: FxpFormat | None = None
    fmt_o2: FxpFormat | None = None
    o2: np.ndarray | None = None
    overflows: int = 0


@dataclass(eq=False)
class CompiledSvd:
    """SVD factors in the coefficient memories of one datapath.

    V and U^T are quantized once per binary point a kept set of columns
    needs: quantizing a whole matrix and slicing the kept columns gives the
    words quantizing the slice would, and the per-column maxima, which the
    factors hold (:class:`SvdFactors`), give each kept set's format.  Every
    word of the datapath (V, U^T, y, the penalized diagonal and the outputs
    of products 1 and 2) is of its ``word_type``, fixed at compile time from
    all three products (:func:`compile_svd`); None on the double reference.

    A run splits its work by what it changes with:

    * the diagonal alone: product 1's formats, its z words and a bound on
      its outputs, which :meth:`diagonals` compiles for a whole rank or
      ridge grid at once (:class:`CompiledDiagonal`);
    * the acquisition and the kept lanes, not the penalized values: product
      2, which runs that differ only in the diagonal share.  For the latest
      acquisition the datapath keeps y's words, the exact U^T y accumulator
      per U binary point, and one product-2 stage per kept set and rounding
      mode (:class:`_Product2`); every ridge weight keeps all lanes, so a
      whole ridge sweep runs one stage.  A run whose y differs from the
      latest acquisition in any bit, also after an in-place change, starts
      them afresh;
    * the diagonal and the acquisition: product 3's output format, which
      the range of the double reference x_ref fixes where no format is
      given, and which :meth:`output_format` decides for every point of a
      grid at once on its first run of an acquisition and keeps for the
      latest grid; and the N x r products 1 and 3, whose exact
      accumulators :meth:`accumulator` forms for every point of a grid in
      one pass and keeps for the latest grid of two or more and rounding
      mode.
    """

    factors: SvdFactors
    fmt: object
    k: int
    word_type: type | None
    _words: dict = field(default_factory=dict, repr=False)
    _y: np.ndarray | None = field(default=None, repr=False)
    _y_words: tuple = field(default=(), repr=False)     # (fmt_y, y_raw)
    _ut_y: dict = field(default_factory=dict, repr=False)
    _stages: dict = field(default_factory=dict, repr=False)
    _formats: tuple = field(default=(None, None), repr=False)   # (grid, its formats)
    _sums: tuple = field(default=(None, None, ()), repr=False)  # (grid, mode, its sums)

    def words(self, name: str, fmt: FxpFormat) -> np.ndarray:
        """All of V (``"v"``) or U^T (``"ut"``) quantized at ``fmt``."""
        key = (name, fmt)
        if key not in self._words:
            self._words[key] = quantize_array(getattr(self.factors, name), fmt,
                                              dtype=self.word_type)
        return self._words[key]

    def diagonals(self, zs) -> list:
        """The penalized diagonals ``zs`` (a rank or ridge grid, or one)
        compiled for runs on this datapath, each a :class:`CompiledDiagonal`.

        Each step is one pass over the grid's (P, r) values: product 1's
        formats by :func:`~ftsinv.fxp.frac_bits_for_range`, the z words by
        one :func:`~ftsinv.fxp.quantize_array` of the rows scaled each to
        its own binary point (as ``quantize_array`` scales one), and on
        float64 words the pre-scaled words and their saturation bound.
        A grid of two or more is compiled to run whole: the first run of
        any of its points on an acquisition forms every point's output
        format and product-3 accumulator (:meth:`output_format`,
        :meth:`accumulator`)."""
        r = self.factors.xi.size
        if any(z.zeta.size != r for z in zs):
            raise ValueError("penalized diagonal length does not match the factors")
        zeta = np.array([z.zeta for z in zs], dtype=np.float64).reshape(len(zs), r)
        kept = [_kept_lanes(row) for row in zeta]
        width = _resolve_width(self.fmt)
        if width is None:
            return _grid([CompiledDiagonal(self, z, lanes, row[lanes])
                          for z, lanes, row in zip(zs, kept, zeta)])
        mag = np.abs(zeta)
        # product 1's (V, z, output) ranges per point; rounding is monotone,
        # so max_j colmax|V|_j |z_j| is max |V_k diag(z)|
        ranges = np.array([np.where(zeta != 0, self.factors.v_colmax, 0.0), mag,
                           self.factors.v_colmax * mag]).max(axis=2, initial=0.0)
        if isinstance(self.fmt, FxpFormat):
            # a given format may not hold the values, and scaled outside
            # quantize_array they could pass the float range and be refused
            fracs = np.full(ranges.shape, self.fmt.frac_bits)
            words = quantize_array(zeta, self.fmt, dtype=self.word_type)
        else:
            fracs = frac_bits_for_range(width, ranges)
            words = quantize_array(np.ldexp(zeta, fracs[1][:, None]), FxpFormat(width, 0),
                                   dtype=self.word_type)
        fmts = {f: FxpFormat(width, f) for f in set(fracs.ravel().tolist())}
        fmts = [tuple(fmts[f] for f in point) for point in fracs.T.tolist()]
        unsaturated = [()] * len(zs)
        if self.word_type is np.float64:
            # product 1's output stage scales V word times z word by
            # 2**-shift: exact on the z word alone, as both are integers and
            # so is their product, below 2**52 (compile_svd)
            words = np.ldexp(words, (fracs[2] - fracs[0] - fracs[1])[:, None])
            # V words round at entry under ENTRY_POLICY and saturate to at
            # most 2**(width - 1) in magnitude, so a column's largest |V word|
            # is at most its max |V| so rounded, on whichever side of 0 rounds
            # further out.  No output of a lane passes that times |z word|,
            # rounded as the stage rounds; the format holds one more negative
            # word, so the positive side decides
            scaled = np.ldexp(self.factors.v_colmax, fracs[0][:, None])
            v_peak = np.minimum(np.maximum(-_round_in_place(-scaled, ENTRY_POLICY),
                                           _round_in_place(scaled, ENTRY_POLICY)),
                                2.0 ** (width - 1))
            peak = (v_peak * np.abs(words)).max(axis=1, initial=0.0)
            fits = [(mode, (_round_in_place(peak.copy(), mode) < 2.0 ** (width - 1)).tolist())
                    for mode in RoundingMode]
            unsaturated = [tuple(mode for mode, ok in fits if ok[p]) for p in range(len(zs))]
        return _grid([CompiledDiagonal(self, z, lanes, row[lanes], point, w[lanes], safe)
                      for z, lanes, row, point, w, safe
                      in zip(zs, kept, zeta, fmts, words, unsaturated)])

    def product2(self, y: np.ndarray, kept, mode: RoundingMode) -> _Product2:
        """Product 2 of the acquisition ``y`` on the lanes ``kept`` (a
        leading slice or an index array), its output stage rounding under
        ``mode``; ``y`` becomes the latest acquisition."""
        if self._y is None or not _same_bits(self._y, y):
            y = np.array(y, order="C")       # a contiguous copy of its own
            width = _resolve_width(self.fmt)
            y_words = ()
            if width is not None:
                fmt_y = _tensor_format(self.fmt, width, y)
                y_words = (fmt_y, quantize_array(y, fmt_y, dtype=self.word_type))
            self._y, self._y_words, self._ut_y = y, y_words, {}
            self._stages, self._formats, self._sums = {}, (None, None), (None, None, ())
        return self._stage(kept, mode)

    def _stage(self, kept, mode: RoundingMode) -> _Product2:
        key = (kept.stop if isinstance(kept, slice) else kept.tobytes(), mode)
        stage = self._stages.get(key)
        if stage is None:
            stage = self._stages[key] = self._product2(kept, mode)
        return stage

    def output_format(self, z: CompiledDiagonal, mode: RoundingMode) -> FxpFormat:
        """Product 3's output format for the compiled diagonal ``z`` on the
        latest acquisition (:meth:`product2`) of a fixed-point datapath: a
        given format itself, else ``FxpFormat.for_range`` of max |x_ref|.

        At an integer width the first call for any point of a grid of two
        or more decides every point's format from a bound
        (:meth:`_output_formats`), which the datapath keeps for the latest
        such grid; a point it leaves undecided, a grid of one, whose bound
        would cost more than the x_ref it saves, and a diagonal whose fields
        are not its grid point's (:meth:`_Grid.holds`), form x_ref."""
        if isinstance(self.fmt, FxpFormat):
            return self.fmt
        width = _resolve_width(self.fmt)
        grid = z.grid
        held, formats = self._formats
        if held is not grid and len(grid.zk) > 1:
            held, formats = self._formats = grid, self._output_formats(grid, mode)
        fmt = formats[z.index] if held is grid and grid.holds(z) else None
        if fmt is None:
            fmt = _tensor_format(width, width,
                                 _x_ref(self.factors, z, self._stage(z.kept, mode)))
        return fmt

    def _output_formats(self, grid: _Grid, mode: RoundingMode) -> list:
        """Product 3's output format of each point of ``grid`` on the latest
        acquisition, or None where the bound cannot decide it.

        Column p of Q (r x P) is point p's products ``zk * o2_ref`` on its
        kept lanes, 0 elsewhere, so column p of V Q sums point p's x_ref in
        another order.  Under any order of summation or fused multiply-add,
        x_ref and V Q each lie within ``gamma_{r+1} sum_j |V_ij z_j o_j| <=
        gamma_{r+1} rho ||q_p||_2`` of the exact sum (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 3.1), with ``gamma_n = n u / (1
        - n u)``, u = 2**-53 and rho the largest row 2-norm of V.  So max
        |x_ref| lies within ``E_p = 2 gamma_{r+1} rho ||q_p||_2`` of the peak
        of column p, plus margins for the rounding of E_p and for subnormal
        products (each below 2**-1074 in absolute error).
        ``FxpFormat.for_range`` is monotone in its range, so a format equal
        at both ends of ``peak +- E_p`` is x_ref's; a point whose ends
        straddle its one threshold, ``2**k (1 - 2**-w)``, or whose lower end
        is not positive or upper end not finite, is left undecided."""
        f, width = self.factors, _resolve_width(self.fmt)
        r = f.xi.size
        q = np.zeros((r, len(grid.zk)))
        o2_peak = np.zeros(len(grid.zk))
        gamma = (r + 1) * 2.0 ** -53 / (1 - (r + 1) * 2.0 ** -53)
        rho = f.v_rownorm
        with np.errstate(over="ignore", invalid="ignore"):      # past the float range: undecided
            for p, (kept, zk) in enumerate(zip(grid.kept, grid.zk)):
                if zk.size:
                    stage = self._stage(kept, mode)
                    q[kept, p] = zk * stage.o2_ref
                    o2_peak[p] = stage.o2_peak
            peak = np.max(np.abs(f.v @ q), axis=0, initial=0.0)
            bound = 2 * gamma * rho * _norm_bounds(q, 0) + 2.0 ** -1072 * r * (rho + o2_peak + 4)
            ends = np.nextafter(peak + [[-1.0], [1.0]] * bound, [[-np.inf], [np.inf]])
        lo, hi = ends
        frac = frac_bits_for_range(width, ends)
        decided = (lo > 0) & (hi < np.inf) & (frac[0] == frac[1])
        return [FxpFormat(width, b) if ok else None
                for b, ok in zip(frac[1].tolist(), decided.tolist())]

    def accumulator(self, z: CompiledDiagonal, mode: RoundingMode) -> tuple:
        """Product 3's exact accumulator (a :class:`~ftsinv.fxp._Wide`) for
        the compiled diagonal ``z``, which has a kept lane, on the latest
        acquisition (:meth:`product2`) of a fixed-point datapath, with
        product 1's saturation count on z's lanes.  The caller may spend
        the accumulator.

        The first call for any point of a grid of two or more under
        ``mode`` forms every point's (:meth:`_accumulators`), which the
        datapath keeps for the latest grid and mode, and each call takes a
        copy of its own; a grid of one, and a diagonal whose fields are not
        its grid point's (:meth:`_Grid.holds`), which runs alone, form theirs
        on each call and keep none."""
        grid = z.grid
        if not grid.holds(z):
            grid = _Grid.of([z])
        if len(grid.kept) == 1:
            return self._accumulators(grid, mode)[0]
        held, held_mode, sums = self._sums
        if held is not grid or held_mode is not mode:
            sums = self._accumulators(grid, mode)
            self._sums = (grid, mode, sums)
        acc, count = sums[z.index]
        return acc[:], count

    def _accumulators(self, grid: _Grid, mode: RoundingMode) -> list:
        """Product 3's accumulator and product 1's saturation count of every
        point of ``grid`` with a kept lane, on the latest acquisition; None
        for the others.

        Points on leading lanes whose product-1 formats (V, z, o1) and
        product-2 stage formats (U, o2) coincide form a group, whose base is
        the point with the most kept lanes; any other point, and the point
        of a grid of one, is a group of one.  In a group a lane's o1 column
        and o2 word are fixed by its z word, so the leading lanes on which a
        point's z words equal the base's carry the base's products.  The
        base's product 1 runs once, in blocks cut where those prefixes end,
        and each cut holds the exact partial sum of the base's products 3 up
        to it and their saturation count; a point's accumulator is the sum
        at its cut plus that of its own tail lanes, and a group of one's is
        its one block.  Each sum is of a subset of the point's own exact
        products, on one limb plan whose guard covers the base's lanes
        (:meth:`~ftsinv.fxp._Wide.plus`), so it is the accumulator the point
        forms alone.  Every product 1 is formed in one buffer."""
        groups, stages, grouped = {}, {}, len(grid.kept) > 1
        for p, kept in enumerate(grid.kept):
            if grid.zk[p].size:
                stage = stages[p] = self._stage(kept, mode)
                key = ((grid.fmts[p], stage.fmt_u, stage.fmt_o2)
                       if grouped and isinstance(kept, slice) else p)
                groups.setdefault(key, []).append(p)
        sums = [None] * len(grid.kept)
        n = self.factors.v.shape[0]
        buf = (np.empty((n, max(zk.size for zk in grid.zk)), order="F")
               if self.word_type is np.float64 else None)
        with _column_scalings(n):
            for members in groups.values():
                base = max(members, key=lambda p: grid.zk[p].size)
                words, stage = grid.words[base], stages[base]
                widths = (grid.fmts[base][2].total_bits, stage.fmt_o2.total_bits,
                          _guard_bits(words.size))

                def extend(acc, count, p, start, end):
                    """``(acc, count)`` plus point p's products on lanes start to end."""
                    o1, overflows = self._product1(grid, p, start, end, mode, buf)
                    part = _mac(o1, stage.o2[start:end], *widths, np.matmul)
                    return (part if acc is None else acc.plus(part)), count + overflows

                if len(members) == 1:
                    sums[base] = extend(None, 0, base, 0, words.size)
                    continue
                # each point's cut: the leading lanes on which its z words are the base's
                cuts = {base: words.size}
                for p in members:
                    if p != base:
                        rank = grid.zk[p].size
                        differ = np.flatnonzero(grid.words[p] != words[:rank])
                        cuts[p] = int(differ[0]) if differ.size else rank
                prefix, start = {0: (None, 0)}, 0
                for end in sorted(set(cuts.values()) - {0}):
                    prefix[end] = extend(*prefix[start], base, start, end)
                    start = end
                for p in members:
                    cut, rank = cuts[p], grid.zk[p].size
                    acc, count = prefix[cut]
                    sums[p] = (acc, count) if cut == rank else extend(acc, count, p, cut, rank)
        return sums

    def _product1(self, grid: _Grid, p: int, start: int, end: int, mode: RoundingMode,
                  buf: np.ndarray | None) -> tuple:
        """Product 1, V's columns scaled by point p's z words, on its kept
        lanes ``start`` to ``end`` of ``grid``; returns the output words and
        their saturation count.  On float64 words the output is formed in
        those columns of ``buf``."""
        kept, fmts = grid.kept[p], grid.fmts[p]
        words = grid.words[p][start:end]
        v_words = self.words("v", fmts[0])[:, slice(start, end) if isinstance(kept, slice)
                                           else kept[start:end]]
        if self.word_type is not np.float64:
            return _banked_mac(v_words, np.multiply, words, fmts, mode)[:2]
        # the z words carry the output stage's scale: one exact multiply,
        # rounded in place, and saturated only where the compiled bound
        # cannot rule it out
        o1 = _round_in_place(np.multiply(v_words, words, out=buf[:, start:end]), mode)
        if mode in grid.unsaturated[p]:
            return o1, 0
        return saturate_array(o1, fmts[2])[:2]

    def _product2(self, kept, mode: RoundingMode) -> _Product2:
        o2_ref = self.factors.ut[kept] @ self._y
        if not self._y_words:
            return _Product2(o2_ref)
        fmt_y, y_raw = self._y_words
        width = fmt_y.total_bits
        fmt_u = _tensor_format(self.fmt, width, self.factors.ut_rowmax[kept])
        o2_peak = float(np.max(np.abs(o2_ref), initial=0.0))
        fmt_o2 = _tensor_format(self.fmt, width, o2_peak)
        acc = self._ut_y.get(fmt_u)
        if acc is None:
            # exact U^T y over every row of U^T, shared by every kept set
            acc = self._ut_y[fmt_u] = _mac(
                self.words("ut", fmt_u), y_raw, fmt_u.total_bits, fmt_y.total_bits,
                _guard_bits(y_raw.size), np.matmul)
        # the output stage is elementwise, so its banks need no split
        o2, overflows = _requantize(acc[kept],
                                    fmt_u.frac_bits + fmt_y.frac_bits - fmt_o2.frac_bits,
                                    mode, fmt_o2)
        return _Product2(o2_ref, o2_peak, fmt_y, fmt_u, fmt_o2, o2, overflows)


@dataclass(eq=False)
class CompiledDiagonal:
    """A penalized diagonal compiled for the runs of one :class:`CompiledSvd`
    (:meth:`CompiledSvd.diagonals`): what a run reads that depends on the
    diagonal alone.

    ``kept`` are the lanes with a nonzero value, a leading slice where they
    lead (every rank and most ridge weights) and else their indices, and
    ``zk`` their values, which the double reference reads.  On a fixed-point
    datapath ``fmts`` are product 1's (V, z, output) formats and ``words``
    the kept lanes' z words in the datapath's word type.  float64 words are
    pre-scaled by 2**-shift of product 1's output stage, and
    ``unsaturated`` holds the rounding modes under which that stage
    provably saturates no word.  ``grid`` holds those fields of every
    diagonal that one call of :meth:`CompiledSvd.diagonals` compiled, this
    one's at ``index``, from which the datapath forms the output formats
    and product-3 accumulators of all of them at once.  A diagonal whose
    fields are not its grid point's (one made by ``dataclasses.replace``)
    runs alone, from its own fields.
    """

    datapath: CompiledSvd
    penalized: PenalizedDiagonal
    kept: object
    zk: np.ndarray
    fmts: tuple = ()
    words: np.ndarray | None = None
    unsaturated: tuple = ()
    grid: _Grid | None = field(default=None, repr=False)
    index: int = 0

    @property
    def scheme(self):
        return self.penalized.scheme

    @property
    def rank(self) -> int:
        return self.zk.size


@dataclass(frozen=True, eq=False)
class _Grid:
    """The compiled fields of the points of one grid, in order, each named
    as on :class:`CompiledDiagonal`: what their output formats and product-3
    accumulators depend on besides the acquisition.  It holds no diagonal
    or datapath, so a datapath that keeps it beside its formats and sums is
    in no reference cycle."""

    kept: tuple
    zk: tuple
    fmts: tuple
    words: tuple
    unsaturated: tuple

    @classmethod
    def of(cls, points) -> _Grid:
        """The grid of the compiled diagonals ``points``' fields."""
        return cls(*zip(*map(_grid_fields, points)))

    def holds(self, z: CompiledDiagonal) -> bool:
        """Whether ``z``'s fields are those of this grid's point at its index."""
        return all(a is b[z.index] for a, b in zip(_grid_fields(z), _grid_fields(self)))


_grid_fields = operator.attrgetter(*(f.name for f in fields(_Grid)))


def _grid(points: list) -> list:
    """``points``, each told its grid and its index in it."""
    grid = _Grid.of(points)
    for index, point in enumerate(points):
        point.grid, point.index = grid, index
    return points


def _column_scalings(n: int):
    """The scope of column scalings of V (x_ref's and the grid pass's
    products 1), which run along V's column-major columns of ``n`` words."""
    # numpy's default ufunc buffer copies those columns through in pieces.
    # With a buffer of one column, in process on one thread, each took
    # 0.57-0.68x the time at N = r = 256, and a whole run read 0.78-0.96x at
    # N = 256, 0.99-1.03x at N = 128 and 1.06-1.12x at N = 64, where the
    # scope's own cost outweighs the copies it saves.  With product 1 alone
    # in it at N = 256 (medians of 15), the 40-point ridge and 16-rank grids
    # run 0.71x and 0.78x at 16 bits, 0.95x and 0.97x at 32 bits (int64
    # words), and 0.60x and 0.68x on the double route; a ridge grid of one,
    # which forms x_ref, 0.83x, 0.91x and 0.70x.
    return _ufunc_buffer(n) if n >= 256 else contextlib.nullcontext()


def _x_ref(f: SvdFactors, z: CompiledDiagonal, stage: _Product2) -> np.ndarray:
    """The double reference ``(V_k diag zk) o2_ref``; V's column-major
    layout fixes the order in which BLAS sums, and so its bits."""
    with _column_scalings(f.v.shape[0]):
        return (f.v[:, z.kept] * z.zk) @ stage.o2_ref


def _kept_lanes(zeta: np.ndarray):
    """The lanes of the nonzero values of ``zeta``: a leading slice where
    they lead, so a run reads views, else their indices."""
    kept = np.flatnonzero(zeta)
    return slice(0, kept.size) if kept.size == 0 or kept[-1] == kept.size - 1 else kept


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bits (NaN and -0.0 included)."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def compile_svd(factors: SvdFactors, fmt=None, k: int = 1) -> CompiledSvd:
    """The factors on the datapath ``fmt`` with ``k`` banks; see
    :func:`reconstruct_svd`.  The banks partition the N rows of V, so
    ``1 <= k <= N``.

    The word type is float64 where all three products are exact in float64
    at the datapath's width w: product 1 (one V word by one z word), product
    2 (M terms of U^T y) and product 3 (up to r terms of O1 O2, r the number
    of singular values); else int64."""
    n = factors.v.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"partition count must be in [1, {n}], got {k}")
    width = _resolve_width(fmt)
    word = None
    if width is not None:
        m, r = factors.u.shape
        word = word_type((width, width, 0), (width, width, _guard_bits(m)),
                         (width, width, _guard_bits(r)))
    return CompiledSvd(factors, fmt, k, word)


def reconstruct_svd(
    factors,
    z,
    y,
    fmt=_UNSET,
    k: int = _UNSET,
    mode: RoundingMode = DATAPATH_POLICY,
) -> InversionResult:
    """Three-product reconstruction ``x_hat = (V Z) (U^T y)`` at runtime.

    ``factors`` are :class:`SvdFactors` or a :class:`CompiledSvd`, which
    fixes ``fmt`` and ``k`` as in :func:`reconstruct_pinv`.  ``z`` is a
    :class:`PenalizedDiagonal`, compiled here as a grid of one, or one of
    the datapath's compiled diagonals (:meth:`CompiledSvd.diagonals`); a
    diagonal another datapath compiled is refused with :class:`ValueError`.
    All three matrix products run on the emulated datapath (the penalized
    diagonal stays a runtime input so regularization parameters can change
    per acquisition).  Lanes with a zero penalized value are skipped, so the
    multiplier count is exactly ``rank * (2N + M)`` for the effective rank.

    The double route returns the double reference ``x_ref = (V_k diag zk)
    o2_ref``.  A fixed-point run at an integer width takes its output binary
    point from max |x_ref| without forming x_ref: the first run of any point
    of a grid on an acquisition bounds every point's x_ref at once, and only
    a point whose bound straddles a format threshold, or a grid of one, forms
    it (:meth:`CompiledSvd.output_format`); a run at a given format forms
    none.  Products 1 and 3 of every point of a grid of two or more run in
    one pass on its first run (:meth:`CompiledSvd.accumulator`), so a run
    does only its output stage and telemetry; a grid of one forms them on
    each run.
    """
    y = _samples(y)
    datapath = _datapath(factors, CompiledSvd, compile_svd, fmt, k)
    f, k = datapath.factors, datapath.k
    m = f.u.shape[0]
    n = f.v.shape[0]
    if y.size != m:
        raise ValueError(f"interferogram length {y.size} != matrix rows {m}")
    if isinstance(z, PenalizedDiagonal):
        (z,) = datapath.diagonals([z])
    elif z.datapath is not datapath:
        raise ValueError("a compiled diagonal runs only on the datapath that compiled it")
    scheme_name = "tik" if isinstance(z.scheme, Tikhonov) else "tsvd"
    telemetry = InversionTelemetry(method=scheme_name, k=k, scheme=z.penalized.describe())
    width = _resolve_width(datapath.fmt)
    if width is not None:
        telemetry.data_format = f"{width}-bit"
    rank = z.rank
    telemetry.mults = rank * (2 * n + m)
    telemetry.latency_cycles = hwmodel.latency_cycles(scheme_name, k, n=n, m=m, rank=rank)
    if rank == 0:
        return InversionResult(np.zeros(n), telemetry)
    stage = datapath.product2(y, z.kept, mode)
    if width is None:
        return InversionResult(_x_ref(f, z, stage), telemetry)
    fmt_x = datapath.output_format(z, mode)
    # products 1 and 3, formed for the whole grid on its first run
    acc, nov1 = datapath.accumulator(z, mode)
    # product 3's output stage, each bank on the rows product 1 left in it
    x_raw, nov3 = _requantize(acc, z.fmts[2].frac_bits + stage.fmt_o2.frac_bits
                              - fmt_x.frac_bits, mode, fmt_x)
    telemetry.overflow_events = nov1 + stage.overflows + nov3
    telemetry.accumulator_bits = _accumulator_bits(stage.fmt_u, stage.fmt_y, m)
    return InversionResult(dequantize_array(x_raw, fmt_x), telemetry)
