"""Pseudo-inverse, truncated-SVD and ridge (Tikhonov) spectrum reconstruction
over fixed-point matrix-vector datapaths with K-way row-banked memories.

The factorization is an offline calibration step computed in double precision
(LAPACK, under a canonical sign convention).  Each route is then split the way
the hardware splits it:

* **compile** (:func:`compile_pinv`, :func:`compile_svd`) quantizes the
  coefficient matrices for one word width and lays them out in K row
  partitions: what is written to on-chip RAM once;
* **run** (:func:`reconstruct_pinv`, :func:`reconstruct_svd`) streams one
  acquisition, and on the SVD route one penalized diagonal, through them.
  Given a matrix or factors instead of a compiled datapath, the run step
  compiles its own.

Every product accumulates exactly in the package's one MAC,
:func:`~ftsinv.fxp._mac`, and rounds once in its output stage,
:func:`~ftsinv.fxp._requantize`, in int64 at every width.  The banked kernel
:func:`_fxp_matvec_banked` runs the pseudo-inverse and product 3 of the SVD
route per row partition; product 2 (U^T y) is one accumulator over all of
U^T, shared by the runs of a rank or ridge sweep; product 1 is elementwise
scaling.  The accumulator is two data widths plus ``ceil(log2(M))`` guard
bits wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SvdConvergenceError
from .fxp import (
    DATAPATH_POLICY,
    FxpFormat,
    OpCounter,
    RoundingPolicy,
    _guard_bits,
    _mac,
    _requantize,
    _Wide,
    dequantize_array,
    quantize_array,
)
from .optics import Interferogram, TransferMatrix


# ---------------------------------------------------------------------------
# offline factorization
# ---------------------------------------------------------------------------

@dataclass
class SvdFactors:
    """``A = U diag(xi) V^T`` with singular values in decreasing order."""

    u: np.ndarray
    xi: np.ndarray
    v: np.ndarray

    @property
    def rank_bound(self) -> int:
        return int(self.xi.size)

    def reconstruction(self) -> np.ndarray:
        return (self.u * self.xi) @ self.v.T

    def residuals(self, a: np.ndarray) -> dict:
        """Orthogonality and reconstruction residuals (max norms)."""
        r = self.rank_bound
        utu = self.u.T @ self.u - np.eye(r)
        vtv = self.v.T @ self.v - np.eye(r)
        rec = self.reconstruction() - a
        denom = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
        return {
            "orth_u": float(np.max(np.abs(utu))),
            "orth_v": float(np.max(np.abs(vtv))),
            "reconstruction_rel": float(np.max(np.abs(rec))) / denom,
        }

    @property
    def condition(self) -> float:
        nz = self.xi[self.xi > 0]
        if nz.size == 0:
            return math.inf
        return float(self.xi[0] / nz[-1]) if nz.size == self.xi.size else math.inf

    @property
    def gram_condition(self) -> float:
        """Condition number of the normal-equations matrix ``A^T A``."""
        return self.condition ** 2


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
    return SvdFactors(u=u, xi=xi, v=vt.T)


# ---------------------------------------------------------------------------
# singular-value penalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tsvd:
    rank: int


@dataclass(frozen=True)
class Tikhonov:
    lam: float


@dataclass(frozen=True)
class Pinv:
    pass


@dataclass
class PenalizedDiagonal:
    zeta: np.ndarray
    scheme: object

    @property
    def effective_rank(self) -> int:
        return int(np.count_nonzero(self.zeta))

    def describe(self) -> str:
        s = self.scheme
        if isinstance(s, Tsvd):
            return f"tsvd(rank={s.rank})"
        if isinstance(s, Tikhonov):
            return f"tik(lambda={s.lam:g})"
        return "pinv"


def penalize(xi: np.ndarray, scheme) -> PenalizedDiagonal:
    """Penalized reciprocal diagonal for the chosen regularization scheme.

    Truncation keeps the reciprocals of the ``rank`` largest singular values;
    ridge weighting maps each value to ``xi / (xi^2 + lambda^2)``.  The plain
    pseudo-inverse is the shared special case (full rank, zero ridge) and is
    produced by the identical code path so the collapse is exact.
    """
    xi = np.asarray(xi, dtype=np.float64)
    r = xi.size
    if isinstance(scheme, Pinv):
        scheme = Tsvd(rank=r)
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
        if scheme.lam < 0:
            raise ValueError("ridge parameter must be >= 0")
        if scheme.lam == 0:
            if np.any(xi == 0):
                raise ValueError("zero singular value with zero ridge parameter")
            return PenalizedDiagonal(1.0 / xi, scheme)
        return PenalizedDiagonal(xi / (xi * xi + scheme.lam ** 2), scheme)
    raise TypeError(f"unknown scheme {scheme!r}")


def pinv_matrix(f: SvdFactors, drop_tol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse from the factors (double precision).

    Singular values below ``drop_tol`` times the largest are treated as zero
    rather than inverted.
    """
    xi = f.xi
    if xi.size == 0 or xi[0] == 0:
        raise ValueError("cannot invert an all-zero matrix")
    keep = xi >= drop_tol * xi[0]
    if not np.any(keep):
        raise ValueError("no singular values above the drop threshold")
    inv = np.zeros_like(xi)
    inv[keep] = 1.0 / xi[keep]
    return (f.v * inv) @ f.u.T


# ---------------------------------------------------------------------------
# banked fixed-point datapaths
# ---------------------------------------------------------------------------

@dataclass
class BankedOperand:
    """Row partition of a matrix across K independent memories."""

    partitions: list

    def __post_init__(self):
        if not self.partitions:
            raise ValueError("at least one partition required")
        self.partitions = [np.atleast_2d(np.asarray(p)) for p in self.partitions]

    @classmethod
    def split(cls, matrix: np.ndarray, k: int) -> "BankedOperand":
        matrix = np.atleast_2d(np.asarray(matrix))
        rows = matrix.shape[0]
        if not (1 <= k <= rows):
            raise ValueError(f"partition count must be in [1, {rows}], got {k}")
        return cls(list(np.array_split(matrix, k, axis=0)))

    @property
    def k(self) -> int:
        return len(self.partitions)

    @property
    def rows(self) -> int:
        return sum(p.shape[0] for p in self.partitions)

    def reassemble(self) -> np.ndarray:
        return np.vstack(self.partitions)


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


def _fxp_matvec_banked(
    banked: BankedOperand,
    mat_fmt: FxpFormat,
    vec_raw: np.ndarray,
    vec_fmt: FxpFormat,
    out_fmt: FxpFormat,
    counter: OpCounter,
    policy: RoundingPolicy,
):
    """Row-banked MAC streams over coefficient words, with exact wide
    accumulation and one rounding and saturation per output.

    Returns the output words and the number of saturated outputs.
    """
    m = vec_raw.size
    guard = _guard_bits(m)
    shift = mat_fmt.frac_bits + vec_fmt.frac_bits - out_fmt.frac_bits
    outs, overflows = [], 0
    for part in banked.partitions:
        wide = _mac(part, vec_raw, mat_fmt.total_bits, vec_fmt.total_bits, guard,
                    np.matmul)
        out, nov = _requantize(wide, shift, policy.mode, out_fmt)
        overflows += nov
        counter.add(part.shape[0] * m)
        outs.append(out)
    return np.concatenate(outs), overflows


def _fxp_scale_banked(banked: BankedOperand, mat_fmt: FxpFormat, diag_raw: np.ndarray,
                      diag_fmt: FxpFormat, out_fmt: FxpFormat, counter: OpCounter,
                      policy: RoundingPolicy):
    """Row-banked column scaling ``M diag(d)`` of coefficient words, one
    product per entry; the result stays in its banks.  Returns the scaled
    :class:`BankedOperand` and the number of saturated entries."""
    shift = mat_fmt.frac_bits + diag_fmt.frac_bits - out_fmt.frac_bits
    outs, overflows = [], 0
    for part in banked.partitions:
        wide = _mac(part, diag_raw, mat_fmt.total_bits, diag_fmt.total_bits, 0,
                    np.multiply)
        out, nov = _requantize(wide, shift, policy.mode, out_fmt)
        overflows += nov
        counter.add(part.size)
        outs.append(out)
    return BankedOperand(outs), overflows


def _attach_latency(telemetry: InversionTelemetry, method: str,
                    n: int, m: int, rank: int | None, k: int) -> None:
    from . import hwmodel

    calib = hwmodel.default_calibration()
    if method == "pinv":
        cost = hwmodel.pinv_cost(k, calib, n=n, m=m)
    else:
        cost = hwmodel.svd_cost(k, calib, n=n, m=m, rank=rank)
    telemetry.latency_cycles = cost.latency_cycles


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

    ``banked`` holds the coefficient words, or the doubles when ``fmt`` is
    None.  ``matrix`` is the double-precision matrix, from which each run
    fixes its output binary point.
    """

    banked: BankedOperand
    fmt: object
    mat_fmt: FxpFormat | None = None
    matrix: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.banked.k


def compile_pinv(adag, fmt=None, k: int = 1) -> CompiledPinv:
    """Quantize ``adag`` (a matrix or an already-split
    :class:`BankedOperand`) for the datapath ``fmt`` and lay it out in ``k``
    row partitions; see :func:`reconstruct_pinv` for ``fmt``."""
    banked = adag if isinstance(adag, BankedOperand) else BankedOperand.split(adag, k)
    width = _resolve_width(fmt)
    if width is None:
        return CompiledPinv(banked, None)
    full = banked.reassemble()
    mat_fmt = _tensor_format(fmt, width, full)
    words = BankedOperand([quantize_array(p, mat_fmt) for p in banked.partitions])
    return CompiledPinv(words, fmt, mat_fmt, full)


def reconstruct_pinv(
    adag,
    y,
    fmt=_UNSET,
    k: int = _UNSET,
    policy: RoundingPolicy = DATAPATH_POLICY,
    counter: OpCounter | None = None,
) -> InversionResult:
    """``x_hat = A_dagger y`` on K independent row-banked MAC streams.

    ``adag`` is the pseudo-inverse matrix, an already-split
    :class:`BankedOperand`, or a :class:`CompiledPinv`.  ``fmt`` selects the
    datapath: ``None`` (the default) for the double-precision reference, an
    integer word width (per-tensor binary points are then derived from the
    operand ranges), or an explicit :class:`~ftsinv.fxp.FxpFormat` used
    verbatim for every operand; ``k`` defaults to 1.  A compiled datapath
    fixes both: left out, they are its own; given, they must equal them, or
    :class:`ValueError` is raised.
    """
    y = _samples(y)
    datapath = _datapath(adag, CompiledPinv, compile_pinv, fmt, k)
    banked = datapath.banked
    n, m = banked.rows, banked.partitions[0].shape[1]
    if y.size != m:
        raise ValueError(f"interferogram length {y.size} != matrix columns {m}")
    counter = counter or OpCounter()
    telemetry = InversionTelemetry(method="pinv", k=banked.k, scheme="pinv")

    width = _resolve_width(datapath.fmt)
    if width is None:
        outs = []
        for part in banked.partitions:
            outs.append(part @ y)
            counter.add(part.shape[0] * m)
        x_hat = np.concatenate(outs)
    else:
        mat_fmt = datapath.mat_fmt
        x_ref = datapath.matrix @ y            # double reference fixes the output scale
        vec_fmt = _tensor_format(datapath.fmt, width, y)
        out_fmt = _tensor_format(datapath.fmt, width, x_ref)
        raw, telemetry.overflow_events = _fxp_matvec_banked(
            banked, mat_fmt, quantize_array(y, vec_fmt), vec_fmt, out_fmt, counter, policy
        )
        telemetry.accumulator_bits = _accumulator_bits(mat_fmt, vec_fmt, m)
        x_hat = dequantize_array(raw, out_fmt)
        telemetry.data_format = f"{width}-bit ({mat_fmt.describe()} coeffs)"
    telemetry.mults = counter.mults
    _attach_latency(telemetry, "pinv", n, m, None, banked.k)
    return InversionResult(x_hat, telemetry)


# ---------------------------------------------------------------------------
# penalized-SVD route
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CompiledSvd:
    """SVD factors in the coefficient memories of one datapath.

    V and U^T are quantized once per binary point a kept set of columns
    needs: quantizing a whole matrix and slicing the kept columns gives the
    words quantizing the slice would, and the per-column maxima give each
    kept set's format.  The exact U^T y accumulator of the last acquisition
    is kept per U binary point, so runs that differ only in the penalized
    diagonal (a rank or ridge sweep) share it.
    """

    factors: SvdFactors
    fmt: object
    k: int
    ut: np.ndarray                 # U^T, row-major
    v_colmax: np.ndarray           # max |V| per column
    ut_rowmax: np.ndarray          # max |U^T| per row
    _words: dict = field(default_factory=dict, repr=False)
    _ut_y: dict = field(default_factory=dict, repr=False)

    def words(self, name: str, fmt: FxpFormat) -> np.ndarray:
        """All of V (``"v"``) or U^T (``"ut"``) quantized at ``fmt``."""
        key = (name, fmt)
        if key not in self._words:
            self._words[key] = quantize_array(
                self.factors.v if name == "v" else self.ut, fmt)
        return self._words[key]

    def ut_y(self, fmt_u: FxpFormat, y_raw: np.ndarray, fmt_y: FxpFormat) -> _Wide:
        """Exact accumulator of U^T y over every row of U^T."""
        key = (fmt_u, fmt_y)
        hit = self._ut_y.get(key)
        if hit is None or not np.array_equal(hit[0], y_raw):
            acc = _mac(self.words("ut", fmt_u), y_raw, fmt_u.total_bits,
                       fmt_y.total_bits, _guard_bits(y_raw.size), np.matmul)
            hit = self._ut_y[key] = (y_raw, acc)
        return hit[1]


def compile_svd(factors: SvdFactors, fmt=None, k: int = 1) -> CompiledSvd:
    """Lay out the factors for the datapath ``fmt`` with ``k`` banks; see
    :func:`reconstruct_svd`.  The banks partition the N rows of V, so
    ``1 <= k <= N``."""
    n = factors.v.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"partition count must be in [1, {n}], got {k}")
    return CompiledSvd(factors, fmt, k, np.ascontiguousarray(factors.u.T),
                       np.max(np.abs(factors.v), axis=0, initial=0.0),
                       np.max(np.abs(factors.u), axis=0, initial=0.0))


def reconstruct_svd(
    factors,
    z: PenalizedDiagonal,
    y,
    fmt=_UNSET,
    k: int = _UNSET,
    policy: RoundingPolicy = DATAPATH_POLICY,
    counter: OpCounter | None = None,
) -> InversionResult:
    """Three-product reconstruction ``x_hat = (V Z) (U^T y)`` at runtime.

    ``factors`` are :class:`SvdFactors` or a :class:`CompiledSvd`, which
    fixes ``fmt`` and ``k`` as in :func:`reconstruct_pinv`.  All three
    matrix products run on the emulated datapath (the penalized diagonal
    stays a runtime input so regularization parameters can change per
    acquisition).  Lanes with a zero penalized value are skipped, so the
    multiplier count is exactly ``rank * (2N + M)`` for the effective rank.
    """
    y = _samples(y)
    datapath = _datapath(factors, CompiledSvd, compile_svd, fmt, k)
    f, k = datapath.factors, datapath.k
    m, r = f.u.shape
    n = f.v.shape[0]
    if y.size != m:
        raise ValueError(f"interferogram length {y.size} != matrix rows {m}")
    if z.zeta.size != r:
        raise ValueError("penalized diagonal length does not match the factors")
    counter = counter or OpCounter()
    scheme_name = "tik" if isinstance(z.scheme, Tikhonov) else "tsvd"
    telemetry = InversionTelemetry(method=scheme_name, k=k, scheme=z.describe())

    kept = np.flatnonzero(z.zeta)
    rank = kept.size
    if rank == 0:
        return InversionResult(np.zeros(n), telemetry)
    # a leading run of kept lanes (every rank and most ridge weights) is a view
    kept = slice(0, rank) if kept[-1] == rank - 1 else kept
    vk = f.v[:, kept]
    ukt = datapath.ut[kept]
    zk = z.zeta[kept]

    width = _resolve_width(datapath.fmt)
    if width is None:
        o1 = _banked_apply(vk, k, lambda part: part * zk[None, :], counter)
        o2 = _banked_apply(ukt, k, lambda part: part @ y, counter)
        x_hat = _banked_apply(o1, k, lambda part: part @ o2, counter)
    else:
        fmt = datapath.fmt
        v_colmax = datapath.v_colmax[kept]
        o1_ref = vk * zk[None, :]
        o2_ref = ukt @ y
        x_ref = o1_ref @ o2_ref
        fmt_v = _tensor_format(fmt, width, v_colmax)
        fmt_u = _tensor_format(fmt, width, datapath.ut_rowmax[kept])
        fmt_z = _tensor_format(fmt, width, zk)
        fmt_y = _tensor_format(fmt, width, y)
        # rounding is monotone: max_j colmax|V|_j |z_j| is max |V_k diag(z)|
        fmt_o1 = _tensor_format(fmt, width, v_colmax * np.abs(zk))
        fmt_o2 = _tensor_format(fmt, width, o2_ref)
        fmt_x = _tensor_format(fmt, width, x_ref)
        y_raw = quantize_array(y, fmt_y)

        # product 1: column scaling of V by the penalized diagonal
        o1, nov1 = _fxp_scale_banked(
            BankedOperand.split(datapath.words("v", fmt_v)[:, kept], k), fmt_v,
            quantize_array(zk, fmt_z), fmt_z, fmt_o1, counter, policy,
        )
        # product 2: U^T y, from the accumulator shared across diagonals;
        # the output stage is elementwise, so its banks need no split
        o2, nov2 = _requantize(datapath.ut_y(fmt_u, y_raw, fmt_y)[kept],
                               fmt_u.frac_bits + fmt_y.frac_bits - fmt_o2.frac_bits,
                               policy.mode, fmt_o2)
        counter.add(rank * m)
        # product 3: O1 O2, each bank on the rows product 1 left in it
        x_raw, nov3 = _fxp_matvec_banked(o1, fmt_o1, o2, fmt_o2, fmt_x, counter, policy)
        telemetry.overflow_events = nov1 + nov2 + nov3
        telemetry.accumulator_bits = _accumulator_bits(fmt_u, fmt_y, m)
        x_hat = dequantize_array(x_raw, fmt_x)
        telemetry.data_format = f"{width}-bit"

    telemetry.mults = counter.mults
    _attach_latency(telemetry, "svd", n, m, rank, k)
    return InversionResult(np.asarray(x_hat, dtype=np.float64), telemetry)


def _banked_apply(matrix: np.ndarray, k: int, fn, counter: OpCounter):
    """Apply ``fn`` per row partition (double path); counts one mult per
    produced element times the reduction length."""
    banked = BankedOperand.split(matrix, min(k, matrix.shape[0]))
    outs = []
    for part in banked.partitions:
        res = fn(part)
        outs.append(res)
        if res.ndim == 1:
            counter.add(part.shape[0] * part.shape[1])
        else:
            counter.add(part.shape[0] * res.shape[1])
    return np.concatenate(outs)
