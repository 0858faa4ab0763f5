"""Pseudo-inverse, truncated-SVD and ridge (Tikhonov) spectrum reconstruction
over fixed-point matrix-vector datapaths with K-way row-banked memories.

The factorization itself is an offline calibration step computed in double
precision (LAPACK, under a canonical sign convention); only the matrix-vector
products that run per acquisition are emulated in fixed point.
Dot products accumulate exactly in a wide register (two data widths plus
``ceil(log2(M))`` guard bits) and round once at the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SvdConvergenceError
from .fxp import (
    DATAPATH_POLICY,
    ENTRY_POLICY,
    FxpFormat,
    OpCounter,
    RoundingPolicy,
    dequantize_array,
    quantize_array,
    saturate_array,
    shift_right_array,
    use_int64,
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


def _fxp_matvec_banked(
    banked: BankedOperand,
    mat_fmt: FxpFormat,
    vec_raw: np.ndarray,
    vec_fmt: FxpFormat,
    out_fmt: FxpFormat,
    counter: OpCounter,
    telemetry: InversionTelemetry,
    policy: RoundingPolicy,
):
    """Row-partitioned MAC streams with exact wide accumulation."""
    m_len = banked.partitions[0].shape[1]
    guard = max(1, math.ceil(math.log2(max(m_len, 2))))
    telemetry.accumulator_bits = mat_fmt.total_bits + vec_fmt.total_bits + guard
    narrow = use_int64(mat_fmt.total_bits, vec_fmt.total_bits, guard)
    shift = mat_fmt.frac_bits + vec_fmt.frac_bits - out_fmt.frac_bits
    outs = []
    for part in banked.partitions:
        raw = quantize_array(part, mat_fmt, ENTRY_POLICY)
        if narrow:
            acc = raw.astype(np.int64) @ vec_raw.astype(np.int64)
        else:
            raw_obj = raw.astype(object)
            vec_obj = vec_raw.astype(object)
            acc = np.array([int(np.dot(r, vec_obj)) for r in raw_obj], dtype=object)
        out = shift_right_array(acc, shift, policy.mode) if shift >= 0 else acc << (-shift)
        out, nov = saturate_array(out, out_fmt)
        telemetry.overflow_events += nov
        counter.add(part.shape[0] * m_len)
        outs.append(np.asarray(out))
    return np.concatenate(outs)


def _fxp_scale_banked(banked: BankedOperand, mat_fmt: FxpFormat, diag_raw: np.ndarray,
                      diag_fmt: FxpFormat, out_fmt: FxpFormat, counter: OpCounter,
                      telemetry: InversionTelemetry, policy: RoundingPolicy):
    """Row-partitioned column scaling ``M diag(d)``, one product per entry.

    A function of its own so that its temporaries are freed before products
    2 and 3 allocate theirs; a lower peak per call lets the allocator reuse
    heap memory instead of returning it and faulting it back in.
    """
    narrow = use_int64(mat_fmt.total_bits, diag_fmt.total_bits)
    shift = mat_fmt.frac_bits + diag_fmt.frac_bits - out_fmt.frac_bits
    outs = []
    for part in banked.partitions:
        raw = quantize_array(part, mat_fmt, ENTRY_POLICY)
        if not narrow:
            raw = raw.astype(object)
        prod = raw * diag_raw[None, :]
        out = shift_right_array(prod, shift, policy.mode) if shift >= 0 else prod << (-shift)
        out, nov = saturate_array(out, out_fmt)
        telemetry.overflow_events += nov
        counter.add(part.size)
        outs.append(np.asarray(out))
    return np.concatenate(outs)


def _attach_latency(telemetry: InversionTelemetry, method: str,
                    n: int, m: int, rank: int | None, k: int) -> None:
    from . import hwmodel

    calib = hwmodel.default_calibration()
    if method == "pinv":
        cost = hwmodel.pinv_cost(k, calib, n=n, m=m)
    else:
        cost = hwmodel.svd_cost(k, calib, n=n, m=m, rank=rank)
    telemetry.latency_cycles = cost.latency_cycles


def reconstruct_pinv(
    adag,
    y,
    fmt=None,
    k: int = 1,
    policy: RoundingPolicy = DATAPATH_POLICY,
    counter: OpCounter | None = None,
) -> InversionResult:
    """``x_hat = A_dagger y`` on K independent row-banked MAC streams.

    ``adag`` is the pseudo-inverse matrix (or an already-split
    :class:`BankedOperand`); ``fmt`` selects the datapath: ``None`` for the
    double-precision reference, an integer word width (per-tensor binary
    points are then derived from the operand ranges), or an explicit
    :class:`~ftsinv.fxp.FxpFormat` used verbatim for every operand.
    """
    if isinstance(y, Interferogram):
        y = y.values
    y = np.asarray(y, dtype=np.float64)
    banked = adag if isinstance(adag, BankedOperand) else BankedOperand.split(adag, k)
    n, m = banked.rows, banked.partitions[0].shape[1]
    if y.size != m:
        raise ValueError(f"interferogram length {y.size} != matrix columns {m}")
    counter = counter or OpCounter()
    telemetry = InversionTelemetry(method="pinv", k=banked.k, scheme="pinv")

    width = _resolve_width(fmt)
    if width is None:
        outs = []
        for part in banked.partitions:
            outs.append(part @ y)
            counter.add(part.shape[0] * m)
        x_hat = np.concatenate(outs)
    else:
        full = banked.reassemble()
        x_ref = full @ y                       # double reference fixes the output scale
        mat_fmt = _tensor_format(fmt, width, full)
        vec_fmt = _tensor_format(fmt, width, y)
        out_fmt = _tensor_format(fmt, width, x_ref)
        y_raw = quantize_array(y, vec_fmt, ENTRY_POLICY)
        raw = _fxp_matvec_banked(
            banked, mat_fmt, y_raw, vec_fmt, out_fmt, counter, telemetry, policy
        )
        x_hat = dequantize_array(raw, out_fmt)
        telemetry.data_format = f"{width}-bit ({mat_fmt.describe()} coeffs)"
    telemetry.mults = counter.mults
    _attach_latency(telemetry, "pinv", n, m, None, banked.k)
    return InversionResult(x_hat, telemetry)


def reconstruct_svd(
    factors: SvdFactors,
    z: PenalizedDiagonal,
    y,
    fmt=None,
    k: int = 1,
    policy: RoundingPolicy = DATAPATH_POLICY,
    counter: OpCounter | None = None,
) -> InversionResult:
    """Three-product reconstruction ``x_hat = (V Z) (U^T y)`` at runtime.

    All three matrix products run on the emulated datapath (the penalized
    diagonal stays a runtime input so regularization parameters can change
    per acquisition).  Lanes with a zero penalized value are skipped, so the
    multiplier count is exactly ``rank * (2N + M)`` for the effective rank.
    """
    if isinstance(y, Interferogram):
        y = y.values
    y = np.asarray(y, dtype=np.float64)
    m, r = factors.u.shape
    n = factors.v.shape[0]
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
        telemetry.mults = 0
        telemetry.latency_cycles = 0
        return InversionResult(np.zeros(n), telemetry)

    vk = factors.v[:, kept]
    # row-major: product 2's int64 matvec is markedly slower on a column-major operand
    ukt = np.ascontiguousarray(factors.u[:, kept].T)
    zk = z.zeta[kept]

    width = _resolve_width(fmt)
    if width is None:
        o1 = _banked_apply(vk, k, lambda part: part * zk[None, :], counter)
        o2 = _banked_apply(ukt, k, lambda part: part @ y, counter)
        x_hat = _banked_apply(o1, k, lambda part: part @ o2, counter)
    else:
        o1_ref = vk * zk[None, :]
        o2_ref = ukt @ y
        x_ref = o1_ref @ o2_ref
        fmt_v = _tensor_format(fmt, width, vk)
        fmt_u = _tensor_format(fmt, width, ukt)
        fmt_z = _tensor_format(fmt, width, zk)
        fmt_y = _tensor_format(fmt, width, y)
        fmt_o1 = _tensor_format(fmt, width, o1_ref)
        fmt_o2 = _tensor_format(fmt, width, o2_ref)
        fmt_x = _tensor_format(fmt, width, x_ref)

        z_raw = quantize_array(zk, fmt_z, ENTRY_POLICY)
        y_raw = quantize_array(y, fmt_y, ENTRY_POLICY)

        # product 1: column scaling of V by the penalized diagonal
        o1_raw = _fxp_scale_banked(
            BankedOperand.split(vk, k), fmt_v, z_raw, fmt_z, fmt_o1,
            counter, telemetry, policy,
        )

        # product 2: U^T y
        o2_tel = _fxp_matvec_banked(
            BankedOperand.split(ukt, min(k, rank), ), fmt_u, y_raw, fmt_y,
            fmt_o2, counter, telemetry, policy,
        )

        # product 3: O1 O2
        o3_banked = BankedOperand(list(np.array_split(o1_raw, k, axis=0)))
        sh3 = fmt_o1.frac_bits + fmt_o2.frac_bits - fmt_x.frac_bits
        narrow3 = use_int64(fmt_o1.total_bits, fmt_o2.total_bits,
                            max(1, math.ceil(math.log2(max(rank, 2)))))
        x_parts = []
        for part in o3_banked.partitions:
            if narrow3:
                acc = part.astype(np.int64) @ o2_tel.astype(np.int64)
            else:
                acc = np.array(
                    [int(np.dot(rrow.astype(object), o2_tel.astype(object)))
                     for rrow in part],
                    dtype=object,
                )
            out = shift_right_array(acc, sh3, policy.mode) if sh3 >= 0 else acc << (-sh3)
            out, nov = saturate_array(out, fmt_x)
            telemetry.overflow_events += nov
            counter.add(part.shape[0] * rank)
            x_parts.append(np.asarray(out))
        x_hat = dequantize_array(np.concatenate(x_parts), fmt_x)
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
