"""Analytical hardware cost model for the three inversion routes.

Latency is a work term over the parallelism factor K plus a fitted overhead
intercept.  Work terms are the exact operation counts of the emulated
datapaths (``N*M`` for the pseudo-inverse route, ``R'*(2N+M)`` for the
penalized-SVD route, ``(n/2)*log2(n)`` butterfly slots for the transform
route), so live multiplier telemetry cross-checks them.  Both matrix routes
are K row-banked MAC memories under one law, :func:`_matrix_cost`: DSPs per
memory times K, and RAM, LUT and fmax read at K from anchor rows.  Maximum
frequencies are measured calibration data, never predicted.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError
from .fft_inversion import MODES


@dataclass(frozen=True)
class HwCost:
    dsp: int
    bram: int
    lut: int
    latency_cycles: int
    fmax_mhz: float

    def __post_init__(self):
        if min(self.dsp, self.bram, self.lut, self.latency_cycles) < 0:
            raise ValueError("resource counts must be non-negative")
        if self.fmax_mhz <= 0:
            raise ValueError("fmax must be positive")

    @property
    def time_us(self) -> float:
        return self.latency_cycles / self.fmax_mhz


@dataclass(frozen=True)
class CalibEntry:
    value: float
    provenance: str


@dataclass(frozen=True)
class LatencyFit:
    """Least-squares fit of ``cycles = slope / K + intercept``."""

    slope: float
    intercept: float
    max_rel_residual: float


_ROW_QUANTITIES = ("latency", "fmax", "lut", "ram", "dsp_per_memory")
# the matrix architecture of each method: tsvd and tik share the SVD one
_ARCHITECTURE = {"pinv": "pinv", "tsvd": "svd", "tik": "svd"}


def _fit_inverse_k(points: dict) -> LatencyFit:
    ks = np.array(sorted(points))
    y = np.array([points[k] for k in ks], dtype=np.float64)
    x = 1.0 / ks
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, y, rcond=None)
    pred = slope * x + intercept
    max_rel = float(np.max(np.abs(pred - y) / y))
    return LatencyFit(float(slope), float(intercept), max_rel)


class CalibrationTable:
    """Anchors parsed from the key-value text file plus fitted constants.  A
    ``route.quantity.kK`` entry is row ``(route, quantity)``'s anchor at
    K >= 1; without ``.kK`` it is a row of one anchor, held at every K.  An
    anchor given twice is refused, not replaced."""

    def __init__(self, entries: dict):
        self.entries = entries
        self.rows = {}
        for key, e in entries.items():
            if m := re.fullmatch(r"(pinv|svd)\.(\w+)(?:\.k(\d+))?", key):
                row, k = self.rows.setdefault(m.group(1, 2), {}), int(m[3] or 1)
                if k < 1:
                    raise ConfigError(f"calibration entry {key!r}: K must be >= 1")
                if k in row:
                    raise ConfigError(f"calibration entry {key!r} repeats its row's "
                                      f"K = {k} anchor")
                row[k] = e.value
        missing = [f"{r}.{q}" for r in ("pinv", "svd") for q in _ROW_QUANTITIES
                   if (r, q) not in self.rows]
        if missing:
            raise ConfigError(f"calibration is missing '{missing[0]}.k*' entries")
        self.pinv_fit = _fit_inverse_k(self.rows["pinv", "latency"])
        self.svd_fit = _fit_inverse_k(self.rows["svd", "latency"])

        # transform-route anchor decomposition: the post-mode model is pinned
        # to reproduce the anchor latency exactly at the anchor size
        self.fft_fixed_overhead = int(
            self["fft.latency"] - _fft_cycles(int(self["fft.anchor_points"]), "post", self))
        if self.fft_fixed_overhead < 0:
            raise ConfigError("fft anchor decomposition yields negative overhead")

    def __getitem__(self, key: str) -> float:
        try:
            return self.entries[key].value
        except KeyError:
            raise ConfigError(f"calibration entry {key!r} missing") from None

    @staticmethod
    def parse(text: str) -> "CalibrationTable":
        entries = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            body, _, comment = stripped.partition("#")
            if "=" not in body:
                raise ConfigError(f"calibration line {lineno}: expected 'key = value'")
            key, _, value = body.partition("=")
            key = key.strip()
            if key in entries:
                raise ConfigError(f"calibration line {lineno}: {key!r} given twice")
            try:
                entries[key] = CalibEntry(float(value), comment.strip())
            except ValueError:
                raise ConfigError(
                    f"calibration line {lineno}: bad number {value.strip()!r}"
                ) from None
        return CalibrationTable(entries)

    @staticmethod
    def load(path=None) -> "CalibrationTable":
        if path is not None:
            with open(path) as fh:
                return CalibrationTable.parse(fh.read())
        # a relative name, so a checkout imported under another name loads too
        text = resources.files(__package__).joinpath("data", "calibration.txt").read_text()
        return CalibrationTable.parse(text)


_DEFAULT = None


def default_calibration() -> CalibrationTable:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = CalibrationTable.load()
    return _DEFAULT


def _interp(table: dict, k: int) -> float:
    """An anchor row at K: linear between anchors, held at the end anchors."""
    ks = sorted(table)
    return float(np.interp(k, ks, [table[i] for i in ks]))


def latency_cycles(method: str, k: int, calib: CalibrationTable | None = None,
                   n: int | None = None, m: int | None = None,
                   rank: int | None = None) -> int:
    """Latency of a matrix route with K row-banked memories: the work over K
    plus the route's fitted intercept.  With explicit sizes the work is one
    MAC issue per cycle per memory, ``N*M`` for ``"pinv"`` and
    ``rank * (2N + M)`` for ``"tsvd"``/``"tik"`` (rank defaulting to
    ``min(N, M)``); without them it is the fitted anchor-scale work, so the
    model reproduces the measured sweep."""
    if k < 1:
        raise ConfigError("K must be >= 1")
    calib = calib or default_calibration()
    sized = n is not None and m is not None
    route = _ARCHITECTURE.get(method)
    if route is None:
        raise ConfigError(f"unknown matrix method {method!r}")
    if route == "pinv":
        fit, ops = calib.pinv_fit, n * m if sized else None
    else:
        if rank is not None and not sized:
            raise ConfigError("rank scaling requires explicit n and m")
        fit = calib.svd_fit
        ops = (rank if rank is not None else min(n, m)) * (2 * n + m) if sized else None
    work = fit.slope if ops is None else ops * calib["mac.cycles_per_op"]
    return math.ceil(work / k) + round(fit.intercept)


def _matrix_cost(method: str, k: int, calib: CalibrationTable | None,
                 cycles: int) -> HwCost:
    """Cost of ``method``'s architecture with K row-banked memories taking
    ``cycles``: ``dsp_per_memory`` DSPs per memory, and RAM, LUT and fmax
    read at K from its anchor rows."""
    calib = calib or default_calibration()
    route = _ARCHITECTURE[method]
    fmax, lut, ram, dsp = (_interp(calib.rows[route, q], k)
                           for q in ("fmax", "lut", "ram", "dsp_per_memory"))
    return HwCost(k * int(dsp), round(ram), round(lut), cycles, fmax)


def pinv_cost(k: int, calib: CalibrationTable | None = None,
              n: int | None = None, m: int | None = None) -> HwCost:
    """Cost of the pseudo-inverse route with K row-banked memories; see
    :func:`latency_cycles`."""
    return _matrix_cost("pinv", k, calib, latency_cycles("pinv", k, calib, n=n, m=m))


def svd_cost(k: int, calib: CalibrationTable | None = None,
             n: int | None = None, m: int | None = None,
             rank: int | None = None) -> HwCost:
    """Cost of the penalized-SVD route (truncation or ridge); see
    :func:`latency_cycles`.  DSP usage doubles per memory because two
    products are in flight."""
    return _matrix_cost("tsvd", k, calib,
                        latency_cycles("tsvd", k, calib, n=n, m=m, rank=rank))


def _fft_cycles(n_points: int, mode: str, calib: CalibrationTable) -> int:
    """The transform engine's cycles less its fixed overhead: butterfly
    slots at the mode's initiation interval, per-point load/store and, unless
    ``fixed``, per-stage normalization bookkeeping."""
    stages = n_points.bit_length() - 1
    ii = int(calib["fft.pre_mode_ii"]) if mode == "pre" else 1
    cycles = (n_points // 2) * stages * ii + n_points * int(calib["fft.io_cycles_per_point"])
    if mode != "fixed":
        cycles += stages * int(calib["fft.norm_cycles_per_stage"])
    return cycles


def fft_cost(n_points: int, mode: str = "post",
             calib: CalibrationTable | None = None) -> HwCost:
    """Cost of the single-butterfly transform engine.

    ``(n/2) log2(n)`` butterfly slots at the mode's initiation interval, plus
    per-stage normalization bookkeeping, per-point load/store, and the fitted
    fixed overhead.  The post mode reproduces the measured anchor exactly at
    the anchor transform size.
    """
    if n_points < 2 or n_points & (n_points - 1):
        raise ConfigError("n_points must be a power of two >= 2")
    if mode not in MODES:
        raise ConfigError(f"unknown transform mode {mode!r}")
    calib = calib or default_calibration()
    return HwCost(
        dsp=int(calib["fft.dsp"]),
        bram=int(calib["fft.ram"]),
        lut=int(calib["fft.lut"]),
        latency_cycles=_fft_cycles(n_points, mode, calib) + calib.fft_fixed_overhead,
        fmax_mhz=float(calib["fft.fmax"]),
    )


HEADLINE_RATIOS = {
    ("pinv", 1): 8.0,     # times slower than the transform route
    ("tik", 1): 24.0,
    ("pinv", 6): 1.5,
    ("tik", 6): 3.2,
}
_TOLERANCE = 0.15   # relative deviation from a headline ratio that is flagged
_COMPARED = (("fft", 1), ("pinv", 1), ("pinv", 6),
             ("tsvd", 1), ("tik", 1), ("tsvd", 6), ("tik", 6))


def method_cost(method: str, k: int, calib: CalibrationTable | None = None,
                n: int | None = None, m: int | None = None,
                rank: int | None = None, fft_points: int | None = None,
                fft_mode: str = "post") -> HwCost:
    calib = calib or default_calibration()
    if method == "fft":
        pts = int(calib["fft.anchor_points"]) if fft_points is None else fft_points
        return fft_cost(pts, fft_mode, calib)
    if method not in _ARCHITECTURE:
        raise ConfigError(f"unknown method {method!r}")
    return _matrix_cost(method, k, calib,
                        latency_cycles(method, k, calib, n=n, m=m, rank=rank))


def compare_methods(calib: CalibrationTable | None = None):
    """Cost rows plus speed ratios under the anchor-scale configuration.

    Returns ``(rows, ratios, flags)``: one row dict per (method, K) of
    ``_COMPARED``; the ratios of each configuration's time to the transform
    route's time (the ridge-to-pseudo-inverse ratio is reported both as
    measured cycles and as the operation-count ratio, which differ); and
    warning strings for any ratio straying more than ``_TOLERANCE`` from its
    headline value.
    """
    calib = calib or default_calibration()
    rows = []
    for method, k in _COMPARED:
        cost = method_cost(method, k, calib)
        rows.append({"method": method, "k": k, **asdict(cost), "time_us": cost.time_us})
    t_fft = fft_cost(int(calib["fft.anchor_points"]), "post", calib).time_us
    ratios = {}
    flags = []
    for row in rows:
        if row["method"] == "fft":
            continue
        key = (row["method"], row["k"])
        ratio = row["time_us"] / t_fft
        ratios[f"time_{row['method']}_k{row['k']}_over_fft"] = ratio
        headline = HEADLINE_RATIOS.get(key)
        if headline is not None and abs(ratio - headline) / headline > _TOLERANCE:
            flags.append(
                f"{row['method']} K={row['k']}: ratio {ratio:.2f} deviates "
                f">{_TOLERANCE:.0%} from headline {headline}"
            )
    # measured-cycle vs operation-count views of the ridge/pseudo-inverse gap
    ratios["cycles_svd_over_pinv_k1"] = (
        latency_cycles("tsvd", 1, calib) / latency_cycles("pinv", 1, calib)
    )
    ratios["opcount_svd_over_pinv_square"] = 3.0   # R(2N+M)/(N*M) at R=N=M
    return rows, ratios, flags
