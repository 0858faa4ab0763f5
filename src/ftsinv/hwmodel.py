"""Analytical hardware cost model for the three inversion routes.

Latency follows a two-parameter law per route: a work term divided by the
parallelism factor plus a fitted overhead intercept.  Work terms are the
exact operation counts of the emulated datapaths (``N*M`` for the
pseudo-inverse route, ``R'*(2N+M)`` for the penalized-SVD route,
``(n/2)*log2(n)`` butterfly slots for the transform route), so they can be
cross-checked against live multiplier telemetry.  Maximum frequencies are
measured calibration data, never predicted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
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
    """Anchors parsed from the key-value text file plus fitted constants."""

    def __init__(self, entries: dict):
        self.entries = entries

        def grab(prefix):
            out = {}
            for key, e in entries.items():
                m = re.fullmatch(rf"{re.escape(prefix)}\.k(\d+)", key)
                if m:
                    out[int(m.group(1))] = e.value
            if not out:
                raise ConfigError(f"calibration is missing '{prefix}.k*' entries")
            return out

        self.pinv_latency = grab("pinv.latency")
        self.pinv_fmax = grab("pinv.fmax")
        self.pinv_lut = grab("pinv.lut")
        self.svd_latency = grab("svd.latency")
        self.svd_fmax = grab("svd.fmax")
        self.svd_lut = grab("svd.lut")
        self.svd_ram = grab("svd.ram")
        self.pinv_fit = _fit_inverse_k(self.pinv_latency)
        self.svd_fit = _fit_inverse_k(self.svd_latency)

        # transform-route anchor decomposition: the post-mode model is pinned
        # to reproduce the anchor latency exactly at the anchor size
        n0 = int(self["fft.anchor_points"])
        stages0 = n0.bit_length() - 1
        slots0 = (n0 // 2) * stages0
        self.fft_fixed_overhead = int(
            self["fft.latency"]
            - slots0
            - stages0 * self["fft.norm_cycles_per_stage"]
            - n0 * self["fft.io_cycles_per_point"]
        )
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
            try:
                entries[key.strip()] = CalibEntry(float(value), comment.strip())
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
    if method == "pinv":
        fit, ops = calib.pinv_fit, n * m if sized else None
    elif method in ("tsvd", "tik"):
        if rank is not None and not sized:
            raise ConfigError("rank scaling requires explicit n and m")
        fit = calib.svd_fit
        ops = (rank if rank is not None else min(n, m)) * (2 * n + m) if sized else None
    else:
        raise ConfigError(f"unknown matrix method {method!r}")
    work = fit.slope if ops is None else ops * calib["mac.cycles_per_op"]
    return math.ceil(work / k) + round(fit.intercept)


def pinv_cost(k: int, calib: CalibrationTable | None = None,
              n: int | None = None, m: int | None = None) -> HwCost:
    """Cost of the pseudo-inverse route with K row-banked memories; see
    :func:`latency_cycles`."""
    cycles = latency_cycles("pinv", k, calib, n=n, m=m)
    calib = calib or default_calibration()
    return HwCost(
        dsp=k * int(calib["pinv.dsp_per_memory"]),
        bram=int(calib["pinv.ram"]),
        lut=round(_interp(calib.pinv_lut, k)),
        latency_cycles=cycles,
        fmax_mhz=_interp(calib.pinv_fmax, k),
    )


def svd_cost(k: int, calib: CalibrationTable | None = None,
             n: int | None = None, m: int | None = None,
             rank: int | None = None) -> HwCost:
    """Cost of the penalized-SVD route (truncation or ridge); see
    :func:`latency_cycles`.  DSP usage doubles per memory because two
    products are in flight."""
    cycles = latency_cycles("tsvd", k, calib, n=n, m=m, rank=rank)
    calib = calib or default_calibration()
    return HwCost(
        dsp=k * int(calib["svd.dsp_per_memory"]),
        bram=round(_interp(calib.svd_ram, k)),
        lut=round(_interp(calib.svd_lut, k)),
        latency_cycles=cycles,
        fmax_mhz=_interp(calib.svd_fmax, k),
    )


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
    stages = n_points.bit_length() - 1
    slots = (n_points // 2) * stages
    ii = int(calib["fft.pre_mode_ii"]) if mode == "pre" else 1
    cycles = slots * ii + n_points * int(calib["fft.io_cycles_per_point"])
    if mode != "fixed":
        cycles += stages * int(calib["fft.norm_cycles_per_stage"])
    cycles += calib.fft_fixed_overhead
    return HwCost(
        dsp=int(calib["fft.dsp"]),
        bram=int(calib["fft.ram"]),
        lut=int(calib["fft.lut"]),
        latency_cycles=int(cycles),
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
    if method == "fft":
        calib = calib or default_calibration()
        pts = fft_points or int(calib["fft.anchor_points"])
        return fft_cost(pts, fft_mode, calib)
    if method == "pinv":
        return pinv_cost(k, calib, n=n, m=m)
    if method in ("tsvd", "tik"):
        return svd_cost(k, calib, n=n, m=m, rank=rank)
    raise ConfigError(f"unknown method {method!r}")


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
        rows.append({
            "method": method,
            "k": k,
            "latency_cycles": cost.latency_cycles,
            "fmax_mhz": cost.fmax_mhz,
            "time_us": cost.time_us,
            "dsp": cost.dsp,
            "bram": cost.bram,
            "lut": cost.lut,
        })
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
