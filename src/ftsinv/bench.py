"""Experiment harness: quality metrics, precision/parallelism sweeps, method
comparisons, deterministic CSV emission.

A fully populated :class:`ExperimentConfig` determines every output bit: the
spectrum is drawn from ``seed``, the acquisition noise from ``seed + 1``, and
all datapaths are deterministic.  CSV files open with ``# key=value``
metadata lines (config echo, SNR definition, rounding policy) so a result
file is self-describing.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import hwmodel
from .errors import ConfigError
from .fft_inversion import FftPlan, reconstruct_fft
from .fxp import DATAPATH_POLICY, FxpFormat, quantize_array, dequantize_array
from .matrix_inversion import (
    SvdFactors,
    Tikhonov,
    Tsvd,
    penalize,
    pinv_matrix,
    reconstruct_pinv,
    reconstruct_svd,
    svd_factorize,
)
from .optics import (
    Interferogram,
    OpdGrid,
    OpticalParams,
    SpectralGrid,
    Spectrum,
    build_transfer_matrix,
    gaussian_mixture_spectrum,
    normalize_interferogram,
    simulate_interferogram,
)

VERSION = "0.1.0"
SNR_DEFINITION = "20*log10(l2(reference)/l2(reference-estimate)), capped at 300 dB"
SNR_CAP_DB = 300.0

ALL_METHODS = ("fft", "pinv", "tsvd", "tik")


def snr_db(reference, estimate) -> float:
    """Reconstruction quality in dB; exact recovery is capped at 300 dB."""
    ref = reference.values if isinstance(reference, Spectrum) else np.asarray(reference)
    est = estimate.values if isinstance(estimate, Spectrum) else np.asarray(estimate)
    ref = np.asarray(ref, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if ref.shape != est.shape:
        raise ValueError("reference/estimate length mismatch")
    nrm = float(np.linalg.norm(ref))
    if nrm == 0.0:
        raise ValueError("SNR undefined for an identically zero reference")
    err = float(np.linalg.norm(ref - est))
    if err == 0.0:
        return SNR_CAP_DB
    return min(20.0 * math.log10(nrm / err), SNR_CAP_DB)


@dataclass
class ExperimentConfig:
    """Serializable description of one experiment or sweep."""

    kind: str = "cosine"              # transmittance model
    n: int = 256                      # spectral bins
    m: int = 256                      # interferogram samples
    bandwidth: float = 1.0
    a: float = 1.0
    r: float = 0.5
    opd_oversampling: float = 1.0     # 1.0 = transform-matched OPD step
    noise_snr_db: float | None = None
    seed: int = 0
    components: int = 4               # gaussian mixture components

    method: str = "pinv"
    bits: int | None = 16
    twiddle_bits: int | None = None
    fft_mode: str = "post"
    headroom: int = 3
    rank: int | None = None
    lam: float | None = None
    k: int = 1
    quantize: str = "all"             # "all" or "data-only"

    bits_list: list = field(default_factory=lambda: [4, 6, 8, 10, 12, 14, 16, 18])
    k_list: list = field(default_factory=lambda: [1, 2, 3, 4, 5, 6])
    methods: list = field(default_factory=lambda: list(ALL_METHODS))
    lambda_points: int = 40
    lambda_rel_min: float = 1e-8
    lambda_rel_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cosine", "airy"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.method not in ALL_METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.quantize not in ("all", "data-only"):
            raise ConfigError("quantize must be 'all' or 'data-only'")
        for name in self.methods:
            if name not in ALL_METHODS:
                raise ConfigError(f"unknown method {name!r} in methods")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.bits is not None and not (4 <= self.bits <= 32):
            raise ConfigError("bits must lie in [4, 32]")
        if any(not (4 <= b <= 32) for b in self.bits_list):
            raise ConfigError("bits_list entries must lie in [4, 32]")
        if any(not (1 <= k <= 16) for k in self.k_list):
            raise ConfigError("k_list entries must lie in [1, 16]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)


def reference_airy_config() -> ExperimentConfig:
    """The frozen ill-conditioned Fabry-Perot study configuration."""
    return ExperimentConfig(
        kind="airy", n=256, m=256, bandwidth=1.0, a=1.0, r=0.7,
        opd_oversampling=0.9, noise_snr_db=40.0, seed=31415,
        bits_list=[4, 6, 8, 10, 12, 14, 16, 18, 20, 22], k=1,
    )


@dataclass
class ForwardModel:
    """Simulated acquisition of one experiment: grids, instrument, truth and
    interferogram."""

    config: ExperimentConfig
    spectral_grid: SpectralGrid
    opd_grid: OpdGrid
    params: OpticalParams
    transfer: object
    x: Spectrum
    y_clean: Interferogram
    y: Interferogram


@dataclass
class StudySetup(ForwardModel):
    """Forward model plus what the sweeps derive from it offline."""

    y_norm: Interferogram
    factors: SvdFactors
    adag: np.ndarray
    lambda_grid: np.ndarray
    rank_grid: list


_RANK_FRACTIONS = (0.015625, 0.03125, 0.0625, 0.125, 0.1875, 0.25, 0.375, 0.5,
                   0.625, 0.75, 0.8125, 0.875, 0.90625, 0.9375, 0.96875, 1.0)


def simulate(cfg: ExperimentConfig) -> ForwardModel:
    """Run the experiment's forward model; no factorization."""
    sg = SpectralGrid(cfg.n, cfg.bandwidth)
    og = OpdGrid.transform_matched(sg, cfg.m, oversampling=cfg.opd_oversampling)
    params = OpticalParams(cfg.a, cfg.r)
    transfer = build_transfer_matrix(sg, og, cfg.kind, params)
    x = gaussian_mixture_spectrum(sg, cfg.components, seed=cfg.seed)
    y_clean = simulate_interferogram(transfer, x, noise_std=0.0)
    if cfg.noise_snr_db is not None:
        noise_std = (np.linalg.norm(y_clean.values)
                     * 10.0 ** (-cfg.noise_snr_db / 20.0) / math.sqrt(cfg.m))
        y = simulate_interferogram(transfer, x, noise_std=float(noise_std),
                                   seed=cfg.seed + 1)
    else:
        y = y_clean
    return ForwardModel(cfg, sg, og, params, transfer, x, y_clean, y)


def factorize(model: ForwardModel) -> StudySetup:
    """Factorize the model's transfer matrix, lay out the regularization
    grids from its singular values and normalize the interferogram for the
    transform route."""
    factors = svd_factorize(model.transfer)
    cfg = model.config
    xi_max = float(factors.xi[0])
    lam_grid = xi_max * np.logspace(math.log10(cfg.lambda_rel_min),
                                    math.log10(cfg.lambda_rel_max),
                                    cfg.lambda_points)
    r_bound = factors.rank_bound
    ranks = sorted({max(1, min(r_bound, round(r_bound * f))) for f in _RANK_FRACTIONS})
    y_norm = normalize_interferogram(model.y, model.params, model.y.mean_spectrum)
    return StudySetup(**vars(model), y_norm=y_norm, factors=factors,
                      adag=pinv_matrix(factors), lambda_grid=lam_grid,
                      rank_grid=ranks)


def build_setup(cfg: ExperimentConfig) -> StudySetup:
    """Simulate the experiment's forward model and factorize its matrix."""
    return factorize(simulate(cfg))


def _fft_plan_for_bits(n: int, bits: int | None, cfg: ExperimentConfig) -> FftPlan:
    if bits is None:
        return FftPlan.make(n, mode=cfg.fft_mode)
    head = min(cfg.headroom, bits - 3)
    head = max(head, 1)
    return FftPlan.make(n, bits=bits, twiddle_bits=cfg.twiddle_bits or bits,
                        mode=cfg.fft_mode, headroom_bits=head)


def _quantize_only_data(values: np.ndarray, bits: int) -> np.ndarray:
    fmt = FxpFormat.for_range(bits, float(np.max(np.abs(values), initial=0.0)))
    return dequantize_array(quantize_array(values, fmt), fmt)


def invert_once(setup: StudySetup, method: str, bits: int | None,
                k: int = 1, rank: int | None = None, lam: float | None = None):
    """One reconstruction; returns (snr_db, estimate, telemetry, param_label)."""
    cfg = setup.config
    data_only = cfg.quantize == "data-only" and bits is not None
    if method == "fft":
        plan = _fft_plan_for_bits(cfg.n, None if data_only else bits, cfg)
        y_norm = setup.y_norm
        if data_only:
            y_norm = Interferogram(_quantize_only_data(y_norm.values, bits),
                                   y_norm.grid, y_norm.mean_spectrum)
        spectrum, telemetry = reconstruct_fft(y_norm, plan)
        return snr_db(setup.x, spectrum), spectrum.values, telemetry, ""
    y = setup.y
    fmt = None if data_only else bits
    if data_only:
        y = Interferogram(_quantize_only_data(y.values, bits), y.grid,
                          y.mean_spectrum)
    if method == "pinv":
        res = reconstruct_pinv(setup.adag, y, fmt=fmt, k=k)
        return snr_db(setup.x, res.x_hat), res.x_hat, res.telemetry, ""
    if method == "tsvd":
        if rank is None:
            raise ConfigError("tsvd requires a rank")
        z = penalize(setup.factors.xi, Tsvd(rank))
        res = reconstruct_svd(setup.factors, z, y, fmt=fmt, k=k)
        return snr_db(setup.x, res.x_hat), res.x_hat, res.telemetry, str(rank)
    if method == "tik":
        if lam is None:
            raise ConfigError("tik requires a ridge parameter")
        z = penalize(setup.factors.xi, Tikhonov(lam))
        res = reconstruct_svd(setup.factors, z, y, fmt=fmt, k=k)
        return snr_db(setup.x, res.x_hat), res.x_hat, res.telemetry, f"{lam:.6g}"
    raise ConfigError(f"unknown method {method!r}")


def best_inversion(setup: StudySetup, method: str, bits: int | None, k: int = 1):
    """Best SNR over the method's regularization grid (pinv/fft have none)."""
    if method == "tsvd":
        results = [invert_once(setup, method, bits, k, rank=r)
                   for r in setup.rank_grid]
    elif method == "tik":
        results = [invert_once(setup, method, bits, k, lam=l)
                   for l in setup.lambda_grid]
    else:
        results = [invert_once(setup, method, bits, k)]
    return max(results, key=lambda t: t[0])


@dataclass
class SweepResult:
    columns: list
    rows: list
    metadata: dict

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    def to_csv(self) -> str:
        lines = [f"# {key}={value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _metadata(cfg: ExperimentConfig, operation: str) -> dict:
    return {
        "generator": f"ftsinv {VERSION}",
        "operation": operation,
        "snr_definition": SNR_DEFINITION,
        "rounding_policy": f"entry=round-half-even datapath={DATAPATH_POLICY.describe()}",
        "config": cfg.to_json(),
    }


def sweep_precision(cfg: ExperimentConfig, setup: StudySetup | None = None) -> SweepResult:
    """Quality versus word width for every requested method.

    At each width the regularized methods report their best grid point, which
    makes the per-method curves directly comparable plateau to plateau.
    """
    setup = setup or build_setup(cfg)
    columns = ["method", "bits", "reg_param", "snr_db", "mults",
               "latency_cycles", "time_us"]
    rows = []
    for method in cfg.methods:
        for bits in cfg.bits_list:
            s, _, telemetry, label = best_inversion(setup, method, bits, cfg.k)
            cost = hwmodel.method_cost(
                method, cfg.k, n=cfg.n, m=cfg.m,
                rank=(int(label) if method == "tsvd" else None),
                fft_points=cfg.n,
            )
            mults = getattr(telemetry, "mults", 0)
            rows.append((method, bits, label, s, mults,
                         cost.latency_cycles, cost.time_us))
    return SweepResult(columns, rows, _metadata(cfg, "sweep-precision"))


def sweep_parallelism(cfg: ExperimentConfig, setup: StudySetup | None = None) -> SweepResult:
    """Latency/resources versus K plus a bit-identity check against K=1."""
    setup = setup or build_setup(cfg)
    columns = ["method", "k", "identical_to_k1", "snr_db", "latency_cycles",
               "time_us", "dsp", "bram", "lut", "mults"]
    rows = []
    methods = [m for m in cfg.methods if m != "fft"]
    for method in methods:
        baseline = None
        for k in cfg.k_list:
            rank = setup.factors.rank_bound if method in ("tsvd", "tik") else None
            lam = setup.lambda_grid[len(setup.lambda_grid) // 2] if method == "tik" else None
            s, estimate, telemetry, _ = invert_once(
                setup, method, cfg.bits, k=k,
                rank=rank, lam=lam,
            )
            if baseline is None:
                baseline = estimate
            identical = bool(np.array_equal(baseline, estimate))
            cost = hwmodel.method_cost(method, k, n=cfg.n, m=cfg.m, rank=rank)
            rows.append((method, k, identical, s, cost.latency_cycles,
                         cost.time_us, cost.dsp, cost.bram, cost.lut,
                         telemetry.mults))
    return SweepResult(columns, rows, _metadata(cfg, "sweep-parallel"))


def run_comparison(cfg: ExperimentConfig, setup: StudySetup | None = None) -> SweepResult:
    """One row per method at the configured width and parallelism."""
    setup = setup or build_setup(cfg)
    columns = ["method", "bits", "k", "reg_param", "snr_db", "mults",
               "latency_cycles", "time_us", "dsp", "bram", "lut"]
    rows = []
    for method in cfg.methods:
        s, _, telemetry, label = best_inversion(setup, method, cfg.bits, cfg.k)
        cost = hwmodel.method_cost(
            method, cfg.k, n=cfg.n, m=cfg.m,
            rank=(int(label) if method == "tsvd" else None), fft_points=cfg.n,
        )
        rows.append((method, cfg.bits, cfg.k, label, s,
                     getattr(telemetry, "mults", 0), cost.latency_cycles,
                     cost.time_us, cost.dsp, cost.bram, cost.lut))
    return SweepResult(columns, rows, _metadata(cfg, "compare"))


def cost_table(calib=None) -> SweepResult:
    """Anchor-scale cost rows and headline speed ratios as CSV rows."""
    rows_raw, ratios, flags = hwmodel.compare_methods(calib=calib)
    columns = ["method", "k", "latency_cycles", "fmax_mhz", "time_us",
               "dsp", "bram", "lut"]
    rows = [tuple(r[c] for c in columns) for r in rows_raw]
    meta = {
        "generator": f"ftsinv {VERSION}",
        "operation": "costs",
    }
    for key, value in sorted(ratios.items()):
        meta[f"ratio.{key}"] = repr(float(value))
    for i, flag in enumerate(flags):
        meta[f"flag.{i}"] = flag
    return SweepResult(columns, rows, meta)
