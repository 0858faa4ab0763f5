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
from .fxp import DATAPATH_POLICY, ENTRY_POLICY, FxpFormat, quantize_array, dequantize_array
from .matrix_inversion import (
    CompiledPinv,
    CompiledSvd,
    SvdFactors,
    Tikhonov,
    Tsvd,
    compile_pinv,
    compile_svd,
    penalize,
    penalize_grid,
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

    bits: int | None = 16
    twiddle_bits: int | None = None
    fft_mode: str = "post"
    headroom: int | None = None       # FFT; None: FftPlan.make's fitted default
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
        # the ridge grid build_setup lays out; an inverted pair descends
        if self.lambda_points < 1:
            raise ConfigError("lambda_points must be >= 1")
        if not all(0 < v < math.inf for v in (self.lambda_rel_min, self.lambda_rel_max)):
            raise ConfigError("lambda_rel_min and lambda_rel_max must be finite and > 0")

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
        return cls.from_dict(cls.read_json(text))

    @staticmethod
    def read_json(text: str) -> dict:
        """The settings a config's JSON ``text`` gives, as it gives them."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return data


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


def build_setup(cfg: ExperimentConfig) -> StudySetup:
    """Simulate the experiment's forward model, factorize its transfer
    matrix, lay out the regularization grids from its singular values and
    normalize the interferogram for the transform route."""
    model = simulate(cfg)
    factors = svd_factorize(model.transfer)
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


def _quantize_only_data(values: np.ndarray, bits: int) -> np.ndarray:
    fmt = FxpFormat.for_range(bits, float(np.max(np.abs(values), initial=0.0)))
    return dequantize_array(quantize_array(values, fmt), fmt)


def _compile_datapath(method: str, factors: SvdFactors, fmt, k: int = 1, adag=None):
    """The matrix route's datapath compiled at ``fmt`` and ``k``, on which
    :func:`run_route` runs any grid point.  The pseudo-inverse route
    compiles ``adag``, formed from ``factors`` when not given; tsvd and tik
    compile the factors."""
    if method == "pinv":
        return compile_pinv(pinv_matrix(factors) if adag is None else adag, fmt, k)
    return compile_svd(factors, fmt, k)


def _compile_route(setup: StudySetup, method: str, bits: int | None, k: int):
    """The route's acquisition (normalized on the fft route) and its datapath
    compiled at ``bits`` and ``k``: on the fft route the plan
    :meth:`~ftsinv.fft_inversion.FftPlan.make` makes from the config's
    twiddle width, mode and headroom as given, which it fits or refuses.
    Under ``quantize="data-only"`` the acquisition alone is quantized, at
    ``bits`` over its own range, and the datapath is the double-precision
    one."""
    cfg = setup.config
    y = setup.y_norm if method == "fft" else setup.y
    if cfg.quantize == "data-only" and bits is not None:
        y = Interferogram(_quantize_only_data(y.values, bits), y.grid, y.mean_spectrum)
        bits = None
    if method == "fft":
        return y, FftPlan.make(cfg.n, bits, twiddle_bits=cfg.twiddle_bits, mode=cfg.fft_mode,
                               headroom_bits=cfg.headroom)
    return y, _compile_datapath(method, setup.factors, bits, k, setup.adag)


def grid_point(xi: np.ndarray, method: str, rank: int | None = None,
               lam: float | None = None):
    """The grid point a run of ``method`` reads: on tsvd the penalized
    diagonal keeping ``rank`` of the singular values ``xi``, on tik the one
    weighting them by ``lam``; None on fft and pinv, which read none."""
    if method in ("fft", "pinv"):
        return None
    if method not in ("tsvd", "tik"):
        raise ConfigError(f"unknown method {method!r}")
    point, flag = (rank, "--rank") if method == "tsvd" else (lam, "--lambda")
    if point is None:
        raise ConfigError(f"{method} requires {flag}")
    return penalize(xi, Tsvd(rank) if method == "tsvd" else Tikhonov(lam))


def run_route(datapath, y, z=None):
    """Run the acquisition ``y`` through a route's compiled ``datapath`` at
    one grid point; returns (estimate, telemetry, param_label).  An FFT plan
    runs the normalized acquisition and a compiled pseudo-inverse no grid
    point; a compiled SVD runs the diagonal ``z``, :func:`grid_point`'s or
    one it compiled (:meth:`~ftsinv.matrix_inversion.CompiledSvd.diagonals`)."""
    if isinstance(datapath, FftPlan):
        spectrum, telemetry = reconstruct_fft(y, datapath)
        return spectrum.values, telemetry, ""
    if isinstance(datapath, CompiledPinv):
        res = reconstruct_pinv(datapath, y)
        return res.x_hat, res.telemetry, ""
    res = reconstruct_svd(datapath, z, y)
    s = z.scheme
    return res.x_hat, res.telemetry, str(s.rank) if isinstance(s, Tsvd) else f"{s.lam:.6g}"


def _best_run(setup: StudySetup, method: str, bits: int | None, k: int, points: list):
    """Best SNR over the grid ``points`` (:func:`grid_point`'s); returns
    (snr_db, estimate, telemetry, param_label).  The route's datapath (the
    FFT plan on the fft route), a data-only acquisition's words and, on
    tsvd and tik, all the points' diagonals are compiled once."""
    y, datapath = _compile_route(setup, method, bits, k)
    if isinstance(datapath, CompiledSvd):
        points = datapath.diagonals(points)
    runs = [run_route(datapath, y, z) for z in points]
    return max(((snr_db(setup.x, estimate), estimate, telemetry, label)
                for estimate, telemetry, label in runs), key=lambda t: t[0])


def invert_once(setup: StudySetup, method: str, bits: int | None,
                k: int = 1, rank: int | None = None, lam: float | None = None):
    """One reconstruction; returns (snr_db, estimate, telemetry, param_label)."""
    return _best_run(setup, method, bits, k,
                     [grid_point(setup.factors.xi, method, rank, lam)])


def best_inversion(setup: StudySetup, method: str, bits: int | None, k: int = 1):
    """Best SNR over the method's regularization grid (pinv/fft have none),
    whose penalized diagonals are formed at once."""
    xi = setup.factors.xi
    if method == "tsvd":
        points = penalize_grid(xi, [Tsvd(r) for r in setup.rank_grid])
    elif method == "tik":
        points = penalize_grid(xi, [Tikhonov(lam) for lam in setup.lambda_grid])
    else:
        points = [grid_point(xi, method)]
    return _best_run(setup, method, bits, k, points)


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
        "rounding_policy": f"entry={ENTRY_POLICY.value} datapath={DATAPATH_POLICY.value}/saturate",
        "config": cfg.to_json(),
    }


def _cost(cfg: ExperimentConfig, method: str, k: int, label: str):
    """The modelled hardware cost of a sweep row, at the study's sizes and
    transform mode and, on tsvd, the rank its ``label`` names."""
    return hwmodel.method_cost(method, k, n=cfg.n, m=cfg.m,
                               rank=int(label) if method == "tsvd" else None,
                               fft_points=cfg.n, fft_mode=cfg.fft_mode)


def _best_rows(cfg: ExperimentConfig, setup: StudySetup, widths):
    """Each requested method's best run at each of ``widths``, at the
    config's parallelism: (method, bits, param_label, snr_db, mults, cost)."""
    for method in cfg.methods:
        for bits in widths:
            s, _, telemetry, label = best_inversion(setup, method, bits, cfg.k)
            yield method, bits, label, s, telemetry.mults, _cost(cfg, method, cfg.k, label)


def sweep_precision(cfg: ExperimentConfig, setup: StudySetup | None = None) -> SweepResult:
    """Quality versus word width for every requested method.

    At each width the regularized methods report their best grid point, which
    makes the per-method curves directly comparable plateau to plateau.
    """
    setup = setup or build_setup(cfg)
    columns = ["method", "bits", "reg_param", "snr_db", "mults",
               "latency_cycles", "time_us"]
    rows = [(*row, cost.latency_cycles, cost.time_us)
            for *row, cost in _best_rows(cfg, setup, cfg.bits_list)]
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
            rank = setup.factors.rank_bound if method == "tsvd" else None
            lam = setup.lambda_grid[len(setup.lambda_grid) // 2] if method == "tik" else None
            s, estimate, telemetry, label = invert_once(setup, method, cfg.bits, k=k,
                                                        rank=rank, lam=lam)
            if baseline is None:
                baseline = estimate
            identical = bool(np.array_equal(baseline, estimate))
            cost = _cost(cfg, method, k, label)
            rows.append((method, k, identical, s, cost.latency_cycles,
                         cost.time_us, cost.dsp, cost.bram, cost.lut,
                         telemetry.mults))
    return SweepResult(columns, rows, _metadata(cfg, "sweep-parallel"))


def run_comparison(cfg: ExperimentConfig, setup: StudySetup | None = None) -> SweepResult:
    """One row per method at the configured width and parallelism."""
    setup = setup or build_setup(cfg)
    columns = ["method", "bits", "k", "reg_param", "snr_db", "mults",
               "latency_cycles", "time_us", "dsp", "bram", "lut"]
    rows = [(method, bits, cfg.k, *row, cost.latency_cycles, cost.time_us,
             cost.dsp, cost.bram, cost.lut)
            for method, bits, *row, cost in _best_rows(cfg, setup, [cfg.bits])]
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
