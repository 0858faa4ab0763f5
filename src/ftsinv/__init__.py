"""Spectrum reconstruction from interferograms on emulated fixed-point
hardware datapaths, with an analytical latency/resource cost model."""

from .bench import ExperimentConfig, SweepResult, reference_airy_config, snr_db
from .errors import (
    ConfigError,
    NumericalError,
    OverflowViolationError,
    SvdConvergenceError,
)
from .fft_inversion import (
    BankedMemory,
    FftPlan,
    FftResult,
    FftTelemetry,
    dct2_via_fft,
    fft_bfp,
    idct2_via_fft,
    reconstruct_fft,
)
from .fxp import FxpFormat, RoundingMode
from .hwmodel import (
    CalibrationTable,
    HwCost,
    compare_methods,
    default_calibration,
    fft_cost,
    pinv_cost,
    svd_cost,
)
from .matrix_inversion import (
    CompiledPinv,
    CompiledSvd,
    InversionResult,
    PenalizedDiagonal,
    SvdFactors,
    Tikhonov,
    Tsvd,
    compile_pinv,
    compile_svd,
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
    TransferMatrix,
    airy_transmittance,
    build_transfer_matrix,
    cosine_transmittance,
    gaussian_mixture_spectrum,
    is_transform_matched,
    normalize_interferogram,
    simulate_interferogram,
)

__version__ = "0.1.0"
