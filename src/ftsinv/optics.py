"""Forward model of a Fourier-transform spectrometer.

Synthetic spectra, two-wave cosine and Fabry-Perot (Airy) transmittances,
transfer-matrix construction, interferogram simulation and normalization.
All physics here is computed in double precision; fixed-point quantization
only happens afterwards, at the entry of the emulated datapaths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SpectralGrid:
    """Wavenumber discretization: ``n_bins`` intervals over (0, bandwidth).

    Bin ``n`` is represented by its midpoint ``(2n+1)/(2N) * bandwidth``.
    """

    n_bins: int
    bandwidth: float

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if not (self.bandwidth > 0):
            raise ValueError("bandwidth must be > 0")

    @property
    def step(self) -> float:
        return self.bandwidth / self.n_bins

    def midpoints(self) -> np.ndarray:
        n = np.arange(self.n_bins)
        return (2 * n + 1) / (2 * self.n_bins) * self.bandwidth


@dataclass(frozen=True)
class OpdGrid:
    """Optical-path-difference sampling positions (non-negative, increasing)."""

    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=np.float64))
        if self.delta.size < 2:
            raise ValueError("OPD grid needs at least 2 samples")
        if self.delta[0] < 0 or np.any(np.diff(self.delta) <= 0):
            raise ValueError("OPD values must be non-negative and strictly increasing")

    @property
    def n_samples(self) -> int:
        return int(self.delta.size)

    @property
    def is_regular(self) -> bool:
        """True when delta_k = k * step (zero-based arithmetic progression)."""
        d = self.delta
        if d[0] != 0.0:
            return False
        step = d[1]
        return bool(np.allclose(d, step * np.arange(d.size), rtol=1e-12, atol=0.0))

    @property
    def step(self) -> float:
        if not self.is_regular:
            raise ValueError("step undefined for an irregular OPD grid")
        return float(self.delta[1])

    @classmethod
    def regular(cls, n_samples: int, step: float) -> "OpdGrid":
        if step <= 0:
            raise ValueError("step must be > 0")
        return cls(step * np.arange(n_samples))

    @classmethod
    def transform_matched(cls, grid: SpectralGrid, n_samples: int,
                          oversampling: float = 1.0) -> "OpdGrid":
        """Regular grid with step ``oversampling / (2 * bandwidth)``.

        At oversampling 1 the cosine-model interferogram lands exactly on the
        cosine-transform lattice, which is what the FFT route inverts;
        smaller factors emulate devices with finer OPD steps.
        """
        return cls.regular(n_samples, oversampling / (2.0 * grid.bandwidth))


def is_transform_matched(sg: SpectralGrid, og: OpdGrid) -> bool:
    """True when the regular OPD step equals 1/(2*bandwidth)."""
    if not og.is_regular:
        return False
    return bool(np.isclose(og.step * 2.0 * sg.bandwidth, 1.0, rtol=1e-9, atol=0.0))


@dataclass(frozen=True)
class OpticalParams:
    """Attenuation ``a`` in (0, 1] and reflectivity ``r`` in [0, 1)."""

    a: float = 1.0
    r: float = 0.5

    def __post_init__(self):
        if not (0 < self.a <= 1):
            raise ValueError(f"attenuation a must satisfy 0 < a <= 1, got {self.a}")
        if not (0 <= self.r < 1):
            raise ValueError(f"reflectivity r must satisfy 0 <= r < 1, got {self.r}")


@dataclass
class Spectrum:
    values: np.ndarray
    grid: SpectralGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n_bins,):
            raise ValueError("spectrum length does not match its grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")


@dataclass
class Interferogram:
    values: np.ndarray
    grid: OpdGrid
    mean_spectrum: float | None = None   # DC level of the source spectrum, when known

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n_samples,):
            raise ValueError("interferogram length does not match its grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("interferogram values must be finite")


def cosine_transmittance(sigma: float, delta: float, p: OpticalParams) -> float:
    """Two-wave interference: ``a * (1 + r*cos(2*pi*sigma*delta))``."""
    return p.a * (1.0 + p.r * np.cos(2.0 * np.pi * sigma * delta))


def airy_transmittance(sigma: float, delta: float, p: OpticalParams) -> float:
    """Fabry-Perot etalon: ``a / ((1-r)^2 + 4 r sin^2(pi*delta*sigma))``."""
    if p.r >= 1:
        raise ValueError("airy transmittance requires r < 1")
    s = np.sin(np.pi * delta * sigma)
    return p.a / ((1.0 - p.r) ** 2 + 4.0 * p.r * s * s)


_TRANSMITTANCES = {"cosine": cosine_transmittance, "airy": airy_transmittance}


@dataclass
class TransferMatrix:
    """Discretized instrument response: ``matrix[k, n] = T(sigma_n, delta_k)``."""

    matrix: np.ndarray
    spectral_grid: SpectralGrid
    opd_grid: OpdGrid
    kind: str = "custom"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        expected = (self.opd_grid.n_samples, self.spectral_grid.n_bins)
        if self.matrix.shape != expected:
            raise ValueError(f"matrix shape {self.matrix.shape} != grids {expected}")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("transfer matrix must be finite")

    @property
    def shape(self):
        return self.matrix.shape


def build_transfer_matrix(
    sg: SpectralGrid,
    og: OpdGrid,
    kind: str,
    p: OpticalParams,
) -> TransferMatrix:
    """Evaluate the chosen transmittance on the (OPD x wavenumber) lattice."""
    if kind not in _TRANSMITTANCES:
        raise ValueError(f"unknown transmittance kind {kind!r}")
    a = _TRANSMITTANCES[kind](sg.midpoints()[None, :], og.delta[:, None], p)
    return TransferMatrix(a, sg, og, kind)


def gaussian_mixture_spectrum(grid: SpectralGrid, components, seed: int = 0) -> Spectrum:
    """Deterministic synthetic spectrum from a Gaussian mixture.

    ``components`` is either an explicit list of ``(center, width, amplitude)``
    tuples (units of the grid) or an integer count of components to draw from
    the seeded generator.  The same seed always produces the same spectrum.
    """
    if isinstance(components, int):
        if components <= 0:
            raise ValueError("component count must be positive")
        rng = np.random.default_rng(seed)
        b = grid.bandwidth
        components = [
            (rng.uniform(0.1 * b, 0.9 * b), rng.uniform(0.01 * b, 0.06 * b),
             rng.uniform(0.3, 1.0))
            for _ in range(components)
        ]
    components = list(components)
    if not components:
        raise ValueError("empty component list")
    sigma = grid.midpoints()
    values = np.zeros(grid.n_bins)
    for center, width, amplitude in components:
        if width <= 0:
            raise ValueError("component width must be > 0")
        values += amplitude * np.exp(-0.5 * ((sigma - center) / width) ** 2)
    return Spectrum(values, grid)


def simulate_interferogram(
    a: TransferMatrix,
    x: Spectrum,
    noise_std: float = 0.0,
    seed: int = 0,
) -> Interferogram:
    """``y = A x + n`` with optional white Gaussian noise, in double precision."""
    if x.grid != a.spectral_grid:
        raise ValueError("spectrum grid does not match the transfer matrix")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    y = a.matrix @ x.values
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        y = y + noise_std * rng.standard_normal(y.size)
    return Interferogram(y, a.opd_grid, mean_spectrum=float(np.sum(x.values)))


def normalize_interferogram(
    y: Interferogram,
    p: OpticalParams,
    mean_spectrum: float,
) -> Interferogram:
    """Strip the DC pedestal and gain: ``(y/a - mean) / (2r)``.

    For a cosine-model acquisition this yields half the cosine transform of
    the spectrum (``mean_spectrum`` is the spectrum's summed DC level, as
    recorded by :func:`simulate_interferogram`).
    """
    if p.r == 0:
        raise ValueError("normalization undefined for r = 0 (no interference term)")
    out = (y.values / p.a - mean_spectrum) / (2.0 * p.r)
    return Interferogram(out, y.grid, mean_spectrum=mean_spectrum)
