"""Forward model: grids, transmittances, simulation, normalization, file IO."""

import numpy as np
import pytest

import ftsinv as fi
from ftsinv import fileio
from ftsinv.optics import is_transform_matched

SG8 = fi.SpectralGrid(8, 1.0)

# frozen regression vector: gaussian_mixture_spectrum(SpectralGrid(8, 1), 3, seed=77)
GOLDEN_MIXTURE_77 = [
    5.163804476406598e-31, 1.9529233149603184e-11, 0.06017244859908414,
    0.015104531968077277, 2.6204470011460346e-05, 0.25820405574225314,
    0.039173046883379005, 9.216520572171293e-08,
]


class TestGrids:
    def test_midpoints(self):
        mids = SG8.midpoints()
        assert mids[0] == pytest.approx(1 / 16)
        assert np.all(np.diff(mids) > 0)
        assert mids[-1] < 1.0

    def test_spectral_validation(self):
        with pytest.raises(ValueError):
            fi.SpectralGrid(1, 1.0)
        with pytest.raises(ValueError):
            fi.SpectralGrid(8, 0.0)

    def test_opd_regular(self):
        og = fi.OpdGrid.regular(4, 0.5)
        assert og.is_regular and og.step == 0.5
        assert np.array_equal(og.delta, [0.0, 0.5, 1.0, 1.5])

    def test_opd_irregular(self):
        og = fi.OpdGrid(np.array([0.0, 0.3, 1.0]))
        assert not og.is_regular
        with pytest.raises(ValueError):
            og.step

    def test_opd_validation(self):
        with pytest.raises(ValueError):
            fi.OpdGrid(np.array([0.0]))
        with pytest.raises(ValueError):
            fi.OpdGrid(np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError):
            fi.OpdGrid(np.array([-0.1, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_opd_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fi.OpdGrid(np.array([0.0, bad, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            fi.OpdGrid(np.array([0.0, 1.0, bad]))

    def test_opd_holds_a_read_only_copy(self):
        """The grid cannot change under its cached regularity."""
        delta = np.array([0.0, 0.5, 1.0])
        og = fi.OpdGrid(delta)
        assert og.is_regular
        delta[1] = 0.7
        assert og.delta[1] == 0.5 and og.is_regular
        with pytest.raises(ValueError):
            og.delta[1] = 0.7

    def test_transform_matched(self):
        og = fi.OpdGrid.transform_matched(SG8, 8)
        assert is_transform_matched(SG8, og)
        assert og.step == pytest.approx(0.5)
        og2 = fi.OpdGrid.transform_matched(SG8, 8, oversampling=0.9)
        assert not is_transform_matched(SG8, og2)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            fi.OpticalParams(0.0, 0.5)
        with pytest.raises(ValueError):
            fi.OpticalParams(1.0, 1.0)


class TestTransmittance:
    def test_cosine_zero_opd(self):
        p = fi.OpticalParams(0.8, 0.5)
        assert fi.cosine_transmittance(0.3, 0.0, p) == pytest.approx(0.8 * 1.5)

    def test_cosine_r_zero(self):
        p = fi.OpticalParams(0.7, 0.0)
        for sigma, delta in [(0.1, 3.0), (0.9, 0.2)]:
            assert fi.cosine_transmittance(sigma, delta, p) == pytest.approx(0.7)

    def test_cosine_quarter_period(self):
        p = fi.OpticalParams(0.6, 0.4)
        assert fi.cosine_transmittance(0.5, 0.5, p) == pytest.approx(0.6)

    def test_airy_r_zero(self):
        p = fi.OpticalParams(0.9, 0.0)
        assert fi.airy_transmittance(0.3, 2.0, p) == pytest.approx(0.9)

    def test_airy_integer_product(self):
        p = fi.OpticalParams(1.0, 0.7)
        assert fi.airy_transmittance(2.0, 3.0, p) == pytest.approx(1.0 / 0.3 ** 2)

    def test_airy_half_product(self):
        p = fi.OpticalParams(1.0, 0.7)
        assert fi.airy_transmittance(0.5, 1.0, p) == pytest.approx(1.0 / 1.7 ** 2)

    def test_airy_bounds_property(self):
        rng = np.random.default_rng(4)
        p = fi.OpticalParams(0.8, 0.6)
        lo = 0.8 / (1 + 0.6) ** 2
        hi = 0.8 / (1 - 0.6) ** 2
        for sigma, delta in rng.uniform(0, 10, (500, 2)):
            t = fi.airy_transmittance(sigma, delta, p)
            assert lo - 1e-12 <= t <= hi + 1e-12


class TestTransferMatrix:
    def test_one_by_one_cosine(self):
        sg = fi.SpectralGrid(2, 1.0)
        og = fi.OpdGrid(np.array([0.0, 1.0]))
        p = fi.OpticalParams(0.9, 0.4)
        a = fi.build_transfer_matrix(sg, og, "cosine", p)
        assert a.matrix[0, 0] == pytest.approx(0.9 * 1.4)

    def test_r_zero_constant(self):
        og = fi.OpdGrid.regular(5, 0.3)
        a = fi.build_transfer_matrix(SG8, og, "airy", fi.OpticalParams(0.5, 0.0))
        assert np.allclose(a.matrix, 0.5)

    def test_elementwise_oracle(self):
        og = fi.OpdGrid.regular(6, 0.4)
        p = fi.OpticalParams(0.8, 0.3)
        for kind, fn in (("cosine", fi.cosine_transmittance),
                         ("airy", fi.airy_transmittance)):
            a = fi.build_transfer_matrix(SG8, og, kind, p)
            for k, delta in enumerate(og.delta):
                for n, sigma in enumerate(SG8.midpoints()):
                    assert a.matrix[k, n] == pytest.approx(fn(sigma, delta, p))

    def test_unknown_kind(self):
        og = fi.OpdGrid.regular(4, 0.5)
        with pytest.raises(ValueError):
            fi.build_transfer_matrix(SG8, og, "prism", fi.OpticalParams())


class TestMixture:
    def test_zero_amplitude(self):
        s = fi.gaussian_mixture_spectrum(SG8, [(0.5, 0.1, 0.0)])
        assert np.all(s.values == 0)

    def test_narrow_peak_argmax(self):
        s = fi.gaussian_mixture_spectrum(SG8, [(0.4375, 0.01, 1.0)])
        assert np.argmax(s.values) == 3

    def test_empty_components(self):
        with pytest.raises(ValueError):
            fi.gaussian_mixture_spectrum(SG8, [])
        with pytest.raises(ValueError):
            fi.gaussian_mixture_spectrum(SG8, 0)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            fi.gaussian_mixture_spectrum(SG8, [(0.5, 0.0, 1.0)])

    def test_golden_vector(self):
        s = fi.gaussian_mixture_spectrum(SG8, 3, seed=77)
        assert s.values.tolist() == GOLDEN_MIXTURE_77

    def test_seed_determinism(self):
        a = fi.gaussian_mixture_spectrum(SG8, 5, seed=123)
        b = fi.gaussian_mixture_spectrum(SG8, 5, seed=123)
        assert np.array_equal(a.values, b.values)


class TestSimulate:
    def _setup(self):
        og = fi.OpdGrid.transform_matched(SG8, 8)
        p = fi.OpticalParams(1.0, 0.5)
        a = fi.build_transfer_matrix(SG8, og, "cosine", p)
        return a, p

    def test_zero_spectrum(self):
        a, _ = self._setup()
        x = fi.Spectrum(np.zeros(8), SG8)
        y = fi.simulate_interferogram(a, x)
        assert np.all(y.values == 0)
        assert y.mean_spectrum == 0.0

    def test_identity_injection(self):
        og = fi.OpdGrid.regular(8, 0.5)
        a = fi.TransferMatrix(np.eye(8), SG8, og)
        x = fi.gaussian_mixture_spectrum(SG8, 2, seed=1)
        y = fi.simulate_interferogram(a, x)
        assert np.array_equal(y.values, x.values)

    def test_matvec_oracle(self):
        a, _ = self._setup()
        x = fi.gaussian_mixture_spectrum(SG8, 3, seed=2)
        y = fi.simulate_interferogram(a, x)
        assert np.allclose(y.values, a.matrix @ x.values, rtol=0, atol=0)
        assert y.mean_spectrum == pytest.approx(x.values.sum())

    def test_linearity(self):
        a, _ = self._setup()
        x1 = fi.gaussian_mixture_spectrum(SG8, 2, seed=3)
        x2 = fi.gaussian_mixture_spectrum(SG8, 2, seed=4)
        combo = fi.Spectrum(2.0 * x1.values - 0.5 * x2.values, SG8)
        y = fi.simulate_interferogram(a, combo)
        y1 = fi.simulate_interferogram(a, x1)
        y2 = fi.simulate_interferogram(a, x2)
        ref = 2.0 * y1.values - 0.5 * y2.values
        assert np.max(np.abs(y.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_noise_determinism(self):
        a, _ = self._setup()
        x = fi.gaussian_mixture_spectrum(SG8, 3, seed=5)
        y1 = fi.simulate_interferogram(a, x, noise_std=0.1, seed=42)
        y2 = fi.simulate_interferogram(a, x, noise_std=0.1, seed=42)
        y3 = fi.simulate_interferogram(a, x, noise_std=0.1, seed=43)
        assert np.array_equal(y1.values, y2.values)
        assert not np.array_equal(y1.values, y3.values)

    def test_grid_mismatch(self):
        a, _ = self._setup()
        other = fi.Spectrum(np.zeros(16), fi.SpectralGrid(16, 1.0))
        with pytest.raises(ValueError):
            fi.simulate_interferogram(a, other)


class TestNormalize:
    def test_constant_pedestal_maps_to_zero(self):
        og = fi.OpdGrid.regular(4, 0.5)
        p = fi.OpticalParams(0.8, 0.25)
        s_mean = 3.0
        y = fi.Interferogram(np.full(4, 0.8 * s_mean), og)
        out = fi.normalize_interferogram(y, p, s_mean)
        assert np.allclose(out.values, 0.0)
        assert out.mean_spectrum == s_mean

    def test_unit_scaling(self):
        og = fi.OpdGrid.regular(4, 0.5)
        y = fi.Interferogram(np.array([1.0, -2.0, 0.5, 3.0]), og)
        out = fi.normalize_interferogram(y, fi.OpticalParams(1.0, 0.5), 0.0)
        assert np.array_equal(out.values, y.values)

    def test_r_zero_rejected(self):
        og = fi.OpdGrid.regular(4, 0.5)
        y = fi.Interferogram(np.zeros(4), og)
        with pytest.raises(ValueError):
            fi.normalize_interferogram(y, fi.OpticalParams(1.0, 0.0), 0.0)

    def test_cosine_model_yields_half_cosine_transform(self):
        """Direct-sum oracle: normalized cosine interferogram = DCT-II / 2."""
        for n in (16, 64):
            sg = fi.SpectralGrid(n, 2.0)
            og = fi.OpdGrid.transform_matched(sg, n)
            p = fi.OpticalParams(1.0, 0.5)
            a = fi.build_transfer_matrix(sg, og, "cosine", p)
            x = fi.gaussian_mixture_spectrum(sg, 3, seed=n)
            y = fi.simulate_interferogram(a, x)
            yt = fi.normalize_interferogram(y, p, y.mean_spectrum)
            k = np.arange(n)[:, None]
            nn = np.arange(n)[None, :]
            dct = np.cos(np.pi * k * (2 * nn + 1) / (2 * n)) @ x.values
            assert np.max(np.abs(yt.values - dct / 2.0)) < 1e-10


class TestFileIO:
    def test_matrix_container_round_trip(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((5, 3))
        path = tmp_path / "m.bin"
        fileio.write_matrix(path, m)
        assert np.array_equal(fileio.read_matrix(path), m)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a container at all.........")
        with pytest.raises(ValueError):
            fileio.read_matrix(path)

    def test_series_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        fileio.write_series_csv(path, "opd", [0.0, 0.5, 1.0], [1.0, -2.0, 3.0])
        name, coords, values = fileio.read_series_csv(path)
        assert name == "opd"
        assert np.array_equal(coords, [0.0, 0.5, 1.0])
        assert np.array_equal(values, [1.0, -2.0, 3.0])

    def test_series_requires_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.5,2.0\n")
        with pytest.raises(ValueError):
            fileio.read_series_csv(path)

    def test_malformed_input_refused(self, tmp_path):
        """A container cut short and a series whose columns differ in length
        raise ValueError."""
        path = tmp_path / "m.bin"
        fileio.write_matrix(path, np.ones((3, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload size 40 != 48"):
            fileio.read_matrix(path)
        with pytest.raises(ValueError, match="length mismatch"):
            fileio.write_series_csv(tmp_path / "s.csv", "opd", [0.0, 0.5], [1.0])


OG8 = fi.OpdGrid.regular(8, 0.5)


@pytest.mark.parametrize("call,message", [
    (lambda: fi.OpdGrid.regular(4, 0.0), "step must be > 0"),
    (lambda: fi.Spectrum(np.ones(7), SG8), "spectrum length does not match its grid"),
    (lambda: fi.Spectrum([1.0] * 7 + [np.nan], SG8), "spectrum values must be finite"),
    (lambda: fi.Interferogram(np.ones(9), OG8), "interferogram length does not match"),
    (lambda: fi.Interferogram([np.inf] + [1.0] * 7, OG8), "interferogram values must be finite"),
    (lambda: fi.TransferMatrix(np.ones((8, 7)), SG8, OG8), r"matrix shape \(8, 7\)"),
    (lambda: fi.TransferMatrix(np.full((8, 8), np.nan), SG8, OG8), "transfer matrix must be finite"),
    (lambda: fi.simulate_interferogram(
        fi.build_transfer_matrix(SG8, OG8, "cosine", fi.OpticalParams()),
        fi.gaussian_mixture_spectrum(SG8, 2), noise_std=float("nan")), "noise_std must be >= 0"),
    (lambda: fi.simulate_interferogram(
        fi.build_transfer_matrix(SG8, OG8, "cosine", fi.OpticalParams()),
        fi.gaussian_mixture_spectrum(SG8, 2), noise_std=-1.0), "noise_std must be >= 0"),
], ids=["opd-step", "spectrum-length", "spectrum-finite", "interferogram-length",
        "interferogram-finite", "matrix-shape", "matrix-finite", "noise-nan", "noise-negative"])
def test_input_checks_raise_value_error(call, message):
    """Each constructor's shape and finiteness checks, the regular grid's
    step check and the noise level check raise ValueError; NaN noise is
    refused, not taken as noiseless."""
    with pytest.raises(ValueError, match=message):
        call()
