"""Factorization, penalization, and the banked fixed-point MAC datapaths."""

import numpy as np
import pytest

import ftsinv as fi
from ftsinv.errors import SvdConvergenceError
from ftsinv.matrix_inversion import (
    BankedOperand,
    Pinv,
    Tikhonov,
    Tsvd,
    penalize,
    pinv_matrix,
    reconstruct_pinv,
    reconstruct_svd,
    svd_factorize,
)


class TestSvdFactorize:
    def test_identity(self):
        f = svd_factorize(np.eye(5))
        assert np.allclose(f.xi, 1.0)
        assert f.residuals(np.eye(5))["reconstruction_rel"] < 1e-12

    def test_diagonal_ordering(self):
        f = svd_factorize(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.xi, [3.0, 2.0, 1.0])
        assert np.all(np.diff(f.xi) <= 0)

    def test_random_against_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 12))
        f = svd_factorize(a)
        res = f.residuals(a)
        assert res["reconstruction_rel"] <= 1e-9
        assert res["orth_u"] <= 1e-10 and res["orth_v"] <= 1e-10
        ev = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        assert np.max(np.abs(f.xi ** 2 - ev) / ev) <= 1e-8

    def test_wide_matrix(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 20))
        f = svd_factorize(a)
        assert f.u.shape == (12, 12) and f.v.shape == (20, 12)
        assert f.residuals(a)["reconstruction_rel"] <= 1e-9

    def test_rank_deficient_basis_completion(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal((8, 1))
        a = col @ np.array([[1.0, 2.0, -1.0]])   # rank one, 8x3
        f = svd_factorize(a)
        assert f.xi[0] > 0 and np.all(f.xi[1:] < 1e-12)
        assert f.residuals(a)["orth_u"] <= 1e-10
        assert f.residuals(a)["reconstruction_rel"] <= 1e-9

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(SvdConvergenceError):
            svd_factorize(np.eye(3))

    @pytest.mark.parametrize("shape, seed", [((16, 12), 0), ((12, 20), 1)])
    def test_canonical_signs(self, shape, seed):
        a = np.random.default_rng(seed).standard_normal(shape)
        f = svd_factorize(a)
        pivots = f.u[np.argmax(np.abs(f.u), axis=0), np.arange(f.rank_bound)]
        assert np.all(pivots > 0)
        assert f.residuals(a)["reconstruction_rel"] <= 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svd_factorize(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_transfer_matrix_accepted(self):
        sg = fi.SpectralGrid(8, 1.0)
        og = fi.OpdGrid.transform_matched(sg, 8)
        a = fi.build_transfer_matrix(sg, og, "cosine", fi.OpticalParams(1.0, 0.5))
        f = svd_factorize(a)
        assert f.residuals(a.matrix)["reconstruction_rel"] <= 1e-9


class TestPenalize:
    def test_tsvd_example(self):
        z = penalize(np.array([4.0, 2.0, 1.0]), Tsvd(2))
        assert z.zeta.tolist() == [0.25, 0.5, 0.0]
        assert z.effective_rank == 2

    def test_tik_example(self):
        z = penalize(np.array([1.0]), Tikhonov(1.0))
        assert z.zeta[0] == pytest.approx(0.5)

    def test_tik_zero_equals_pinv_exactly(self):
        xi = np.array([4.0, 2.0, 0.5])
        assert np.array_equal(penalize(xi, Tikhonov(0.0)).zeta,
                              penalize(xi, Pinv()).zeta)

    def test_tsvd_full_rank_equals_pinv_exactly(self):
        xi = np.array([4.0, 2.0, 0.5])
        assert np.array_equal(penalize(xi, Tsvd(3)).zeta,
                              penalize(xi, Pinv()).zeta)

    def test_zero_singular_value_in_kept_range(self):
        with pytest.raises(ValueError):
            penalize(np.array([2.0, 0.0]), Tsvd(2))
        with pytest.raises(ValueError):
            penalize(np.array([2.0, 0.0]), Tikhonov(0.0))
        # with a positive ridge the zero maps to zero weight
        z = penalize(np.array([2.0, 0.0]), Tikhonov(0.5))
        assert z.zeta[1] == 0.0 and z.effective_rank == 1

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            penalize(np.array([1.0, 2.0]), Tsvd(0))
        with pytest.raises(ValueError):
            penalize(np.array([1.0, 2.0]), Tsvd(3))
        with pytest.raises(ValueError):
            penalize(np.array([1.0]), Tikhonov(-0.1))


class TestPinvMatrix:
    def test_identity(self):
        f = svd_factorize(np.eye(4))
        assert np.allclose(pinv_matrix(f), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        f = svd_factorize(np.diag([2.0, 2.0]))
        assert np.allclose(pinv_matrix(f), np.diag([0.5, 0.5]), atol=1e-14)

    def test_left_inverse_residual(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((20, 16))
        adag = pinv_matrix(svd_factorize(a))
        assert np.max(np.abs(adag @ a - np.eye(16))) <= 1e-8

    def test_drop_threshold(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal((6, 1))
        a = col @ np.array([[1.0, 1.0]])
        adag = pinv_matrix(svd_factorize(a))   # zero singular value dropped
        assert np.all(np.isfinite(adag))


class TestBankedOperand:
    def test_partition_sizes(self):
        m = np.arange(22 * 3).reshape(22, 3).astype(float)
        banked = BankedOperand.split(m, 4)
        sizes = [p.shape[0] for p in banked.partitions]
        assert sizes == [6, 6, 5, 5]            # ceil/floor split
        assert np.array_equal(banked.reassemble(), m)

    def test_k_bounds(self):
        m = np.zeros((4, 2))
        with pytest.raises(ValueError):
            BankedOperand.split(m, 5)
        with pytest.raises(ValueError):
            BankedOperand.split(m, 0)


@pytest.fixture(scope="module")
def tall_problem():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((20, 16))
    f = svd_factorize(a)
    adag = pinv_matrix(f)
    x = rng.standard_normal(16)
    y = a @ x
    return a, f, adag, x, y


class TestReconstructPinv:
    def test_zero_input_count(self, tall_problem):
        _, _, adag, _, _ = tall_problem
        res = reconstruct_pinv(adag, np.zeros(20), fmt=12)
        assert np.all(res.x_hat == 0)
        assert res.telemetry.mults == 16 * 20

    def test_wide_format_matches_double_oracle(self, tall_problem):
        _, _, adag, _, y = tall_problem
        res = reconstruct_pinv(adag, y, fmt=40)
        ref = adag @ y
        assert np.linalg.norm(res.x_hat - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_k_bit_identity(self, tall_problem):
        _, _, adag, _, y = tall_problem
        outs = [reconstruct_pinv(adag, y, fmt=14, k=k).x_hat for k in range(1, 7)]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)

    def test_noiseless_consistency_double(self, tall_problem):
        _, _, adag, x, y = tall_problem
        res = reconstruct_pinv(adag, y, fmt=None)
        assert np.linalg.norm(res.x_hat - x) <= 1e-8 * np.linalg.norm(x)

    def test_dimension_mismatch(self, tall_problem):
        _, _, adag, _, _ = tall_problem
        with pytest.raises(ValueError):
            reconstruct_pinv(adag, np.zeros(7), fmt=12)

    def test_latency_attached(self, tall_problem):
        _, _, adag, _, y = tall_problem
        res = reconstruct_pinv(adag, y, fmt=12, k=2)
        assert res.telemetry.latency_cycles > 0
        assert res.telemetry.k == 2


class TestReconstructSvd:
    def test_zero_penalty_zero_output(self, tall_problem):
        _, f, _, _, y = tall_problem
        z = penalize(f.xi, Tikhonov(1.0))
        z.zeta[:] = 0.0
        res = reconstruct_svd(f, z, y, fmt=12)
        assert np.all(res.x_hat == 0)
        assert res.telemetry.mults == 0

    def test_mult_count_formula(self, tall_problem):
        _, f, _, _, y = tall_problem
        for rank in (4, 9, 16):
            z = penalize(f.xi, Tsvd(rank))
            res = reconstruct_svd(f, z, y, fmt=12)
            assert res.telemetry.mults == rank * (2 * 16 + 20)

    def test_small_example_count(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8))
        f = svd_factorize(a)
        z = penalize(f.xi, Tsvd(4))
        res = reconstruct_svd(f, z, a @ rng.standard_normal(8), fmt=10)
        assert res.telemetry.mults == 4 * (16 + 8) == 96

    def test_full_rank_matches_pinv_double(self, tall_problem):
        _, f, adag, _, y = tall_problem
        z = penalize(f.xi, Tsvd(16))
        rs = reconstruct_svd(f, z, y, fmt=None)
        rp = reconstruct_pinv(adag, y, fmt=None)
        rel = np.linalg.norm(rs.x_hat - rp.x_hat) / np.linalg.norm(rp.x_hat)
        assert rel <= 1e-10

    def test_k_bit_identity(self, tall_problem):
        _, f, _, _, y = tall_problem
        z = penalize(f.xi, Tsvd(12))
        outs = [reconstruct_svd(f, z, y, fmt=14, k=k).x_hat for k in range(1, 7)]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)

    def test_tik_error_vanishes_as_lambda_to_zero(self, tall_problem):
        _, f, _, x, y = tall_problem
        errs = []
        for lam in (1e-1, 1e-3, 1e-6, 0.0):
            z = penalize(f.xi, Tikhonov(lam))
            res = reconstruct_svd(f, z, y, fmt=None)
            errs.append(np.linalg.norm(res.x_hat - x) / np.linalg.norm(x))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] <= 1e-8

    def test_monotone_residual_in_lambda(self, tall_problem):
        a, f, _, _, y = tall_problem
        y_noisy = y + 0.01 * np.random.default_rng(8).standard_normal(y.size)
        prev = -np.inf
        for lam in [0.0] + list(np.logspace(-4, 1, 12)):
            z = penalize(f.xi, Tikhonov(lam))
            res = reconstruct_svd(f, z, y_noisy, fmt=None)
            resid = np.linalg.norm(a @ res.x_hat - y_noisy)
            assert resid >= prev - 1e-9
            prev = resid

    def test_wide_format_tracks_double(self, tall_problem):
        _, f, _, _, y = tall_problem
        z = penalize(f.xi, Tsvd(16))
        ref = reconstruct_svd(f, z, y, fmt=None).x_hat
        got = reconstruct_svd(f, z, y, fmt=40).x_hat
        assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)


class TestNoiseAmplification:
    def test_ridge_beats_plain_inverse_on_ill_conditioned(self, reference_setup):
        """On the ill-conditioned Fabry-Perot study some ridge weight
        recovers far more signal than the raw pseudo-inverse."""
        from ftsinv import bench
        setup = reference_setup
        assert setup.factors.gram_condition >= 1e6
        s_pinv = bench.invert_once(setup, "pinv", None)[0]
        s_tik = max(bench.invert_once(setup, "tik", None, lam=l)[0]
                    for l in setup.lambda_grid[::4])
        assert s_tik > s_pinv + 10.0
