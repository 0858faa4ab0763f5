"""Factorization, penalization, and the banked fixed-point MAC datapaths."""

import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftsinv as fi
from ftsinv import bench, hwmodel, matrix_inversion
from ftsinv.errors import SvdConvergenceError
from ftsinv.fxp import (
    DATAPATH_POLICY,
    FxpFormat,
    RoundingMode,
    _float_exact,
    _guard_bits,
    _limb_plan,
    _mac,
    _requantize,
    quantize_array,
)
from ftsinv.matrix_inversion import (
    CompiledSvd,
    PenalizedDiagonal,
    SvdFactors,
    Tikhonov,
    Tsvd,
    _banked_mac,
    _tensor_format,
    compile_pinv,
    compile_svd,
    penalize,
    penalize_grid,
    pinv_matrix,
    reconstruct_pinv,
    reconstruct_svd,
    svd_factorize,
)

from reference import (
    apply_overflow,
    gram_condition,
    limb_plan,
    pinv_words,
    rshift_round,
    svd_residuals,
    svd_words,
)


class TestSvdFactorize:
    def test_identity(self):
        f = svd_factorize(np.eye(5))
        assert np.allclose(f.xi, 1.0)
        assert svd_residuals(f, np.eye(5))["reconstruction_rel"] < 1e-12

    def test_diagonal_ordering(self):
        f = svd_factorize(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(f.xi, [3.0, 2.0, 1.0])
        assert np.all(np.diff(f.xi) <= 0)

    def test_random_against_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 12))
        f = svd_factorize(a)
        res = svd_residuals(f, a)
        assert res["reconstruction_rel"] <= 1e-9
        assert res["orth_u"] <= 1e-10 and res["orth_v"] <= 1e-10
        ev = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        assert np.max(np.abs(f.xi ** 2 - ev) / ev) <= 1e-8

    def test_wide_matrix(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((12, 20))
        f = svd_factorize(a)
        assert f.u.shape == (12, 12) and f.v.shape == (20, 12)
        assert svd_residuals(f, a)["reconstruction_rel"] <= 1e-9

    def test_rank_deficient_basis_completion(self):
        rng = np.random.default_rng(2)
        col = rng.standard_normal((8, 1))
        a = col @ np.array([[1.0, 2.0, -1.0]])   # rank one, 8x3
        f = svd_factorize(a)
        assert f.xi[0] > 0 and np.all(f.xi[1:] < 1e-12)
        assert svd_residuals(f, a)["orth_u"] <= 1e-10
        assert svd_residuals(f, a)["reconstruction_rel"] <= 1e-9

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
        assert svd_residuals(f, a)["reconstruction_rel"] <= 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svd_factorize(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_transfer_matrix_accepted(self):
        sg = fi.SpectralGrid(8, 1.0)
        og = fi.OpdGrid.transform_matched(sg, 8)
        a = fi.build_transfer_matrix(sg, og, "cosine", fi.OpticalParams(1.0, 0.5))
        f = svd_factorize(a)
        assert svd_residuals(f, a.matrix)["reconstruction_rel"] <= 1e-9


class TestPenalize:
    def test_tsvd_example(self):
        z = penalize(np.array([4.0, 2.0, 1.0]), Tsvd(2))
        assert z.zeta.tolist() == [0.25, 0.5, 0.0]
        assert np.count_nonzero(z.zeta) == 2

    def test_tik_example(self):
        z = penalize(np.array([1.0]), Tikhonov(1.0))
        assert z.zeta[0] == pytest.approx(0.5)

    def test_tik_zero_equals_pinv_exactly(self):
        xi = np.array([4.0, 2.0, 0.5])
        assert np.array_equal(penalize(xi, Tikhonov(0.0)).zeta, 1.0 / xi)

    def test_tsvd_full_rank_equals_pinv_exactly(self):
        xi = np.array([4.0, 2.0, 0.5])
        assert np.array_equal(penalize(xi, Tsvd(3)).zeta, 1.0 / xi)

    def test_zero_singular_value_in_kept_range(self):
        with pytest.raises(ValueError):
            penalize(np.array([2.0, 0.0]), Tsvd(2))
        with pytest.raises(ValueError):
            penalize(np.array([2.0, 0.0]), Tikhonov(0.0))
        # with a positive ridge the zero maps to zero weight
        z = penalize(np.array([2.0, 0.0]), Tikhonov(0.5))
        assert z.zeta[1] == 0.0 and np.count_nonzero(z.zeta) == 1

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            penalize(np.array([1.0, 2.0]), Tsvd(0))
        with pytest.raises(ValueError):
            penalize(np.array([1.0, 2.0]), Tsvd(3))
        with pytest.raises(ValueError):
            penalize(np.array([1.0]), Tikhonov(-0.1))

    def test_a_grid_forms_each_diagonal_with_its_own_bits(self, reference_setup):
        """One (P, r) pass over the frozen study's rank and ridge grids, 0 and
        an infinite ridge parameter among them, gives each diagonal the bytes
        of the one-scheme formulas: the reciprocals of the kept values, and
        ``xi / (xi^2 + lambda^2)``, or ``1 / xi`` at lambda 0.  A grid mixing
        the two schemes is refused, an unknown scheme is a TypeError."""
        setup = reference_setup
        xi = setup.factors.xi
        ranks = [*setup.rank_grid, 1, 3, 253]
        for rank, z in zip(ranks, penalize_grid(xi, [Tsvd(k) for k in ranks])):
            want = np.zeros_like(xi)
            want[:rank] = 1.0 / xi[:rank]
            assert z.zeta.tobytes() == want.tobytes() and z.scheme == Tsvd(rank)
        lams = [*setup.lambda_grid, 0.0, float("inf"), 1e-200]
        for lam, z in zip(lams, penalize_grid(xi, [Tikhonov(lam) for lam in lams])):
            want = 1.0 / xi if lam == 0 else xi / (xi * xi + lam ** 2)
            assert z.zeta.tobytes() == want.tobytes() and z.scheme == Tikhonov(lam)
        assert penalize_grid(xi, []) == []
        with pytest.raises(ValueError, match="all rank or all ridge"):
            penalize_grid(xi, [Tsvd(2), Tikhonov(0.1)])
        with pytest.raises(TypeError, match="unknown scheme"):
            penalize_grid(xi, [Tsvd(2), "rank 3"])

    def test_tik_ridge_limits(self, tall_problem):
        """A NaN ridge parameter is refused; an infinite one weighs every
        singular value to zero, so the route returns the zero estimate."""
        with pytest.raises(ValueError, match="ridge parameter must be >= 0"):
            penalize(np.array([1.0]), Tikhonov(float("nan")))
        _, f, _, _, y = tall_problem
        z = penalize(f.xi, Tikhonov(float("inf")))
        assert not np.any(z.zeta)
        for fmt in (None, 16):
            assert not np.any(reconstruct_svd(f, z, y, fmt=fmt).x_hat)


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


class TestCompilePinvBanks:
    def test_words_are_the_same_at_every_k(self):
        """K sets the bank count telemetry and the cost model read; the
        coefficient words are those of the whole matrix at every K."""
        m = np.arange(22 * 3).reshape(22, 3).astype(float)
        for k in range(1, 5):
            datapath = compile_pinv(m, 16, k)
            assert datapath.k == k
            assert np.array_equal(datapath.words, quantize_array(m, datapath.mat_fmt))
        assert compile_pinv(m, None, k=4).words is None     # the double path reads none

    @pytest.mark.parametrize("fmt", [None, 16])
    def test_k_bounds(self, fmt):
        m = np.zeros((4, 2))
        for k in (0, 5):
            with pytest.raises(ValueError, match="partition count"):
                compile_pinv(m, fmt, k)
        assert compile_pinv(m, fmt, 4).k == 4


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

    @pytest.mark.parametrize("fmt, products", [(None, 1), (12, 1), (FxpFormat(12, 8), 0)])
    def test_double_product_only_where_it_is_read(self, tall_problem, fmt, products):
        """The double product ``A_dagger y`` is the double route's estimate
        and an integer width's output scale; a given format is the output
        format, so its runs form none."""
        _, _, adag, _, y = tall_problem
        calls = []

        class Counting(np.ndarray):
            def __matmul__(self, other):
                calls.append(other.shape)
                return np.asarray(self) @ other

        datapath = compile_pinv(adag, fmt)
        counted = dataclasses.replace(datapath, matrix=datapath.matrix.view(Counting))
        got = reconstruct_pinv(counted, y)
        assert len(calls) == products
        assert np.array_equal(got.x_hat, reconstruct_pinv(datapath, y).x_hat)

    def test_latency_attached(self, tall_problem):
        """A run reports the cost model's latency for its route, K and size."""
        _, f, adag, _, y = tall_problem
        res = reconstruct_pinv(adag, y, fmt=12, k=2)
        assert res.telemetry.latency_cycles > 0
        assert res.telemetry.k == 2
        cost = hwmodel.method_cost("pinv", 2, n=16, m=20)
        assert res.telemetry.latency_cycles == cost.latency_cycles
        res = reconstruct_svd(f, penalize(f.xi, Tikhonov(0.1)), y, fmt=12, k=3)
        assert res.telemetry.latency_cycles == hwmodel.method_cost(
            "tik", 3, n=16, m=20, rank=16).latency_cycles


class TestReconstructSvd:
    def test_zero_penalty_zero_output(self, tall_problem):
        _, f, _, _, y = tall_problem
        z = penalize(f.xi, Tikhonov(1.0))
        z.zeta[:] = 0.0
        res = reconstruct_svd(f, z, y, fmt=12)
        assert np.all(res.x_hat == 0)
        assert res.telemetry.mults == 0

    @pytest.mark.parametrize("fmt,data_format", [(12, "12-bit"), (None, "double")])
    def test_zero_penalty_reports_its_datapath(self, tall_problem, fmt, data_format):
        """A run that keeps no lane still reports the datapath it ran on and
        the latency the cost model gives rank 0."""
        _, f, _, _, y = tall_problem
        z = penalize(f.xi, Tikhonov(1.0))
        z.zeta[:] = 0.0
        telemetry = reconstruct_svd(f, z, y, fmt=fmt, k=2).telemetry
        assert telemetry.data_format == data_format
        assert telemetry.latency_cycles == hwmodel.latency_cycles("tik", 2, n=16, m=20, rank=0)
        assert telemetry.latency_cycles > 0

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


class TestCompiledDatapaths:
    @pytest.mark.parametrize("fmt", [10, 32, None])
    def test_compiled_svd_matches_one_shot(self, tall_problem, fmt):
        _, f, _, _, y = tall_problem
        datapath = compile_svd(f, fmt, k=3)
        schemes = [Tsvd(4), Tsvd(16), Tikhonov(1e-3), Tikhonov(0.3)]
        for scheme in schemes:
            z = penalize(f.xi, scheme)
            got = reconstruct_svd(datapath, z, y)
            want = reconstruct_svd(f, z, y, fmt=fmt, k=3)
            assert np.array_equal(got.x_hat, want.x_hat)
            assert got.telemetry == want.telemetry

    def test_shared_accumulator_follows_the_data(self, tall_problem):
        """A compiled datapath reuses product 2 only for the same data: each
        run equals a freshly compiled one on another acquisition, on one
        scaled so that y's and o2's formats change, and on the same array
        changed in place; with a rank and a ridge diagonal, in both rounding
        modes of the output stages, and at a one-digit, a limb and the
        double-precision width."""
        _, f, _, _, y = tall_problem
        diagonals = [penalize(f.xi, Tsvd(9)), penalize(f.xi, Tikhonov(0.05))]
        modes = [RoundingMode.TRUNCATE, RoundingMode.ROUND_HALF_EVEN]
        for fmt in (12, 32, None):
            datapath = compile_svd(f, fmt)

            def check(data):
                for z, mode in itertools.product(diagonals, modes):
                    got = reconstruct_svd(datapath, z, data, mode=mode)
                    want = reconstruct_svd(f, z, data.copy(), fmt=fmt, mode=mode)
                    assert np.array_equal(got.x_hat, want.x_hat), fmt
                    assert got.telemetry == want.telemetry

            for data in (y, y[::-1].copy(), 8 * y, y):
                check(data)
            data = y.copy()
            check(data)
            data *= 8
            check(data)
            data[3] += 0.5
            check(data)

    @pytest.mark.parametrize("fmt", [12, 32])
    def test_scattered_lanes_match_compacted_factors(self, tall_problem, fmt):
        """Kept lanes that are not a leading run give what factors holding
        only those lanes give."""
        _, f, _, _, y = tall_problem
        z = penalize(f.xi, Tikhonov(0.05))
        kept = np.array([1, 2, 5, 9, 15])
        z.zeta[np.setdiff1d(np.arange(f.rank_bound), kept)] = 0.0
        compact = SvdFactors(f.u[:, kept], f.xi[kept], f.v[:, kept])
        z_compact = penalize(compact.xi, Tikhonov(0.05))
        got = reconstruct_svd(f, z, y, fmt=fmt, k=2)
        want = reconstruct_svd(compact, z_compact, y, fmt=fmt, k=2)
        assert np.array_equal(got.x_hat, want.x_hat)
        assert got.telemetry == want.telemetry

    def test_layout_is_made_once_per_factorization(self, tall_problem):
        """Datapaths of every width compiled from one factorization read one
        row-major U^T and one set of V's column and U^T's row peaks, which
        compiling does not build and a run builds read-only.  A write into
        them, or into the factors ``svd_factorize`` gave, raises instead of
        leaving a stale layout."""
        _, tall, _, _, y = tall_problem
        f = SvdFactors(tall.u, tall.xi, tall.v)
        names = ("ut", "v_colmax", "ut_rowmax")
        assert not {field.name for field in dataclasses.fields(CompiledSvd)} & set(names)
        datapaths = [compile_svd(f, fmt) for fmt in (12, 16, 32)]
        assert not set(vars(f)) & set(names)
        z = penalize(f.xi, Tikhonov(0.05))
        layouts = []
        for datapath in datapaths:
            reconstruct_svd(datapath, z, y)
            layouts.append([getattr(datapath.factors, name) for name in names])
        assert all(a is b for layout in layouts[1:] for a, b in zip(layouts[0], layout))
        ut, v_colmax, ut_rowmax = layouts[0]
        assert np.array_equal(ut, f.u.T) and ut.flags.c_contiguous
        assert np.array_equal(v_colmax, np.max(np.abs(f.v), axis=0))
        assert np.array_equal(ut_rowmax, np.max(np.abs(f.u), axis=0))
        for array in (*layouts[0], tall.u, tall.xi, tall.v):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_factors_cannot_change_under_their_layout(self, tall_problem):
        """Factors built from writable arrays hold read-only copies in the
        arrays' own memory order: a write into them or a reassigned field
        raises, a write into the caller's arrays moves no run, and the runs
        equal those on the factors ``svd_factorize`` gave, which are held
        as they are."""
        _, tall, _, _, y = tall_problem
        held = SvdFactors(tall.u, tall.xi, tall.v)
        assert all(getattr(held, n) is getattr(tall, n) for n in ("u", "xi", "v"))
        u, xi, v = (a.copy(order="K") for a in (tall.u, tall.xi, tall.v))
        f = SvdFactors(u, xi, v)
        assert f.v.flags.f_contiguous and not f.v.flags.writeable
        z = penalize(f.xi, Tsvd(10))
        want = reconstruct_svd(tall, z, y, fmt=12)
        assert np.array_equal(reconstruct_svd(f, z, y, fmt=12).x_hat, want.x_hat)
        with pytest.raises(ValueError, match="read-only"):
            f.v *= 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.v = v
        u *= 4
        v *= 4
        assert np.array_equal(reconstruct_svd(f, z, y, fmt=12).x_hat, want.x_hat)

    def test_compiled_pinv_keeps_its_matrix(self, tall_problem):
        """A compiled pseudo-inverse keeps a read-only copy of a writable
        matrix, which each run reads for its output binary point, so a write
        into the caller's matrix moves no run; the read-only matrix
        ``pinv_matrix`` gives is kept as it is."""
        _, _, adag, _, y = tall_problem
        assert not adag.flags.writeable
        assert compile_pinv(adag, 12).matrix is adag
        mine = adag.copy()
        datapath = compile_pinv(mine, 12, k=2)
        mine *= 4
        got = reconstruct_pinv(datapath, y)
        want = reconstruct_pinv(compile_pinv(adag, 12, k=2), y)
        assert np.array_equal(got.x_hat, want.x_hat)
        assert got.telemetry == want.telemetry

    @pytest.mark.parametrize("fmt", [12, 32, None])
    def test_compiled_pinv_matches_one_shot(self, tall_problem, fmt):
        _, _, adag, _, y = tall_problem
        got = reconstruct_pinv(compile_pinv(adag, fmt, k=2), y)
        want = reconstruct_pinv(adag, y, fmt=fmt, k=2)
        assert np.array_equal(got.x_hat, want.x_hat)
        assert got.telemetry == want.telemetry

    @pytest.mark.parametrize("fmt", [12, None])
    def test_each_run_counts_its_own_mults(self, tall_problem, fmt):
        """A compiled datapath run twice reports its multiplies once per run,
        also when product 2 reuses the cached U^T y accumulator."""
        _, f, adag, _, y = tall_problem
        pinv = compile_pinv(adag, fmt, k=2)
        svd, z = compile_svd(f, fmt, k=2), penalize(f.xi, Tsvd(4))
        for _ in range(2):
            assert reconstruct_pinv(pinv, y).telemetry.mults == 16 * 20
            assert reconstruct_svd(svd, z, y).telemetry.mults == 4 * (2 * 16 + 20)

    def test_compiled_format_and_k_are_fixed(self, tall_problem):
        _, f, adag, _, y = tall_problem
        z = penalize(f.xi, Tsvd(4))
        with pytest.raises(ValueError):
            reconstruct_svd(compile_svd(f, 12), z, y, fmt=16)
        with pytest.raises(ValueError):
            reconstruct_svd(compile_svd(f, 12, k=2), z, y, k=3)
        with pytest.raises(ValueError):
            reconstruct_pinv(compile_pinv(adag, 12), y, fmt=14)
        # an explicit double-precision run or K = 1 is a request too
        with pytest.raises(ValueError):
            reconstruct_pinv(compile_pinv(adag, 12), y, fmt=None)
        with pytest.raises(ValueError):
            reconstruct_svd(compile_svd(f, 12), z, y, fmt=None)
        with pytest.raises(ValueError):
            reconstruct_svd(compile_svd(f, None, k=2), z, y, k=1)
        with pytest.raises(ValueError):
            reconstruct_pinv(compile_pinv(adag, None, k=2), y, fmt=None, k=1)
        # restating the compiled format and K is allowed, and left out they
        # are the compiled ones
        reconstruct_pinv(compile_pinv(adag, 12, k=2), y, fmt=12, k=2)
        reconstruct_svd(compile_svd(f, None, k=2), z, y, fmt=None, k=2)
        got = reconstruct_svd(compile_svd(f, 12, k=2), z, y)
        assert got.telemetry.data_format == "12-bit" and got.telemetry.k == 2

    @pytest.mark.parametrize("fmt", [None, 16])
    def test_partition_count_bounded_by_unknowns(self, fmt):
        """K banks partition the N rows of V: K > N is refused at every
        width, double precision included."""
        f = svd_factorize(np.random.default_rng(3).standard_normal((6, 4)))
        z = penalize(f.xi, Tsvd(f.rank_bound))
        for k in (0, 5, 100):
            with pytest.raises(ValueError, match="partition count"):
                reconstruct_svd(f, z, np.ones(6), fmt=fmt, k=k)
        assert reconstruct_svd(f, z, np.ones(6), fmt=fmt, k=4).telemetry.k == 4


def _grid(f: SvdFactors) -> list:
    """Ranks, ridge weights (0 included) and a scattered kept set."""
    zs = [penalize(f.xi, Tsvd(r)) for r in (1, 4, 9, 16)]
    zs += [penalize(f.xi, Tikhonov(lam)) for lam in (0.0, 1e-3, 0.05, 0.3, 2.0)]
    scattered = penalize(f.xi, Tikhonov(0.05))
    scattered.zeta[::3] = 0.0
    return zs + [scattered]


class TestCompiledDiagonals:
    @pytest.mark.parametrize("fmt", [5, 12, 32, None, FxpFormat(12, 11), FxpFormat(12, 4)])
    def test_grid_matches_each_point_alone(self, tall_problem, fmt):
        """A grid compiled at once runs every point, in both rounding modes,
        as that point compiled alone does; as it does with product 1's
        saturation scans run whatever the bound says; and, on float64 words,
        as the same datapath on int64 words does, where product 1 is a MAC
        with its own output stage and no bound."""
        _, f, _, _, y = tall_problem
        zs = _grid(f)
        datapath = compile_svd(f, fmt, k=2)
        on_ints = dataclasses.replace(datapath, word_type=np.int64, _words={}, _y=None,
                                      _y_words=(), _ut_y={}, _stages={})
        for mode in RoundingMode:
            for z, compiled, as_ints in zip(zs, datapath.diagonals(zs), on_ints.diagonals(zs)):
                got = reconstruct_svd(datapath, compiled, y, mode=mode)
                want = [reconstruct_svd(f, z, y, fmt=fmt, k=2, mode=mode),
                        reconstruct_svd(datapath, dataclasses.replace(compiled, unsaturated=()),
                                        y, mode=mode)]
                if datapath.word_type is np.float64:
                    want.append(reconstruct_svd(on_ints, as_ints, y, mode=mode))
                for other in want:
                    assert np.array_equal(got.x_hat, other.x_hat), (fmt, mode, z.describe())
                    assert got.telemetry == other.telemetry

    def test_saturation_bound_rounds_as_the_stage_rounds(self):
        """At 8 bits with one fractional bit, V values of +-7.3 round to
        words of +-15, which times a z word of 17 leave product 1's output
        stage at +-127.5: truncation keeps 127 and -128, round-half-even
        carries 127.5 to 128, which saturates.  The bound, from the rounded
        V words, clears truncation alone, and a bound that cleared both
        would miss that overflow."""
        f = SvdFactors(np.ones((1, 1)), np.ones(1), np.array([[7.3], [-7.3]]))
        datapath = compile_svd(f, FxpFormat(8, 1))
        (z,) = datapath.diagonals([PenalizedDiagonal(np.array([8.5]), Tikhonov(1.0))])
        assert z.unsaturated == (RoundingMode.TRUNCATE,)
        y = np.array([0.5])             # product 3 halves o1: no overflow of its own
        for mode in RoundingMode:
            got = reconstruct_svd(datapath, z, y, mode=mode).telemetry
            unbounded = reconstruct_svd(datapath, dataclasses.replace(z, unsaturated=()),
                                        y, mode=mode).telemetry
            assert got == unbounded
        rounded = reconstruct_svd(datapath, z, y, mode=RoundingMode.ROUND_HALF_EVEN).telemetry
        trusting = dataclasses.replace(z, unsaturated=tuple(RoundingMode))
        missed = reconstruct_svd(datapath, trusting, y, mode=RoundingMode.ROUND_HALF_EVEN)
        assert missed.telemetry.overflow_events == rounded.overflow_events - 1

    def test_a_diagonal_runs_only_where_it_was_compiled(self, tall_problem):
        _, f, _, _, y = tall_problem
        datapath = compile_svd(f, 12)
        (z,) = datapath.diagonals([penalize(f.xi, Tsvd(4))])
        for other in (compile_svd(f, 12), compile_svd(f, 16)):
            with pytest.raises(ValueError, match="datapath that compiled it"):
                reconstruct_svd(other, z, y)
        with pytest.raises(ValueError, match="datapath that compiled it"):
            reconstruct_svd(f, z, y, fmt=12)
        assert reconstruct_svd(datapath, z, y).telemetry.mults == 4 * (2 * 16 + 20)

    def test_grid_refuses_a_diagonal_of_another_length(self, tall_problem):
        _, f, _, _, _ = tall_problem
        z = PenalizedDiagonal(np.ones(f.rank_bound + 1), Tikhonov(1.0))
        with pytest.raises(ValueError, match="does not match the factors"):
            compile_svd(f, 12).diagonals([penalize(f.xi, Tsvd(4)), z])


@st.composite
def _route_cases(draw):
    """A small problem and a width on either side of each switch the matrix
    routes' fast paths take: float64 words (the widest width whose products
    are all float-exact, and one bit wider, for each route), one-digit int64
    words, limbs of the vector words alone and of both; with a rank or ridge
    diagonal keeping a leading, scattered or empty set of lanes, whose
    product-1 peak may sit at the edge of its format."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(3, 7))
    r = min(m, n)
    edges = [max(w for w in range(4, 40) if all(_float_exact(w, w, g) for g in guards))
             for guards in ([_guard_bits(m)], [0, _guard_bits(m), _guard_bits(r)])]
    width = draw(st.sampled_from([4, 6, 12, 20, 30, 31, 32, 40, 48, 53, 54, 60, 63, 64,
                                  *[e + d for e in edges for d in (0, 1)]]))
    lanes = draw(st.sampled_from(["leading", "scattered"] * 3 + ["empty"]))
    return dict(m=m, n=n, width=width, lanes=lanes,
                scale=2.0 ** draw(st.integers(-12, 12)),
                rank=draw(st.integers(1, r)), ridge=draw(st.booleans()),
                lam=draw(st.floats(1e-4, 10.0)),
                # product 1's peak scaled to its format, 2**(width - 1) - edge,
                # saturates where entry rounding lifts it; an edge up to 1/2
                # would round it to 2**(width - 1), so the format halves it
                edge=draw(st.sampled_from([None, 0.5, 0.5625, 0.625, 0.75, 1.0, 2.0])),
                k=draw(st.sampled_from([1, 3])), mode=draw(st.sampled_from(list(RoundingMode))),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


def _route_diagonal(f: SvdFactors, case, rng) -> PenalizedDiagonal:
    xi, r, width = f.xi, f.rank_bound, case["width"]
    z = (penalize(xi, Tikhonov(case["lam"])) if case["ridge"]
         else penalize(xi, Tsvd(case["rank"])))
    zeta = z.zeta.copy()
    if case["lanes"] == "scattered":         # lane 0 and others dropped, one kept
        zeta[[0, *rng.permutation(r)[: r // 2]]] = 0.0
        zeta[rng.integers(1, r)] = z.zeta[0]
    elif case["lanes"] == "empty":
        zeta[:] = 0.0
    peak = np.max(np.max(np.abs(f.v), axis=0) * np.abs(zeta))
    if case["edge"] is not None and peak > 0:
        # product 1's peak just below 2, in a format with width - 2
        # fractional bits, neither end clamped
        zeta *= math.ldexp(2.0 ** (width - 1) - case["edge"], 2 - width) / peak
    return PenalizedDiagonal(zeta, z.scheme)


def _range_format(width: int, values) -> FxpFormat:
    return FxpFormat.for_range(width, float(np.max(np.abs(values), initial=0.0)))


class TestWordModel:
    """Both matrix routes against :func:`reference.pinv_words` and
    :func:`reference.svd_words`, Python-int models of their words, given
    the binary points the library's rule takes from the double
    references.  The estimates must match exactly, which pins every word up
    to 53 bits, and so must each route's overflow count."""

    @settings(max_examples=250)
    @given(_route_cases())
    def test_routes_match_the_word_model(self, case):
        rng = np.random.default_rng(case["seed"])
        m, n, width, mode, k = case["m"], case["n"], case["width"], case["mode"], case["k"]
        a = case["scale"] * rng.standard_normal((m, n)) * np.logspace(0, -rng.uniform(0, 4), n)
        y = a @ rng.standard_normal(n) + 1e-3 * case["scale"] * rng.standard_normal(m)
        f = svd_factorize(a)

        adag = pinv_matrix(f)
        fmts = tuple(_range_format(width, t) for t in (adag, y, adag @ y))
        res = reconstruct_pinv(adag, y, fmt=width, k=k, mode=mode)
        words, overflows = pinv_words(adag.tolist(), y.tolist(), fmts, mode)
        assert np.array_equal(res.x_hat, np.array(words, dtype=float) * fmts[2].resolution)
        assert res.telemetry.overflow_events == overflows

        z = _route_diagonal(f, case, rng)
        datapath = compile_svd(f, width, k)
        (compiled,) = datapath.diagonals([z])
        res = reconstruct_svd(datapath, compiled, y, mode=mode)
        estimate, overflows = _svd_model(f, compiled, y, width, mode)
        assert np.array_equal(res.x_hat, estimate)
        assert res.telemetry.overflow_events == overflows


def _svd_model(f: SvdFactors, compiled, y, width, mode: RoundingMode):
    """The estimate and overflow count of :func:`reference.svd_words` for
    the compiled diagonal ``compiled``: at an integer ``width``, given the
    binary points the library's rule takes from the double references,
    x_ref's included; at a given :class:`FxpFormat`, every tensor in it."""
    zeta = compiled.penalized.zeta
    kept, lanes = compiled.kept, np.flatnonzero(zeta)
    o2_ref = f.ut[kept] @ y
    if isinstance(width, FxpFormat):
        fmts = dict.fromkeys(("y", "u", "o2", "v", "z", "o1", "x"), width)
    else:
        fmts = dict(y=_range_format(width, y), u=_range_format(width, f.u[:, lanes]),
                    o2=_range_format(width, o2_ref), v=_range_format(width, f.v[:, lanes]),
                    z=_range_format(width, zeta),
                    o1=_range_format(width, np.max(np.abs(f.v), axis=0) * np.abs(zeta)),
                    x=_range_format(width, (f.v[:, kept] * compiled.zk) @ o2_ref))
    words, overflows = svd_words(f.v.tolist(), f.ut.tolist(), zeta.tolist(), y.tolist(),
                                 fmts, mode)
    return np.array(words, dtype=float) * fmts["x"].resolution, sum(overflows)


@st.composite
def _grid_cases(draw):
    """A small problem, a rank or ridge grid, its lanes leading or with lane
    0 and others dropped, a width of float64 or int64 words, and a few
    acquisitions, an all-zero one among the scales."""
    return dict(m=draw(st.integers(2, 12)), n=draw(st.integers(3, 8)),
                width=draw(st.integers(4, 40)), ridge=draw(st.booleans()),
                points=draw(st.integers(1, 6)), scattered=draw(st.booleans()),
                scales=draw(st.lists(st.sampled_from([0.0, *(2.0 ** e
                                                             for e in range(-60, 61, 6))]),
                                     min_size=1, max_size=3)),
                k=draw(st.sampled_from([1, 2])),
                mode=draw(st.sampled_from(list(RoundingMode))),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


def _decided(datapath, z):
    """The output format the bound decided for the compiled diagonal ``z``
    on the datapath's latest acquisition, None where it decided none."""
    grid, formats = datapath._formats
    return formats[z.index] if grid is z.grid else None


class TestOutputFormats:
    """Product 3's output format, decided for a whole grid per acquisition
    from the bound on its double reference (:meth:`CompiledSvd._output_formats`),
    is the format of that reference."""

    @settings(max_examples=150)
    @given(_grid_cases())
    def test_each_point_takes_its_double_reference_format(self, case):
        """Every point with a kept lane, on every acquisition, takes
        ``for_range`` of its own x_ref, decided by the bound or formed; an
        all-zero acquisition, and a grid of one, leave every point undecided."""
        rng = np.random.default_rng(case["seed"])
        m, n, width, mode = case["m"], case["n"], case["width"], case["mode"]
        a = rng.standard_normal((m, n)) * np.logspace(0, -rng.uniform(0, 6), n)
        f = svd_factorize(a)
        r, points = f.rank_bound, case["points"]
        if case["ridge"]:
            zs = [penalize(f.xi, Tikhonov(lam)) for lam in 10.0 ** rng.uniform(-4, 1, points)]
        else:
            zs = [penalize(f.xi, Tsvd(int(rank))) for rank in rng.integers(1, r + 1, points)]
        if case["scattered"]:
            for z in zs:
                z.zeta[[0, *rng.permutation(r)[: r // 3]]] = 0.0
        datapath = compile_svd(f, width, case["k"])
        grid = datapath.diagonals(zs)
        for scale in case["scales"]:
            y = scale * (a @ rng.standard_normal(n) + 1e-3 * rng.standard_normal(m))
            for z in grid:
                if z.rank == 0:
                    continue
                reconstruct_svd(datapath, z, y, mode=mode)
                x_ref = (f.v[:, z.kept] * z.zk) @ (f.ut[z.kept] @ y)
                want = _tensor_format(width, width, x_ref)
                assert datapath.output(z, y, mode).fmt_x == want
                assert _decided(datapath, z) in (None, want)
                if scale == 0 or len(grid) == 1:
                    assert _decided(datapath, z) is None

    def test_points_at_the_format_threshold_form_their_reference(self):
        """A point whose max |x_ref| sits a few ulps on either side of the
        threshold ``8 (1 - 2**-16)`` of 16-bit formats is one the bound
        cannot decide: it forms x_ref, takes one fractional bit more below
        the threshold than at or above it, and gives the words of the
        Python-int model at x_ref's own format.  Powers of two are no
        threshold: a peak a few ulps from 8 is decided."""
        rng = np.random.default_rng(31)
        m, n, width = 12, 8, 16
        a = rng.standard_normal((m, n)) * np.logspace(0, -2, n)
        f = svd_factorize(a)
        datapath = compile_svd(f, width)
        z = datapath.diagonals([penalize(f.xi, Tikhonov(lam)) for lam in (0.01, 0.1)])[0]
        y0 = a @ rng.standard_normal(n)

        def near(target):
            """Acquisitions whose point-0 peak lies within 4 ulps of ``target``,
            by their distance in ulps."""
            def peak(y):
                return np.max(np.abs((f.v[:, z.kept] * z.zk) @ (f.ut[z.kept] @ y)))

            c = target / peak(y0)
            found = {}
            for j in range(-40, 41):
                y = y0 * (c * (1 + j * 2.0 ** -52))
                found.setdefault((peak(y) - target) / np.spacing(target), y)
            return {d: y for d, y in found.items() if abs(d) <= 4}

        threshold = 8 * (1 - 2.0 ** -width)
        cases = near(threshold)
        assert min(cases) < 0 <= max(cases)
        for d, y in cases.items():
            for mode in RoundingMode:
                got = reconstruct_svd(datapath, z, y, mode=mode)
                assert _decided(datapath, z) is None, d
                assert datapath.output(z, y, mode).fmt_x.frac_bits == (12 if d < 0 else 11)
                estimate, overflows = _svd_model(f, z, y, width, mode)
                assert np.array_equal(got.x_hat, estimate), (d, mode)
                assert got.telemetry.overflow_events == overflows
        for d, y in near(8.0).items():
            reconstruct_svd(datapath, z, y)
            assert _decided(datapath, z) == FxpFormat(width, 11), d

    def test_runs_alternating_between_grids_take_their_own_formats(self, tall_problem):
        """Runs that alternate between a rank and a ridge grid on one
        acquisition each give what their point compiled alone gives; the
        datapath keeps the formats of the latest grid it bounded, no more."""
        _, f, _, _, y = tall_problem
        datapath = compile_svd(f, 12)
        ranks = datapath.diagonals([penalize(f.xi, Tsvd(rank)) for rank in (2, 5, 9)])
        ridge = datapath.diagonals([penalize(f.xi, Tikhonov(lam)) for lam in (0.01, 0.3, 2.0)])
        for pair in zip(ranks, ridge):
            for z in pair:
                got = reconstruct_svd(datapath, z, y)
                alone = reconstruct_svd(f, z.penalized, y, fmt=12)
                assert np.array_equal(got.x_hat, alone.x_hat)
                assert got.telemetry == alone.telemetry
                assert datapath._formats[0] is z.grid

    def test_the_reference_study_needs_no_double_reference(self, reference_setup, monkeypatch):
        """On the frozen Airy study the bound decides every point of the
        rank and ridge grids at every width, so no fixed-point run forms
        x_ref; a run on a given format forms none either, and the double
        route's estimate is x_ref itself, one per run."""
        setup = reference_setup
        formed = []
        x_ref = matrix_inversion._x_ref

        def counting(*args):
            formed.append(x_ref(*args))
            return formed[-1]

        monkeypatch.setattr(matrix_inversion, "_x_ref", counting)
        for bits in [*setup.config.bits_list, FxpFormat(16, 12)]:
            for method in ("tsvd", "tik"):
                bench.best_inversion(setup, method, bits)
        assert formed == []
        estimate = bench.best_inversion(setup, "tik", None)[1]
        assert len(formed) == len(setup.lambda_grid)
        assert any(x is estimate for x in formed)


@st.composite
def _pass_cases(draw):
    """A small problem; a rank or ridge grid of two to six points, one of
    them on a scattered kept set when drawn; a width of float64, int64 or
    limb words, or a given format under which product 1 saturates; K; and
    a run order: points of the grid, of another grid on the same datapath,
    on one of two acquisitions, in either rounding mode."""
    return dict(m=draw(st.integers(2, 12)), n=draw(st.integers(3, 8)),
                width=draw(st.integers(4, 40)), given=draw(st.booleans()),
                ridge=draw(st.booleans()), points=draw(st.integers(2, 6)),
                scattered=draw(st.booleans()), k=draw(st.integers(1, 3)),
                runs=draw(st.lists(st.tuples(st.booleans(), st.integers(0, 5),
                                             st.integers(0, 1),
                                             st.sampled_from(list(RoundingMode))),
                                   min_size=1, max_size=10)),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


def _same_stage(got, want) -> bool:
    """Whether two product-2 stages hold the same bits, ``o2_ref``'s included."""
    return (got.o2_ref.tobytes() == want.o2_ref.tobytes()
            and (got.o2_peak, got.fmt_y, got.fmt_u, got.fmt_o2, got.overflows)
            == (want.o2_peak, want.fmt_y, want.fmt_u, want.fmt_o2, want.overflows)
            and got.o2.dtype == want.o2.dtype and np.array_equal(got.o2, want.o2))


class TestGridPass:
    """A whole grid run in one pass on its first run of an acquisition and
    rounding mode (:meth:`CompiledSvd.output`): product 2 once per group of
    kept sets, products 1 and 3 once per shared lane and product 3's output
    stage once per grid.  Every point gives what its diagonal, compiled and
    run alone, gives."""

    @settings(max_examples=120)
    @given(_pass_cases())
    def test_every_point_equals_its_diagonal_alone(self, case):
        """Points run in any order, as a subset, and interleaved with another
        grid's points and another acquisition each equal their diagonal
        alone, estimate and telemetry, and the word model
        (:func:`reference.svd_words`), which shares no code with the pass;
        each point's product-2 stage equals its kept set's formed alone.
        Under the given format V's columns reach past its range and every
        kept value of lane 0 is at least 1, so product 1 saturates at every
        point, by a count of its own; U's columns do too, and on the first
        acquisition, a full-scale y signed as U's lane 0, product 2
        saturates lane 0 of every kept set, so every group of two or more
        kept sets forms each member's stage alone.  Every rank grid holds
        rank 1 and one more rank of its own."""
        rng = np.random.default_rng(case["seed"])
        m, n, width = case["m"], case["n"], case["width"]
        a = rng.standard_normal((m, n)) * np.logspace(0, -rng.uniform(0, 6), n)
        f = svd_factorize(a)
        fmt = width
        if case["given"]:
            fmt = FxpFormat(width, width - 3)           # range [-4, 4)
            # 16 |V| >= 16 / sqrt(n) > 4 somewhere in every column, and
            # xi <= 0.5 keeps lane 0's values >= 1 on both schemes;
            # 16 |U| > 4 likewise, so some U word of lane 0 is full scale
            f = SvdFactors(16 * f.u, f.xi / (2 * f.xi[0]), 16 * f.v)
        r = f.rank_bound
        lams = 10.0 ** rng.uniform(-4, -1, (2, case["points"]))
        ranks = rng.integers(1, r + 1, (2, case["points"]))
        ranks[:, :2] = [1, 1 + rng.integers(1, r)]

        def grid(ridge, row):
            zs = [penalize(f.xi, Tikhonov(lam)) if ridge else penalize(f.xi, Tsvd(int(rank)))
                  for lam, rank in zip(lams[row], ranks[row])]
            if case["scattered"] and r > 2:         # lane 1 dropped, lane 0 kept
                zs[0].zeta[[1, *rng.permutation(np.arange(2, r))[: r // 3]]] = 0.0
            return zs

        datapath = compile_svd(f, fmt, case["k"])
        grids = [datapath.diagonals(grid(case["ridge"], 0)),
                 datapath.diagonals(grid(not case["ridge"], 1))]
        ys = [a @ rng.standard_normal(n) + 1e-3 * rng.standard_normal(m) for _ in range(2)]
        if case["given"]:
            # a product of a full-scale U word by 3.5 is past 4, and no term
            # of lane 0's sum is negative
            ys[0] = 3.5 * np.sign(f.u[:, 0])
        for other, index, acquisition, mode in case["runs"]:
            zs = grids[other]
            z, y = zs[index % len(zs)], ys[acquisition]
            got = reconstruct_svd(datapath, z, y, mode=mode)
            alone = reconstruct_svd(f, z.penalized, y, fmt=fmt, k=case["k"], mode=mode)
            assert np.array_equal(got.x_hat, alone.x_hat), (z.describe(), mode)
            assert got.telemetry == alone.telemetry
            estimate, overflows = _svd_model(f, z, y, fmt, mode)
            assert np.array_equal(got.x_hat, estimate), (z.describe(), mode)
            assert got.telemetry.overflow_events == overflows
            if z.rank:
                stage = datapath.product2(y, z.kept, mode)
                assert _same_stage(stage, compile_svd(f, fmt).product2(y, z.kept, mode))
                if case["given"] and acquisition == 0:
                    assert stage.overflows > 0
            if case["given"] and z.rank:
                nov1 = datapath.output(z, y, mode).overflows[0]
                assert nov1 > 0 and nov1 <= got.telemetry.overflow_events

    def test_points_apart_in_product_2_formats_run_apart(self):
        """Ranks 1 and 2 share product 1's formats and their lane-0 words,
        but U^T's second row peaks higher than its first, so their product-2
        stages differ in format: each runs from its own stage's words."""
        u = np.array([[0.3, 1.8], [0.2, 0.1], [0.1, -0.3], [0.9, 0.2]])
        v = np.array([[0.5, 0.5], [0.3, -0.4], [0.2, 0.1]])
        f = SvdFactors(u, np.ones(2), v)
        y = np.array([0.7, -0.2, 0.4, 0.1])
        datapath = compile_svd(f, 12)
        grid = datapath.diagonals([penalize(f.xi, Tsvd(1)), penalize(f.xi, Tsvd(2))])
        assert grid[0].fmts == grid[1].fmts
        for mode in RoundingMode:
            stages = [datapath.product2(y, z.kept, mode) for z in grid]
            assert stages[0].fmt_u != stages[1].fmt_u
            for z in grid:
                got = reconstruct_svd(datapath, z, y, mode=mode)
                alone = reconstruct_svd(f, z.penalized, y, fmt=12, mode=mode)
                assert np.array_equal(got.x_hat, alone.x_hat), (z.describe(), mode)
                assert got.telemetry == alone.telemetry

    def test_ranks_off_the_gemv_block_keep_their_own_reference(self, reference_setup):
        """Ranks 3, 5, 7, 250 and 253 of the frozen Airy study: each kept
        set's ``o2_ref`` is its own product ``U^T[:k] y``, bit for bit, where
        a leading slice of the full-rank product could differ in its last
        bits; each run and each stage equals its kept set's formed alone."""
        setup = reference_setup
        f, y = setup.factors, setup.y.values
        ranks = (3, 5, 7, 250, 253)
        for width in (8, 16, 32, None):
            datapath = compile_svd(f, width)
            grid = datapath.diagonals(penalize_grid(f.xi, [Tsvd(k) for k in ranks]))
            for z, rank in zip(grid, ranks):
                got = reconstruct_svd(datapath, z, y)
                alone = reconstruct_svd(f, z.penalized, y, fmt=width)
                assert np.array_equal(got.x_hat, alone.x_hat) and got.telemetry == alone.telemetry
                stage = datapath.product2(y, z.kept, DATAPATH_POLICY)
                assert stage.o2_ref.tobytes() == (f.ut[:rank] @ y).tobytes(), (width, rank)
                if width is not None:
                    alone = compile_svd(f, width).product2(y, z.kept, DATAPATH_POLICY)
                    assert _same_stage(stage, alone), (width, rank)

    def test_a_saturating_group_forms_each_member_alone(self):
        """Ranks 1, 2 and 3 share U's and product 2's given format, so their
        stages form one group; y saturates lanes 0 and 2 but not lane 1, so
        the members count 1, 1 and 2 saturated words, each its own, and
        each stage equals its kept set's formed alone."""
        u = np.array([[3.0, 0.5, 3.0], [3.0, -0.5, 3.0]])
        v = np.eye(3)
        f = SvdFactors(u, np.ones(3), v)
        y = np.array([1.5, 1.5])
        fmt = FxpFormat(8, 5)                           # range [-4, 4)
        datapath = compile_svd(f, fmt)
        grid = datapath.diagonals(penalize_grid(f.xi, [Tsvd(k) for k in (1, 2, 3)]))
        for mode in RoundingMode:
            for z in grid:
                got = reconstruct_svd(datapath, z, y, mode=mode)
                alone = reconstruct_svd(f, z.penalized, y, fmt=fmt, mode=mode)
                assert np.array_equal(got.x_hat, alone.x_hat)
                assert got.telemetry == alone.telemetry
            stages = [datapath.product2(y, z.kept, mode) for z in grid]
            assert [stage.overflows for stage in stages] == [1, 1, 2]
            for z, stage in zip(grid, stages):
                assert _same_stage(stage, compile_svd(f, fmt).product2(y, z.kept, mode))
                assert datapath.output(z, y, mode).overflows[1] == stage.overflows

    def test_the_reference_study_forms_each_shared_lane_once(self, reference_setup,
                                                             monkeypatch):
        """On the frozen Airy study at 16 bits the 16 ranks fall into two
        groups and the 40 ridge weights into four; per grid the pass forms
        product 1 on 504 of the ranks' 2 156 kept lanes and on 4 884 of the
        ridge weights' 10 240, each grid once per acquisition."""
        setup, lanes = reference_setup, []
        product1 = CompiledSvd._product1

        def counting(self, grid, p, start, end, mode, buf):
            lanes.append(end - start)
            return product1(self, grid, p, start, end, mode, buf)

        monkeypatch.setattr(CompiledSvd, "_product1", counting)
        for method, formed in (("tsvd", 504), ("tik", 4884)):
            lanes.clear()
            bench.best_inversion(setup, method, 16)
            assert sum(lanes) == formed, method
        assert sum(setup.rank_grid) == 2156
        assert len(setup.lambda_grid) * setup.factors.rank_bound == 10240


def _shift_formats(width: int, shift: int):
    """(coefficient, vector, output) formats whose output shift is ``shift``."""
    out_frac = max(0, -shift)
    total = shift + out_frac
    mat_frac = min(width - 1, total)
    return (FxpFormat(width, mat_frac), FxpFormat(width, total - mat_frac),
            FxpFormat(width, out_frac))


def _python_outputs(exact, shift, mode, fmt):
    """Pure-Python-int shift, rounding and saturation of exact sums."""
    outs, overflows = [], 0
    for v in exact:
        q, over = apply_overflow(rshift_round(v, shift, mode), fmt)
        outs.append(q)
        overflows += over
    return outs, overflows


def _kernel_operands(width: int, shape, rng):
    """Random words at every magnitude, plus all-``min_raw`` and all-``max_raw``
    rows, the worst cases for carries."""
    fmt = FxpFormat(width, 0)
    words = rng.integers(fmt.min_raw, fmt.max_raw, size=shape, endpoint=True,
                         dtype=np.int64)
    words >>= rng.integers(0, width, size=shape[:-1] + (1,))
    words[0] = fmt.min_raw
    words[1] = fmt.max_raw
    return words


def _word_types(wa: int, wb: int, guard: int) -> list:
    """int64, and float64 where those widths make it a datapath's exact word
    type (:func:`~ftsinv.fxp.word_type`)."""
    return [np.int64] + ([np.float64] if _float_exact(wa, wb, guard) else [])


class TestLimbKernel:
    """The int64 limb MAC, and the float64 words of exact widths, against
    exact Python integers."""

    @pytest.mark.parametrize("m", [1, 7, 256])
    @pytest.mark.parametrize("width", [16, 23, 33, 40, 48, 64])
    def test_matvec_matches_python_ints(self, width, m):
        rng = np.random.default_rng(width * 1000 + m)
        a = _kernel_operands(width, (12, m), rng)
        min_raw = FxpFormat(width, 0).min_raw
        vectors = (_kernel_operands(width, (2, m), rng)[-1],
                   np.full(m, min_raw, dtype=np.int64))
        for b, word in itertools.product(vectors,
                                         _word_types(width, width, _guard_bits(m))):
            exact = [sum(int(x) * int(v) for x, v in zip(row, b)) for row in a]
            for shift in (-3, 0, width - 1, width + 5, 2 * width - 2):
                mat_fmt, vec_fmt, out_fmt = _shift_formats(width, shift)
                for mode in RoundingMode:
                    out, overflows, mults = _banked_mac(
                        a.astype(word), np.matmul, b.astype(word),
                        (mat_fmt, vec_fmt, out_fmt), mode)
                    want, want_over = _python_outputs(exact, shift, mode, out_fmt)
                    assert out.dtype == word
                    assert out.tolist() == want, (shift, mode, word)
                    assert overflows == want_over
                    assert mults == a.size

    @pytest.mark.parametrize("width", [16, 23, 27, 33, 40, 48, 64])
    def test_scale_matches_python_ints(self, width):
        rng = np.random.default_rng(width)
        a = _kernel_operands(width, (6, 9), rng)
        diagonals = _kernel_operands(width, (3, 9), rng)[[0, 2]]
        for d, shift, word in itertools.product(diagonals,
                                                (-2, 0, width - 1, 2 * width - 2),
                                                _word_types(width, width, 0)):
            exact = [int(x) * int(v) for row in a for x, v in zip(row, d)]
            mat_fmt, diag_fmt, out_fmt = _shift_formats(width, shift)
            for mode in RoundingMode:
                scaled, overflows, mults = _banked_mac(
                    a.astype(word), np.multiply, d.astype(word),
                    (mat_fmt, diag_fmt, out_fmt), mode)
                want, want_over = _python_outputs(exact, shift, mode, out_fmt)
                assert scaled.dtype == word
                assert scaled.ravel().tolist() == want, (shift, mode, word)
                assert overflows == want_over
                assert mults == a.size

    @pytest.mark.parametrize("wa, wb", [(22, 22), (23, 23), (23, 24), (24, 24),
                                        (24, 25), (25, 25)])
    def test_matvec_at_the_float_switch(self, wa, wb):
        """M = 256 products of ``wa``- by ``wb``-bit words, whose sums need
        50 to 56 bits: up to 52, float64 words run on BLAS and int64 words in
        int64; from 53, only int64 words run, and float64 words are refused.
        Where a 54-bit accumulator took BLAS, all ``max_raw`` words with one
        vector word a step lower would give an odd sum past 2**53, which
        float64 cannot hold."""
        m = 256
        fa, fb = FxpFormat(wa, 0), FxpFormat(wb, 0)
        rng = np.random.default_rng(wa * 100 + wb)

        def odd(fmt, shape):
            return 2 * rng.integers(fmt.min_raw // 2, fmt.max_raw // 2,
                                    size=shape, endpoint=True) + 1

        odd_sum = np.full(m, fb.max_raw)
        odd_sum[0] -= 1
        operands = [(np.full((4, m), fa.max_raw), np.full(m, fb.max_raw)),
                    (np.full((4, m), fa.max_raw), odd_sum),
                    (np.full((4, m), fa.min_raw), np.full(m, fb.min_raw)),
                    (odd(fa, (4, m)), odd(fb, m))]
        out_fmt = FxpFormat(64, 0)
        words = _word_types(wa, wb, _guard_bits(m))
        assert (np.float64 in words) == (wa + wb <= 46)
        for (a, b), word in itertools.product(operands, words):
            exact = [sum(int(x) * int(v) for x, v in zip(row, b)) for row in a]
            for shift in (0, wa - 1, wa + wb - 2):
                mat_fmt = FxpFormat(wa, min(shift, wa - 1))
                vec_fmt = FxpFormat(wb, shift - mat_fmt.frac_bits)
                for mode in RoundingMode:
                    out, overflows, _ = _banked_mac(
                        a.astype(word), np.matmul, b.astype(word),
                        (mat_fmt, vec_fmt, out_fmt), mode)
                    want, want_over = _python_outputs(exact, shift, mode, out_fmt)
                    assert out.dtype == word
                    assert out.tolist() == want, (a[0, 0], shift, mode, word)
                    assert overflows == want_over == 0
        if np.float64 not in words:
            a, b = operands[0]
            with pytest.raises(ValueError, match="not exact"):
                _banked_mac(a.astype(np.float64), np.matmul, b.astype(np.float64),
                            (FxpFormat(wa, 0), FxpFormat(wb, 0), out_fmt),
                            RoundingMode.TRUNCATE)

    @pytest.mark.parametrize("fills", [("max_raw", "max_raw"), ("min_raw", "min_raw"),
                                       ("max_raw", "min_raw")])
    @pytest.mark.parametrize("width", [56, 64])
    def test_largest_lazy_digits_match_python_ints(self, width, fills):
        """Every word at an extreme, M = 256 = 2**guard terms, both operands
        split into limbs: the largest uncarried digit sums the limb plan
        allows (all ``max_raw`` brings a digit within 2**38 of 2**63)."""
        m, fmt = 256, FxpFormat(width, 0)
        x, y = (getattr(fmt, f) for f in fills)
        a, b = np.full((4, m), x, dtype=np.int64), np.full(m, y, dtype=np.int64)
        guard = _guard_bits(m)
        assert _limb_plan(width, width, guard)[1]         # coefficients split too
        if fills == ("max_raw", "max_raw"):
            top = max(int(d.max()) for d in _mac(a, b, width, width, guard,
                                                 np.matmul).digits)
            assert (1 << 63) - top < 1 << 38
        exact = [m * x * y] * a.shape[0]
        for shift in (-3, 0, width - 1, width + 7, 2 * width - 2):
            mat_fmt, vec_fmt, out_fmt = _shift_formats(width, shift)
            for mode in RoundingMode:
                out, overflows, _ = _banked_mac(
                    a, np.matmul, b, (mat_fmt, vec_fmt, out_fmt), mode)
                want, want_over = _python_outputs(exact, shift, mode, out_fmt)
                assert out.tolist() == want, (shift, mode)
                assert overflows == want_over

    def test_limb_plans_match_the_worst_case_digit_model(self):
        """Limb plans against :func:`reference.limb_plan`'s worst-case lazy
        digits, where more than 2**19 terms make the carry between digits
        decide the width: at (44, 64, 20) and (42, 61, 22) and their mirrors
        a carry of half its size would pass limbs one bit wider."""
        for wa, wb, guard in [(44, 64, 20), (64, 44, 20), (42, 61, 22), (61, 42, 22),
                              *itertools.product((32, 44, 56, 64), (32, 44, 56, 64),
                                                 (0, 8, 19, 20, 22))]:
            assert _limb_plan(wa, wb, guard) == limb_plan(wa, wb, guard), (wa, wb, guard)

    @pytest.mark.parametrize("width", [56, 64])
    def test_largest_lazy_signed_sums(self, width):
        """A butterfly output's ``p0 +- (p1 + p2)`` with every word at an
        extreme: three uncarried accumulators under guard 2, with digits
        above 2**61."""
        fmt = FxpFormat(width, 0)
        for x, y in itertools.product((fmt.max_raw, fmt.min_raw), repeat=2):
            p = _mac(np.full(3, x, dtype=np.int64), np.full(3, y, dtype=np.int64),
                     width, width, 2, np.multiply)
            for sign, shift in itertools.product((1, -1), (0, width - 1, 2 * width - 2)):
                acc = p.plus(p.plus(p), sign)
                if x == y == fmt.max_raw and sign == 1:
                    assert max(int(d.max()) for d in acc.digits) > 1 << 61
                out_fmt = _shift_formats(width, shift)[2]
                for mode in RoundingMode:
                    out, overflows = _requantize(acc, shift, mode, out_fmt)
                    want, want_over = _python_outputs([x * y * (1 + 2 * sign)] * 3,
                                                      shift, mode, out_fmt)
                    assert out.tolist() == want, (x, y, sign, shift, mode)
                    assert overflows == want_over

    @pytest.mark.parametrize("width", [30, 40, 48, 64])
    def test_signed_sums_match_python_ints(self, width):
        """``p0 +- (p1 - p2)`` of three elementwise products, a butterfly
        output's shape, with room for all three in the guard bits."""
        rng = np.random.default_rng(width + 7)
        c = _kernel_operands(width, (5, 40), rng)
        v = _kernel_operands(width, (5, 40), rng)[[4, 1, 0, 2, 3]]
        for sign, shift, (i, j, k) in itertools.product(
                (1, -1), (0, width - 2, 2 * width - 2), ((0, 1, 2), (2, 3, 4))):
            p = [_mac(c[r], v[r], width, width, 2, np.multiply) for r in (i, j, k)]
            exact = [int(c[i, n]) * int(v[i, n]) + sign * (
                int(c[j, n]) * int(v[j, n]) - int(c[k, n]) * int(v[k, n]))
                for n in range(c.shape[1])]
            out_fmt = _shift_formats(width, shift)[2]
            for mode in RoundingMode:
                acc = p[0].plus(p[1].plus(p[2], -1), sign)
                out, overflows = _requantize(acc, shift, mode, out_fmt)
                want, want_over = _python_outputs(exact, shift, mode, out_fmt)
                assert out.tolist() == want, (sign, shift, i, mode)
                assert overflows == want_over


class TestWordType:
    """Where the widths make every product exact in float64, a compiled
    matrix datapath holds its words as float64, and the routes give the
    same values as on int64 words."""

    @pytest.fixture(scope="class")
    def square(self):
        f = svd_factorize(np.random.default_rng(21).standard_normal((256, 256)))
        return f, pinv_matrix(f)

    @pytest.mark.parametrize("bits, word", [(22, np.float64), (23, np.float64),
                                            (24, np.int64), (32, np.int64)])
    def test_word_type_at_m_and_r_256(self, square, bits, word):
        """Every product of a 23-bit datapath sums within 2**52 at M = r =
        256; one bit more and the words are int64."""
        f, adag = square
        pinv = compile_pinv(adag, bits)
        assert pinv.word_type is word and pinv.words.dtype == word
        svd = compile_svd(f, bits)
        assert svd.word_type is word
        assert svd.words("v", FxpFormat(bits, bits - 1)).dtype == word
        assert svd.words("ut", FxpFormat(bits, bits - 1)).dtype == word
        assert compile_pinv(adag).word_type is compile_svd(f).word_type is None

    @pytest.mark.parametrize("graded", [False, True])
    def test_outputs_hold_no_negative_zero(self, graded):
        """Outputs that round or truncate to zero from below read +0.0, as
        the values of int64 words do, although float64 words form -0.0
        (``rint(-0.4)``, ``floor(-0.0)``) on the way.  A sparse spectrum
        behind a matrix with orthonormal columns, or with singular values
        graded over three decades, leaves outputs of every route just below
        zero at 6 to 12 bits."""
        rng = np.random.default_rng(4)
        if graded:
            a = rng.standard_normal((24, 16)) * np.logspace(0, -3, 16)
        else:
            a = np.linalg.qr(rng.standard_normal((24, 24)))[0][:, :16]
            a *= np.logspace(0, -1, 16)
        y = a @ np.r_[1.0, -0.5, np.zeros(14)] + 1e-3 * rng.standard_normal(24)
        f = svd_factorize(a)
        adag = pinv_matrix(f)
        routes = {"pinv": lambda fmt, mode: reconstruct_pinv(adag, y, fmt=fmt, mode=mode)}
        for name, scheme in (("tsvd", Tsvd(8)), ("tik", Tikhonov(1e-2))):
            routes[name] = (lambda fmt, mode, z=penalize(f.xi, scheme):
                            reconstruct_svd(f, z, y, fmt=fmt, mode=mode))
        from_below = dict.fromkeys(routes, 0)
        for (name, run), bits, mode in itertools.product(routes.items(), (6, 8, 10, 12),
                                                         RoundingMode):
            x_hat = run(bits, mode).x_hat
            assert not np.signbit(x_hat[x_hat == 0]).any(), (name, bits, mode)
            from_below[name] += np.count_nonzero((x_hat == 0) & (run(None, mode).x_hat < 0))
        assert all(from_below.values()), from_below

    @pytest.mark.parametrize("bits", [16, 32, None])
    def test_routes_leave_numpy_state_as_found(self, bits):
        """The routes give the bits of a run under numpy's defaults, under a
        16-element ufunc buffer, and leave numpy's state as they found it;
        N = 256 unknowns run the SVD route's column scalings with a buffer
        of one column."""
        rng = np.random.default_rng(17)
        f = svd_factorize(rng.standard_normal((264, 256)))
        adag, y = pinv_matrix(f), rng.standard_normal(264)
        calls = [lambda: reconstruct_pinv(adag, y, fmt=bits)]
        calls += [lambda s=s: reconstruct_svd(f, penalize(f.xi, s), y, fmt=bits)
                  for s in (Tsvd(200), Tikhonov(0.3))]

        def bits_of(res):
            return res.x_hat.tobytes(), asdict(res.telemetry)

        default = [bits_of(call()) for call in calls]
        with np.errstate(divide="ignore"):
            np.setbufsize(16)
            state = np.getbufsize(), np.geterr()
            for call, want in zip(calls, default):
                assert bits_of(call()) == want
                assert (np.getbufsize(), np.geterr()) == state


class TestNoiseAmplification:
    def test_ridge_beats_plain_inverse_on_ill_conditioned(self, reference_setup):
        """On the ill-conditioned Fabry-Perot study some ridge weight
        recovers far more signal than the raw pseudo-inverse."""
        from ftsinv import bench
        setup = reference_setup
        assert gram_condition(setup.factors) >= 1e6
        s_pinv = bench.invert_once(setup, "pinv", None)[0]
        s_tik = max(bench.invert_once(setup, "tik", None, lam=l)[0]
                    for l in setup.lambda_grid[::4])
        assert s_tik > s_pinv + 10.0


GOLDEN_PATH = Path(__file__).with_name("matrix_golden.json")
GOLDEN_SCHEMES = {"pinv": None, "tsvd/4": Tsvd(4), "tsvd/12": Tsvd(12),
                  "tik/0.001": Tikhonov(1e-3), "tik/0.1": Tikhonov(0.1)}


def _golden_problem():
    """24 x 16, singular values graded over three decades, noisy data."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal((24, 16)) * np.logspace(0, -3, 16)
    f = svd_factorize(a)
    y = a @ rng.standard_normal(16) + 1e-3 * rng.standard_normal(24)
    return f, pinv_matrix(f), y


def matrix_golden_digests() -> dict:
    """SHA-256 of ``x_hat`` and every telemetry field of each matrix route
    over widths x K, keyed ``"route/bits/k"``; ``bits`` None is the
    double-precision path, and the two explicit formats, used verbatim for
    every operand, saturate.

    Regenerate the ``routes`` entry of ``matrix_golden.json`` (only when a
    change is meant to move bits) with this function.
    """
    f, adag, y = _golden_problem()
    digests = {}
    for case, scheme in GOLDEN_SCHEMES.items():
        for bits in (8, 12, 16, 24, 32, 40, None, FxpFormat(16, 14),
                     FxpFormat(40, 37)):
            label = bits.describe() if isinstance(bits, FxpFormat) else bits
            for k in (1, 3, 6):
                if scheme is None:
                    res = reconstruct_pinv(adag, y, fmt=bits, k=k)
                else:
                    res = reconstruct_svd(f, penalize(f.xi, scheme), y, fmt=bits, k=k)
                h = hashlib.sha256(np.asarray(res.x_hat, dtype=np.float64).tobytes())
                h.update(json.dumps(asdict(res.telemetry), sort_keys=True).encode())
                digests[f"{case}/{label}/{k}"] = h.hexdigest()
    return digests


def test_golden_bits():
    """Outputs and telemetry of both matrix routes are pinned bit for bit."""
    want = json.loads(GOLDEN_PATH.read_text())["routes"]
    got = matrix_golden_digests()
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"matrix route output moved at {moved}"


@pytest.mark.parametrize("call,error,message", [
    (lambda: svd_factorize(np.ones(3)), ValueError, "expected a 2-D matrix"),
    (lambda: penalize(np.ones(2), "ridge"), TypeError, "unknown scheme 'ridge'"),
    (lambda: pinv_matrix(svd_factorize(np.zeros((3, 2)))), ValueError,
     "cannot invert an all-zero matrix"),
    (lambda: pinv_matrix(SvdFactors(np.zeros((3, 0)), np.zeros(0), np.zeros((2, 0)))),
     ValueError, "cannot invert an all-zero matrix"),
    (lambda: pinv_matrix(SvdFactors(np.eye(2), np.array([np.nan, 1.0]), np.eye(2))),
     ValueError, "no singular values above the drop threshold"),
    (lambda: reconstruct_svd(SvdFactors(np.eye(2), np.ones(2), np.eye(2)),
                             penalize(np.ones(2), Tsvd(1)), np.ones(3)),
     ValueError, "interferogram length 3 != matrix rows 2"),
], ids=["1-d", "scheme", "zero-matrix", "no-values", "nan-value", "svd-length"])
def test_input_checks_raise_their_errors(call, error, message):
    """Each check of the matrix routes' inputs raises its typed error."""
    with pytest.raises(error, match=message):
        call()
