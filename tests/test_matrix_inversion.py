"""Factorization, penalization, and the banked fixed-point MAC datapaths."""

import hashlib
import itertools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import ftsinv as fi
from ftsinv.errors import SvdConvergenceError
from ftsinv.fxp import (
    FxpFormat,
    OpCounter,
    OverflowMode,
    RoundingMode,
    RoundingPolicy,
    _mac,
    _requantize,
    apply_overflow,
    rshift_round,
)
from ftsinv.matrix_inversion import (
    BankedOperand,
    Pinv,
    SvdFactors,
    Tikhonov,
    Tsvd,
    _fxp_matvec_banked,
    _fxp_scale_banked,
    compile_pinv,
    compile_svd,
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
        """A compiled datapath run on new data does not reuse U^T y."""
        _, f, _, _, y = tall_problem
        other = y[::-1].copy()
        datapath = compile_svd(f, 12)
        z = penalize(f.xi, Tsvd(9))
        for data in (y, other, y):
            got = reconstruct_svd(datapath, z, data).x_hat
            assert np.array_equal(got, reconstruct_svd(f, z, data, fmt=12).x_hat)

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

    @pytest.mark.parametrize("fmt", [12, 32, None])
    def test_compiled_pinv_matches_one_shot(self, tall_problem, fmt):
        _, _, adag, _, y = tall_problem
        got = reconstruct_pinv(compile_pinv(adag, fmt, k=2), y)
        want = reconstruct_pinv(adag, y, fmt=fmt, k=2)
        assert np.array_equal(got.x_hat, want.x_hat)
        assert got.telemetry == want.telemetry

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
        z = penalize(f.xi, Pinv())
        for k in (0, 5, 100):
            with pytest.raises(ValueError, match="partition count"):
                reconstruct_svd(f, z, np.ones(6), fmt=fmt, k=k)
        assert reconstruct_svd(f, z, np.ones(6), fmt=fmt, k=4).telemetry.k == 4


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
        q, over = apply_overflow(rshift_round(v, shift, mode), fmt, OverflowMode.SATURATE)
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


class TestLimbKernel:
    """The int64 limb MAC against exact Python integers."""

    @pytest.mark.parametrize("m", [1, 7, 256])
    @pytest.mark.parametrize("width", [33, 40, 48, 64])
    def test_matvec_matches_python_ints(self, width, m):
        rng = np.random.default_rng(width * 1000 + m)
        a = _kernel_operands(width, (12, m), rng)
        min_raw = FxpFormat(width, 0).min_raw
        vectors = (_kernel_operands(width, (2, m), rng)[-1],
                   np.full(m, min_raw, dtype=np.int64))
        banked = BankedOperand.split(a, 3)
        for b in vectors:
            exact = [sum(int(x) * int(v) for x, v in zip(row, b)) for row in a]
            for shift in (-3, 0, width - 1, width + 5, 2 * width - 2):
                mat_fmt, vec_fmt, out_fmt = _shift_formats(width, shift)
                for mode in RoundingMode:
                    counter = OpCounter()
                    out, overflows = _fxp_matvec_banked(
                        banked, mat_fmt, b, vec_fmt, out_fmt, counter,
                        RoundingPolicy(mode))
                    want, want_over = _python_outputs(exact, shift, mode, out_fmt)
                    assert out.dtype == np.int64
                    assert out.tolist() == want, (shift, mode)
                    assert overflows == want_over
                    assert counter.mults == a.size

    @pytest.mark.parametrize("width", [33, 40, 48, 64])
    def test_scale_matches_python_ints(self, width):
        rng = np.random.default_rng(width)
        a = _kernel_operands(width, (6, 9), rng)
        diagonals = _kernel_operands(width, (3, 9), rng)[[0, 2]]
        for d, shift in itertools.product(diagonals, (-2, 0, width - 1, 2 * width - 2)):
            exact = [int(x) * int(v) for row in a for x, v in zip(row, d)]
            mat_fmt, diag_fmt, out_fmt = _shift_formats(width, shift)
            for mode in RoundingMode:
                scaled, overflows = _fxp_scale_banked(
                    BankedOperand.split(a, 2), mat_fmt, d, diag_fmt, out_fmt,
                    OpCounter(), RoundingPolicy(mode))
                want, want_over = _python_outputs(exact, shift, mode, out_fmt)
                assert scaled.reassemble().ravel().tolist() == want, (shift, mode)
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
