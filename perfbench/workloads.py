"""The benchmark's four workloads.

A workload builds its inputs from the benchmark seed alone (``setup``), then
hands out one cycle of operations (``cycle``).  An operation is one call into
a public ftsinv entry point; the runner times that call and nothing else, and
checks its output afterwards.  Every cycle does the same work, so counts and
digests taken over whole cycles repeat exactly.

Entry points are looked up on their module at call time (``bench.X``, never a
bound name), so the span wrappers of ``tracing`` see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ftsinv import bench, cli, fft_inversion, matrix_inversion, optics

HERE = Path(__file__).resolve().parent
SNR_CAP_DB = 300.0


@dataclass
class Checked:
    snr_db: float
    failures: list
    digest: bytes          # mantissas, exponent and telemetry counts


@dataclass
class Op:
    key: str                              # "<route>/<bits>", the SNR floor's key
    call: Callable[[], object]            # the timed call into ftsinv
    check: Callable[[object], Checked]    # the untimed output check


def snr_db(reference, estimate) -> float:
    """20 log10(|ref| / |ref - est|), capped like ``bench.snr_db``."""
    ref = np.asarray(reference, dtype=np.float64)
    err = float(np.linalg.norm(ref - np.asarray(estimate, dtype=np.float64)))
    if err == 0.0:
        return SNR_CAP_DB
    return min(20.0 * math.log10(float(np.linalg.norm(ref)) / err), SNR_CAP_DB)


def as_words(values, width: int):
    """``(mantissas, exponent)`` with ``values == mantissas * 2**exponent``,
    or None unless every value is a ``width``-bit two's-complement word and
    all share one exponent.  Every datapath output must pass this; a dropped
    saturation fails it."""
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        return None
    nz = v[v != 0.0]
    if nz.size == 0:
        return np.zeros(v.size, dtype=np.int64), 0
    frac, exp = np.frexp(np.abs(nz))
    m53 = np.ldexp(frac, 53).astype(np.int64)
    lowest_bit = np.frexp((m53 & -m53).astype(np.float64))[1] - 1
    exponent = int(np.min(exp - 53 + lowest_bit))
    mantissas = np.ldexp(v, -exponent)
    limit = 2.0 ** (width - 1)
    if mantissas.max() > limit - 1 or mantissas.min() < -limit:
        return None
    return mantissas.astype(np.int64), exponent


def check_output(estimate, width: int, reference, telemetry=None,
                 failures=(), note: str = "") -> Checked:
    failures = list(failures)
    words = as_words(estimate, width)
    if words is None:
        failures.append(f"output is not {width}-bit words sharing one exponent")
        digest = np.asarray(estimate, dtype=np.float64).tobytes()
    else:
        digest = words[0].tobytes() + f"e{words[1]}".encode()
    if telemetry is not None:
        digest += json.dumps(dataclasses.asdict(telemetry), sort_keys=True).encode()
    digest += note.encode()
    return Checked(snr_db(reference, estimate), failures, digest)


def sub_seeds(seed: int, count: int) -> list:
    """Independent input seeds derived from the benchmark seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def dct2(x: np.ndarray) -> np.ndarray:
    """``C_k = sum_n x_n cos(pi k (2n+1) / 2N)`` in double precision, via
    ``np.fft`` (Makhoul's even-odd permutation)."""
    n = x.size
    v = np.concatenate([x[0::2], x[1::2][::-1]])
    k = np.arange(n)
    return (np.exp(-0.5j * np.pi * k / n) * np.fft.fft(v)).real


def fft_inputs(n: int, seeds) -> list:
    """(spectrum, normalized interferogram) pairs on the transform lattice.

    The normalized cosine-model interferogram is half the DCT-II of the
    spectrum, built here without a transfer matrix (32 GiB at n = 65536).
    """
    grid = optics.SpectralGrid(n, 1.0)
    opd = optics.OpdGrid.transform_matched(grid, n)
    pairs = []
    for s in seeds:
        x = optics.gaussian_mixture_spectrum(grid, 4, seed=s)
        pairs.append((x.values, optics.Interferogram(0.5 * dct2(x.values), opd)))
    return pairs


def check_fft(result, truth, bits: int, mode: str, reference=None) -> Checked:
    spectrum, telemetry = result
    failures = []
    if mode != "fixed" and telemetry.overflow_events:
        failures.append(f"{mode}-mode FFT reported "
                        f"{telemetry.overflow_events} overflow events")
    if reference is not None and not np.array_equal(spectrum.values, reference):
        failures.append("FFT result differs from its first run")
    return check_output(spectrum.values, bits, truth, telemetry, failures)


class Workload:
    name = ""

    def setup(self) -> None:
        """Build the inputs and whatever the program needs before the first
        operation.  The runner times this."""
        raise NotImplementedError

    def cycle(self) -> list:
        """One cycle of operations, with the check references they need."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the workload wrote."""


class AirySweep(Workload):
    """``bench.best_inversion`` over 4 methods x 10 widths at K = 1: the calls
    ``sweep_precision`` makes on the frozen ill-conditioned Airy study."""

    name = "airy-sweep"

    def __init__(self, seed: int):
        self.config = replace(bench.reference_airy_config(), seed=sub_seeds(seed, 1)[0])

    def setup(self) -> None:
        self.study = bench.build_setup(self.config)

    def cycle(self) -> list:
        study = self.study
        # Each op is held to its route's own double-precision result at the
        # regularization point it returns.  Against the truth the regularized
        # routes level off near 14 dB, where a floor cannot tell a one-bit
        # shift from a correct result; pinv cannot reach the truth on this
        # ill-conditioned matrix, and the FFT route assumes the cosine model.
        grids = {"tsvd": [{"rank": r} for r in study.rank_grid],
                 "tik": [{"lam": lam} for lam in study.lambda_grid]}
        ops = []
        for method in bench.ALL_METHODS:
            doubles = {}
            for kw in grids.get(method, [{}]):
                _, estimate, _, label = bench.invert_once(study, method, None, **kw)
                doubles[label] = estimate
            for bits in self.config.bits_list:
                ops.append(Op(
                    f"{method}/{bits}",
                    lambda m=method, b=bits: bench.best_inversion(study, m, b),
                    lambda r, m=method, b=bits, d=doubles: self._check(r, m, b, d),
                ))
        return ops

    @staticmethod
    def _check(result, method, bits, doubles) -> Checked:
        _, estimate, telemetry, label = result
        failures = []
        if method == "fft" and telemetry.overflow_events:
            failures.append(f"post-mode FFT reported {telemetry.overflow_events} "
                            "overflow events")
        reference = doubles.get(label)
        if reference is None:
            failures.append(f"no double-precision result at {method} {label!r}")
            reference = np.zeros_like(estimate)
        return check_output(estimate, bits, reference, telemetry, failures, label)


class Fft65536(Workload):
    """``reconstruct_fft`` at n = 65536 and 16 bits, modes post, pre, fixed."""

    name = "fft-65536"
    N = 65536
    BITS = 16
    POOL = 2
    MODES = ("post", "pre", "fixed")

    def __init__(self, seed: int):
        self.seeds = sub_seeds(seed, self.POOL)

    def setup(self) -> None:
        self.inputs = fft_inputs(self.N, self.seeds)
        self.plans = {mode: fft_inversion.FftPlan.make(self.N, bits=self.BITS, mode=mode)
                      for mode in self.MODES}

    def cycle(self) -> list:
        ops = []
        for truth, y in self.inputs:
            for mode, plan in self.plans.items():
                ops.append(Op(
                    f"{mode}/{self.BITS}",
                    lambda y=y, p=plan: fft_inversion.reconstruct_fft(y, p),
                    lambda r, t=truth, m=mode: check_fft(r, t, self.BITS, m),
                ))
        return ops


class WideK(Workload):
    """32-bit matrix routes and a 40-bit FFT, K cycling 1..6: every word is
    too wide for int64, so all of it runs on the object dtype."""

    name = "wide-k"
    BITS = 32
    FFT_N = 4096
    FFT_BITS = 40
    POOL = 2
    KS = (1, 2, 3, 4, 5, 6)

    def __init__(self, seed: int):
        seeds = sub_seeds(seed, 1 + self.POOL)
        self.config = bench.ExperimentConfig(kind="cosine", n=256, m=256, r=0.5,
                                             seed=seeds[0])
        self.fft_seeds = seeds[1:]

    def setup(self) -> None:
        self.study = bench.build_setup(self.config)
        self.inputs = fft_inputs(self.FFT_N, self.fft_seeds)
        self.plan = fft_inversion.FftPlan.make(self.FFT_N, bits=self.FFT_BITS, mode="post")

    def cycle(self) -> list:
        st = self.study
        xi = st.factors.xi
        lam = st.lambda_grid[len(st.lambda_grid) // 2]
        schemes = {
            "tik": matrix_inversion.penalize(xi, matrix_inversion.Tikhonov(lam)),
            "tsvd": matrix_inversion.penalize(xi, matrix_inversion.Tsvd(st.factors.rank_bound)),
        }

        def pinv(k):
            return matrix_inversion.reconstruct_pinv(st.adag, st.y, fmt=self.BITS, k=k)

        def svd(route):
            return lambda k: matrix_inversion.reconstruct_svd(
                st.factors, schemes[route], st.y, fmt=self.BITS, k=k)

        def fft(y):
            return lambda k: fft_inversion.reconstruct_fft(y, self.plan)

        routes = {"pinv": pinv, "tik": svd("tik"), "tsvd": svd("tsvd")}
        k1 = {route: call(1).x_hat for route, call in routes.items()}
        fft_k1 = [fft(y)(1)[0].values for _, y in self.inputs]
        ops = []
        for k in self.KS:
            for route in ("pinv", "tik" if k % 2 else "tsvd"):
                ops.append(Op(
                    f"{route}/{self.BITS}",
                    lambda c=routes[route], k=k: c(k),
                    lambda r, ref=k1[route]: self._check(r, ref, st.x.values),
                ))
            j = (k - 1) % self.POOL
            truth, y = self.inputs[j]
            ops.append(Op(
                f"fft/{self.FFT_BITS}",
                lambda c=fft(y), k=k: c(k),
                lambda r, t=truth, ref=fft_k1[j]: check_fft(r, t, self.FFT_BITS, "post", ref),
            ))
        return ops

    def _check(self, result, k1_result, truth) -> Checked:
        failures = []
        if not np.array_equal(result.x_hat, k1_result):
            failures.append(f"K={result.telemetry.k} result is not bit-identical to K=1")
        return check_output(result.x_hat, self.BITS, truth, result.telemetry, failures)


def run_cli(argv) -> tuple:
    """In-process ``ftsinv`` call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def read_spectrum_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


class CliInvert(Workload):
    """``ftsinv invert`` in process on a 64 x 64 Airy problem: each call reads
    its files, factorizes the matrix again and writes a spectrum."""

    name = "cli-invert"
    N = 64
    RANK = 48
    LAMBDA = 1.0
    ROUTES = (("pinv", ()), ("tsvd", ("--rank", str(RANK))),
              ("tik", ("--lambda", str(LAMBDA))))
    WIDTHS = (16, 32)

    def __init__(self, seed: int):
        self.seed = sub_seeds(seed, 1)[0]
        self.dir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
        self.y, self.a = self.dir / "y.csv", self.dir / "a.bin"
        self.out = self.dir / "out.csv"

    def setup(self) -> None:
        code, _, err = run_cli([
            "simulate", "--kind", "airy", "--n", str(self.N), "--m", str(self.N),
            "--r", "0.7", "--oversampling", "0.9", "--noise-snr", "40",
            "--seed", str(self.seed), "--out", str(self.y),
            "--matrix-out", str(self.a),
        ])
        if code:
            raise RuntimeError(f"ftsinv simulate exited {code}: {err}")

    def _argv(self, method, extra, bits) -> list:
        width = ["--double"] if bits is None else ["--bits", str(bits)]
        return ["invert", "--method", method, *width, *extra, "--in", str(self.y),
                "--matrix", str(self.a), "--out", str(self.out)]

    def cycle(self) -> list:
        ops = []
        for method, extra in self.ROUTES:
            # each route is held to its own double-precision result: pinv
            # cannot reach the truth on this ill-conditioned matrix, and
            # against the truth tik and tsvd level off between 6 and 14 dB
            code, _, err = run_cli(self._argv(method, extra, None))
            if code:
                raise RuntimeError(f"ftsinv invert --double exited {code}: {err}")
            reference = read_spectrum_csv(self.out)
            self.out.unlink()
            for bits in self.WIDTHS:
                ops.append(Op(
                    f"{method}/{bits}",
                    lambda argv=self._argv(method, extra, bits): run_cli(argv),
                    lambda r, b=bits, ref=reference: self._check(r, b, ref),
                ))
        return ops

    def _check(self, result, bits, reference) -> Checked:
        code, stdout, stderr = result
        if code:
            return Checked(-SNR_CAP_DB, [f"ftsinv invert exited {code}: {stderr.strip()}"],
                           f"exit {code}".encode())
        if not self.out.exists():
            return Checked(-SNR_CAP_DB, ["ftsinv invert wrote no spectrum"], b"no output")
        values = read_spectrum_csv(self.out)
        # removed once read, so an op that writes nothing cannot pass on the
        # previous op's spectrum
        self.out.unlink()
        failures = []
        if values.size != self.N:
            failures.append(f"spectrum has {values.size} values, expected {self.N}")
            return Checked(-SNR_CAP_DB, failures, values.tobytes())
        if not np.all(np.isfinite(values)):
            failures.append("spectrum has non-finite values")
            return Checked(-SNR_CAP_DB, failures, values.tobytes())
        return check_output(values, bits, reference, failures=failures, note=stdout)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (AirySweep, Fft65536, WideK, CliInvert)}
