"""Command-line interface.

Subcommands: ``simulate`` (forward model to files), ``invert`` (one
reconstruction), ``sweep-precision``, ``sweep-parallel``, ``compare``,
``costs``.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure (no-overflow invariant violated, factorization non-convergence).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import bench, fileio, hwmodel
from .bench import ExperimentConfig
from .errors import ConfigError, NumericalError
from .fft_inversion import FftPlan, reconstruct_fft
from .matrix_inversion import (
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
    normalize_interferogram,
)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--kind", choices=["cosine", "airy"])
    p.add_argument("--n", type=int, help="spectral bins")
    p.add_argument("--m", type=int, help="interferogram samples")
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--a", type=float, help="attenuation factor")
    p.add_argument("--r", type=float, help="reflectivity")
    p.add_argument("--oversampling", type=float, dest="opd_oversampling",
                   help="OPD step as a fraction of the transform-matched step")
    p.add_argument("--noise-snr", type=float, dest="noise_snr_db",
                   help="acquisition SNR in dB (omit for noiseless)")
    p.add_argument("--components", type=int, help="gaussian mixture components")
    p.add_argument("--seed", type=int, help="experiment seed")


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=list(bench.ALL_METHODS))
    p.add_argument("--bits", type=int, help="datapath word width")
    p.add_argument("--twiddle-bits", type=int, dest="twiddle_bits")
    p.add_argument("--fft-mode", choices=["pre", "post", "fixed"], dest="fft_mode")
    p.add_argument("--headroom", type=int)
    p.add_argument("--rank", type=int, help="kept singular values (tsvd)")
    p.add_argument("--lambda", type=float, dest="lam", help="ridge parameter (tik)")
    p.add_argument("--parallel-k", type=int, dest="k", help="banked memories")
    p.add_argument("--quantize", choices=["all", "data-only"])
    p.add_argument("--double", action="store_true",
                   help="double-precision reference datapath")


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    else:
        cfg = ExperimentConfig()
        if getattr(args, "seed", None) is None and _needs_seed(args):
            raise ConfigError("--seed is mandatory for stochastic runs "
                              "(or provide it via --config)")
    overrides = {}
    for name in ("kind", "n", "m", "bandwidth", "a", "r", "opd_oversampling",
                 "noise_snr_db", "components", "seed", "method", "bits",
                 "twiddle_bits", "fft_mode", "headroom", "rank", "lam", "k",
                 "quantize"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "double", False):
        overrides["bits"] = None
    data = {**asdict(cfg), **overrides}
    return ExperimentConfig.from_dict(data)


def _needs_seed(args) -> bool:
    return args.command in ("simulate", "sweep-precision", "sweep-parallel", "compare")


def _cmd_simulate(args) -> int:
    model = bench.simulate(_config_from_args(args))
    sg, og, y = model.spectral_grid, model.opd_grid, model.y
    fileio.write_series_csv(args.out, "opd", og.delta, y.values)
    if args.spectrum_out:
        fileio.write_series_csv(args.spectrum_out, "wavenumber",
                                sg.midpoints(), model.x.values)
    if args.matrix_out:
        fileio.write_matrix(args.matrix_out, model.transfer.matrix)
    if args.normalized_out:
        y_norm = normalize_interferogram(y, model.params, y.mean_spectrum)
        fileio.write_series_csv(args.normalized_out, "opd", og.delta,
                                y_norm.values)
    print(f"wrote {args.out} ({y.values.size} samples, mean_spectrum="
          f"{y.mean_spectrum:.6g})")
    return 0


def _cmd_invert(args) -> int:
    _, coords, values = fileio.read_series_csv(args.infile)
    grid = OpdGrid(coords)
    y = Interferogram(values, grid)
    bits = None if args.double else args.bits
    method = args.method or "pinv"

    if method == "fft":
        n = grid.n_samples
        plan = FftPlan.make(
            n,
            bits=bits,
            twiddle_bits=args.twiddle_bits,
            mode=args.fft_mode or "post",
            headroom_bits=args.headroom if args.headroom is not None else 3,
        )
        if args.normalize:
            if args.mean_spectrum is None:
                raise ConfigError("--normalize requires --mean-spectrum")
            params = OpticalParams(args.a if args.a is not None else 1.0,
                                   args.r if args.r is not None else 0.5)
            y = normalize_interferogram(y, params, args.mean_spectrum)
        spectrum, telemetry = reconstruct_fft(y, plan)
        if plan.mode in ("pre", "post") and telemetry.overflow_events:
            raise NumericalError(
                f"no-overflow invariant violated ({telemetry.overflow_events} events)"
            )
        fileio.write_series_csv(args.out, "wavenumber",
                                spectrum.grid.midpoints(), spectrum.values)
        print(f"fft inversion: {telemetry.butterflies} butterflies, "
              f"exponent {telemetry.final_exponent}")
        return 0

    if not args.matrix:
        raise ConfigError(f"method {method!r} requires --matrix")
    a = fileio.read_matrix(args.matrix)
    if a.shape[0] != y.values.size:
        raise ConfigError(
            f"matrix rows {a.shape[0]} != interferogram length {y.values.size}"
        )
    factors = svd_factorize(a)
    k = args.k or 1
    if method == "pinv":
        res = reconstruct_pinv(pinv_matrix(factors), y, fmt=bits, k=k)
    elif method == "tsvd":
        if args.rank is None:
            raise ConfigError("tsvd requires --rank")
        res = reconstruct_svd(factors, penalize(factors.xi, Tsvd(args.rank)),
                              y, fmt=bits, k=k)
    else:
        if args.lam is None:
            raise ConfigError("tik requires --lambda")
        res = reconstruct_svd(factors, penalize(factors.xi, Tikhonov(args.lam)),
                              y, fmt=bits, k=k)
    bandwidth = args.bandwidth if args.bandwidth is not None else 1.0
    sg = SpectralGrid(res.x_hat.size, bandwidth)
    fileio.write_series_csv(args.out, "wavenumber", sg.midpoints(), res.x_hat)
    print(f"{method} inversion: {res.telemetry.mults} multiplies, "
          f"{res.telemetry.latency_cycles} model cycles")
    return 0


def _cmd_sweep_precision(args) -> int:
    cfg = _config_from_args(args)
    result = bench.sweep_precision(cfg)
    result.write_csv(args.out)
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


def _cmd_sweep_parallel(args) -> int:
    cfg = _config_from_args(args)
    result = bench.sweep_parallelism(cfg)
    result.write_csv(args.out)
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


def _cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    result = bench.run_comparison(cfg)
    result.write_csv(args.out)
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


def _cmd_costs(args) -> int:
    calib = hwmodel.CalibrationTable.load(args.calibration) if args.calibration else None
    result = bench.cost_table(calib)
    if args.out == "-":
        sys.stdout.write(result.to_csv())
    else:
        result.write_csv(args.out)
        print(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftsinv",
        description="Interferogram-to-spectrum inversion on emulated "
                    "fixed-point datapaths, with hardware cost modeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward model to interferogram files")
    _add_model_flags(p)
    p.add_argument("--out", required=True, help="interferogram CSV")
    p.add_argument("--spectrum-out", dest="spectrum_out")
    p.add_argument("--matrix-out", dest="matrix_out",
                   help="transfer matrix container file")
    p.add_argument("--normalized-out", dest="normalized_out",
                   help="normalized interferogram CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("invert", help="one reconstruction from files")
    _add_method_flags(p)
    p.add_argument("--in", dest="infile", required=True, help="interferogram CSV")
    p.add_argument("--matrix", help="transfer matrix container (matrix methods)")
    p.add_argument("--out", required=True, help="spectrum CSV")
    p.add_argument("--normalize", action="store_true",
                   help="apply pedestal/gain normalization before the fft route")
    p.add_argument("--mean-spectrum", type=float, dest="mean_spectrum")
    p.add_argument("--a", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--bandwidth", type=float)
    p.set_defaults(func=_cmd_invert)

    for name, func in (("sweep-precision", _cmd_sweep_precision),
                       ("sweep-parallel", _cmd_sweep_parallel),
                       ("compare", _cmd_compare)):
        p = sub.add_parser(name, help=f"{name} experiment to CSV")
        _add_model_flags(p)
        _add_method_flags(p)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("costs", help="hardware cost table to CSV")
    p.add_argument("--out", default="-")
    p.add_argument("--calibration", help="alternate calibration file")
    p.set_defaults(func=_cmd_costs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
