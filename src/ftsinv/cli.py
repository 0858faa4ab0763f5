"""Command-line interface.

Subcommands: ``simulate`` (forward model to files), ``invert`` (one
reconstruction), ``sweep-precision``, ``sweep-parallel``, ``compare``,
``costs``.  Each command registers only the flags it reads, so a flag it
does not read exits 2 like any unknown one, and ``main`` registers only
the flags of the command it runs.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure (no-overflow invariant violated, factorization
non-convergence).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import bench, fileio, hwmodel
from .bench import ExperimentConfig
from .errors import ConfigError, NumericalError, OverflowViolationError
from .fft_inversion import MODES, FftPlan, reconstruct_fft
from .matrix_inversion import svd_factorize
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


# the datapath flags, each registered only on the commands that read it
_DATAPATH_FLAGS = {
    "--method": dict(choices=list(bench.ALL_METHODS)),
    "--bits": dict(type=int, help="datapath word width"),
    "--twiddle-bits": dict(type=int, dest="twiddle_bits"),
    "--fft-mode": dict(choices=list(MODES), dest="fft_mode"),
    "--headroom": dict(type=int, help="FFT block headroom bits; unset: 3, fitted down to "
                                      "bits - 3; else as given"),
    "--rank": dict(type=int, help="kept singular values (tsvd)"),
    "--lambda": dict(type=float, dest="lam", help="ridge parameter (tik)"),
    "--parallel-k": dict(type=int, dest="k", help="banked memories"),
    "--quantize": dict(choices=["all", "data-only"]),
    "--double": dict(action="store_true", help="double-precision reference datapath"),
}


def _add_datapath_flags(p: argparse.ArgumentParser, flags: str) -> None:
    for flag in flags.split():
        p.add_argument(flag, **_DATAPATH_FLAGS[flag])


def _config_from_args(args) -> tuple:
    """The config a command runs, and the names of the settings given, by a
    flag or by a key of the config file; a null key, like an unset flag,
    gives none."""
    given = set()
    if args.config:
        settings = ExperimentConfig.read_json(Path(args.config).read_text())
        cfg = ExperimentConfig.from_dict(settings)
        given = {name for name, value in settings.items() if value is not None}
    elif args.seed is None:
        raise ConfigError("--seed is mandatory for stochastic runs "
                          "(or provide it via --config)")
    else:
        cfg = ExperimentConfig()
    overrides = {name: value for name, value in vars(args).items()
                 if name in ExperimentConfig.__dataclass_fields__ and value is not None}
    given |= set(overrides)
    if getattr(args, "double", False):
        if args.bits is not None:
            raise ConfigError("--bits is not read under --double")
        overrides["bits"] = None
    return ExperimentConfig.from_dict({**asdict(cfg), **overrides}), given


def _cmd_simulate(args) -> int:
    model = bench.simulate(_config_from_args(args)[0])
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


# the invert flags that only some routes read: (routes, {dest: flag})
_ROUTE_FLAGS = (
    (("pinv", "tsvd", "tik"), {"matrix": "--matrix", "k": "--parallel-k",
                               "bandwidth": "--bandwidth"}),
    (("tsvd",), {"rank": "--rank"}),
    (("tik",), {"lam": "--lambda"}),
    (("fft",), {"twiddle_bits": "--twiddle-bits", "fft_mode": "--fft-mode",
                "headroom": "--headroom", "normalize": "--normalize",
                "mean_spectrum": "--mean-spectrum", "a": "--a", "r": "--r"}),
)
# the invert flags that only a fixed-point datapath reads
_FIXED_POINT_FLAGS = {"bits": "--bits", "twiddle_bits": "--twiddle-bits",
                      "fft_mode": "--fft-mode", "headroom": "--headroom"}


def _given(**values) -> dict:
    """The ``values`` that are set: a flag left out keeps its reader's default."""
    return {name: value for name, value in values.items() if value is not None}


def _cmd_invert(args) -> int:
    method = args.method or "pinv"
    for routes, flags in _ROUTE_FLAGS:
        for dest, flag in flags.items():
            value = getattr(args, dest)
            if value is not None and value is not False and method not in routes:
                raise ConfigError(f"{flag} is not read by the {method} route")
    for dest, flag in _FIXED_POINT_FLAGS.items():
        if args.double and getattr(args, dest) is not None:
            raise ConfigError(f"{flag} is not read under --double")
    _, coords, values = fileio.read_series_csv(args.infile)
    grid = OpdGrid(coords)
    y = Interferogram(values, grid)

    if method == "fft":
        plan = FftPlan.make(grid.n_samples, args.bits, args.twiddle_bits,
                            headroom_bits=args.headroom, **_given(mode=args.fft_mode))
        if args.normalize:
            if args.mean_spectrum is None:
                raise ConfigError("--normalize requires --mean-spectrum")
            y = normalize_interferogram(y, OpticalParams(**_given(a=args.a, r=args.r)),
                                        args.mean_spectrum)
        elif (args.mean_spectrum, args.a, args.r) != (None, None, None):
            raise ConfigError("--mean-spectrum, --a and --r are read only with --normalize")
        spectrum, telemetry = reconstruct_fft(y, plan)
        if plan.mode in ("pre", "post") and telemetry.overflow_events:
            raise OverflowViolationError(
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
    datapath = bench._compile_datapath(method, factors, args.bits, **_given(k=args.k))
    x_hat, telemetry, _ = bench.run_route(
        datapath, y, bench.grid_point(factors.xi, method, args.rank, args.lam))
    bandwidth = args.bandwidth if args.bandwidth is not None else 1.0
    sg = SpectralGrid(x_hat.size, bandwidth)
    fileio.write_series_csv(args.out, "wavenumber", sg.midpoints(), x_hat)
    print(f"{method} inversion: {telemetry.mults} multiplies, "
          f"{telemetry.latency_cycles} model cycles")
    return 0


def _cmd_study(args) -> int:
    cfg, given = _config_from_args(args)
    # sweep-parallel runs no FFT; sweep-precision reads bits_list, not bits; the
    # FFT runs a double plan under --double and --quantize data-only, and
    # --fft-mode still prices its row
    double = args.command != "sweep-precision" and cfg.bits is None
    unread = {}
    if args.command == "sweep-parallel":
        unread = dict.fromkeys(("twiddle_bits", "headroom", "fft_mode"),
                               "by sweep-parallel, which runs no FFT")
    elif double or cfg.quantize == "data-only":
        unread = dict.fromkeys(("twiddle_bits", "headroom"), "under --double" if double
                               else "under --quantize data-only")
    if double:
        unread["quantize"] = "under --double"
    for name, why in unread.items():
        if name in given:
            raise ConfigError(f"--{name.replace('_', '-')} is not read {why}")
    result = args.study(cfg)
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


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``ftsinv`` parser.  Every command is registered; given the ``argv``
    it will parse, only the command they run gets its flags, because the
    others' flags are never read."""
    # no top-level option takes a value: argparse runs the first non-option
    command = argv and next((a for a in argv if not a.startswith("-")), "")
    parser = argparse.ArgumentParser(
        prog="ftsinv",
        description="Interferogram-to-spectrum inversion on emulated "
                    "fixed-point datapaths, with hardware cost modeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward model to interferogram files")
    if command in (None, "simulate"):
        _add_model_flags(p)
        p.add_argument("--out", required=True, help="interferogram CSV")
        p.add_argument("--spectrum-out", dest="spectrum_out")
        p.add_argument("--matrix-out", dest="matrix_out",
                       help="transfer matrix container file")
        p.add_argument("--normalized-out", dest="normalized_out",
                       help="normalized interferogram CSV")
        p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("invert", help="one reconstruction from files")
    if command in (None, "invert"):
        _add_datapath_flags(p, "--method --bits --twiddle-bits --fft-mode --headroom "
                               "--rank --lambda --parallel-k --double")
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

    fft = "--twiddle-bits --fft-mode --headroom"
    for name, study, flags in (
            ("sweep-precision", bench.sweep_precision, f"{fft} --parallel-k --quantize"),
            ("sweep-parallel", bench.sweep_parallelism, "--bits --quantize --double"),
            ("compare", bench.run_comparison,
             f"--bits {fft} --parallel-k --quantize --double")):
        p = sub.add_parser(name, help=f"{name} experiment to CSV")
        if command in (None, name):
            _add_model_flags(p)
            _add_datapath_flags(p, flags)
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_study, study=study)

    p = sub.add_parser("costs", help="hardware cost table to CSV")
    if command in (None, "costs"):
        p.add_argument("--out", default="-")
        p.add_argument("--calibration", help="alternate calibration file")
        p.set_defaults(func=_cmd_costs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        # ConfigError is a ValueError; NumericalError is a RuntimeError
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
