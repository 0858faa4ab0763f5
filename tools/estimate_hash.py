"""Print a hash of every pinv, tsvd and tik estimate and telemetry record of
the reference Airy study over fixed seeds and datapath widths.

For each seed, ``reference_airy_config()`` with that seed is set up once;
at each width the pseudo-inverse runs once and the rank and ridge grids run
every point, in grid order, on one compiled datapath each, as
``bench.best_inversion`` runs them.  Each run adds its estimate's bytes and
its telemetry record (as sorted JSON) to a SHA-256 digest per method and to
one over all runs, which are printed with the run count::

    python tools/estimate_hash.py
    python tools/estimate_hash.py --expect 39dd164a3851b25e

The seeds are 31415 and 1-4, the widths 4-22, 24, 28, 32, 40 and double
precision, which cover float64, int64 and limb words.  Two trees that
print the same digests gave the same bits in every run.  BLAS runs on one
thread, as in ``perfbench/run.py``, because its summation order, and so the
factorization's and the double route's bits, change with the thread count.
Exits 0; with ``--expect HEX``, 1 where the digest over all runs does not
begin with ``HEX`` (the whole digest, or at least its first 8 digits).
"""

from __future__ import annotations

import argparse
import os
import sys

# fixed before numpy is imported, so the BLAS library starts with it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses                                          # noqa: E402
import hashlib                                              # noqa: E402
import json                                                 # noqa: E402
from pathlib import Path                                    # noqa: E402

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ftsinv import bench                                   # noqa: E402
from ftsinv.matrix_inversion import CompiledSvd             # noqa: E402

SEEDS = [31415, 1, 2, 3, 4]
WIDTHS = [*range(4, 23), 24, 28, 32, 40, None]
METHODS = ("pinv", "tsvd", "tik")


def digests() -> tuple:
    """(per-method digests, the digest over all runs, the run count)."""
    per_method = {method: hashlib.sha256() for method in METHODS}
    total, runs = hashlib.sha256(), 0
    for seed in SEEDS:
        setup = bench.build_setup(dataclasses.replace(bench.reference_airy_config(),
                                                      seed=seed))
        grids = {"pinv": [None],
                 "tsvd": [bench.grid_point(setup.factors.xi, "tsvd", rank=r)
                          for r in setup.rank_grid],
                 "tik": [bench.grid_point(setup.factors.xi, "tik", lam=lam)
                         for lam in setup.lambda_grid]}
        for width in WIDTHS:
            for method in METHODS:
                datapath = bench._compile_datapath(method, setup.factors, width,
                                                   adag=setup.adag)
                points = grids[method]
                if isinstance(datapath, CompiledSvd):
                    points = datapath.diagonals(points)
                for z in points:
                    estimate, telemetry, _ = bench.run_route(datapath, setup.y, z)
                    record = (estimate.tobytes()
                              + json.dumps(dataclasses.asdict(telemetry),
                                           sort_keys=True).encode())
                    per_method[method].update(record)
                    total.update(record)
                    runs += 1
    return ({m: h.hexdigest() for m, h in per_method.items()}, total.hexdigest(), runs)


def _hex_prefix(text: str) -> str:
    if not (8 <= len(text) <= 64 and all(c in "0123456789abcdef" for c in text)):
        raise argparse.ArgumentTypeError("expected 8 to 64 lowercase hex digits")
    return text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", type=_hex_prefix, metavar="HEX",
                        help="exit 1 unless the digest over all runs begins with HEX")
    args = parser.parse_args()
    per_method, total, runs = digests()
    for method, digest in per_method.items():
        print(f"{method}: {digest}")
    print(f"all {runs} runs: {total}")
    if args.expect is not None and not total.startswith(args.expect):
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
