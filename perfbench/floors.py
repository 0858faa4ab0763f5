"""Measure the SNR floors in floors.json.

    python3 perfbench/floors.py [--workload NAME]

For every workload and seed in ``CALIBRATION_SEEDS`` it sets the workload up,
runs one cycle and records each operation's SNR.  A floor is the lowest SNR
seen for its route and width minus ``MARGIN_DB``.  The margin leaves room for
a scaling rule that gives up to 10 dB at 8 bits (worst-case formats instead
of formats fitted to the double-precision answer), and for factor signs that
move the SVD routes by up to 10 dB.  A floor above ``SHIFT_DB`` fails an
output off by one bit in either direction, which scores at most 6.02 dB
against its reference; the floors at or below it are listed in the README.
"""

import json
import math
import sys

import run

MARGIN_DB = 10.0
CALIBRATION_SEEDS = range(1000, 1020)
SHIFT_DB = 20.0 * math.log10(2.0)    # a result scaled by 1/2 scores this


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    run.import_package()
    import workloads

    path = run.HERE / "floors.json"
    data = json.loads(path.read_text()) if path.exists() else {"floors": {}, "min_snr_db": {}}
    seeds = CALIBRATION_SEEDS
    for name in args.workload or list(workloads.WORKLOADS):
        lowest = {}
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed)
            try:
                workload.setup()
                for op in workload.cycle():
                    checked = op.check(op.call())
                    if checked.failures:
                        print(f"{name} seed {seed} {op.key}: {checked.failures}",
                              file=sys.stderr)
                        return 1
                    lowest[op.key] = min(lowest.get(op.key, math.inf), checked.snr_db)
            finally:
                workload.close()
            print(f"{name} seed {seed} done", file=sys.stderr)
        data["min_snr_db"][name] = {k: round(v, 3) for k, v in lowest.items()}
        data["floors"][name] = {k: math.floor(v - MARGIN_DB) for k, v in lowest.items()}
    data["calibration"] = {"seeds": f"{seeds[0]}..{seeds[-1]}", "margin_db": MARGIN_DB}
    for name, floors in sorted(data["floors"].items()):
        low = [k for k, v in sorted(floors.items()) if v <= SHIFT_DB]
        if low:
            print(f"{name}: floors at or below {SHIFT_DB:.2f} dB: {', '.join(low)}")
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
