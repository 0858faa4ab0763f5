"""Record a baseline: every metric of every workload over several seeds.

    python3 perfbench/baseline.py [--first-seed 1] [--workload NAME] [--out FILE]

Each run is a fresh ``run.py`` process, as in normal use.  For each
workload it makes ``RUNS`` untraced runs on consecutive seeds and one traced
run on the first seed, then writes, per end-to-end metric, every value, the
median, the quartiles and the quartile spread as a share of the median, and
the same for the unscaled timings; per per-layer metric the traced value;
each run's output digest and wall time.  The default output is
``baseline.json`` next to this file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    return {"record": record, "result": json.loads(lines[-1]),
            "wall_s": perf_counter() - start}


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [one_run(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = one_run(name, seeds[0], spec["run_seconds"], 1)
        if not all(r["result"]["correct"] for r in runs + [traced]):
            print(f"{name}: a run failed its output checks", file=sys.stderr)
            return 1
        metrics = {m: summarize([r["result"]["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["result"]["metrics"]}
        unscaled = {m: summarize([r["record"]["unscaled"][m] for r in runs])
                    for m in runs[0]["record"]["unscaled"]}
        out["environment"] = {k: runs[0]["record"][k]
                              for k in ("nproc", "python", "numpy", "blas", "blas_threads")}
        out["workloads"][name] = {
            "end_to_end": metrics,
            "unscaled": unscaled,
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "dominant_layers": traced["record"]["dominant_layers"],
            "ops": [r["record"]["ops"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs + [traced]],
            "digests": {str(r["record"]["seed"]): r["record"]["digest"] for r in runs},
        }
        for m, s in metrics.items():
            print(f"{name:11s} {m:14s} median {s['median']:.6g} spread {s['spread']}")
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
