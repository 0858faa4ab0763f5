"""ftsinv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs from the root of a source checkout and imports ``ftsinv`` from its
``src`` directory.  One run sets the workload up at least ``SETUPS`` times
and for ``SETUP_SECONDS``, runs one untimed warm-up operation, then runs
whole cycles of operations in a closed loop with one client until
``--seconds`` have passed and at least ``MIN_CYCLES`` cycles are done.
Every output is checked.  After each operation, outside its timing, two
fixed reference tasks are timed, and every time metric is scaled to the host
speed at which they take their nominal times (see ``scale``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics and the
tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics, named and
in the units that BENCHMARK.json declares.  ``--smoke`` runs every workload
briefly in both modes and checks that every output passes and every declared
metric is measured.
"""

import os
import sys

# fixed before numpy is imported, so the BLAS library starts with it
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import mmap  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
SETUP_SECONDS = 2.0    # cheap set-ups repeat until the set-up phase takes this long
MIN_CYCLES = 10        # samples behind each op's median latency
FAILURES_SHOWN = 5
REF_LOOP = 20000       # iterations of the interpreter reference loop
REF_LOOP_S = 0.002     # its nominal time
REF_PAGES = 256        # fresh pages the page-fault reference touches
REF_PAGES_S = 0.0007   # its nominal time
REF_REPEATS = 3        # reference timings before and after each set-up


def references() -> list:
    """Time the two reference tasks, fixed work that calls nothing of
    ftsinv, so that only the host's speed moves them: an interpreter loop,
    and mapping, touching and unmapping fresh pages, which is the kernel
    work behind the program's large temporary arrays."""
    start = perf_counter()
    s = 0
    for i in range(REF_LOOP):
        s += i * i >> 3
    loop = perf_counter() - start
    start = perf_counter()
    pages = mmap.mmap(-1, REF_PAGES * mmap.PAGESIZE)
    np.frombuffer(pages, dtype=np.uint8)[::mmap.PAGESIZE] = 1
    pages.close()
    return [loop, perf_counter() - start]


def timed(call) -> tuple:
    """``call()``'s result and its [wall, user CPU, system CPU] seconds."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    result = call()
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return result, [wall, after.ru_utime - before.ru_utime,
                    after.ru_stime - before.ru_stime]


def scale(samples) -> np.ndarray:
    """Wall times scaled to the host speed at which the reference tasks
    take their nominal times.

    ``samples[..., :]`` is [wall, user, system, loop, pages]: a timed call
    and the reference times taken around it.  The shared host changes speed
    by up to a factor of two, in states that last from seconds to minutes,
    and the reference tasks slow down with it.  The user share of the wall
    time is scaled by the interpreter loop and the system share by the
    page-fault task, because contention slows the two differently.  The
    shares are summed over all samples: the kernel splits CPU time into
    user and system by sampled ticks, too coarse for one call.
    """
    wall, user, system, loop, pages = np.moveaxis(np.asarray(samples), -1, 0)
    share = system.sum() / (user.sum() + system.sum())
    return wall * ((1.0 - share) * REF_LOOP_S / loop + share * REF_PAGES_S / pages)


def import_package():
    """Import ftsinv from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ftsinv
    except ImportError as exc:
        sys.exit(f"error: cannot import ftsinv from {src}: {exc}")
    if not Path(ftsinv.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: ftsinv was imported from {ftsinv.__file__}, not {src}")


class Tally:
    """Output checks: attempted and failed operations, SNR floors, digest."""

    def __init__(self, workload: str, floors: dict):
        self.floors = floors.get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.min_snr = {}
        self._digest = hashlib.sha256()
        self._digest_left = 0

    def digest_next(self, n_ops: int) -> None:
        """Hash the outputs of the next ``n_ops`` operations."""
        self._digest_left = n_ops

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def check(self, op, result) -> None:
        checked = op.check(result)
        failures = list(checked.failures)
        floor = self.floors.get(op.key)
        if floor is None:
            failures.append(f"no SNR floor for {op.key}")
        elif checked.snr_db < floor:
            failures.append(f"SNR {checked.snr_db:.2f} dB below the {floor} dB floor")
        self.min_snr[op.key] = min(self.min_snr.get(op.key, np.inf), checked.snr_db)
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(f"{op.key}: {'; '.join(failures)}")
        if self._digest_left:
            self._digest.update(op.key.encode() + checked.digest)
            self._digest_left -= 1


def one_cycle(ops, tally, tracer=None) -> np.ndarray:
    """Each op in turn, the next one starting when the previous returns;
    returns a ``scale`` sample per op, with the cycle's median reference
    times.  Outputs are checked, and the references are timed, outside the
    ops' timing."""
    rows = []
    for op in ops:
        result, row = timed(op.call if tracer is None
                            else lambda: tracer.call("op", op.call))
        tally.check(op, result)
        rows.append(row + references())
    rows = np.asarray(rows)
    rows[:, 3:] = np.median(rows[:, 3:], axis=0)
    return rows


def thread_count() -> int:
    """Threads of this process.  A thread the program left running would
    slow the reference tasks too, and the scaling would hide its cost."""
    try:
        return len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        return threading.active_count()


def timing_metrics(latencies) -> dict:
    """ops_per_s and the percentiles of a cycles x ops array of seconds.

    Percentiles are taken over the ops of a cycle, each op at its median
    latency over the run's cycles.  Pooled over all ops, the median of a
    cycle whose ops fall into clusters of different cost lands in the gap
    between two clusters and follows a few outliers.
    """
    op_ms = np.median(latencies, axis=0) * 1e3
    p50, p90 = np.percentile(op_ms, [50, 90])
    return {"ops_per_s": latencies.size / float(np.sum(latencies)),
            "op_ms_p50": float(p50), "op_ms_p90": float(p90)}


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def run(name, seed, seconds, trace, setups=SETUPS, setup_seconds=SETUP_SECONDS,
        min_cycles=MIN_CYCLES) -> dict:
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    floors = json.loads((HERE / "floors.json").read_text())["floors"]
    # the first LAPACK call in a process costs about a second; keep it out
    np.linalg.svd(np.random.default_rng(0).standard_normal((64, 64)))
    workload = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    tally = Tally(name, floors)
    record = {"workload": name, "trace": int(trace), **environment(seed)}
    try:
        setup_samples = []
        phase_start = perf_counter()
        while len(setup_samples) < setups or perf_counter() - phase_start < setup_seconds:
            refs = [references() for _ in range(REF_REPEATS)]
            if tracer is None:
                _, row = timed(workload.setup)
            else:
                with tracer.installed():
                    _, row = timed(lambda: tracer.call("setup", workload.setup))
            refs += [references() for _ in range(REF_REPEATS)]
            setup_samples.append(row + list(np.median(refs, axis=0)))
        ops = workload.cycle()
        tally.check(ops[0], ops[0].call())          # untimed warm-up
        tally.digest_next(len(ops))
        cycles, traced = [], []        # one_cycle() of each untraced, traced cycle
        deadline = perf_counter() + seconds
        if tracer is None:
            while perf_counter() < deadline or len(cycles) < min_cycles:
                cycles.append(one_cycle(ops, tally))
        else:
            # untraced and traced cycles alternate, so a change in machine
            # speed during the run does not show up as tracing overhead
            while not traced or perf_counter() < deadline:
                cycles.append(one_cycle(ops, tally))
                with tracer.installed():
                    traced.append(one_cycle(ops, tally, tracer))
        threads = thread_count()
    finally:
        workload.close()
    if threads != 1:
        sys.exit(f"error: {threads} threads were running after the timed phase; "
                 "the scaling to the reference host speed assumes one")
    samples = np.asarray(cycles)          # cycles x ops x [wall, user, system, loop, pages]
    latencies, raw = scale(samples), samples[..., 0]
    cpu = samples[..., 1:3].sum(axis=(0, 1))

    record.update({"cycle_ops": len(ops), "setups": len(setup_samples),
                   "cycles": len(cycles), "ops": latencies.size,
                   "digest": tally.digest, "attempted": tally.attempted,
                   "failed": tally.failed, "fail_ratio": tally.failed / tally.attempted,
                   "failures": tally.failures,
                   "min_snr_db": {k: round(v, 3) for k, v in tally.min_snr.items()},
                   "op_cpu_s": {"user": float(cpu[0]), "system": float(cpu[1])},
                   "ref_ms": {name: {"nominal": nominal * 1e3,
                                     "median": float(np.median(times)) * 1e3}
                              for name, nominal, times in (
                                  ("loop", REF_LOOP_S, samples[..., 3]),
                                  ("pages", REF_PAGES_S, samples[..., 4]))}})
    if tracer is None:
        setup_samples = np.asarray(setup_samples)
        values = {"setup_s": float(np.median(scale(setup_samples))),
                  **timing_metrics(latencies)}
        record["unscaled"] = {"setup_s": float(np.median(setup_samples[:, 0])),
                              **timing_metrics(raw)}
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["pass_ratio"] = (tally.attempted - tally.failed) / tally.attempted
        op_ms = np.median(latencies, axis=0) * 1e3
        p90 = values["op_ms_p90"]
        # the percentiles' samples: each op's latency in every cycle
        record["samples"] = {"setup_s": len(setup_samples), "percentiles": latencies.size,
                             "above_p90": int(np.count_nonzero(op_ms > p90)) * len(cycles)}
        declared = spec["end_to_end"]
    else:
        declared = spec["per_layer"]
        summary = tracer.summary()
        names = [m["name"] for m in declared]
        values = tracing.per_layer(summary, names)
        traced_latencies = scale(traced)
        values["trace.overhead_ratio"] = (float(np.mean(traced_latencies))
                                          / float(np.mean(latencies)) - 1.0)
        record["traced_ops"] = int(traced_latencies.size)
        record["spans"] = len(tracer.layers)
        record["dominant_layers"] = tracing.dominant_layers(summary)
        # declared names no span or counter produced in this run
        seen = {k for totals in summary["totals"].values() for k in totals}
        record["unmeasured"] = [n for n in names
                                if n not in seen and n != "trace.overhead_ratio"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    return {"record": record, "result": {"correct": tally.failed == 0,
                                         "attempted": tally.attempted,
                                         "failed": tally.failed,
                                         "metrics": metrics}}


def report(out: dict) -> None:
    record = out["record"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(out["result"]))


def smoke() -> int:
    """Every workload for one cycle in both modes: every output passes its
    checks, and each declared metric is measured on some workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    unmeasured = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace in (0, 1):
            try:
                out = run(w["name"], seed=1, seconds=0, trace=trace, setups=1,
                          setup_seconds=0, min_cycles=1)
            except KeyError as exc:            # an end-to-end name run() lacks
                errors.append(f"{w['name']} trace {trace}: no value for metric {exc}")
                continue
            result = out["result"]
            print(f"smoke {w['name']} trace {trace}: {result['attempted']} ops "
                  f"{'ok' if result['correct'] else 'FAILED'}")
            if not result["correct"]:
                errors.append(f"{w['name']} trace {trace}: {out['record']['failures']}")
            if trace:
                unmeasured &= set(out["record"]["unmeasured"])
    if unmeasured:
        errors.append(f"per-layer metrics no workload measures: {sorted(unmeasured)}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the metric names")
    args = parser.parse_args()
    import_package()
    if args.smoke:
        return smoke()
    import workloads
    if args.workload not in workloads.WORKLOADS or args.seed is None or args.seconds is None:
        parser.error(f"--workload (one of {', '.join(workloads.WORKLOADS)}), --seed "
                     "and --seconds are required")
    report(run(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
