"""The benchmark's four workloads start, pass their first operation and
give the outputs they gave before.

``perfbench/workloads.py`` is loaded from its file, as the benchmark runner
loads it, so a rename or deletion in the package that breaks a workload's
set-up, cycle or first call fails here.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
TRACING = WORKLOADS.with_name("tracing.py")

# each workload's output digest over one cycle at benchmark seed 1, as the
# benchmark records it (BENCH_22.json)
SEED_1_DIGESTS = {
    "airy-sweep": "163cf35049274c1d5f37fa12e8903f9cf525c169c4306baeacd05f8631b99249",
    "fft-65536": "066154e6b843b54f5dfd68118095fe58921624c242f9be2aaf1338c410a8240c",
    "wide-k": "43484bc11b4bff9635fc6498bd0747202c9629e9057b4aed98fa46ff798e4d81",
    "cli-invert": "3afc996f0337442f6c37e51cfaeb94d1d9791793f66aec4a15dc17f2c2ad3617",
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["airy-sweep", "fft-65536", "wide-k", "cli-invert"])
def test_workload_first_op_passes(name):
    workload = _load_workloads().WORKLOADS[name](1)
    try:
        workload.setup()
        op = workload.cycle()[0]
        checked = op.check(op.call())
        assert checked.failures == [], f"{name} {op.key}: {checked.failures}"
    finally:
        workload.close()


@pytest.mark.parametrize("name", list(SEED_1_DIGESTS))
def test_seed_1_cycle_digest_is_pinned(name):
    """No output bit moved: after the runner's untimed warm-up op, one cycle
    hashes as ``perfbench/run.py``'s ``Tally`` hashes it, to the recorded
    digest."""
    workload = _load_workloads().WORKLOADS[name](1)
    digest = hashlib.sha256()
    try:
        workload.setup()
        ops = workload.cycle()
        ops[0].check(ops[0].call())
        for op in ops:
            digest.update(op.key.encode() + op.check(op.call()).digest)
    finally:
        workload.close()
    assert digest.hexdigest() == SEED_1_DIGESTS[name]


def _traced_cycle(name: str):
    """One seed-1 cycle of the workload ``name`` under the benchmark's span
    tracer, as ``--trace 1`` runs it, after the untimed warm-up op; returns
    the cycle's digest, its op count and the tracer's summary."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    workload = _load_workloads().WORKLOADS[name](1)
    tracer = tracing.Tracer()
    digest = hashlib.sha256()
    try:
        workload.setup()
        ops = workload.cycle()
        ops[0].check(ops[0].call())
        with tracer.installed():
            for op in ops:
                result = tracer.call("op", op.call)
                digest.update(op.key.encode() + op.check(result).digest)
    finally:
        workload.close()
    return digest.hexdigest(), len(ops), tracer.summary()


def test_traced_airy_sweep_cycle_reaches_every_run():
    """Under the span tracer a seed-1 ``airy-sweep`` cycle hashes to the
    same pinned digest, and each of its 10 widths runs all 16 ranks and 40
    ridge weights through the wrapped ``reconstruct_svd``: no route fails
    under tracing or runs around a wrapped layer."""
    digest, n_ops, summary = _traced_cycle("airy-sweep")
    assert digest == SEED_1_DIGESTS["airy-sweep"]
    assert summary["roots"]["op"] == n_ops == 40
    assert summary["totals"]["op"]["matrix_inversion.reconstruct_svd.calls"] == 10 * (16 + 40)


def test_traced_cli_invert_cycle_calls_each_layer_once_per_run():
    """Under the span tracer a seed-1 ``cli-invert`` cycle hashes to the
    same pinned digest, and each of its six ``ftsinv invert`` runs (three
    routes at two widths) enters the wrapped ``cli.main``, writes one
    spectrum and runs its route's product once: the CLI reaches every
    wrapped layer it reached before."""
    digest, n_ops, summary = _traced_cycle("cli-invert")
    assert digest == SEED_1_DIGESTS["cli-invert"]
    assert summary["roots"]["op"] == n_ops == 6
    calls = {layer: summary["totals"]["op"].get(f"{layer}.calls", 0)
             for layer in ("cli.main", "fileio.write_series_csv",
                           "matrix_inversion.reconstruct_pinv",
                           "matrix_inversion.reconstruct_svd")}
    assert calls == {"cli.main": 6, "fileio.write_series_csv": 6,
                     "matrix_inversion.reconstruct_pinv": 2,
                     "matrix_inversion.reconstruct_svd": 4}
