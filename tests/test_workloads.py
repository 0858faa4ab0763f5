"""The benchmark's four workloads start and pass their first operation.

``perfbench/workloads.py`` is loaded from its file, as the benchmark runner
loads it, so a rename or deletion in the package that breaks a workload's
set-up, cycle or first call fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
