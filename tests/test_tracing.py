"""The benchmark's span tracer wraps ftsinv functions and methods by name.

Installing it resolves every name it lists, so a rename or deletion in the
package fails here; removing it must leave every binding as it was.
"""

import importlib.util
from pathlib import Path

from ftsinv import hwmodel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_name_and_restores_it():
    tracing = _load_tracing()
    modules = {mod: {attr: v for attr, v in vars(mod).items() if callable(v)}
               for mod in tracing.PACKAGE_MODULES}
    methods = {(cls, name): cls.__dict__[name] for cls, name, *_ in tracing.METHODS}
    tracer = tracing.Tracer()
    with tracer.installed():
        for module, name, *_ in tracing.FUNCTIONS:
            assert hasattr(getattr(module, name), "__wrapped__"), name
        for (cls, name), original in methods.items():
            assert cls.__dict__[name] is not original, name
        hwmodel.pinv_cost(1)
    assert "hwmodel.cost" in tracer.layers
    for mod, names in modules.items():
        assert all(vars(mod)[attr] is value for attr, value in names.items()), mod
    for (cls, name), original in methods.items():
        assert cls.__dict__[name] is original, name
