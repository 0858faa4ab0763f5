"""The benchmark's span tracer wraps ftsinv functions and methods by name.

Installing it resolves every name it lists, so a rename or deletion in the
package fails here; removing it must leave every binding as it was.
"""

import importlib.util
from pathlib import Path

import numpy as np

from ftsinv import bench, fft_inversion, hwmodel, optics

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


def test_traced_routes_reach_the_wrapped_layers(small_cosine_setup):
    """The routes call the names the benchmark wraps: a change that routed
    around one would leave its metrics unmeasured in a traced run."""
    tracing = _load_tracing()
    grid = optics.OpdGrid.transform_matched(optics.SpectralGrid(16, 1.0), 16)
    y = optics.Interferogram(np.cos(np.arange(16.0)), grid)
    tracer = tracing.Tracer()
    with tracer.installed():
        fft_inversion.reconstruct_fft(y, fft_inversion.FftPlan.make(16, bits=16))
        for method in ("pinv", "tik"):
            bench.best_inversion(small_cosine_setup, method, 12)
    for layer in ("fft_inversion.BankedMemory.gather", "fft_inversion.BankedMemory.scatter",
                  "matrix_inversion.reconstruct_pinv", "matrix_inversion.reconstruct_svd"):
        assert layer in tracer.layers, layer
    # a tracer of its own: the direct call above records this layer already
    tracer = tracing.Tracer()
    with tracer.installed():
        bench.best_inversion(small_cosine_setup, "fft", 12)
    assert "fft_inversion.reconstruct_fft" in tracer.layers
