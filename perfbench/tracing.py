"""Span tracing installed around ftsinv from outside the package.

While a :class:`Tracer` is installed, every public function and method listed
in ``FUNCTIONS`` and ``METHODS`` is replaced, in every ftsinv module that
binds it, by a wrapper that records a span: layer name, start, end and parent
span.  The benchmark opens a root span around each set-up and each operation,
so every layer span belongs to one of the two phases.  Spans stay in memory
until :meth:`Tracer.summary` folds them into per-layer numbers.

Per-layer numbers, for a layer ``L``:

``L.s``       busy time: the duration of ``L``'s spans that no other ``L``
              span encloses.
``L.self_s``  self time: the duration of every ``L`` span minus the part its
              child spans cover.
``L.calls``   the number of spans counted in ``L.s``.

Counters (``.elements``, ``.mults``, ...) are read at the same boundaries from
the arguments and results, for the spans counted in ``L.s``.  Each number is
reported as its total over the traced set-ups divided by their count plus its
total over the traced operations divided by their count: what the layer costs
one set-up plus one operation.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

import ftsinv
from ftsinv import (
    bench,
    cli,
    fft_inversion,
    fileio,
    fxp,
    hwmodel,
    matrix_inversion,
    optics,
)

PACKAGE_MODULES = (ftsinv, bench, cli, fft_inversion, fileio, fxp, hwmodel,
                   matrix_inversion, optics)
ROOTS = ("setup", "op")


def _object_size(a) -> int:
    return int(a.size) if getattr(a, "dtype", None) == object else 0


def _fxp_counts(layer):
    def count(args, result, duration, parent_layer):
        arr = args[0]
        out = result[0] if isinstance(result, tuple) else result
        obj = _object_size(arr) or _object_size(out)
        counts = {f"{layer}.elements": int(getattr(arr, "size", 1))}
        # an fxp call made by another fxp call is already inside its time
        if obj and not parent_layer.startswith("fxp."):
            counts["fxp.object_elements"] = obj
            counts["fxp.object_s"] = duration
        return counts
    return count


def _mults(layer):
    return lambda args, result, *_: {f"{layer}.mults": result.telemetry.mults}


def _fft_telemetry(args, result, *_):
    tel = result[1]
    return {"fft_inversion.butterflies": tel.butterflies,
            "fft_inversion.mults": tel.mults,
            "fft_inversion.overflow_events": tel.overflow_events}


def _latency_cycles(args, result, *_):
    return {"hwmodel.latency_cycles": result.latency_cycles}


def _file_bytes(args, result, *_):
    return {"fileio.bytes": os.path.getsize(args[0])}


def _address_elements(layer):
    return lambda args, *_: {f"{layer}.elements": int(args[2].size)}


MI = "matrix_inversion"
FI = "fft_inversion"

# (module, function, layer, counter)
FUNCTIONS = (
    (optics, "build_transfer_matrix", "optics.forward", None),
    (optics, "simulate_interferogram", "optics.forward", None),
    (matrix_inversion, "svd_factorize", f"{MI}.svd_factorize", None),
    (matrix_inversion, "pinv_matrix", f"{MI}.pinv_matrix", None),
    (matrix_inversion, "reconstruct_pinv", f"{MI}.reconstruct_pinv",
     _mults(f"{MI}.reconstruct_pinv")),
    (matrix_inversion, "reconstruct_svd", f"{MI}.reconstruct_svd",
     _mults(f"{MI}.reconstruct_svd")),
    (fxp, "quantize_array", "fxp.quantize_array", _fxp_counts("fxp.quantize_array")),
    (fxp, "shift_right_array", "fxp.shift_right_array",
     _fxp_counts("fxp.shift_right_array")),
    (fxp, "saturate_array", "fxp.saturate_array", _fxp_counts("fxp.saturate_array")),
    (fft_inversion, "quantize_complex_block", f"{FI}.quantize_complex_block", None),
    (fft_inversion, "reconstruct_fft", f"{FI}.reconstruct_fft", _fft_telemetry),
    (hwmodel, "method_cost", "hwmodel.cost", _latency_cycles),
    (hwmodel, "pinv_cost", "hwmodel.cost", _latency_cycles),
    (hwmodel, "svd_cost", "hwmodel.cost", _latency_cycles),
    (hwmodel, "fft_cost", "hwmodel.cost", _latency_cycles),
    (bench, "best_inversion", "bench.best_inversion", None),
    (bench, "snr_db", "bench.snr_db", None),
    (fileio, "read_matrix", "fileio.read_matrix", _file_bytes),
    (fileio, "read_series_csv", "fileio.read_series_csv", _file_bytes),
    (fileio, "write_series_csv", "fileio.write_series_csv", _file_bytes),
    (cli, "main", "cli.main", None),
)

# (class, method, layer, counter)
METHODS = (
    (fft_inversion.BankedMemory, "gather", f"{FI}.BankedMemory.gather",
     _address_elements(f"{FI}.BankedMemory.gather")),
    (fft_inversion.BankedMemory, "scatter", f"{FI}.BankedMemory.scatter",
     _address_elements(f"{FI}.BankedMemory.scatter")),
    (fft_inversion.FftPlan, "make", f"{FI}.FftPlan.make", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self):
        self.layers: list[str] = []        # span -> layer name
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []       # -1 for a root span
        self.counts: dict[int, dict] = {}  # span -> counters read at its exit
        self._stack: list[int] = []

    def call(self, layer: str, fn, *args, counter=None, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.layers)
        self.layers.append(layer)
        self.parents.append(parent)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.starts[idx] = start
            self.ends[idx] = end
        parent_layer = self.layers[parent] if parent >= 0 else ""
        if counter is not None and parent_layer != layer:
            self.counts[idx] = counter(args, result, end - start, parent_layer)
        return result

    def _wrap(self, fn, layer, counter):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, counter=counter, **kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace the listed functions and methods by span wrappers."""
        undo = []
        try:
            for module, name, layer, counter in FUNCTIONS:
                original = getattr(module, name)
                wrapper = self._wrap(original, layer, counter)
                for mod in PACKAGE_MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
            for cls, name, layer, counter in METHODS:
                original = cls.__dict__[name]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, layer, counter))
                else:
                    wrapper = self._wrap(original, layer, counter)
                setattr(cls, name, wrapper)
                undo.append((cls, name, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-layer busy time, self time, calls and counters by phase.

        Returns ``{"totals": {phase: {metric: total}}, "roots": {phase:
        number of root spans}}`` for the phases in ``ROOTS``.
        """
        n = len(self.layers)
        covered = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parents[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        totals = {phase: {} for phase in ROOTS}
        roots = {phase: 0 for phase in ROOTS}
        for i in range(n):
            layer = self.layers[i]
            phase = self.layers[root[i]]
            out = totals[phase]
            duration = self.ends[i] - self.starts[i]
            if i == root[i]:
                roots[phase] += 1
                for key, value in ((f"trace.{phase}_s", duration),
                                   (f"trace.{phase}_uncovered_s", duration - covered[i])):
                    out[key] = out.get(key, 0.0) + value
                continue
            key = f"{layer}.self_s"
            out[key] = out.get(key, 0.0) + duration - covered[i]
            p = self.parents[i]
            if self.layers[p] != layer:
                out[f"{layer}.s"] = out.get(f"{layer}.s", 0.0) + duration
                out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
                for name, value in self.counts.get(i, {}).items():
                    out[name] = out.get(name, 0) + value
        return {"totals": totals, "roots": roots}


def per_layer(summary: dict, names) -> dict:
    """Each named metric for one set-up plus one operation (absent = 0)."""
    totals, roots = summary["totals"], summary["roots"]
    values = {}
    for name in names:
        v = 0.0
        for phase in ROOTS:
            if roots[phase]:
                v += totals[phase].get(name, 0) / roots[phase]
        values[name] = v
    return values


def dominant_layers(summary: dict, top: int = 5) -> list:
    """Layers ranked by self time per operation, with their share of it."""
    ops = summary["totals"]["op"]
    n = summary["roots"]["op"] or 1
    total = ops.get("trace.op_s", 0.0) or 1.0
    ranked = sorted(((k[: -len(".self_s")], v) for k, v in ops.items()
                     if k.endswith(".self_s")), key=lambda kv: -kv[1])
    return [{"layer": k, "self_s_per_op": v / n, "share": v / total}
            for k, v in ranked[:top]]
