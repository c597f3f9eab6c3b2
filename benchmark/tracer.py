"""Layer tracing from outside the program.

``install`` wraps every public function of the measured ``fslab`` layers, and
every public method of the classes they define, at its boundary.  Modules
bind names at import (``from .forms import witt_complete``), so each
function wrapper replaces the name in every ``fslab`` module that bound the
original object; methods are wrapped on their class, which every importer
shares.

While the tracer is enabled each call records a span (name, start, end,
parent) in memory, and the tracer keeps running totals:

* per layer: calls, self time and failed calls.  Self time is a layer's
  spans minus the spans of other wrapped layers nested inside them, so the
  layer totals add up to the traced time.  A call fails when it ends by an
  exception; only calls entering a layer from outside it are counted as
  failed, so one exception is not counted once per frame it crosses.
* per function: calls and self time, in the same sense (time in nested spans
  of the same layer stays in).
* work counters at chosen boundaries (``_counter_hooks``).

Spans are written to a JSON-lines file by ``Tracer.write_spans`` when the run
ends.  Spans past ``SPAN_CAP`` are counted in the totals but not stored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

#: The program layers the workloads exercise, in import order.
LAYERS = ("_seeding", "forms", "crossratios", "reduction", "dilog", "flags", "norms")

#: Spans stored per run; later spans are still counted in the totals.
SPAN_CAP = 200_000

_clock = time.perf_counter_ns


class _Frame:
    __slots__ = ("layer", "start", "other", "span")

    def __init__(self, layer, span):
        self.layer = layer
        self.start = 0
        self.other = 0  # ns spent in nested spans of other layers
        self.span = span


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, parent span index or -1, start ns, end ns]
        self.spans_seen = 0
        self.stack: list[_Frame] = []
        self.layers = {layer: {"calls": 0, "self_ns": 0, "failed": 0} for layer in LAYERS}
        self.functions: dict[str, dict] = {}
        self.counters = {"dilog.points": 0, "flags.t_j.useful": 0, "flags.b4_rows": 0,
                         "norms.cocycle_rows": 0, "_seeding.draws": 0}

    # ------------------------------------------------------------------
    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        """A traced stand-in for ``fn``.  ``before(args, kwargs)`` may return
        replacement ``(args, kwargs)``; ``after(args, result)`` updates
        counters once the span has ended."""
        tracer = self
        stats = self.functions.setdefault(name, {"calls": 0, "self_ns": 0})
        name_index = len(self.names)
        self.names.append(name)
        layer_stats = self.layers[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = -1
            if tracer.spans_seen < SPAN_CAP:
                span = len(tracer.spans)
                tracer.spans.append([name_index, parent.span if parent else -1, 0, 0])
            tracer.spans_seen += 1
            frame = _Frame(layer, span)
            stack.append(frame)
            ok = False
            frame.start = _clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame.start
                if span >= 0:
                    tracer.spans[span][2] = frame.start
                    tracer.spans[span][3] = end
                stats["calls"] += 1
                stats["self_ns"] += duration - frame.other
                layer_stats["calls"] += 1
                entry = parent is None or parent.layer != layer
                if entry:
                    layer_stats["self_ns"] += duration - frame.other
                    if not ok:
                        layer_stats["failed"] += 1
                if parent is not None:
                    parent.other += duration if entry else frame.other
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": self.names[name],
                                     "start_ns": start, "end_ns": end}) + "\n")


# ----------------------------------------------------------------------
# Counters at chosen boundaries
# ----------------------------------------------------------------------

def _counter_hooks(tracer: Tracer, nonzero_images) -> dict:
    """``{qualified name: (before, after)}`` for the counted boundaries.
    ``nonzero_images`` is the unwrapped method, so that counting records no
    span."""
    counters = tracer.counters

    def count_points(args, result):
        counters["dilog.points"] += int(np.size(args[0]))

    def count_useful(args, result):
        if result.m == 2 and nonzero_images(result):
            counters["flags.t_j.useful"] += 1

    def count_b4_rows(args, result):
        counters["flags.b4_rows"] += int(np.size(result))

    def count_draws(args, result):
        counters["_seeding.draws"] += int(np.size(result))

    def count_cocycle_rows(args, kwargs):
        cocycle = args[0]

        def counted(params):
            counters["norms.cocycle_rows"] += len(params)
            return cocycle(params)

        return (counted,) + tuple(args[1:]), kwargs

    return {
        "dilog.bloch_wigner": (None, count_points),
        "flags.t_j": (None, count_useful),
        "flags.b4_so4_batch": (None, count_b4_rows),
        "_seeding.uniform_batch": (None, count_draws),
        "norms.estimate_sup": (count_cocycle_rows, None),
    }


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


def _public_methods(mod):
    for cls_name, cls in vars(mod).items():
        if cls_name.startswith("_") or not isinstance(cls, type) or cls.__module__ != mod.__name__:
            continue
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                yield cls, f"{cls_name}.{attr}", attr, raw


def install(tracer: Tracer) -> None:
    """Wrap the public boundary of every measured layer.  Call once per
    process; the wrappers record nothing until ``tracer.enabled`` is set."""
    modules = {layer: importlib.import_module(f"fslab.{layer}") for layer in LAYERS}
    package = [m for n, m in sys.modules.items() if n == "fslab" or n.startswith("fslab.")]
    hooks = _counter_hooks(tracer, modules["flags"].Sigma3Class.nonzero_images)

    for layer, mod in modules.items():
        for attr, fn in list(_public_functions(mod)):
            name = f"{layer}.{attr}"
            before, after = hooks.get(name, (None, None))
            traced = tracer.wrap(layer, name, fn, before, after)
            for m in package:
                for bound, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, bound, traced)
        for cls, name, attr, raw in list(_public_methods(mod)):
            qual = f"{layer}.{name}"
            before, after = hooks.get(qual, (None, None))
            if isinstance(raw, (classmethod, staticmethod)):
                traced = tracer.wrap(layer, qual, raw.__func__, before, after)
                setattr(cls, attr, type(raw)(traced))
            else:
                setattr(cls, attr, tracer.wrap(layer, qual, raw, before, after))
