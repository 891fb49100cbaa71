"""Span tracing of qsdsim's public callables, wrapped from outside.

Each target is a module attribute or a class method of the program.  A
wrapper records one span per call: name, start, end, parent span and a
work count (batch rows, matrices, noise steps).  Spans stay in memory
and are written out at the end of a run; self time is a span's
duration minus the time of its direct children.

Functions are patched wherever a qsdsim module holds them, because
modules import each other's functions by name.  A target the program
no longer has is reported absent, and one it no longer calls shows
zero calls; neither fails the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def _rows(x, core_dims: int) -> int:
    """Batch size of an array: the product of its leading dimensions."""
    return math.prod(np.shape(x)[:-core_dims])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


# (module, attribute, span name, work count from (args, kwargs))
TARGETS = (
    ("model", "build_operators", "model.build_operators", None),
    ("model", "coherent_state", "model.coherent_state", None),
    ("qsd", "StepKernel.step", "qsd.step",
     lambda a, k: _rows(_arg(a, k, 1, "psis"), 1)),
    ("qsd", "draw_noise_block", "qsd.draw_noise_block",
     lambda a, k: int(_arg(a, k, 2, "n_steps"))),
    ("qsd", "run_trajectory", "qsd.run_trajectory", None),
    ("ensemble", "run_ensemble", "ensemble.run_ensemble", None),
    ("observables", "bundle_arrays", "observables.bundle_arrays",
     lambda a, k: _rows(_arg(a, k, 0, "states"), 1)),
    ("observables", "bundle", "observables.bundle", None),
    ("oracle", "rk4_step", "oracle.rk4_step",
     lambda a, k: _rows(_arg(a, k, 0, "mat"), 2)),
    ("oracle", "lindblad_step", "oracle.lindblad_step", None),
    ("oracle", "propagate", "oracle.propagate", None),
    ("oracle", "propagate_matrices", "oracle.propagate_matrices", None),
    ("histories", "cell_projector", "histories.cell_projector", None),
    ("histories", "decoherence_functional",
     "histories.decoherence_functional", None),
    ("histories", "cat_interval_scan", "histories.cat_interval_scan", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "work", "child_s")

    def __init__(self, name, start, parent, work):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.work = work
        self.child_s = 0.0


PACKAGE = "qsdsim"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._wrappers: dict = {}
        self._resolve()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # count the work first, so that it stays out of the span
            count = work(args, kwargs) if work else 1
            span = Span(name, perf_counter(), stack[-1] if stack else None,
                        count)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
        return wrapper

    def _resolve(self):
        """Find each target once; wrappers are built here, patched later."""
        for mod_name, attr, name, work in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                fn = vars(owner).get(meth) if isinstance(owner, type) else None
            else:
                fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._wrappers[name] = (owner if cls_name else None, meth, fn,
                                    self._wrap(name, fn, work))

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for cls, meth, fn, wrapper in self._wrappers.values():
            if cls is not None:
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, fn = self._patches.pop()
            setattr(owner, key, fn)

    def take(self) -> list[Span]:
        """Spans recorded so far, with child time settled; resets."""
        spans, self.spans = self.spans, []
        for s in spans:
            if s.parent is not None:
                s.parent.child_s += s.end - s.start
        return spans


# Per-layer metric -> (span, quantity, unit).  Counts and seconds are
# per pass; "us_per_work" divides by the span's own work count and
# "self_us_per_nominal" by the trajectory-steps the pass asks for.
LAYER_METRICS = {
    "model.coherent_state.calls": ("model.coherent_state", "calls", "count"),
    "model.coherent_state.us_per_call":
        ("model.coherent_state", "us_per_call", "us"),
    "qsd.step.calls": ("qsd.step", "calls", "count"),
    "qsd.step.traj_steps": ("qsd.step", "work", "count"),
    "qsd.step.us_per_traj_step": ("qsd.step", "us_per_work", "us"),
    "qsd.draw_noise_block.us_per_traj_step":
        ("qsd.draw_noise_block", "us_per_work", "us"),
    "qsd.run_trajectory.self_us_per_step":
        ("qsd.run_trajectory", "self_us_per_nominal", "us"),
    "ensemble.run_ensemble.self_s": ("ensemble.run_ensemble", "self_s", "s"),
    "ensemble.run_ensemble.self_us_per_traj_step":
        ("ensemble.run_ensemble", "self_us_per_nominal", "us"),
    "observables.bundle_arrays.calls":
        ("observables.bundle_arrays", "calls", "count"),
    "observables.bundle_arrays.us_per_state":
        ("observables.bundle_arrays", "us_per_work", "us"),
    "observables.bundle.calls": ("observables.bundle", "calls", "count"),
    "observables.bundle.us_per_call":
        ("observables.bundle", "us_per_call", "us"),
    "oracle.rk4_step.calls": ("oracle.rk4_step", "calls", "count"),
    "oracle.rk4_step.matrix_steps": ("oracle.rk4_step", "work", "count"),
    "oracle.rk4_step.us_per_matrix_step":
        ("oracle.rk4_step", "us_per_work", "us"),
    "oracle.lindblad_step.self_us_per_call":
        ("oracle.lindblad_step", "self_us_per_call", "us"),
    "oracle.propagate.s": ("oracle.propagate", "s", "s"),
    "oracle.propagate_matrices.s": ("oracle.propagate_matrices", "s", "s"),
    "histories.cell_projector.calls":
        ("histories.cell_projector", "calls", "count"),
    "histories.cell_projector.ms_per_call":
        ("histories.cell_projector", "ms_per_call", "ms"),
    "histories.decoherence_functional.self_s":
        ("histories.decoherence_functional", "self_s", "s"),
    "histories.cat_interval_scan.self_s":
        ("histories.cat_interval_scan", "self_s", "s"),
}


def layer_metrics(agg: dict, passes: int, nominal_per_pass: int) -> dict:
    """LAYER_METRICS evaluated on aggregated spans; name -> (value, unit)."""
    out = {}
    for metric, (span, quantity, unit) in LAYER_METRICS.items():
        a = agg.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                           "work": 0})
        num, den, scale = {
            "calls": (a["calls"], passes, 1.0),
            "work": (a["work"], passes, 1.0),
            "s": (a["total_s"], passes, 1.0),
            "self_s": (a["self_s"], passes, 1.0),
            "us_per_call": (a["total_s"], a["calls"], 1e6),
            "ms_per_call": (a["total_s"], a["calls"], 1e3),
            "us_per_work": (a["total_s"], a["work"], 1e6),
            "self_us_per_call": (a["self_s"], a["calls"], 1e6),
            "self_us_per_nominal": (a["self_s"], nominal_per_pass * passes,
                                    1e6),
        }[quantity]
        out[metric] = (num / den * scale if den else 0.0, unit)
    return out


def aggregate(spans) -> dict:
    """name -> {calls, total_s, self_s, work}."""
    agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "work": 0})
    for s in spans:
        a = agg[s.name]
        dur = s.end - s.start
        a["calls"] += 1
        a["total_s"] += dur
        a["self_s"] += dur - s.child_s
        a["work"] += s.work
    return agg


def write_spans(path, segments: dict) -> None:
    """Gzipped JSON: per segment, rows [name, start, end, parent, work]."""
    doc = {}
    for label, spans in segments.items():
        index = {id(s): i for i, s in enumerate(spans)}
        doc[label] = [[s.name, s.start, s.end,
                       index.get(id(s.parent), -1) if s.parent else -1,
                       s.work] for s in spans]
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)
