"""Per-layer tracing from outside the package.

``traced(tracer)`` wraps public functions of the fig8lab modules and rebinds
every name that refers to them in every loaded fig8lab module (so
``from .numkernel import lc_sum`` in jones.py sees the wrapper too), then
restores the originals.  A wrapper records a span (name, start, end, parent)
in memory and adds its counters; self time is a span's duration minus the
durations of its direct children.

``lc_one_minus_exp`` and ``e_n`` only count calls: the first runs once per
product factor, hundreds of thousands of times a pass, and a span each
would dominate the traced time.  Their time lands in the caller's self time.

A wrapped function that the package no longer has is listed in
``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.absent = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_by_name(self) -> Counter:
        totals = Counter()
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] += own
        return totals


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _grid_cells(fn, args, kwargs, result):
    res = _bound(fn, args, kwargs)["resolution"]
    return {"cells": res * res if isinstance(res, int) else int(np.prod(res))}


def _file_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _first_size(key):
    return lambda fn, args, kwargs, result: {key: int(np.size(args[0]))}


def _terms(fn, args, kwargs, result):
    return {"terms": int(_bound(fn, args, kwargs)["n"])}


# name -> (records a span?, counters computed after the call)
WRAPPED = {
    "numkernel.lc_sum": (True, None),
    "numkernel.lc_one_minus_exp": (False, None),
    "numkernel.li2": (True, _first_size("points")),
    "qdilog.t_n": (True, None),
    "qdilog.e_n": (False, None),
    "qdilog.l_k_quadrature": (True, None),
    "jones.jones_exp": (True, _terms),
    "jones.jones_exp_unity": (True, _terms),
    "jones.f_n": (True, None),
    "jones.decomposition_residual": (True, None),
    "saddle.saddle_data": (True, None),
    "saddle.asymptotic_rhs": (True, None),
    "saddle.f_values": (True, _first_size("points")),
    "region.grid_scan": (True, _grid_cells),
    "region.label_components": (True, _first_size("cells")),
    "region.write_grid_csv": (True, _file_bytes),
    "modularity.estimate_c": (True, None),
    "cli.main": (True, None),
}


def _wrap(tracer: Tracer, name: str, fn, spanned: bool, measure):
    calls = name + ".calls"

    if name == "numkernel.lc_sum":
        # lc_sum consumes any iterable; materialise it so its length can be counted
        @functools.wraps(fn)
        def wrapper(terms):
            terms = list(terms)
            tracer.counts[calls] += 1
            tracer.counts[name + ".terms"] += len(terms)
            with tracer.span(name):
                return fn(terms)
        return wrapper

    if name == "cli.main":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the benchmark captures stdout in a StringIO; count what this call added
            tracer.counts[calls] += 1
            mark = len(sys.stdout.getvalue())
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer.counts["cli.out.bytes"] += len(sys.stdout.getvalue()) - mark
            return result
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[calls] += 1
        if not spanned:
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if measure is not None:
            for key, value in measure(fn, args, kwargs, result).items():
                tracer.counts[f"{name}.{key}"] += value
        return result
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    rebound = []
    try:
        for name, (spanned, measure) in WRAPPED.items():
            module_name, attr = name.split(".")
            try:
                home = importlib.import_module("fig8lab." + module_name)
            except ModuleNotFoundError:
                tracer.absent.append(name)
                continue
            original = getattr(home, attr, None)
            if original is None:
                tracer.absent.append(name)
                continue
            wrapper = _wrap(tracer, name, original, spanned, measure)
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "fig8lab" or mod_name.startswith("fig8lab."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            rebound.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(rebound):
            setattr(module, key, original)
