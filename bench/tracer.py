"""In-memory span tracer that wraps rfpls functions from outside the package.

The tracer never edits program code.  For each wrapped function it
rebinds every module-level reference in ``rfpls.*`` that *is* that
function (including values of module-level dicts such as the fitter
registries), so calls made through any of those names become spans.
Everything is restored on exit.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    """One timed call: name, interval, parent span index (-1 at the root), op id."""

    name: str
    start: float
    end: float
    parent: int
    op: int
    info: dict = field(default_factory=dict)


def _iterations(result) -> dict:
    return {"iterations": result.iterations, "converged": result.converged}


def _cv_report(result) -> dict:
    return {"cells": len(result.grid) * result.folds, "skipped": len(result.skipped)}


def _curve_cells(result) -> dict:
    return {"cells": int(result.values.size)}


# (module, function, extractor of per-call counts from the return value).
# Only functions called a bounded number of times per fit are wrapped;
# scalar helpers such as ``tukey_kappa`` or ``mad_scale`` would add more
# tracing cost than they have work.
TRACED = [
    ("simulation", "run_experiment", None),
    ("simulation", "_run_replication", None),
    ("simulation", "generate_clean", None),
    ("simulation", "contaminate", None),
    ("evaluation", "select_num_components", _cv_report),
    ("regression", "fit_rfpls", None),
    ("regression", "fit_fpls", None),
    ("regression", "fit_fpc", None),
    ("regression", "predict", None),
    ("regression", "predict_from_design", None),
    ("regression", "coefficient_functions", None),
    ("robust_pls", "prm_fit", _iterations),
    ("robust_pls", "initial_weights", None),
    ("robust", "l1_median", None),
    ("robust", "select_tuning", None),
    ("robust", "m_estimate", _iterations),
    ("robust", "efficiency_factor", None),
    ("simpls", "weighted_simpls_fit", None),
    ("simpls", "simpls_fit", None),
    ("basis", "build_design", None),
    ("basis", "smooth_curves", None),
    ("basis", "gram_matrix", None),
    ("basis", "build_bspline_system", None),
    ("fileio", "read_curves", _curve_cells),
    ("fileio", "read_response", None),
    ("fileio", "save_model", None),
    ("fileio", "load_model", None),
    ("fileio", "write_predictions", None),
]

# Span names differ from ``module.function`` only where a private
# function marks a layer boundary.
SPAN_NAMES = {("simulation", "_run_replication"): "simulation.replication"}


def references(target) -> Iterator[tuple[dict, str]]:
    """Every ``(namespace, key)`` in the loaded ``rfpls`` modules holding ``target``.

    Looks at module globals and one level into module-level dicts.
    """
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "rfpls" or modname.startswith("rfpls.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            if value is target:
                yield namespace, key
            elif isinstance(value, dict):
                for inner_key, inner in list(value.items()):
                    if inner is target:
                        yield value, inner_key


class Tracer:
    """Collects spans for wrapped calls and for the benchmark's own blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, extract=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.info["raised"] = True
                raise
            finally:
                self._close(span)
            if extract is not None:
                span.info.update(extract(result))
            return result
        return traced

    def install(self) -> None:
        """Rebind every reference to each traced function to a span-recording wrapper."""
        for module_name, func_name, extract in TRACED:
            module = sys.modules[f"rfpls.{module_name}"]
            target = getattr(module, func_name)
            name = SPAN_NAMES.get((module_name, func_name), f"{module_name}.{func_name}")
            wrapper = self.wrap(target, name, extract)
            for namespace, key in list(references(target)):
                self._patches.append((namespace, key, target))
                namespace[key] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                           for c in children[i])
        covered = 0.0
        lo = hi = None
        for start, end in intervals:
            if end <= start:
                continue
            if hi is None or start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        if hi is not None:
            covered += hi - lo
        out.append((span.end - span.start) - covered)
    return out


def summarize(values: list[float]) -> dict:
    """Median with its sample count.

    Runs are too short for a tail percentile with ten samples beyond it.
    """
    if not values:
        raise ValueError("no samples")
    return {"p50": statistics.median(values), "n": len(values)}
