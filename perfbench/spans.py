"""Spans recorded from outside the program, at calls into each layer.

A ``Tracer`` replaces named entry points of the ``logigof`` modules with
wrappers that record a span per call (name, start, end, parent span, run id)
or just count calls.  Spans stay in memory until the run ends.  Self time of
a span is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

# (span name, module, attribute) for every entry point that gets a span.
SPAN_POINTS = (
    ("cli.main", "logigof.cli", "main"),
    ("montecarlo.calibrate", "logigof.montecarlo", "calibrate"),
    ("montecarlo.power_study", "logigof.montecarlo", "power_study"),
    ("montecarlo.simulate_statistics", "logigof.montecarlo", "simulate_statistics"),
    ("logistic_core.sample", "logigof.montecarlo", "AlternativeSpec.sample"),
    ("estimation.fit_mle", "logigof.estimation", "fit_mle"),
    ("estimation.moment_residuals_batch", "logigof._kernels", "moment_residuals_batch"),
    ("_kernels.compute_batch", "logigof._kernels", "compute_batch"),
    ("estimation.scaled_residuals", "logigof.estimation", "scaled_residuals"),
    ("statistics.t_stat_closed", "logigof.statistics", "t_stat_closed"),
    ("statistics.s_stat", "logigof.statistics", "s_stat"),
    ("statistics.r_stat", "logigof.statistics", "r_stat"),
    ("statistics.edf_stats", "logigof.statistics", "edf_stats"),
)

# (counter name, module, attribute) for entry points that are only counted.
COUNT_POINTS = (
    ("logistic_core.generator", "logigof.logistic_core", "RngStream.generator"),
    ("montecarlo.run_chunk", "logigof.montecarlo", "_run_chunk"),
)


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    run_id: int
    name: str
    start: float
    end: float = 0.0
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - covered(children.get(s.span_id, []), s.start, s.end)
            for s in spans}


def _resolve(module: str, attr: str):
    """(owner object, attribute name, current value); AttributeError if gone."""
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


class Tracer:
    """Records spans and counts while installed; restores everything on uninstall."""

    def __init__(self, notes: Optional[dict[str, Callable]] = None):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.run_id = 0
        self._notes = notes or {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        note = self._notes.get(name)

        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        self.run_id, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.span_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                span.note["error"] = type(exc).__name__
                raise
            finally:
                if not span.end:
                    span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------
    def _patch(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> bool:
        try:
            owner, last, original = _resolve(module, attr)
        except (ImportError, AttributeError):
            return False
        wrapped = make(original)
        if "." in attr:
            # A method: patching the class reaches every caller.
            targets = [owner]
        else:
            # A function: rebind it in every logigof module that imported it.
            targets = [m for n, m in list(sys.modules.items())
                       if n == "logigof" or n.startswith("logigof.")]
        for target in targets:
            if target.__dict__.get(last) is original:
                self._undo.append((target, last, original))
                setattr(target, last, wrapped)
        return True

    def install(self) -> "Tracer":
        self.missing = []
        for name, module, attr in SPAN_POINTS:
            if not self._patch(module, attr, lambda fn, n=name: self._span_wrapper(n, fn)):
                self.missing.append(name)
        for name, module, attr in COUNT_POINTS:
            if not self._patch(module, attr, lambda fn, n=name: self._count_wrapper(n, fn)):
                self.missing.append(name)
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------
    def write(self, path: str) -> None:
        """All spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "parent": s.parent, "run": s.run_id,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     **({"note": s.note} if s.note else {})}) + "\n")
