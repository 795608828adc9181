"""Span tracing from outside the program: wrap each layer's public functions.

The benchmark measures layers by timing the calls *into* them.  During a
traced run :func:`instrument` swaps every public entry point named in
:data:`TARGETS` for a wrapper that records a span -- name, start, end,
parent span and run id -- and restores the originals on exit.  The program
itself is not edited: the wrapper replaces the function object wherever a
loaded module holds a reference to it (``from x import f`` copies the
reference), so calls the program makes internally are traced too.

Spans stay in memory; :func:`layer_totals` folds them into per-layer call
counts, inclusive time and self time (a span's duration minus the time its
child spans cover), and :func:`phase_coverage` measures how much of each
top-level call the program's own ``repro.obs`` phases account for.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import PhaseProfiler

#: (layer, module, attribute) of every traced public entry point.  A dotted
#: attribute names a method on a class in that module.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("kernels", "repro.runner", "run_gemm"),
    ("kernels", "repro.runner", "run_flash_attention"),
    ("analysis", "repro.analysis.report", "paper_comparison"),
    ("lowering", "repro.workloads.lowering", "run_model"),
    ("lowering", "repro.workloads.models", "build_model"),
    ("lowering", "repro.workloads.lowering", "lower_graph"),
    ("lowering", "repro.workloads.lowering", "execute_schedule"),
    ("serving", "repro.workloads.serving", "run_serving"),
    ("fleet", "repro.workloads.fleet", "run_fleet"),
    ("perf", "repro.perf.cache", "load_snapshot"),
    ("perf", "repro.perf.cache", "save_snapshot"),
    ("perf", "repro.perf.cache", "TimingCache.snapshot"),
    ("perf", "repro.perf.cache", "TimingCache.stats"),
)

#: Span name (the function name) -> layer.
LAYER_OF: Dict[str, str] = {attr.rsplit(".", 1)[-1]: layer for layer, _, attr in TARGETS}

#: Work counts taken at a span boundary from the call's arguments:
#: ``execute_schedule(schedule)`` places ``len(schedule.invocations)`` kernels.
COUNTERS: Dict[str, Callable[..., int]] = {
    "execute_schedule": lambda schedule, *args, **kwargs: len(schedule.invocations),
}

#: Phases that wrap a whole public call (``run_serving`` -> ``serving.run``).
#: Counting them would make every call look fully attributed, so coverage
#: counts only the phases inside them.
WRAPPER_PHASES = frozenset({"serving.run", "fleet.run"})


class Span:
    """One traced call; ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "start", "end", "parent", "run", "count")

    def __init__(self, name: str, start: float, parent: int, run: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.count = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self, origin: float) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_us": (self.start - origin) * 1e6,
            "end_us": (self.end - origin) * 1e6,
            "parent": self.parent,
            "run": self.run,
        }


class SpanRecorder:
    """Collects spans while :attr:`run_id` is set; ignores calls otherwise."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id: Optional[str] = None
        self._stack: List[int] = []

    def reset(self, run_id: str) -> None:
        self.spans = []
        self._stack = []
        self.run_id = run_id

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run_id is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), parent, self.run_id)
            if counter is not None:
                span.count = counter(*args, **kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Route every :data:`TARGETS` entry point through ``recorder``."""
    patched: List[Tuple[object, str, object]] = []
    try:
        for _, module_name, attr in TARGETS:
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            wrapper = recorder.wrap(leaf, original)
            if owner is not sys.modules.get(module_name):
                # A method: patch the class attribute only.
                setattr(owner, leaf, wrapper)
                patched.append((owner, leaf, original))
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is not None and namespace.get(leaf) is original:
                    setattr(module, leaf, wrapper)
                    patched.append((module, leaf, original))
        yield recorder
    finally:
        for owner, leaf, original in reversed(patched):
            setattr(owner, leaf, original)


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, boundary counts."""
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    totals: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(
            span.name, {"calls": 0, "seconds": 0.0, "self_s": 0.0, "count": 0}
        )
        entry["calls"] += 1
        entry["seconds"] += span.seconds
        entry["self_s"] += span.seconds - child_seconds[index]
        entry["count"] += span.count
    return totals


def self_time_by_layer(spans: Sequence[Span]) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for name, entry in layer_totals(spans).items():
        layer = LAYER_OF[name]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return layers


class StampedProfiler(PhaseProfiler):
    """A :class:`PhaseProfiler` that also keeps each phase's wall interval."""

    def __init__(self) -> None:
        super().__init__()
        self.intervals: List[Tuple[float, float]] = []

    def add(self, name: str, seconds: float, args: Dict[str, object]) -> None:
        end = time.perf_counter()
        super().add(name, seconds, args)
        if name not in WRAPPER_PHASES:
            self.intervals.append((end - seconds, end))


def _union(intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def phase_coverage(spans: Sequence[Span], profiler: StampedProfiler) -> Tuple[float, float]:
    """(covered, total) seconds of the top-level spans under program phases."""
    merged = _union(profiler.intervals)
    starts = [start for start, _ in merged]
    covered = total = 0.0
    for span in spans:
        if span.parent != -1:
            continue
        total += span.seconds
        index = max(0, bisect.bisect_right(starts, span.start) - 1)
        while index < len(merged) and merged[index][0] < span.end:
            start, end = merged[index]
            covered += max(0.0, min(end, span.end) - max(start, span.start))
            index += 1
    return covered, total
