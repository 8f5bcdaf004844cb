"""In-memory spans recorded by the benchmark around calls into spinbp modules.

A span has a name, start and end times (``time.perf_counter`` seconds), the
id of the span that was open when it started, and the id of the sweep row it
belongs to.  The benchmark is single-threaded, so spans nest strictly and the
children of a span never overlap: the part of a span its children cover is
the sum of their durations.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    row: int | None


class Tracer:
    """Spans of one pass, kept in memory until the benchmark writes them."""

    def __init__(self):
        # finished spans are immutable tuples, which the garbage collector
        # stops tracking, so a long traced run does not slow collections
        self.spans: list[Span | None] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, row: int | None = None):
        parent = self._open[-1] if self._open else None
        if row is None and parent is not None:
            row = parent.row
        s = Span(len(self.spans), name, time.perf_counter(), 0.0,
                 parent.id if parent else None, row)
        self.spans.append(None)
        self._open.append(s)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[s.id] = s._replace(end=time.perf_counter())

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def totals(self, by_row: bool = False) -> dict:
        """Self time summed per span name, or per (row, name) with ``by_row``."""
        acc = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            acc[(s.row, s.name) if by_row else s.name] += t
        return dict(acc)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


def span_cost_s(count: int = 2000, repeats: int = 5) -> float:
    """Median seconds one empty span costs, opened inside a parent as in a pass."""
    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        with tracer.span("parent"):
            start = time.perf_counter()
            for _ in range(count):
                with tracer.span("empty"):
                    pass
            costs.append((time.perf_counter() - start) / count)
    return statistics.median(costs)


def span(tracer: Tracer | None, name: str, row: int | None = None):
    """``tracer.span(...)``, or a no-op context when tracing is off."""
    return nullcontext() if tracer is None else tracer.span(name, row)


def write_spans(path, tracers: list[Tracer]) -> None:
    """One JSON object per span, tagged with the index of its pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for index, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps({"pass": index, **s._asdict()}) + "\n")
