"""Spans and counters for the traced pass, recorded from outside the package.

A span is (name, parent index, start ns, end ns); the parent is the span
open when it started, or -1.  ``Tracer.wrap`` replaces a module attribute
with a span-recording wrapper and remembers the original; leaving the
``with Tracer()`` block puts every original back, so the timed pass never
runs wrapped code.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, parent, start, end)

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Record a span around every call of ``module.attr``; ``observe``
        sees (result, args) of each call that returns."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(result, args)
            return result

        self._undo.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- reading the record --------------------------------------------------

    def durations(self, name: str, parent: str | None = None) -> list[int]:
        """Durations in ns of the spans called ``name``, optionally only those
        whose parent span is called ``parent``."""
        return [end - start for n, p, start, end in self.spans
                if n == name and (parent is None or (p >= 0 and self.spans[p][0] == parent))]

    def total_s(self, name: str, parent: str | None = None) -> float:
        return sum(self.durations(name, parent)) / 1e9

    def median(self, name: str, scale: float) -> float:
        d = self.durations(name)
        return statistics.median(d) / scale if d else 0.0

    def children(self, name: str, child: str) -> list[int]:
        """For each span called ``name``, how many direct children are called ``child``."""
        counts = {i: 0 for i, s in enumerate(self.spans) if s[0] == name}
        for n, p, _, _ in self.spans:
            if n == child and p in counts:
                counts[p] += 1
        return list(counts.values())

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans]
