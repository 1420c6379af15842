"""Spans recorded around calls into the program's layers.

A span is ``(id, name, request, parent, start_ns, end_ns)``; all spans
of one verdict request share its request id.  :class:`SpanLog` keeps
them in memory and writes them out once; :data:`NO_SPANS` records
nothing, so the untraced entry points run the same code.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager, nullcontext
from typing import List


class SpanLog:
    """Spans recorded in memory, written out once at the end."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, request: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, name, request, parent, start, end))

    def wrap(self, obj: object, method: str, name: str, request: str) -> None:
        """Record a span around every call of ``obj.method``."""
        inner = getattr(obj, method)

        def timed(*args, **kwargs):
            with self.span(name, request):
                return inner(*args, **kwargs)

        setattr(obj, method, timed)

    def seconds(self, name: str) -> float:
        return sum(e - s for _, n, _, _, s, e in self.spans if n == name) / 1e9

    def durations_ms(self, name: str) -> List[float]:
        return [(e - s) / 1e6 for _, n, _, _, s, e in self.spans if n == name]

    def top_level_seconds(self, skip_request: str) -> float:
        return sum(
            e - s for _, _, r, parent, s, e in self.spans
            if parent is None and r != skip_request
        ) / 1e9

    def write(self, path: str) -> None:
        keys = ("id", "name", "request", "parent", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
            handle.write("\n")


class _NoSpans:
    """A span log that records nothing."""

    def span(self, name: str, request: str):
        return nullcontext()

    def wrap(self, obj: object, method: str, name: str, request: str) -> None:
        return None


NO_SPANS = _NoSpans()
