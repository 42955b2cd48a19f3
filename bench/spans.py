"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, subject): start and end are
`time.perf_counter()` readings in seconds, parent is the index of the
enclosing span (or None) and subject is the id of the benchmark subject the
work belongs to.  Spans are kept in a list and written out when the run ends,
together with speed samples (perf_counter reading, seconds the reference
kernel took) that the caller records between spans.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.speed: list[tuple[float, float]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, subject: int | None = None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, 0.0, 0.0, parent, subject]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, subject: int | None, fn, *args):
        """Run fn(*args) inside a span and return its result."""
        with self.span(name, subject):
            return fn(*args)
