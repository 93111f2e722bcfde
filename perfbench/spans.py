"""In-memory spans recorded around calls into the package's modules.

A span has a name, start and end (``time.perf_counter`` seconds), the index
of the span open around it, and the cell it belongs to.  Spans are kept in a
list and written out once, when the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    cell: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent].cell
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, cell)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration  # siblings never overlap
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.duration for s in self.spans if s.name == name)

    def to_list(self) -> list:
        return [
            {**asdict(s), "self": self_time}
            for s, self_time in zip(self.spans, self.self_times())
        ]
