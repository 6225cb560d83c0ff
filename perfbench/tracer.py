"""In-memory spans for the traced run.

A span records a name, its parent span, start and end. Spans are kept in a
list and summarised once the run ends; nothing is written while timing.
"Self time" is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # (name, parent index or -1, start, end); end is None while open
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        i = len(self.spans) - 1
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i][3] = time.perf_counter()

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] += value

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def mark(self) -> int:
        """Position to pass to `self_time_since` to cover later spans only."""
        return len(self.spans)

    def self_time_since(self, start: int, names: tuple[str, ...]) -> float:
        """Summed self time of the spans named `names` recorded since `start`."""
        child = defaultdict(float)
        for s in self.spans[start:]:
            if s[1] >= start:
                child[s[1]] += s[3] - s[2]
        return sum(
            s[3] - s[2] - child[i]
            for i, s in enumerate(self.spans[start:], start)
            if s[0] in names
        )
