"""In-memory spans around the benchmark's calls into each layer.

A span is named `<layer>.<function>`; names whose prefix is not a layer
(such as the `op` span around one workload operation) group spans without
counting toward any layer.  `calls` lets one span stand for a batch of
identical calls, so a loop over 256 closure pairs is one span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("cli", "data", "duality", "packets", "orbits", "partitions", "rootdata")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    calls: int = 1

    @property
    def layer(self) -> str | None:
        prefix = self.name.split(".", 1)[0]
        return prefix if prefix in LAYERS else None


class Tracer:
    """Records spans when enabled; otherwise every helper is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0

    @contextmanager
    def span(self, name: str, calls: int = 1, new_op: bool = False):
        if not self.enabled:
            yield
            return
        outer_op = self._op
        if new_op:
            self._op = self._next_op
            self._next_op += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op, calls))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()
            self._op = outer_op

    def call(self, name: str, fn, *args, calls: int = 1):
        if not self.enabled:
            return fn(*args)
        with self.span(name, calls):
            return fn(*args)

    def record(self, name: str, start: float, end: float, calls: int = 1):
        """Add a span timed elsewhere, such as in a worker process.

        perf_counter is the system-wide monotonic clock on Linux, so a
        worker's timestamps line up with the parent's.
        """
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, start, end, parent, self._op, calls))

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = {layer: 0.0 for layer in LAYERS}
        for s, inner in zip(self.spans, child):
            if s.layer:
                out[s.layer] += (s.end - s.start) - inner
        return out

    def calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for s in self.spans:
            if s.layer:
                out[s.layer] += s.calls
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
