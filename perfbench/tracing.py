"""In-memory spans for the benchmark's traced run.

A span records one public call, or one batch of calls, made by the
benchmark: its name, start and end, the enclosing span, the run it belongs
to, the top-level span (set-up, a round, or the layer pass) it sits under, a
work count ``n``, and optionally the change in the package's cache counters
across it.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    run: str
    parent: int | None
    root: int
    start: float = 0.0
    end: float = 0.0
    n: int = 1
    counts: dict | None = None  # counter name -> [hits, misses] gained inside

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans; ``counters`` maps a name to an ``lru_cache`` function."""

    def __init__(self, run, counters):
        self.run = run
        self.counters = counters
        self.spans = []
        self._open = []

    def _snapshot(self):
        return {name: fn.cache_info() for name, fn in self.counters.items()}

    @contextmanager
    def span(self, name, n=1, count=False):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        root = index if parent is None else self.spans[parent].root
        s = Span(name, self.run, parent, root, n=n)
        self.spans.append(s)
        self._open.append(index)
        before = self._snapshot() if count else None
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if count:
                after = self._snapshot()
                s.counts = {
                    k: [after[k].hits - before[k].hits, after[k].misses - before[k].misses]
                    for k in after
                }

    def roots(self, name):
        """Indices of the top-level spans called ``name``, in order."""
        return [i for i, s in enumerate(self.spans) if s.parent is None and s.name == name]

    def under(self, root, name):
        """The spans called ``name`` below the top-level span ``root``."""
        return [s for s in self.spans if s.root == root and s.name == name and s.parent is not None]

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


class NullTracer:
    """Stands in for a Tracer in untraced rounds: no span is kept."""

    def span(self, name, n=1, count=False):
        return nullcontext(Span(name, "", None, 0, n=n))
