"""In-memory spans recorded around the benchmark's calls into spinalias.

A span has a name (``<layer>.<what>``), a start and end time, the span
that encloses it and the operation it belongs to.  Spans stay in memory
and are written out once, when the run ends.  A layer's self time is its
spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans; ``enabled`` is False for the untraced (timing) runs."""

    enabled = True

    def __init__(self):
        self.spans = []  # [id, parent id, op id, name, start, end]
        self._stack = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self.op,
               name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self, module, attr: str, name: str):
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def self_times(self, op) -> dict:
        """Seconds of self time per span name within operation ``op``."""
        spans = [s for s in self.spans if s[2] == op and s[5] is not None]
        child_time = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]
        out = defaultdict(float)
        for s in spans:
            out[s[3]] += (s[5] - s[4]) - child_time[s[0]]
        return dict(out)

    def counts(self, op) -> dict:
        out = defaultdict(int)
        for s in self.spans:
            if s[2] == op:
                out[s[3]] += 1
        return dict(out)

    def dump(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class NullTracer:
    """Stand-in used when tracing is off: spans cost one context manager."""

    enabled = False
    op = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def patched(self, module, attr: str, name: str):
        return contextlib.nullcontext()
