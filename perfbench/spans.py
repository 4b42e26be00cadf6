"""In-memory spans around the benchmark's calls into the package.

A span is (id, parent id, op id, name, start, end).  Spans of one op share
the op id.  Nothing is written until the run ends (see `dump`).
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time

from benchstats import self_times


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next = 0

    @contextlib.contextmanager
    def span(self, name):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    def summary(self):
        """Per span name: count, total and self seconds, and durations."""
        selfs = self_times((s[0], s[1], s[3], s[4], s[5]) for s in self.spans)
        out = {}
        for sid, _parent, _op, name, start, end in self.spans:
            agg = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0, "durations": []})
            agg["count"] += 1
            agg["total"] += end - start
            agg["self"] += selfs[sid]
            agg["durations"].append(end - start)
        return out

    def dump(self, path, label):
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "label": label,
                    "fields": ["id", "parent", "op", "name", "start", "end"],
                    "spans": self.spans,
                },
                fh,
            )


class NullTracer:
    """Untraced runs go through the same code with spans that record nothing."""

    op = None
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null
