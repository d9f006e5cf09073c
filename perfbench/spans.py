"""In-memory span recorder used by the benchmark's traced runs.

A span has a name, a start, an end and the span that caused it
(pass -> operation -> layer call).  Counters are recorded against the
innermost open span.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced run's recorder: every call is a no-op."""

    enabled = False

    def span(self, name):
        return _NULL_SPAN

    def count(self, name, value=1):
        pass


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        self.record = {
            "id": len(tracer.spans),
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else len(tracer.spans),
            "name": name,
            "start": 0.0,
            "end": 0.0,
        }
        tracer.spans.append(self.record)

    def __enter__(self):
        self.tracer._stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans and counters in memory; ``dump`` returns them."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counters = []
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def count(self, name, value=1):
        top = self._stack[-1] if self._stack else None
        self.counters.append({
            "span": top["id"] if top else None,
            "root": top["root"] if top else None,
            "name": name,
            "value": value,
        })

    def totals(self, root_id):
        """Summed duration per span name and summed value per counter name,
        over everything recorded under one root span."""
        durations, counts = {}, {}
        for rec in self.spans:
            if rec["root"] == root_id and rec["id"] != root_id:
                durations[rec["name"]] = durations.get(rec["name"], 0.0) + rec["end"] - rec["start"]
        for rec in self.counters:
            if rec["root"] == root_id:
                counts[rec["name"]] = counts.get(rec["name"], 0) + rec["value"]
        return durations, counts

    def dump(self):
        return {"spans": self.spans, "counters": self.counters}
