"""In-memory spans for the traced run.

A span is recorded around each call the benchmark makes into a layer of
the package: name, start, end, the enclosing span, and the job it
belongs to.  Spans stay in memory until the run ends.  A layer's self
time is the time its spans cover minus the time covered by their
direct children.
"""

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.job = None
        self._open = []

    def span(self, name):
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._open[-1] if tr._open else -1
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.job])
        tr._open.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._open.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        pass

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for a Tracer when tracing is off; records nothing."""

    _span = _NullSpan()
    job = None

    def span(self, name):
        return self._span


def self_times(spans, scale):
    """{name: (total self seconds, number of spans)}, each span's self
    time multiplied by scale[its job id]."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _, job) in enumerate(spans):
        entry = out[name]
        entry[0] += (end - start - child_time[i]) * scale[job]
        entry[1] += 1
    return {name: tuple(v) for name, v in out.items()}


def write_spans(path, spans):
    """One JSON array per line: name, start, end (seconds from the first
    span), parent index (-1 for none), job id."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        for name, start, end, parent, job in spans:
            fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                 parent, job]) + "\n")
