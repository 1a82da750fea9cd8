"""In-memory spans recorded from outside the program under test.

The benchmark wraps public calls into each layer (on live instances, on
classes, or on the module name a caller looks up) and records one span per
call: name, start, end, parent span, and a trace id shared by every span of
one campaign iteration (or of one shard slice).  Spans stay in memory and
are written once, when the benchmark ends.  A layer's self time is its
span's duration minus the time its child spans cover.
"""

import contextlib
import inspect
import json
import time
from collections import defaultdict


class Tracer:
    """Collects spans from wrapped calls on a single thread."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, trace_id]
        self._stack = []
        self._next_trace = 0
        # Trace id for spans opened outside any root span (a checkpoint
        # round, or a shard slice of the sharded workload).
        self.group = None

    def wrap(self, name, fn, root=False, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``root`` starts a new trace id (one per campaign iteration);
        ``after`` is called with the call's result once the span closed.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0:
                trace_id = spans[parent][4]
            elif root:
                trace_id = self._next_trace
                self._next_trace += 1
            else:
                trace_id = self.group
            span = [name, clock(), 0, parent, trace_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def self_ns(self):
        """Per-span self time: duration minus the direct children's."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[index]
                for index, (_, start, end, _, _) in enumerate(self.spans)]

    def totals(self, scale=None):
        """``name -> (calls, total self ns, total duration ns)``; ``scale``
        maps a trace id to a factor applied to that trace's times."""
        calls = defaultdict(int)
        self_total = defaultdict(float)
        duration = defaultdict(float)
        for span, own in zip(self.spans, self.self_ns()):
            name, start, end, trace_id = span[0], span[1], span[2], span[4]
            factor = 1.0 if scale is None else scale(trace_id)
            calls[name] += 1
            self_total[name] += own * factor
            duration[name] += (end - start) * factor
        return {name: (calls[name], self_total[name], duration[name])
                for name in calls}

    def write(self, path):
        """Write every span as one JSON document (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": name, "start_ns": start, "end_ns": end,
                 "parent": parent, "trace": trace_id}
                for name, start, end, parent, trace_id in self.spans]
        path.write_text(json.dumps(rows))


@contextlib.contextmanager
def patched(owner, attribute, replacement):
    """Temporarily replace ``owner.attribute`` (a module or class name)."""
    saved = inspect.getattr_static(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, saved)
