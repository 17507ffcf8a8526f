"""Spans and counters recorded from outside the library.

The tracer replaces public functions in the library's module namespaces
with timing wrappers while it is installed, and puts the originals back
when it is removed.  Every call is a span (name, start, end, parent);
self time is a span's duration minus the time covered by its child
spans.  Aggregates (calls, total and self time per name) are kept for
every call; the spans themselves are kept in memory up to ``cap`` and
written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, cap=50_000):
        self.cap = cap
        self.spans: list[list] = []   # [name, start, end, parent span index]
        self.dropped = 0
        self.stats: dict[str, list[float]] = {}   # name -> [calls, total s, self s]
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span index, start, child time]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        idx = -1
        if len(self.spans) < self.cap:
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        else:
            self.dropped += 1
        frame = [idx, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame):
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[0] >= 0:
            span = self.spans[frame[0]]
            span[1], span[2] = frame[1], end
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[2]

    def call(self, name, fn, *args, **kw):
        """Run fn(*args, **kw) inside a span called name."""
        frame = self._enter(name)
        try:
            return fn(*args, **kw)
        finally:
            self._exit(name, frame)

    # -- wrappers ------------------------------------------------------

    def wrap(self, name, fn, on_call=None, on_result=None, raised=None):
        """A span-recording stand-in for fn.

        on_call(args) and on_result(result) may return a counter name to
        bump, or None; raised is a counter bumped when fn raises.
        """
        counters = self.counters

        def wrapper(*args, **kw):
            if on_call is not None:
                key = on_call(args)
                if key:
                    counters[key] += 1
            try:
                result = self.call(name, fn, *args, **kw)
            except Exception:
                if raised:
                    counters[raised] += 1
                raise
            if on_result is not None:
                key = on_result(result)
                if key:
                    counters[key] += 1
            return result

        return wrapper

    def counted_integrand(self, counter, integrator_name, integrator):
        """Stand-in for a scipy integrator that counts integrand evaluations."""
        counters = self.counters

        def integrate(func, *args, **kw):
            def counted(*a, **k):
                counters[counter] += 1
                return func(*a, **k)

            return self.call(integrator_name, integrator, counted, *args, **kw)

        return integrate

    def counted_stream(self, counter, stream):
        """Stand-in for a generator function that counts the items drawn."""
        counters = self.counters

        def wrapper(*args, **kw):
            for item in stream(*args, **kw):
                counters[counter] += 1
                yield item

        return wrapper

    def patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr), replacement))

    def install(self):
        for module, attr, _, replacement in self._patches:
            setattr(module, attr, replacement)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- results -------------------------------------------------------

    def self_time_by_layer(self):
        """Self seconds summed over span names by their first dotted part."""
        out: dict[str, float] = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def dump(self):
        """JSON-ready record of the kept spans and the aggregates."""
        return {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
        }
