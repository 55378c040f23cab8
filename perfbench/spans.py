"""In-memory span log for the traced benchmark run.

A span records one call the benchmark makes into a layer of ``repro``:
its name, start and end (wall-clock seconds, so spans measured inside
executor workers line up with the benchmark's own), the span that
caused it, and the cell it belongs to.  Spans stay in memory and are
written once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanLog:
    """Append-only list of spans; a span's id is its list index."""

    def __init__(self):
        self.spans = []
        # perf_counter is the precise clock; this offset maps it onto
        # time.time(), the clock executor workers stamp their cells with
        self._offset = time.time() - time.perf_counter()

    def wall(self, perf):
        """A ``time.perf_counter()`` reading as wall-clock seconds."""
        return perf + self._offset

    def add(self, name, start, end, parent=None, cell=None, **attrs):
        """Record a finished span (wall-clock start/end); return its id."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "cell": cell,
                "attrs": attrs,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name, parent=None, cell=None, **attrs):
        """Time the body as one span; yields the span id for children."""
        sid = self.add(name, time.time(), None, parent, cell, **attrs)
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.time()

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def self_times(self):
        """Per span name: count, total and self seconds.

        Self time is a span's duration minus the part of it that its
        child spans cover (children may overlap, as cells on two
        workers do, so the union of their intervals is subtracted).
        """
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            duration = s["end"] - s["start"]
            covered = 0.0
            reach = s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start, end = max(start, reach), min(end, s["end"])
                if end > start:
                    covered += end - start
                    reach = end
            agg = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += duration
            agg["self_s"] += duration - covered
        return out

    def write(self, path, **header):
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, self_times=self.self_times(), spans=self.spans)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
