"""Chrome trace-event export (the Trace Event Format, viewable in
Perfetto / ``chrome://tracing``).

The sink collects events in the small subset of the format every viewer
understands:

* ``ph="X"`` complete events — spans with a start timestamp and a
  duration (task dispatch→commit, load stalls, profiler scopes);
* ``ph="i"`` instant events — point markers (violations, squashes);
* ``ph="C"`` counter events — stacked per-track counters;
* ``ph="M"`` metadata events — process/thread naming so tracks read
  "stage 3" instead of "tid 3".

Timestamps (``ts``) and durations (``dur``) are in microseconds by
convention; the simulator maps one cycle to one microsecond, which
viewers render fine (``displayTimeUnit`` stays "ms").  ``to_dict()``
returns the standard ``{"traceEvents": [...]}`` JSON object.

:data:`NULL_TRACE` is the disabled default sink (see the null-sink
contract in :mod:`repro.telemetry.registry`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class TraceEventSink:
    """Collects trace events for one process (``pid``) worth of tracks."""

    enabled = True

    def __init__(self, pid=0):
        self.pid = pid
        self.events: List[dict] = []

    # -- event emission ----------------------------------------------------

    def complete(self, name, ts, dur, tid=0, cat="span", args=None):
        """A span: ``ts`` .. ``ts + dur`` on track *tid*."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": self.pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(self, name, ts, tid=0, cat="event", args=None):
        """A point marker at ``ts`` on track *tid*."""
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",  # thread-scoped marker
            "ts": ts,
            "pid": self.pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def counter(self, name, ts, values: Dict[str, float], tid=0, cat="counter"):
        """A counter sample: *values* maps series name to value."""
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "C",
                "ts": ts,
                "pid": self.pid,
                "tid": tid,
                "args": dict(values),
            }
        )

    def thread_name(self, tid, name):
        self._metadata("thread_name", name, tid=tid)

    def process_name(self, name):
        self._metadata("process_name", name, tid=0)

    def _metadata(self, kind, name, tid):
        self.events.append(
            {
                "name": kind,
                "ph": "M",
                "ts": 0,
                "pid": self.pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    # -- export ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}


class NullTraceSink(TraceEventSink):
    """Disabled sink: every emission is a no-op."""

    enabled = False

    def __init__(self):
        super().__init__()

    def complete(self, name, ts, dur, tid=0, cat="span", args=None):
        pass

    def instant(self, name, ts, tid=0, cat="event", args=None):
        pass

    def counter(self, name, ts, values, tid=0, cat="counter"):
        pass

    def _metadata(self, kind, name, tid):
        pass


#: Shared process-wide disabled sink — the default everywhere.
NULL_TRACE = NullTraceSink()


def merged_trace(sinks: Iterable[TraceEventSink], names: Optional[Iterable[str]] = None) -> dict:
    """Combine several sinks into one viewable trace.

    Each sink keeps its own ``pid`` so its tracks group under one
    process in the viewer; *names* (parallel to *sinks*) adds
    process-name metadata, e.g. one process per compared policy.
    """
    sinks = list(sinks)
    names = list(names) if names is not None else [None] * len(sinks)
    merged = TraceEventSink()
    for sink, name in zip(sinks, names):
        if name is not None:
            merged.pid = sink.pid
            merged.process_name(name)
        merged.events.extend(sink.events)
    return merged.to_dict()
