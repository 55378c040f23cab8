"""Wall-clock profiling of the experiment pipeline.

A :class:`Profiler` records nested :class:`ProfileScope` spans measured
with ``time.perf_counter``.  The experiment runners wrap their three
phases — trace generation, simulation, and table assembly — so every
report can state where its wall time went, and ``repro profile`` can
render the breakdown for one workload.

Two export shapes:

* :meth:`Profiler.summary` — per-scope-name aggregate (calls, seconds),
  the dict attached to :class:`~repro.experiments.results.ExperimentTable`
  instances;
* :meth:`Profiler.to_trace_events` — the recorded spans as a Chrome
  trace-event object, so wall time opens in Perfetto exactly like
  simulated time.

The module-level :data:`PROFILER` is the default instance the
experiment runners, ``repro profile``, the frontend
(``frontend.interpret``, ``frontend.decode``, ``frontend.index``) and
the static analyses (``staticdep.symbolic``, ``staticdep.pdg``,
``staticdep.slices``) publish into.  Recording a scope costs two
``perf_counter`` calls and one append — cheap enough to leave on
unconditionally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.telemetry.trace_events import TraceEventSink


@dataclass
class ProfileRecord:
    """One completed scope."""

    name: str
    start: float
    stop: float
    depth: int
    #: name of the enclosing scope, or None at top level
    parent: Optional[str] = None
    #: an enclosing scope maps to a pipeline phase (this record's time
    #: is already part of that phase)
    in_phase: bool = False

    @property
    def seconds(self) -> float:
        return self.stop - self.start


class ProfileScope:
    """Context manager recording one span into its profiler."""

    def __init__(self, profiler: "Profiler", name: str):
        self.profiler = profiler
        self.name = name
        self.start: Optional[float] = None

    def __enter__(self) -> "ProfileScope":
        self.start = time.perf_counter()
        self.profiler._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stop = time.perf_counter()
        stack = self.profiler._stack
        assert stack and stack[-1] is self, "unbalanced profile scopes"
        stack.pop()
        self.profiler.records.append(
            ProfileRecord(
                self.name,
                self.start,
                stop,
                depth=len(stack),
                parent=stack[-1].name if stack else None,
                in_phase=any(scope.name in PHASE_OF for scope in stack),
            )
        )
        return False


#: Canonical pipeline phases, in pipeline order.
PHASES = ("interpret", "simulate", "report")

#: Scope-name -> pipeline-phase mapping.  Scopes absent from the map
#: (roll-ups like ``total``, and the ``staticdep.*`` analyses a policy
#: runs inside ``simulate``) stay out of the phase breakdown.  The
#: frontend records ``frontend.interpret``, ``frontend.decode`` and
#: ``frontend.index`` wherever a trace is interpreted, decoded from the
#: trace cache or indexed; they count toward ``interpret`` unless an
#: enclosing scope already carries a phase, so phase seconds never
#: double-count.
PHASE_OF = {
    "trace-gen": "interpret",
    "frontend.interpret": "interpret",
    "frontend.decode": "interpret",
    "frontend.index": "interpret",
    "simulate": "simulate",
    "dependence-profile": "report",
    "window-analysis": "report",
    "static-analysis": "report",
}


class Profiler:
    """An append-only log of completed scopes."""

    def __init__(self):
        self.records: List[ProfileRecord] = []
        self._stack: List[ProfileScope] = []

    def scope(self, name) -> ProfileScope:
        return ProfileScope(self, name)

    def mark(self) -> int:
        """A position; pass to ``summary``/``to_trace_events`` as *since*
        to report only scopes recorded after it."""
        return len(self.records)

    def summary(self, since=0) -> Dict[str, dict]:
        """Aggregate seconds and call counts per scope name.

        Nested scopes are reported individually *and* contribute to
        their enclosing scope's time (inclusive accounting, like any
        sampling profiler's "cumulative" column).
        """
        out: Dict[str, dict] = {}
        for record in self.records[since:]:
            agg = out.setdefault(record.name, {"calls": 0, "seconds": 0.0})
            agg["calls"] += 1
            agg["seconds"] += record.seconds
        for agg in out.values():
            agg["seconds"] = round(agg["seconds"], 6)
        return out

    def phases(self, since=0) -> Dict[str, dict]:
        """Cumulative wall time per pipeline phase.

        Folds the recorded scopes into the canonical pipeline phases
        (:data:`PHASES`: interpret, simulate, report) via
        :data:`PHASE_OF`.  Roll-up scopes are excluded, and a scope
        inside another phase scope counts only through the outer one,
        so phase seconds sum to at most the total.  Only phases with at
        least one record appear.
        """
        out: Dict[str, dict] = {}
        for record in self.records[since:]:
            phase = PHASE_OF.get(record.name)
            if phase is None or record.in_phase:
                continue
            acc = out.setdefault(phase, {"calls": 0, "seconds": 0.0})
            acc["calls"] += 1
            acc["seconds"] += record.seconds
        for acc in out.values():
            acc["seconds"] = round(acc["seconds"], 6)
        return {p: out[p] for p in PHASES if p in out}

    def nested(self, since=0) -> Dict[str, str]:
        """Scopes recorded only inside one pipeline-phase scope, mapped
        to that scope's name.

        Their time is part of the phase's, so :meth:`to_text` lists
        them beneath its row — as ``repro profile`` shows the static
        analyses a policy runs while binding under ``simulate``, and
        the frontend's interpretation and index build under
        ``trace-gen``.
        """
        parents: Dict[str, Set[Optional[str]]] = {}
        for record in self.records[since:]:
            parents.setdefault(record.name, set()).add(record.parent)
        out: Dict[str, str] = {}
        for name, found in parents.items():
            parent = next(iter(found))
            if len(found) == 1 and parent is not None and parent in PHASE_OF:
                out[name] = parent
        return out

    def to_text(self, since=0, top=None) -> str:
        """Render the aggregate, widest scope first.

        Each :meth:`nested` scope is indented beneath its phase scope.
        With *top*, only the *top* widest outer scopes are listed (a
        trailing line notes how many were elided).  The per-phase
        cumulative breakdown is appended whenever any scope maps to a
        phase.
        """
        summary = self.summary(since)
        if not summary:
            return "(no profile records)"
        nested = self.nested(since)
        children: Dict[str, List[str]] = {}
        for name, parent in nested.items():
            children.setdefault(parent, []).append(name)
        width = max(len(name) + 2 * (name in nested) for name in summary)
        lines = ["%-*s %9s %6s" % (width, "scope", "seconds", "calls")]

        def row(label: str, agg: dict) -> str:
            return "%-*s %9.4f %6d" % (width, label, agg["seconds"], agg["calls"])

        rows = sorted(
            (kv for kv in summary.items() if kv[0] not in nested),
            key=lambda kv: -kv[1]["seconds"],
        )
        shown = rows if top is None else rows[: max(1, top)]
        for name, agg in shown:
            lines.append(row(name, agg))
            for child in sorted(children.get(name, ()), key=lambda c: -summary[c]["seconds"]):
                lines.append(row("  " + child, summary[child]))
        elided = len(rows) - len(shown)
        if elided > 0:
            lines.append("(%d more scope%s)" % (elided, "s" if elided != 1 else ""))
        phases = self.phases(since)
        if phases:
            total = sum(agg["seconds"] for agg in phases.values())
            lines.append("phase breakdown:")
            for phase, agg in phases.items():
                share = 100.0 * agg["seconds"] / total if total else 0.0
                lines.append(
                    "  %-9s %9.4f %5.1f%%" % (phase, agg["seconds"], share)
                )
        return "\n".join(lines)

    def to_trace_events(self, since=0) -> dict:
        """The recorded spans as a Chrome trace-event object.

        Timestamps are microseconds relative to the earliest reported
        span, all on one track (wall time is single-threaded here).
        """
        sink = TraceEventSink()
        records = self.records[since:]
        if records:
            t0 = min(record.start for record in records)
            sink.thread_name(0, "wall clock")
            for record in sorted(records, key=lambda r: r.start):
                sink.complete(
                    record.name,
                    round((record.start - t0) * 1e6, 3),
                    round(record.seconds * 1e6, 3),
                    cat="profile",
                )
        return sink.to_dict()


#: Default profiler the experiment runners publish into.
PROFILER = Profiler()
