"""Execution introspection for the timing simulator.

:class:`TimelineRecorder` hooks a policy to capture per-instruction
issue/completion times, violations, and squashes during a run, and can
render a per-task text timeline — the fastest way to see *why* a policy
wins or loses on a workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.multiscalar.policies import SpeculationPolicy
from repro.multiscalar.processor import MultiscalarSimulator


@dataclass
class ViolationRecord:
    time: int
    store_seq: int
    load_seq: int
    store_pc: int
    load_pc: int
    task_distance: int


class TimelineRecorder(SpeculationPolicy):
    """A policy wrapper that records events while delegating decisions.

    Use::

        recorder = TimelineRecorder(make_policy("esync"))
        sim = MultiscalarSimulator(trace, config, recorder)
        stats = sim.run()
        print(recorder.render(sim, first_task=10, last_task=14))
    """

    def __init__(self, inner: SpeculationPolicy):
        self.inner = inner
        self.violations: List[ViolationRecord] = []
        self.squashes: List[Tuple[int, int]] = []  # (time, first_seq)
        self.load_first_attempt: Dict[int, int] = {}

    @property
    def name(self):
        return "%s+timeline" % self.inner.name

    # -- delegation with recording ----------------------------------------

    def bind(self, sim):
        super().bind(sim)
        self.inner.bind(sim)

    def release(self, proxy):
        super().release(proxy)
        self.inner.release(proxy)

    def may_issue_load(self, seq, now):
        self.load_first_attempt.setdefault(seq, now)
        return self.inner.may_issue_load(seq, now)

    def on_store_issued(self, seq, now):
        self.inner.on_store_issued(seq, now)

    def on_store_executed(self, seq, now):
        self.inner.on_store_executed(seq, now)

    def on_violation(self, store_seq, load_seq, now):
        trace = self.sim.trace
        self.violations.append(
            ViolationRecord(
                time=now,
                store_seq=store_seq,
                load_seq=load_seq,
                store_pc=trace[store_seq].pc,
                load_pc=trace[load_seq].pc,
                task_distance=trace[load_seq].task_id - trace[store_seq].task_id,
            )
        )
        self.inner.on_violation(store_seq, load_seq, now)

    def on_squash(self, first_seq, now):
        self.squashes.append((now, first_seq))
        self.inner.on_squash(first_seq, now)

    def on_task_dispatched(self, task_id, now):
        self.inner.on_task_dispatched(task_id, now)

    def on_task_committed(self, task_id, now):
        self.inner.on_task_committed(task_id, now)

    def absolves_violation(self, store_seq, load_seq):
        return self.inner.absolves_violation(store_seq, load_seq)

    def publish_telemetry(self, telemetry):
        self.inner.publish_telemetry(telemetry)

    # -- reporting -----------------------------------------------------------

    def load_wait_cycles(self, sim: MultiscalarSimulator) -> Dict[int, int]:
        """Per dynamic load: cycles between first issue attempt and the
        actual memory access (the cost of gating/synchronization)."""
        waits = {}
        for seq, first in self.load_first_attempt.items():
            done = sim.done[seq]
            if done is None:
                continue
            access_start = done  # completion; relative ordering suffices
            waits[seq] = max(0, access_start - first)
        return waits

    def violation_summary(self) -> Dict[Tuple[int, int], int]:
        """Violations per static (store PC, load PC) pair."""
        counts: Dict[Tuple[int, int], int] = {}
        for record in self.violations:
            key = (record.store_pc, record.load_pc)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def render(self, sim: MultiscalarSimulator, first_task=0, last_task=None, width=64) -> str:
        """A per-task text timeline: dispatch-to-completion bars with
        violation markers."""
        last_task = min(
            sim.n_tasks - 1, last_task if last_task is not None else first_task + 9
        )
        spans = []
        for task_id in range(first_task, last_task + 1):
            times = [sim.done[seq] for seq in sim.tasks[task_id] if sim.done[seq] is not None]
            dispatch = sim._dispatch_time[task_id]
            if not times or dispatch is None:
                continue
            spans.append((task_id, dispatch, max(times)))
        if not spans:
            return "(no completed tasks in range)"
        t0 = min(s[1] for s in spans)
        t1 = max(s[2] for s in spans)
        scale = max(1, (t1 - t0) // width + 1)
        lines = [
            "tasks %d..%d, cycles %d..%d (one column = %d cycle(s))"
            % (first_task, last_task, t0, t1, scale)
        ]
        trace = sim.trace
        for task_id, start, end in spans:
            offset = (start - t0) // scale
            length = max(1, (end - start) // scale)
            bar = " " * offset + "#" * length
            # one "!" per violation whose squashed load belongs to THIS
            # task and was detected inside the task's dispatch..complete
            # span (re-executions can re-violate, so counts can exceed 1)
            count = sum(
                1
                for record in self.violations
                if trace[record.load_seq].task_id == task_id
                and start <= record.time <= end
            )
            lines.append("task %-5d |%s%s" % (task_id, bar, "!" * count))
        if self.violations:
            lines.append("violations: %d (pairs: %s)" % (
                len(self.violations),
                ", ".join(
                    "store@%d->load@%d x%d" % (s, l, c)
                    for (s, l), c in sorted(self.violation_summary().items())
                ),
            ))
        return "\n".join(lines)
