"""The Multiscalar timing simulator.

A trace-driven, cycle-level model of the paper's evaluation vehicle
(Section 5.2): *stages* processing units execute consecutive tasks of
the committed instruction trace; each unit issues up to 2 instructions
per cycle out of order from its task, bounded by per-class functional
units; register values produced in earlier tasks arrive over a
unidirectional ring (1 cycle per hop); loads and stores access a banked
data cache; inter-task memory dependences are speculated according to a
pluggable :class:`~repro.multiscalar.policies.SpeculationPolicy`;
violations squash the offending task and its successors, which then
re-execute.

Being trace-driven, data values are always architecturally correct —
the simulator accounts the *timing* of speculation, synchronization,
squash, and re-execution, which is what the paper's experiments
measure.  Wrong-path instructions after a sequencer misprediction are
not executed; their cost is modeled as a dispatch delay
(``mispredict_penalty`` after the mispredicting task resolves).
"""

from __future__ import annotations

import heapq
import weakref
from typing import Optional, Sequence

from repro.core.stats import SpeculationStats
from repro.memsys.cache import BankedCache
from repro.multiscalar.config import MultiscalarConfig
from repro.multiscalar.policies import AlwaysPolicy, SpeculationPolicy
from repro.telemetry import NULL_TELEMETRY

_INF = float("inf")


class SimulationError(Exception):
    """Raised when the simulator cannot make progress (a model bug)."""


class _LazyMinSet:
    """A set of integers with O(log n) amortized minimum queries."""

    def __init__(self, items=()):
        self._set = set(items)
        self._heap = list(self._set)
        heapq.heapify(self._heap)

    def __contains__(self, item):
        return item in self._set

    def add(self, item):
        if item not in self._set:
            self._set.add(item)
            heapq.heappush(self._heap, item)

    def discard(self, item):
        self._set.discard(item)

    def minimum(self) -> Optional[int]:
        heap = self._heap
        while heap and heap[0] not in self._set:
            heapq.heappop(heap)
        return heap[0] if heap else None


# the issue loop, imported here, after the helpers it imports from this
# module, so every process that can simulate has compiled it (and the
# workers a driver forks inherit it)
from repro.multiscalar.batched import run_batched  # noqa: E402


class MultiscalarSimulator:
    """Simulates one trace under one configuration and policy.

    *observers* watch violations without changing the run (the taint
    sanitizer, the squash ledger): ``bind(sim)`` is called here and,
    with a weak proxy, when the run ends; ``on_violation(store_seq,
    load_seq, time)`` in the order given, after the policy's and before
    the squash, while the issued flags still describe the window.
    """

    def __init__(
        self,
        trace,
        config=None,
        policy: Optional[SpeculationPolicy] = None,
        telemetry=None,
        observers: Sequence = (),
    ):
        self.trace = trace
        self.config = config or MultiscalarConfig()
        self.policy = policy or AlwaysPolicy()
        self.cache = BankedCache(self.config.make_cache_config())
        self.stats = SpeculationStats()
        # instrumentation is opt-in: the null default makes every sink
        # call a no-op and lets hot paths skip telemetry entirely, so
        # results and runtimes are unchanged when it is off (the A/B
        # test in tests/telemetry/test_ab.py holds the simulator to it)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tel_on = self.telemetry.enabled
        self._prepare_static()
        self._observers = tuple(observers)
        for observer in self._observers:
            observer.bind(self)

    # ------------------------------------------------------------------
    # static preprocessing
    # ------------------------------------------------------------------

    def _prepare_static(self):
        """Adopt the trace's static index.

        Everything here is a function of the trace alone; the
        :class:`~repro.frontend.static_index.TraceIndex` memoized on the
        trace lets a whole experiment grid share one copy.  The aliases
        keep the simulator's historical attribute names (policies and
        tests read them), and the ``_c_*`` names are the columnar views
        the hot loops index by ``seq``.  The destination registers and
        register operand maps only the speculative register models read
        stay on the index, which builds them on first use.
        """
        index = self.trace.index()
        self._index = index
        self.n = index.n
        self.tasks = index.tasks
        self.n_tasks = index.n_tasks
        self.task_of = index.task_of
        self.index_in_task = index.index_in_task
        self.task_pcs = index.task_pcs
        self.producers = index.producers
        self.dependents = index.dependents
        self.prior_task_stores = index.prior_task_stores
        self.all_store_seqs = index.all_store_seqs
        self.addr_producer = index.addr_producer
        self._c_pc = index.pc
        self._c_addr = index.addr
        self._c_is_load = index.is_load
        self._c_is_store = index.is_store
        self._c_is_memory = index.is_memory
        self._c_fu = index.fu_code

    # ------------------------------------------------------------------
    # helpers used by policies
    # ------------------------------------------------------------------

    def all_prior_stores_issued(self, seq) -> bool:
        """No store earlier in program order still has an unknown address.

        A store's address is considered known once its base register is
        available and the store has entered its stage's window (address
        generation happens ahead of the data arriving).
        """
        m = self._unknown_addr_stores.minimum()
        return m is None or m >= seq

    def all_prior_stores_executed(self, seq) -> bool:
        """Every store earlier in program order has completed its access."""
        m = self._unexecuted_stores.minimum()
        return m is None or m >= seq

    def producer_pending(self, seq) -> bool:
        """The load's producing store exists and has not issued yet.

        Once a store has issued, its address and data sit in the store
        queue/ARB and a later load can be satisfied by forwarding, so
        "pending" ends at issue, not at completion.
        """
        producer = self.producers.get(seq)
        return producer is not None and not self.issued[producer]

    @property
    def head_task(self) -> int:
        """Index of the oldest uncommitted task."""
        return self._head

    def task_pc_at(self, task_id) -> Optional[int]:
        """Task PC of the task at a given position (ESYNC's path probe)."""
        if 0 <= task_id < self.n_tasks:
            return self.task_pcs[task_id]
        return None

    def squashed_seqs(self, first_seq):
        """All dispatched instruction seqs at or after *first_seq*."""
        first_task = self.task_of[first_seq]
        for t in range(first_task, self._next_dispatch):
            for seq in self.tasks[t]:
                if seq >= first_seq:
                    yield seq

    def classify_load(self, seq, bucket):
        """Buffer a Table-8 classification until the load's task commits."""
        self._pending_class[seq] = bucket

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def run(self) -> SpeculationStats:
        """Run the simulation to completion and return its stats.

        The issue loop lives in :mod:`repro.multiscalar.batched`; this
        class holds the static index, the helpers policies call, and the
        cold paths the loop calls (violations, squash, register
        violations, the i-cache fetch schedule).

        When the run ends, the policy and the observers keep only a weak
        proxy of the simulator, so a finished simulator is freed as soon
        as its last outside reference goes, without waiting for the
        cyclic garbage collector.
        """
        try:
            return run_batched(self)
        finally:
            proxy = weakref.proxy(self)
            self.policy.release(proxy)
            for observer in self._observers:
                observer.bind(proxy)

    def _publish_run_metrics(self):
        """End-of-run gauges (simulated-time totals and machine shape)."""
        metrics = self.telemetry.metrics
        stats = self.stats
        metrics.gauge("sim.cycles").set(stats.cycles)
        metrics.gauge("sim.ipc").set(round(stats.ipc, 4))
        metrics.gauge("sim.tasks_committed").set(stats.tasks_committed)
        metrics.gauge("sim.committed_instructions").set(stats.committed_instructions)
        metrics.gauge("sim.squashed_instructions").set(stats.squashed_instructions)
        metrics.gauge("sim.control_mispredictions").set(stats.control_mispredictions)
        metrics.gauge("config.stages").set(self.config.stages)
        metrics.gauge("policy.name").set(self.policy.name)

    # -- cold paths of the issue loop ---------------------------------------

    def _reg_avail(self, producer, task_id) -> Optional[int]:
        """When *producer*'s value is usable in *task_id*, or None."""
        done = self.done[producer]
        if done is None:
            return None
        producer_task = self.task_of[producer]
        if producer_task != task_id:
            done += self.config.ring_hop_latency * (task_id - producer_task)
        return done

    def _may_speculate_register(self, producer, consumer_seq, task_id) -> bool:
        """Is the consumer allowed to use a stale value for this operand?"""
        mode = self._reg_spec_mode
        if mode in ("oracle", "conservative"):
            return False
        if self.task_of[producer] == task_id:
            return False  # intra-task dependences use the scoreboard
        if mode == "always":
            return True
        pair = (self._c_pc[producer], self._c_pc[consumer_seq])
        return pair not in self._reg_learned

    def _maybe_writer_stall(self, reg, producer, task_id, now) -> bool:
        """Conservative forwarding: stall while any earlier in-flight task
        whose static write-set contains *reg* — and which is not the true
        producer's task — has not resolved its path yet."""
        first = self._head
        if producer is not None:
            first = max(first, self.task_of[producer] + 1)
        for other in range(first, task_id):
            if reg not in self._index.task_writesets.get(self.task_pcs[other], ()):
                continue
            last_seq = self.tasks[other][-1]
            done = self.done[last_seq]
            if done is None or done > now:
                return True
        return False

    def _source_ready_time(self, seq, task_id, now) -> int:
        ready = 0
        conservative = self._reg_spec_mode == "conservative"
        for reg, producer, prev in self._index.src_operands[seq]:
            if conservative and self._maybe_writer_stall(reg, producer, task_id, now):
                return -1
            if producer is None:
                continue  # value comes with the committed state
            avail = self._reg_avail(producer, task_id)
            if avail is None or avail > now:
                if not self._may_speculate_register(producer, seq, task_id):
                    return -1 if avail is None else (avail if avail > ready else ready)
                # consume the stale (penultimate) value instead
                if prev is None:
                    continue  # stale value comes with committed state
                stale = self._reg_avail(prev, task_id)
                if stale is None:
                    return -1  # not even the stale value exists yet
                avail = stale
            if avail > ready:
                ready = avail
        return ready

    def _schedule_fetch(self, task_id, dispatch_time):
        """Walk the task's instruction stream through the stage's i-cache
        and record each instruction's absolute fetch time."""
        cfg = self.config
        icache = self._icaches[task_id % cfg.stages]
        cursor = dispatch_time
        seqs = self.tasks[task_id]
        c_pc = self._c_pc
        block = cfg.fetch_width
        last_line = None
        for group_start in range(0, len(seqs), block):
            pc_addr = c_pc[seqs[group_start]] * 4
            line = pc_addr // icache.config.block_bytes
            if line != last_line:
                latency = icache.access(pc_addr)
                cursor += latency - 1
                last_line = line
            for seq in seqs[group_start : group_start + block]:
                self._fetch_time[seq] = cursor
            cursor += 1

    def note_load_wake(self, seq):
        """Policy callback: a store signal will release load *seq* next
        cycle — unpark it and rescan its stage (a wake the generic hints
        cannot express)."""
        self._entry_parked[seq] = 0
        self._task_dirty[self.task_of[seq]] = True

    def _find_register_violation(self, producer, time) -> Optional[int]:
        """Earliest consumer that issued before this producer's value
        could have reached it (it used a stale register value)."""
        producer_task = self.task_of[producer]
        for consumer in self._index.reg_dependents.get(producer, ()):
            consumer_task = self.task_of[consumer]
            if consumer_task <= producer_task:
                continue
            if consumer_task >= self._next_dispatch:
                break
            if consumer_task < self._head:
                continue
            issued_at = self.issue_time[consumer]
            if not self.issued[consumer] or issued_at is None:
                continue
            real_avail = time + self.config.ring_hop_latency * (
                consumer_task - producer_task
            )
            if issued_at < real_avail:
                return consumer
        return None

    def squash_for_value_mismatch(self, load_seq, now):
        """A value-speculated load was verified wrong: squash it and
        everything younger (used by the VSYNC extension policy)."""
        self.stats.value_mis_speculations += 1
        restart = now + self.config.squash_penalty
        self._squash_from_seq(load_seq, restart)

    def _handle_register_violation(self, producer, consumer, time):
        self.stats.register_mis_speculations += 1
        if self._tel_on:
            self.telemetry.metrics.counter("sim.register_mis_speculations").inc()
            self.telemetry.trace.instant(
                "register violation",
                ts=time,
                tid=self.task_of[consumer] % self.config.stages,
                cat="violation",
                args={
                    "producer_pc": self._c_pc[producer],
                    "consumer_pc": self._c_pc[consumer],
                },
            )
        pair = (self._c_pc[producer], self._c_pc[consumer])
        self._reg_learned.add(pair)
        restart = time + self.config.squash_penalty
        self._squash_from_seq(consumer, restart)

    def _find_violation(self, store_seq, time) -> Optional[int]:
        """Earliest load violated by this store's execution, if any."""
        store_task = self.task_of[store_seq]
        for load_seq in self.dependents.get(store_seq, ()):
            load_task = self.task_of[load_seq]
            if load_task <= store_task:
                continue
            if load_task >= self._next_dispatch:
                break  # not dispatched yet; later dependents are younger
            if load_task < self._head:
                continue  # already committed (cannot happen; guard anyway)
            done = self.done[load_seq]
            if done is not None and done < self._store_perform[store_seq]:
                # the load performed before the store's data entered the
                # ARB: it read stale data.  Loads completing at or after
                # the store's perform time are satisfied by forwarding.
                if self.policy.absolves_violation(store_seq, load_seq):
                    continue  # e.g. a correctly value-predicted load
                return load_seq
        return None

    def _handle_violation(self, store_seq, load_seq, time):
        self.stats.mis_speculations += 1
        self.stats.breakdown.ny += 1
        if self._tel_on:
            c_pc = self._c_pc
            self.telemetry.metrics.counter("sim.mis_speculations").inc()
            self.telemetry.trace.instant(
                "violation store@%d->load@%d"
                % (c_pc[store_seq], c_pc[load_seq]),
                ts=time,
                tid=self.task_of[load_seq] % self.config.stages,
                cat="violation",
                args={
                    "store_pc": c_pc[store_seq],
                    "load_pc": c_pc[load_seq],
                    "distance": self.task_of[load_seq] - self.task_of[store_seq],
                },
            )
        self.policy.on_violation(store_seq, load_seq, time)
        for observer in self._observers:
            observer.on_violation(store_seq, load_seq, time)
        restart = time + self.config.squash_penalty
        self._squash_from_seq(load_seq, restart)
        # the store itself survives; let it signal for the re-execution
        self.policy.on_store_executed(store_seq, time)

    def _squash_from_seq(self, first_seq, restart):
        """Squash the violating load and every younger instruction.

        Per the paper (Section 4.3), the instructions *following the
        load* are squashed and re-issued: older instructions of the
        load's own task keep their results, so the task's tail — often
        including the producers of younger tasks' recurrences —
        re-executes immediately.  Younger tasks restart staggered by the
        sequencer's re-walk rate.
        """
        cfg = self.config
        first_task = self.task_of[first_seq]
        squashed_before = self.stats.squashed_instructions
        c_is_store = self._c_is_store
        parked = self._entry_parked
        for task_id in range(first_task, self._next_dispatch):
            reset_any = False
            for seq in self.tasks[task_id]:
                if seq < first_seq:
                    continue
                reset_any = True
                parked[seq] = 0  # stale wake registrations must not gate re-issue
                if self.issued[seq]:
                    self.stats.squashed_instructions += 1
                if self._completed[seq]:
                    self._remaining[task_id] += 1
                    self._completed[seq] = False
                self._epoch[seq] += 1
                self.issued[seq] = False
                self.issue_time[seq] = None
                self.done[seq] = None
                self._pending_class.pop(seq, None)
                if self._tel_on:
                    self._load_first_attempt.pop(seq, None)
                if c_is_store[seq]:
                    self._unexecuted_stores.add(seq)
                    self._unknown_addr_stores.add(seq)
            if not reset_any:
                continue
            rebuilt = [s for s in self.tasks[task_id] if not self.issued[s]]
            self._task_unissued[task_id] = rebuilt
            self._task_live[task_id] = len(rebuilt)
            offset = task_id - first_task
            self._issue_floor[task_id] = restart + offset * cfg.squash_stagger
        # everything at or after the squash point changed shape;
        # re-scan every in-flight stage from scratch
        dirty = self._task_dirty
        for task_id in range(self._head, self._next_dispatch):
            dirty[task_id] = True
        if self._tel_on:
            depth = self.stats.squashed_instructions - squashed_before
            self.telemetry.metrics.counter("sim.squashes").inc()
            self.telemetry.metrics.histogram("squash.depth").observe(depth)
            self.telemetry.trace.instant(
                "squash from seq %d" % first_seq,
                ts=restart,
                tid=first_task % cfg.stages,
                cat="squash",
                args={"first_seq": first_seq, "squashed_instructions": depth},
            )
        self.policy.on_squash(first_seq, restart)


def simulate(trace, config=None, policy=None) -> SpeculationStats:
    """Convenience wrapper: run one simulation and return its stats."""
    return MultiscalarSimulator(trace, config=config, policy=policy).run()
