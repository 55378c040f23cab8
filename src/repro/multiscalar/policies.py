"""Data dependence speculation policies (paper Sections 5.4 and 5.5).

Four reference policies plus the proposed mechanism:

* ``NEVER`` — no data dependence speculation: a load may access memory
  only after every preceding in-flight store has computed its address
  and any matching store has executed.
* ``ALWAYS`` — blind speculation (the policy of the era's OoO
  processors): a load accesses memory as soon as its address is ready.
* ``WAIT`` — selective speculation with perfect dependence prediction:
  loads with a true in-window dependence are not speculated (they wait
  for address resolution of all earlier stores); independent loads run
  free.  No explicit synchronization — this is the policy Figure 1(d)
  shows losing to blind speculation.
* ``PSYNC`` — perfect prediction *and* perfect synchronization: a
  dependent load waits exactly until its producing store executes; the
  upper bound for the proposed mechanism.
* ``MECHANISM`` — the MDPT/MDST implementation of Section 4 with a
  pluggable predictor ("always", "sync", or "esync").

Each policy instance is single-run state; create a fresh one per
simulation.
"""

from __future__ import annotations

from typing import Dict

from repro.core.engine import SynchronizationEngine
from repro.core.mdpt import MDPT
from repro.core.mdst import MDST
from repro.core.predictors import make_predictor
from repro.core.unified import SlottedMDST, make_unified_engine
from repro.telemetry import NULL_TELEMETRY


# Wake-hint kinds returned by :meth:`SpeculationPolicy.deny_hints`.
# The simulator's event-driven issue loop uses them to decide when a
# denied load's stage must be rescanned; each hint names one condition
# under which the policy's answer could change.
WAKE_TIME = 0      # rescan at the absolute cycle in ``arg``
WAKE_ISSUE = 1     # rescan when instruction ``arg`` issues
WAKE_ADDR_MIN = 2  # rescan once no store older than ``arg`` has an unknown address
WAKE_EXEC_MIN = 3  # rescan once every store older than ``arg`` has executed
WAKE_COMMIT = 4    # rescan once the window head has advanced past task ``arg``
WAKE_RESOLVE = 5   # rescan when store ``arg``'s address resolves


class SpeculationPolicy:
    """Interface between the timing simulator and a speculation policy."""

    name = "abstract"

    def bind(self, sim):
        """Attach to a simulator instance before the run starts."""
        self.sim = sim

    def release(self, proxy):
        """The run ended: keep *proxy*, a weak proxy of the simulator, so
        the policy no longer holds its simulator alive.  Everything the
        policy learned stays readable."""
        self.sim = proxy

    def may_issue_load(self, seq, now) -> bool:
        """May the operand-ready load *seq* access memory at *now*?

        The per-cycle reference scan (``tests/multiscalar/reference.py``)
        consults this once per cycle per ready load until it returns
        True.  The simulator's event-driven loop consults it only on
        cycles where one of the load's :meth:`deny_hints` conditions
        fired — the grant/deny *decisions* are identical, the number of
        consultations is not.
        """
        raise NotImplementedError

    def deny_hints(self, seq, now):
        """Why was load *seq* just denied, as wake conditions?

        Called by the event-driven issue loop immediately after
        :meth:`may_issue_load` returned False, for every policy.
        Returns a list of ``(WAKE_*, arg)`` tuples that together cover
        every way the denial could lift; the load's stage is rescanned
        when any of them fires.  These hints are the loop's only wake
        source for a policy denial, apart from ``sim.note_load_wake``,
        which a policy that releases a load from its own callback (the
        mechanism's store signal) calls; a way to lift the denial that
        no hint names wakes the load late.  Returning None (the
        default, and the safe answer for any policy that does not model
        its own wake conditions) makes the loop fall back to rescanning
        the stage every cycle — always correct, merely slower.
        """
        return None

    def on_store_issued(self, seq, now):
        """A store issued: its address and data just entered the ARB."""

    def on_store_executed(self, seq, now):
        """A store (re-)announced after a violation it caused."""

    def on_violation(self, store_seq, load_seq, now):
        """A dependence mis-speculation was detected."""

    def absolves_violation(self, store_seq, load_seq) -> bool:
        """True when an apparent order violation is actually fine —
        e.g. the load ran early on a correctly predicted value."""
        return False

    def on_squash(self, first_seq, now):
        """Instruction *first_seq* and everything younger were squashed."""

    def explain_violation(self, store_seq, load_seq) -> Dict[str, object]:
        """The policy's view of a violation it just suffered, as one
        JSON-able dict — consulted by the squash ledger
        (:mod:`repro.multiscalar.explain`) *after* :meth:`on_violation`
        and before the squash, so predictor tables already reflect the
        mis-speculation.  Must not mutate policy state.  The base
        answer: the policy held no per-pair state that could have
        prevented the squash."""
        return {"decision": "speculated", "pair_state": None}

    def on_task_dispatched(self, task_id, now):
        """A task entered the window (its instructions are now fetched)."""

    def on_task_committed(self, task_id, now):
        """The head task committed (apply non-speculative updates)."""

    def publish_telemetry(self, telemetry):
        """Publish end-of-run metrics (called once after the run when
        telemetry is enabled; must not mutate policy state)."""


class AlwaysPolicy(SpeculationPolicy):
    """Blind speculation."""

    name = "ALWAYS"

    def may_issue_load(self, seq, now):
        return True


class NeverPolicy(SpeculationPolicy):
    """No data dependence speculation."""

    name = "NEVER"

    def may_issue_load(self, seq, now):
        sim = self.sim
        return sim.all_prior_stores_issued(seq) and not sim.producer_pending(seq)

    def deny_hints(self, seq, now):
        sim = self.sim
        hints = []
        m = sim._unknown_addr_stores.minimum()
        if m is not None and m < seq:
            hints.append((WAKE_ADDR_MIN, seq))
        producer = sim.producers.get(seq)
        if producer is not None and not sim.issued[producer]:
            hints.append((WAKE_ISSUE, producer))
        return hints or None


class WaitPolicy(SpeculationPolicy):
    """Selective speculation with perfect dependence prediction.

    A load predicted dependent (its producing store is inside the
    current window) is simply *not speculated*: with no explicit
    synchronization it cannot tell which of the preceding stores feeds
    it, so it waits until the addresses of all earlier unexecuted
    stores are known to differ and any matching store has executed —
    even if its actual producer finished long ago (Figure 1(d)).
    """

    name = "WAIT"

    def may_issue_load(self, seq, now):
        sim = self.sim
        producer = sim.producers.get(seq)
        if producer is None or sim.task_of[producer] < sim.head_task:
            return True  # no true dependence within the current window
        return sim.all_prior_stores_issued(seq) and not sim.producer_pending(seq)

    def deny_hints(self, seq, now):
        sim = self.sim
        # the denial can also lift when the producer's task commits out
        # of the window (the load then counts as independent)
        hints = [(WAKE_COMMIT, sim.task_of[sim.producers[seq]])]
        m = sim._unknown_addr_stores.minimum()
        if m is not None and m < seq:
            hints.append((WAKE_ADDR_MIN, seq))
        producer = sim.producers.get(seq)
        if producer is not None and not sim.issued[producer]:
            hints.append((WAKE_ISSUE, producer))
        return hints


class PerfectSyncPolicy(SpeculationPolicy):
    """Perfect prediction and synchronization (upper bound)."""

    name = "PSYNC"

    def may_issue_load(self, seq, now):
        return not self.sim.producer_pending(seq)

    def deny_hints(self, seq, now):
        producer = self.sim.producers.get(seq)
        if producer is None:
            return None
        return [(WAKE_ISSUE, producer)]


class MechanismPolicy(SpeculationPolicy):
    """The proposed MDPT/MDST mechanism (paper Section 5.5).

    The evaluated organization combines both tables: *capacity* MDPT
    entries, each carrying one synchronization slot per stage
    (``structure="unified"``, the paper's Section 5.5 configuration).
    ``structure="split"`` keeps a separate MDST pool of
    ``mdst_capacity`` entries instead.  Dynamic dependence edges are
    tagged with the instance distance by default (``tagging=
    "distance"``); ``tagging="address"`` uses the accessed data address
    as the handle instead — the alternative of Section 3 that the
    ablation benchmarks compare.  Predictor updates are buffered per
    task and applied only when the task commits (non-speculative
    updates, per the paper).
    """

    _NOT_SEEN, _PARKED, _CLEARED = 0, 1, 2

    def __init__(
        self,
        predictor="sync",
        capacity=64,
        structure="unified",
        tagging="distance",
        mdst_capacity=None,
        **predictor_kwargs,
    ):
        if structure not in ("unified", "split"):
            raise ValueError("unknown structure %r" % (structure,))
        if tagging not in ("distance", "address"):
            raise ValueError("unknown tagging %r" % (tagging,))
        # build the tables bind builds, so a value they reject fails here
        MDPT(capacity, make_predictor(predictor, **predictor_kwargs))
        if structure == "split" and mdst_capacity:
            MDST(mdst_capacity)
        self.predictor_name = predictor
        self.capacity = capacity
        self.structure = structure
        self.tagging = tagging
        self.mdst_capacity = mdst_capacity
        self.predictor_kwargs = predictor_kwargs
        self.engine = None

    @property
    def name(self):
        return self.predictor_name.upper()

    def _instance_of(self, seq):
        """The dynamic tag: task id (distance tagging, the paper's
        evaluated scheme) or the accessed data address."""
        if self.tagging == "distance":
            return self.sim.task_of[seq]
        return self.sim._c_addr[seq]

    def bind(self, sim):
        super().bind(sim)
        stages = sim.config.stages
        # tolerate facade sims (tests, notebooks) without a telemetry slot
        self._telemetry = getattr(sim, "telemetry", NULL_TELEMETRY)
        metrics = self._telemetry.metrics
        if self.structure == "unified":
            self.engine = make_unified_engine(
                self.capacity, stages, self.predictor_name, metrics=metrics,
                **self.predictor_kwargs,
            )
        else:
            self.engine = SynchronizationEngine(
                MDPT(self.capacity, make_predictor(self.predictor_name, **self.predictor_kwargs)),
                MDST(self.mdst_capacity or self.capacity * stages),
                metrics=metrics,
            )
        n = len(sim.trace)
        self._status = [self._NOT_SEEN] * n
        self._wake_time = [0] * n
        # per-task buffers of deferred predictor updates: (kind, pair)
        self._pending_updates: Dict[int, list] = {}

    # -- helpers ---------------------------------------------------------

    def _sample_occupancy(self, now):
        """Table occupancy and condition-variable pool pressure at *now*.

        Sampled at task dispatch and commit — the points where the
        window (and with it the tables' working set) changes shape.
        """
        metrics = self._telemetry.metrics
        mdpt, mdst = self.engine.mdpt, self.engine.mdst
        waiting = sum(1 for e in mdst if e.waiting)
        metrics.series("mdpt.occupancy").sample(now, len(mdpt))
        metrics.series("mdst.occupancy").sample(now, len(mdst))
        metrics.series("mdst.waiting_loads").sample(now, waiting)
        trace = self._telemetry.trace
        trace.counter("MDPT occupancy", now, {"entries": len(mdpt)})
        trace.counter(
            "MDST occupancy", now, {"waiting": waiting, "full": len(mdst) - waiting}
        )

    def _defer(self, seq, kind, payload):
        task_id = self.sim.task_of[seq]
        self._pending_updates.setdefault(task_id, []).append((kind, payload, seq))

    def _park_or_clear(self, seq, now):
        """First attempt: run the load through the MDPT/MDST."""
        sim = self.sim
        result = self.engine.load_request(
            sim._c_pc[seq],
            self._instance_of(seq),
            seq,
            task_pc_of=sim.task_pc_at if self.tagging == "distance" else None,
        )
        if result.proceed:
            self._status[seq] = self._CLEARED
            if result.predicted:
                # predicted dependence satisfied without waiting: the
                # paper's accounting books this as "no dependence" (Y/N),
                # but the synchronization did its job, so strengthen.
                sim.classify_load(seq, "yn")
                for e in result.matched_entries:
                    self._defer(seq, "reward", (e.store_pc, e.load_pc))
            else:
                sim.classify_load(seq, "nn")
            return True
        self._status[seq] = self._PARKED
        return False

    # -- SpeculationPolicy interface --------------------------------------

    def may_issue_load(self, seq, now):
        sim = self.sim
        status = self._status[seq]
        if status == self._CLEARED:
            return now >= self._wake_time[seq]
        if status == self._NOT_SEEN:
            return self._park_or_clear(seq, now)
        # parked: woken by a store signal?  (the engine freed the entry
        # and the simulator recorded the wake via wake_load)
        if self._wake_time[seq] > 0:
            self._status[seq] = self._CLEARED
            return now >= self._wake_time[seq]
        # fallback: all prior stores executed -> force release
        if sim.all_prior_stores_executed(seq):
            pairs = self.engine.release_load(seq)
            for pair in pairs:
                self._defer(seq, "penalize", pair)
            sim.classify_load(seq, "yn")
            self._status[seq] = self._CLEARED
            return True
        return False

    def deny_hints(self, seq, now):
        # read *after* may_issue_load mutated the load's status
        wake = self._wake_time[seq]
        if wake > 0:
            return [(WAKE_TIME, wake)]
        # parked on the MDST: a store signal arrives through wake_load
        # (which dirties the stage directly); the forced-release
        # fallback fires once every prior store has executed
        return [(WAKE_EXEC_MIN, seq)]

    def wake_load(self, seq, now):
        """A store signalled this parked load: it may run next cycle."""
        self.sim.classify_load(seq, "yy")
        self._defer(seq, "reward_all", seq)
        self._wake_time[seq] = now + 1
        note = getattr(self.sim, "note_load_wake", None)
        if note is not None:  # facade sims in tests lack the issue loop
            note(seq)

    def on_store_issued(self, seq, now):
        """The paper signals when the store is ready to access memory
        (Figure 4 action 5), concurrent with its cache access."""
        sim = self.sim
        woken = self.engine.store_request(
            sim._c_pc[seq],
            self._instance_of(seq),
            stid=seq,
            task_pc=sim.task_pcs[sim.task_of[seq]],
        )
        for load_seq in woken:
            self.wake_load(load_seq, now)

    def on_store_executed(self, seq, now):
        # re-announce after a violation so the squashed load finds a
        # pre-set full condition variable when it re-executes
        self.on_store_issued(seq, now)

    def on_violation(self, store_seq, load_seq, now):
        sim = self.sim
        task_of = sim.task_of
        store_task = task_of[store_seq]
        if self.tagging == "distance":
            distance = task_of[load_seq] - store_task
        else:
            distance = 0  # address tags match directly; no offset needed
        self.engine.record_mis_speculation(
            sim._c_pc[store_seq],
            sim._c_pc[load_seq],
            distance=distance,
            store_task_pc=sim.task_pcs[store_task],
        )

    def explain_violation(self, store_seq, load_seq):
        """MDPT/MDST state for the just-recorded violation.

        ``on_violation`` has already run, so the entry (allocated or
        strengthened by :meth:`SynchronizationEngine.record_mis_speculation`)
        reflects the squash-time state the next instance will consult.
        """
        c_pc = self.sim._c_pc
        entry = self.engine.mdpt.get(c_pc[store_seq], c_pc[load_seq])
        mdpt_entry = None
        if entry is not None:
            state = entry.state
            predictor = self.engine.mdpt.predictor
            counter = getattr(state, "value", None)
            threshold = getattr(predictor, "threshold", None)
            if counter is not None and threshold is not None:
                # threshold arming, not predict(): path-sensitive
                # predictors need a candidate task PC we no longer have
                armed = counter >= threshold
            elif state is not None:
                armed = bool(predictor.predict(state))
            else:
                armed = None
            mdpt_entry = {
                "distance": entry.distance,
                "counter": counter,
                "predicts_dependence": armed,
            }
        mdst = self.engine.mdst
        return {
            "decision": "speculated",
            "predictor": self.predictor_name,
            "tagging": self.tagging,
            "pair_state": mdpt_entry,
            "mdst_waiting_loads": sum(1 for e in mdst if e.waiting),
        }

    def on_squash(self, first_seq, now):
        sim = self.sim
        first_task = sim.task_of[first_seq]
        for task_id, updates in list(self._pending_updates.items()):
            if task_id < first_task:
                continue
            kept = [u for u in updates if u[2] < first_seq]
            if kept:
                self._pending_updates[task_id] = kept
            else:
                del self._pending_updates[task_id]
        for seq in sim.squashed_seqs(first_seq):
            self._status[seq] = self._NOT_SEEN
            self._wake_time[seq] = 0
        self.engine.squash(
            lambda ldid: ldid >= first_seq,
            lambda stid: stid >= first_seq,
        )

    def on_task_dispatched(self, task_id, now):
        if self._telemetry.enabled:
            self._sample_occupancy(now)

    def publish_telemetry(self, telemetry):
        metrics = telemetry.metrics
        mdpt, mdst = self.engine.mdpt, self.engine.mdst
        metrics.gauge("mdpt.capacity").set(mdpt.capacity)
        metrics.gauge("mdpt.entries").set(len(mdpt))
        metrics.gauge("mdpt.allocations").set(mdpt.allocations)
        metrics.gauge("mdpt.evictions").set(mdpt.evictions)
        metrics.gauge("mdst.capacity").set(mdst.capacity)
        metrics.gauge("mdst.entries").set(len(mdst))
        metrics.gauge("mdst.allocations").set(mdst.allocations)
        metrics.gauge("mdst.overflow_drops").set(mdst.overflow_drops)
        metrics.gauge("mdst.failed_allocations").set(mdst.failed_allocations)
        if isinstance(mdst, SlottedMDST):
            metrics.gauge("mdst.slot_replacements").set(mdst.slot_replacements)

    def on_task_committed(self, task_id, now):
        if self._telemetry.enabled:
            self._sample_occupancy(now)
        for kind, payload, _seq in self._pending_updates.pop(task_id, ()):
            if kind == "reward":
                self.engine.reward_pair(*payload)
            elif kind == "penalize":
                self.engine.penalize_pair(*payload)
            elif kind == "reward_all":
                # reward every MDPT entry that predicted this load; the
                # load PC is enough — the signalled pair(s) match it.
                load_pc = self.sim._c_pc[payload]
                for entry in list(self.engine.mdpt.lookup_load(load_pc)):
                    self.engine.reward_pair(entry.store_pc, entry.load_pc)


class StaticPrimedSyncPolicy(MechanismPolicy):
    """SYNC with the MDPT seeded from static MUST-alias proofs.

    Before the first dynamic instruction, the symbolic alias analysis
    (:mod:`repro.staticdep.symbolic`) runs over the traced program;
    every (store, load) pair it *proves* aliasing, with a statically
    inferred dependence distance, is pre-installed in the MDPT via
    :meth:`repro.core.mdpt.MDPT.install`.  Such pairs synchronize from
    their very first dynamic encounter — the plain SYNC policy instead
    pays one cold-start mis-speculation per pair to learn the same
    entry.  Pairs whose static distance reaches beyond the processor
    window are skipped: with fewer stages in flight than the distance
    spans, the producer has always committed before the consumer
    dispatches, so the entry could only cause useless synchronization.
    """

    def __init__(self, predictor="sync", **kwargs):
        super().__init__(predictor=predictor, **kwargs)
        self.primed_pairs = 0
        self.analysis = None

    @property
    def name(self):
        return "PRIMED"

    def bind(self, sim):
        from repro.staticdep.analysis import analyze_program_symbolic

        super().bind(sim)
        self.analysis = None
        program = getattr(sim.trace, "program", None)
        if program is None:
            return  # facade sims without a program: run unprimed
        analysis = analyze_program_symbolic(program)
        self.analysis = analysis
        horizon = sim.config.stages
        maximum = getattr(self.engine.mdpt.predictor, "maximum", None)
        for store_pc, load_pc, distance in analysis.primable():
            if distance < horizon:
                entry = self.engine.mdpt.install(store_pc, load_pc, distance)
                # A proven MUST dependence holds on *every* iteration, so
                # start the counter saturated, not at the allocation value:
                # the loop's first instance has no partner store in flight,
                # and the resulting force-release would otherwise penalize
                # a freshly primed entry straight below threshold.
                if maximum is not None and hasattr(entry.state, "value"):
                    entry.state.value = maximum
        self.primed_pairs = self.engine.mdpt.primed

    def publish_telemetry(self, telemetry):
        super().publish_telemetry(telemetry)
        telemetry.metrics.gauge("mdpt.primed").set(self.primed_pairs)


def replay_slice(pcs, task_of, addr, start, budget, union, watch):
    """Pre-execute a slice by replaying a trace's columns.

    Walks the committed *pcs* from seq *start*.  Each entry whose pc is
    in *union* counts as one executed slice instruction, until *budget*
    of them have run; other pcs are skipped for free.  Returns
    ``(events, stop, executed)``: the ``(pc, task, address)`` of every
    executed entry whose pc is in *watch*, read from the *task_of* and
    *addr* columns; the seq to resume from (``len(pcs)`` once the trace
    is replayed); and how many slice instructions ran.
    """
    events = []
    executed = 0
    seq = start
    n = len(pcs)
    while executed < budget and seq < n:
        pc = pcs[seq]
        if pc in union:
            executed += 1
            if pc in watch:
                events.append((pc, task_of[seq], addr[seq]))
        seq += 1
    return events, seq, executed


class SliceWarmedSyncPolicy(StaticPrimedSyncPolicy):
    """PRIMED extended with Prophet-style pre-computation slices.

    Static priming removes cold-start squashes only for pairs the
    symbolic analysis *proves* MUST-alias.  This policy generalizes
    "provable at compile time" to "resolvable at runtime ahead of
    need": for every remaining MAY/MUST pair whose address-generation
    slice is affordable (:func:`repro.staticdep.pdg.extract_predictor_slices`),
    a bounded pre-execution replays the union of those slices ahead of
    the main sequencer.  Each task dispatch grants it
    ``slice_budget_per_task`` slice instructions; whenever the
    pre-executed store and load addresses collide across tasks within
    the window horizon, the pair is installed into the MDPT with a
    saturated counter — before the first real consumer issues, so even
    unprovable recurring dependences synchronize from their first
    dynamic encounter.

    At most one producer is ever installed per load (the first the
    pre-execution resolves): a load guarded by entries against several
    conditional producers stalls on stores that may never execute in
    its task, which costs far more than the one cold-start squash a
    second entry could save.

    The pre-execution is a replay of the trace (:func:`replay_slice`):
    an executable slice computes the full run's value at every
    instruction it keeps, and loop-carried slices, whose addresses
    could depend on the stores they skip, are never warmed.  So the
    sliced walk follows the committed pc stream, and each watched
    instance's task and address are the trace's.  The replay only
    reads the trace: it cannot fault or touch architectural state,
    and once it reaches the trace's end the policy runs as PRIMED.
    """

    def __init__(
        self,
        predictor="sync",
        slice_budget_per_task=32,
        slice_max_length=64,
        slice_max_loads=8,
        **kwargs,
    ):
        super().__init__(predictor=predictor, **kwargs)
        self.slice_budget_per_task = slice_budget_per_task
        self.slice_max_length = slice_max_length
        self.slice_max_loads = slice_max_loads
        self.warmable_pairs = 0
        self.installed_pairs = 0
        self.slice_instructions = 0
        self._cursor = None
        self._consumers = {}
        self._unresolved = set()
        self._store_events = {}
        self._horizon = 0
        self._maximum = None

    @property
    def name(self):
        return "SLICEWARM"

    def bind(self, sim):
        from repro.staticdep.pdg import (
            WARMABLE,
            SliceBudget,
            build_pdg,
            extract_predictor_slices,
        )

        super().bind(sim)
        self.warmable_pairs = 0
        self.installed_pairs = 0
        self.slice_instructions = 0
        self._cursor = None
        self._consumers = {}
        self._unresolved = set()
        self._store_events = {}
        program = getattr(sim.trace, "program", None)
        if program is None or self.analysis is None:
            return  # facade sims without a program: run as plain PRIMED
        pdg = build_pdg(program, analysis=self.analysis)
        budget = SliceBudget(
            max_length=self.slice_max_length, max_loads=self.slice_max_loads
        )
        mdpt = self.engine.mdpt
        slices = [
            s
            for s in extract_predictor_slices(pdg, budget)
            if s.status == WARMABLE and not mdpt.has_entry_for_load(s.load_pc)
        ]
        self.warmable_pairs = len(slices)
        if not slices:
            return
        union = set()
        watch = set()
        for s in slices:
            union |= s.pcs
            watch.add(s.store_pc)
            watch.add(s.load_pc)
            self._unresolved.add(s.pair)
            self._consumers.setdefault(s.load_pc, []).append(s.store_pc)
        self._horizon = sim.config.stages
        self._maximum = getattr(mdpt.predictor, "maximum", None)
        index = sim.trace.index()
        self._replay = (index.pc, index.task_of, index.addr, frozenset(union), frozenset(watch))
        self._cursor = 0
        # Prophet launches its slices ahead of the sequencer: give the
        # pre-execution one window's worth of head start at spawn time.
        self._advance(self.slice_budget_per_task * self._horizon)

    def _advance(self, budget):
        """Replay *budget* more slice instructions and resolve
        store->load collisions into MDPT installs."""
        pcs, task_of, addr, union, watch = self._replay
        events, self._cursor, executed = replay_slice(
            pcs, task_of, addr, self._cursor, budget, union, watch
        )
        self.slice_instructions += executed
        if self._telemetry.enabled and executed:
            self._telemetry.metrics.counter("slice.pre_exec_instructions").inc(executed)
        mdpt = self.engine.mdpt
        for pc, task, address in events:
            consumers = self._consumers.get(pc)
            if consumers is None:
                # store-side watch: remember (task, addr), pruned to the
                # window horizon — older producers cannot synchronize.
                history = self._store_events.setdefault(pc, [])
                history.append((task, address))
                while history and history[0][0] < task - self._horizon:
                    history.pop(0)
                continue
            for store_pc in consumers:
                if (store_pc, pc) not in self._unresolved:
                    continue
                if mdpt.has_entry_for_load(pc):
                    # One producer per load: a second entry (learned,
                    # primed, or warmed meanwhile) would make the load
                    # also wait on a store that may never execute in
                    # its task — far costlier than one cold start.
                    self._unresolved.discard((store_pc, pc))
                    continue
                for store_task, store_addr in reversed(
                    self._store_events.get(store_pc, ())
                ):
                    if store_addr != address or store_task >= task:
                        continue
                    distance = task - store_task
                    if distance < self._horizon:
                        entry = mdpt.install(store_pc, pc, distance)
                        if self._maximum is not None and hasattr(
                            entry.state, "value"
                        ):
                            entry.state.value = self._maximum
                        self.installed_pairs += 1
                        # retire every sibling candidate of this load
                        for sibling in consumers:
                            self._unresolved.discard((sibling, pc))
                    break
        if not self._unresolved or self._cursor == len(pcs):
            self._cursor = None  # every pair resolved or the trace replayed

    def on_task_dispatched(self, task_id, now):
        super().on_task_dispatched(task_id, now)
        if self._cursor is not None:
            self._advance(self.slice_budget_per_task)

    def publish_telemetry(self, telemetry):
        super().publish_telemetry(telemetry)
        metrics = telemetry.metrics
        metrics.gauge("slice.warmable_pairs").set(self.warmable_pairs)
        metrics.gauge("slice.installed_pairs").set(self.installed_pairs)
        metrics.gauge("slice.instructions").set(self.slice_instructions)


class ValueSyncPolicy(MechanismPolicy):
    """VSYNC: value-predict dependence-likely loads (paper Section 6).

    Where the base mechanism parks a predicted-dependent load until its
    store signals, VSYNC first consults a value predictor: a confident
    prediction lets the load execute immediately with the predicted
    value.  When the producing store arrives, the prediction is
    verified against the architecturally-correct value; a mismatch
    squashes the load and everything younger.  Loads without a
    confident value prediction fall back to synchronization.
    """

    def __init__(self, predictor="esync", value_predictor="stride", **kwargs):
        from repro.core.value_prediction import make_value_predictor

        super().__init__(predictor=predictor, **kwargs)
        make_value_predictor(value_predictor)  # an unknown name fails here
        self.value_predictor_name = value_predictor

    @property
    def name(self):
        return "VSYNC"

    def bind(self, sim):
        from repro.core.value_prediction import make_value_predictor

        super().bind(sim)
        self.values = make_value_predictor(self.value_predictor_name)
        self._value_speculated: Dict[int, object] = {}
        self._verified_ok = set()
        self._trained = set()
        self.value_speculations = 0

    def _park_or_clear(self, seq, now):
        pc = self.sim._c_pc[seq]
        # the prediction for THIS load must precede its own training
        predicted = self.values.predict(pc)
        if seq not in self._trained:
            # value predictors train speculatively at execute time; one
            # training per dynamic instance, squash or not
            self._trained.add(seq)
            self.values.train(pc, self.sim._index.value[seq])
        proceeded = super()._park_or_clear(seq, now)
        if proceeded or self._status[seq] != self._PARKED:
            return proceeded
        if predicted is None:
            return False  # no confidence: stay parked on the MDST
        # drop the condition variables and run with the predicted value
        for cv in self.engine.mdst.entries_for_ldid(seq):
            self.engine.mdst.free(cv)
        self._value_speculated[seq] = predicted
        self.value_speculations += 1
        self._status[seq] = self._CLEARED
        self.sim.classify_load(seq, "yy")
        return True

    def on_store_issued(self, seq, now):
        super().on_store_issued(seq, now)
        sim = self.sim
        for load_seq in sim.dependents.get(seq, ()):
            predicted = self._value_speculated.pop(load_seq, None)
            if predicted is None:
                continue
            if not sim.issued[load_seq]:
                continue
            actual = sim._index.value[load_seq]
            correct = predicted == actual
            self.values.record_outcome(correct)
            if correct:
                self._verified_ok.add(load_seq)
            else:
                sim.squash_for_value_mismatch(load_seq, now)

    def absolves_violation(self, store_seq, load_seq):
        return load_seq in self._verified_ok

    def publish_telemetry(self, telemetry):
        super().publish_telemetry(telemetry)
        telemetry.metrics.gauge("vsync.value_speculations").set(self.value_speculations)

    def on_squash(self, first_seq, now):
        super().on_squash(first_seq, now)
        for seq in list(self._value_speculated):
            if seq >= first_seq:
                del self._value_speculated[seq]
        self._verified_ok = {s for s in self._verified_ok if s < first_seq}

    def on_task_committed(self, task_id, now):
        super().on_task_committed(task_id, now)
        for seq in self.sim.tasks[task_id]:
            self._value_speculated.pop(seq, None)
            self._verified_ok.discard(seq)
            self._trained.discard(seq)


class StoreSetPolicy(SpeculationPolicy):
    """Memory dependence speculation via store sets (Chrysos & Emer,
    ISCA 1998) — the successor mechanism, provided for head-to-head
    comparison with the paper's MDPT/MDST on the same substrate.

    At task dispatch every memory instruction passes the SSIT/LFST in
    program order: stores install themselves, loads record the specific
    in-flight store they must wait for.  A waiting load issues once
    that store has performed; violations merge the pair's store sets.
    """

    name = "STORESET"

    def __init__(self, ssit_size=1024, lfst_size=256):
        from repro.core.store_sets import StoreSetPredictor

        StoreSetPredictor(ssit_size, lfst_size)  # sizes bind would reject fail here
        self.ssit_size = ssit_size
        self.lfst_size = lfst_size

    def bind(self, sim):
        super().bind(sim)
        from repro.core.store_sets import StoreSetPredictor

        self.predictor = StoreSetPredictor(self.ssit_size, self.lfst_size)
        self._wait_for: Dict[int, int] = {}  # load seq -> store seq

    def on_task_dispatched(self, task_id, now):
        sim = self.sim
        is_load = sim._c_is_load
        is_store = sim._c_is_store
        c_pc = sim._c_pc
        for seq in sim.tasks[task_id]:
            if is_store[seq]:
                self.predictor.store_fetched(c_pc[seq], seq)
            elif is_load[seq]:
                dep = self.predictor.load_fetched(c_pc[seq])
                if dep is not None:
                    self._wait_for[seq] = dep

    def may_issue_load(self, seq, now):
        dep = self._wait_for.get(seq)
        if dep is None:
            return True
        sim = self.sim
        if sim.issued[dep] and sim._store_perform[dep] <= now:
            del self._wait_for[seq]
            return True
        if not sim.issued[dep] and sim.all_prior_stores_executed(seq):
            # safety valve mirroring the MDST fallback: the tracked store
            # was squashed away or reordered; never deadlock
            del self._wait_for[seq]
            return True
        return False

    def deny_hints(self, seq, now):
        dep = self._wait_for.get(seq)
        if dep is None:
            return None
        sim = self.sim
        if sim.issued[dep]:
            return [(WAKE_TIME, sim._store_perform[dep])]
        return [(WAKE_ISSUE, dep), (WAKE_EXEC_MIN, seq)]

    def on_store_issued(self, seq, now):
        self.predictor.store_issued(self.sim._c_pc[seq], seq)

    def on_violation(self, store_seq, load_seq, now):
        c_pc = self.sim._c_pc
        self.predictor.on_violation(c_pc[store_seq], c_pc[load_seq])

    def on_squash(self, first_seq, now):
        self.predictor.squash(lambda store_id: store_id >= first_seq)
        for load_seq in list(self._wait_for):
            if load_seq >= first_seq:
                del self._wait_for[load_seq]
        # squashed instructions re-fetch through the SSIT/LFST in program
        # order, exactly like their original dispatch
        sim = self.sim
        is_load = sim._c_is_load
        is_store = sim._c_is_store
        c_pc = sim._c_pc
        for seq in sim.squashed_seqs(first_seq):
            if is_store[seq]:
                self.predictor.store_fetched(c_pc[seq], seq)
            elif is_load[seq]:
                dep = self.predictor.load_fetched(c_pc[seq])
                if dep is not None and not (
                    sim.issued[dep] and sim._store_perform[dep] <= now
                ):
                    self._wait_for[seq] = dep


#: Canonical policy name -> factory, in the order the CLI and the
#: comparison harness present them (NEVER first: it is the speedup
#: baseline everywhere).
POLICY_FACTORIES = {
    "never": NeverPolicy,
    "always": AlwaysPolicy,
    "wait": WaitPolicy,
    "psync": PerfectSyncPolicy,
    "sync": lambda **kw: MechanismPolicy(predictor="sync", **kw),
    "esync": lambda **kw: MechanismPolicy(predictor="esync", **kw),
    "sync_static_primed": StaticPrimedSyncPolicy,
    "sync_slice_warmed": SliceWarmedSyncPolicy,
    "vsync": ValueSyncPolicy,
    "storeset": StoreSetPolicy,
}

#: Accepted non-canonical spellings (variants kept out of sweeps).
POLICY_ALIASES = {
    "always-sync": lambda **kw: MechanismPolicy(predictor="always", **kw),
}


def available_policies():
    """Canonical policy names, in presentation order.

    The CLI derives its ``--policy`` choices and comparison column set
    from this, so registering a policy here is all it takes to surface
    it everywhere.
    """
    return tuple(POLICY_FACTORIES)


def make_policy(name, **kwargs) -> SpeculationPolicy:
    """Policy factory.

    Accepted names: everything in :func:`available_policies` — "never",
    "always", "wait", "psync", the mechanism predictors "sync" and
    "esync", "sync_static_primed" (SYNC with the MDPT seeded from
    static MUST-alias proofs), "sync_slice_warmed" (PRIMED plus
    Prophet-style pre-executed address slices that install MAY pairs
    resolved ahead of need), "vsync" (the Section 6 hybrid:
    value-predict dependence-likely loads), "storeset" — plus the alias
    "always-sync" (MDPT/MDST with the always-synchronize predictor).
    """
    lowered = name.lower()
    factory = POLICY_FACTORIES.get(lowered) or POLICY_ALIASES.get(lowered)
    if factory is None:
        raise ValueError("unknown policy %r" % (name,))
    return factory(**kwargs)
