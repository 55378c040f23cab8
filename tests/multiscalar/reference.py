"""The per-cycle scan: a test-only reference for the simulator's issue loop.

:func:`run_reference` drives a :class:`MultiscalarSimulator` the plain
way: every cycle it processes due completions, dispatches, rescans every
in-flight stage from its oldest unissued entry, asks the policy about
every ready load, and commits.  Nothing is parked, no wake condition is
registered and no scan is skipped, so every decision is re-derived from
the machine state each cycle.

The simulator's own loop (:mod:`repro.multiscalar.batched`) reaches the
same decisions while skipping the scans that cannot change anything.
The differential harness in ``test_kernel_differential.py`` holds the
two equal in every statistic, squash cause, metric and trace event,
except ``policy.load_denials``: that counter counts policy calls, and
the simulator skips repeat calls by design.

The reference shares the simulator's static index and its cold paths
(violation, squash, register violation, fetch schedule and operand
readiness), so it checks the issue loop, not those.
"""

from __future__ import annotations

import heapq

from repro.frontend.static_index import FU_ORDER, NUM_FU_CLASSES
from repro.memsys.icache import InstructionCache
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, make_policy
from repro.multiscalar.explain import SquashLedger
from repro.multiscalar.processor import SimulationError, _LazyMinSet
from repro.multiscalar.sequencer import PathBasedTaskPredictor


def run_cell(trace, policy_name, reference=False, telemetry=None, **config_kwargs):
    """One (trace, policy, config) cell on the loop or the reference."""
    ledger = SquashLedger()
    sim = MultiscalarSimulator(
        trace,
        MultiscalarConfig(**config_kwargs),
        make_policy(policy_name),
        telemetry=telemetry,
        observers=[ledger],
    )
    stats = run_reference(sim) if reference else sim.run()
    return stats.summary(), ledger.causes


def assert_matches_reference(trace, policy_name, **config_kwargs):
    """Run one cell on both; require equal stats and squash ledgers."""
    ref_summary, ref_causes = run_cell(trace, policy_name, reference=True, **config_kwargs)
    summary, causes = run_cell(trace, policy_name, **config_kwargs)
    assert summary == ref_summary, "%s stats diverged from the reference:\n%r\nvs\n%r" % (
        policy_name,
        summary,
        ref_summary,
    )
    assert causes == ref_causes, "%s squash ledger diverged from the reference" % (
        policy_name,
    )
    return summary


def run_reference(sim):
    """Run *sim* to completion on the per-cycle scan; returns its stats."""
    cfg = sim.config
    n = sim.n
    n_tasks = sim.n_tasks

    sim.done = [None] * n
    sim.issued = [False] * n
    sim.issue_time = [None] * n
    sim._completed = [False] * n
    sim._epoch = [0] * n
    sim._reg_spec_mode = cfg.register_speculation
    sim._reg_learned = set()
    sim._events = []
    sim._pending_class = {}
    sim._issue_floor = [0] * n_tasks
    sim._unexecuted_stores = _LazyMinSet(sim.all_store_seqs)
    sim._unknown_addr_stores = _LazyMinSet(sim.all_store_seqs)
    sim._store_perform = [0] * n
    sim._dispatch_time = [None] * n_tasks
    sim._fetch_time = {}
    sim._icaches = (
        [InstructionCache() for _ in range(cfg.stages)] if cfg.model_icache else None
    )
    sim._remaining = [len(seqs) for seqs in sim.tasks]
    sim._task_unissued = {}
    sim._task_live = [0] * n_tasks
    sim._head = 0
    sim._next_dispatch = 0
    sim._last_dispatch_time = -cfg.dispatch_latency
    sim._pending_correct = [True] * (n_tasks + 1)
    sim.sequencer = PathBasedTaskPredictor(history=cfg.predictor_history)
    sim._load_first_attempt = {}
    # the simulator's parking state: the shared squash and wake paths
    # write it, this loop never reads it
    sim._task_dirty = [True] * n_tasks
    sim._entry_parked = bytearray(n)
    sim._fu_limits = [cfg.fu_counts[cls] for cls in FU_ORDER]
    latencies = [cfg.fu_latencies[cls] for cls in FU_ORDER]
    if sim._tel_on:
        for stage in range(cfg.stages):
            sim.telemetry.trace.thread_name(stage, "stage %d" % stage)

    sim.policy.bind(sim)

    now = 0
    idle_cycles = 0
    while sim._head < n_tasks:
        progressed = _process_events(sim, now)
        progressed |= _dispatch(sim, now)
        progressed |= _issue_phase(sim, now, latencies)
        progressed |= _commit(sim, now)
        if sim._head >= n_tasks:
            break
        if progressed:
            idle_cycles = 0
            now += 1
            continue
        next_time = _next_event_time(sim, now)
        if next_time is not None:
            now = next_time
            idle_cycles = 0
        else:
            now += 1
            idle_cycles += 1
            if idle_cycles > 100_000:
                raise SimulationError(
                    "no progress for %d cycles at t=%d (head task %d of %d)"
                    % (idle_cycles, now, sim._head, n_tasks)
                )

    sim.stats.cycles = now
    sim.stats.control_mispredictions = sim.sequencer.mispredictions
    if sim._tel_on:
        sim._publish_run_metrics()
        sim.policy.publish_telemetry(sim.telemetry)
    return sim.stats


def _dispatch_ready_time(sim, task_id):
    base = sim._last_dispatch_time + sim.config.dispatch_latency
    if sim._pending_correct[task_id]:
        return base
    last_prev = sim.tasks[task_id - 1][-1]
    resolve = sim.done[last_prev]
    if resolve is None or not sim.issued[last_prev]:
        return None  # misprediction not resolved yet
    return max(base, resolve + sim.config.mispredict_penalty)


def _dispatch(sim, now):
    progressed = False
    while sim._next_dispatch < sim.n_tasks and sim._next_dispatch - sim._head < sim.config.stages:
        task_id = sim._next_dispatch
        ready = _dispatch_ready_time(sim, task_id)
        if ready is None or ready > now:
            break
        sim._dispatch_time[task_id] = now
        sim._last_dispatch_time = now
        sim._task_unissued[task_id] = list(sim.tasks[task_id])
        sim._task_live[task_id] = len(sim.tasks[task_id])
        if sim._icaches is not None:
            sim._schedule_fetch(task_id, now)
        sim._next_dispatch += 1
        sim.policy.on_task_dispatched(task_id, now)
        if task_id + 1 < sim.n_tasks:
            sim._pending_correct[task_id + 1] = sim.sequencer.record(sim.task_pcs[task_id + 1])
        progressed = True
    return progressed


def _fetched(sim, seq, task_id, now):
    if sim._icaches is not None:
        return sim._fetch_time.get(seq, sim._dispatch_time[task_id]) <= now
    fetch = sim._dispatch_time[task_id] + sim.index_in_task[seq] // sim.config.fetch_width
    return fetch <= now


def _issue_phase(sim, now, latencies):
    cfg = sim.config
    progressed = False
    for task_id in range(sim._head, sim._next_dispatch):
        if not sim._task_live[task_id] or sim._issue_floor[task_id] > now:
            continue
        # a mid-scan squash (VSYNC) installs a new list; the scan goes
        # on over this one
        unissued = sim._task_unissued[task_id]
        counters = [0] * NUM_FU_CLASSES
        considered = 0
        issued_count = 0
        for seq in unissued:
            if sim.issued[seq]:
                continue
            considered += 1
            if not _fetched(sim, seq, task_id, now):
                break  # fetch is in order: nothing behind it is fetched
            if (
                considered <= cfg.rs_window
                and sim._c_is_store[seq]
                and seq in sim._unknown_addr_stores
            ):
                _resolve_store_address(sim, seq, task_id, now)
            if considered > cfg.rs_window or issued_count >= cfg.issue_width:
                break
            if _try_issue(sim, seq, task_id, now, counters, latencies):
                issued_count += 1
                progressed = True
        if issued_count:
            live = sim._task_live[task_id] - issued_count
            sim._task_live[task_id] = live
            if len(unissued) - live >= 64 and live * 2 < len(unissued):
                sim._task_unissued[task_id] = [s for s in unissued if not sim.issued[s]]
    return progressed


def _resolve_store_address(sim, seq, task_id, now):
    """A store's address is known once its base register is ready."""
    cfg = sim.config
    producer = sim.addr_producer.get(seq)
    if producer is not None:
        done = sim.done[producer]
        if done is None:
            return
        producer_task = sim.task_of[producer]
        if producer_task != task_id:
            done += cfg.ring_hop_latency * (task_id - producer_task)
        if done + cfg.agen_latency > now:
            return
    sim._unknown_addr_stores.discard(seq)


def _intra_task_gate(sim, seq, now):
    """Intra-task dependences are never speculated (Section 5)."""
    addr = sim._c_addr[seq]
    for store_seq in sim.prior_task_stores.get(seq, ()):
        if store_seq in sim._unknown_addr_stores:
            return False
        if sim._c_addr[store_seq] == addr:
            done = sim.done[store_seq]
            if done is None or done > now:
                return False
    return True


def _try_issue(sim, seq, task_id, now, counters, latencies):
    src_ready = sim._source_ready_time(seq, task_id, now)
    if src_ready < 0 or src_ready > now:
        return False
    fu = sim._c_fu[seq]
    if counters[fu] >= sim._fu_limits[fu]:
        return False
    tel_on = sim._tel_on
    is_load = sim._c_is_load[seq]
    if is_load:
        if not _intra_task_gate(sim, seq, now):
            return False
        if tel_on:
            sim._load_first_attempt.setdefault(seq, now)
        if not sim.policy.may_issue_load(seq, now):
            if tel_on:
                sim.telemetry.metrics.counter("policy.load_denials").inc()
            return False
        if tel_on:
            sim.telemetry.metrics.counter("policy.load_grants").inc()
    if sim._c_is_memory[seq]:
        completion = sim.cache.access(sim._c_addr[seq], now + sim.config.agen_latency)
    else:
        completion = now + latencies[fu]
    counters[fu] += 1
    sim.issued[seq] = True
    sim.issue_time[seq] = now
    sim.done[seq] = completion
    if sim._c_is_store[seq]:
        sim._unknown_addr_stores.discard(seq)
        sim._store_perform[seq] = now + 1
        sim.policy.on_store_issued(seq, now)
    if tel_on and is_load:
        first = sim._load_first_attempt.pop(seq, now)
        wait = now - first
        pc = sim._c_pc[seq]
        sim.telemetry.metrics.histogram("load.wait_cycles").observe(wait)
        if wait > 0:
            sim.telemetry.trace.complete(
                "load stall pc=%d" % pc,
                ts=first,
                dur=wait,
                tid=task_id % sim.config.stages,
                cat="stall",
                args={"seq": seq, "pc": pc, "task": task_id},
            )
    heapq.heappush(sim._events, (completion, seq, sim._epoch[seq]))
    return True


def _process_events(sim, now):
    progressed = False
    events = sim._events
    reg_violations = sim._reg_spec_mode in ("always", "predict")
    while events and events[0][0] <= now:
        time, seq, epoch = heapq.heappop(events)
        if epoch != sim._epoch[seq] or not sim.issued[seq]:
            continue  # stale (squashed) event
        progressed = True
        sim._completed[seq] = True
        sim._remaining[sim.task_of[seq]] -= 1
        if sim._c_is_store[seq]:
            sim._unexecuted_stores.discard(seq)
            violator = sim._find_violation(seq, time)
            if violator is not None:
                sim._handle_violation(seq, violator, time)
        if reg_violations and sim._index.rd[seq] > 0:
            violator = sim._find_register_violation(seq, time)
            if violator is not None:
                sim._handle_register_violation(seq, violator, time)
    return progressed


def _commit(sim, now):
    progressed = False
    stats = sim.stats
    breakdown = stats.breakdown
    while sim._head < sim.n_tasks and sim._remaining[sim._head] == 0:
        task_id = sim._head
        for seq in sim.tasks[task_id]:
            stats.committed_instructions += 1
            if sim._c_is_load[seq]:
                stats.committed_loads += 1
                bucket = sim._pending_class.pop(seq, "nn")
                setattr(breakdown, bucket, getattr(breakdown, bucket) + 1)
            elif sim._c_is_store[seq]:
                stats.committed_stores += 1
        stats.tasks_committed += 1
        if sim._tel_on:
            dispatch = sim._dispatch_time[task_id]
            sim.telemetry.trace.complete(
                "task %d" % task_id,
                ts=dispatch,
                dur=max(1, now - dispatch),
                tid=task_id % sim.config.stages,
                cat="task",
                args={
                    "task_pc": sim.task_pcs[task_id],
                    "instructions": len(sim.tasks[task_id]),
                },
            )
        sim.policy.on_task_committed(task_id, now)
        sim._head += 1
        progressed = True
    return progressed


def _next_event_time(sim, now):
    """The earliest future time anything can change, or None."""
    candidates = []
    events = sim._events
    while events:
        time, seq, epoch = events[0]
        if epoch != sim._epoch[seq] or not sim.issued[seq]:
            heapq.heappop(events)
            continue
        candidates.append(time)
        break
    if sim._next_dispatch < sim.n_tasks and sim._next_dispatch - sim._head < sim.config.stages:
        ready = _dispatch_ready_time(sim, sim._next_dispatch)
        if ready is not None:
            candidates.append(ready)
    for task_id in range(sim._head, sim._next_dispatch):
        floor = sim._issue_floor[task_id]
        if floor > now and sim._task_live[task_id]:
            candidates.append(floor)
    future = [c for c in candidates if c > now]
    return min(future) if future else None
