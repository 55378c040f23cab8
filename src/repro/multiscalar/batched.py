"""The simulator's issue loop.

:meth:`~repro.multiscalar.processor.MultiscalarSimulator.run` runs every
simulation here: every policy, every register model, telemetry on or
off.  The loop is event-driven.  A stage is rescanned only when
something that could change one of its issue decisions happened, and a
denied entry is *parked* on the conditions under which the denial could
lift: an instruction issuing, a store address resolving, a threshold on
the oldest unresolved or unexecuted store, a commit, or a timed wake.
Parked entries are skipped until one of their conditions fires.

All of it runs inside ONE loop body over shared struct-of-arrays
columns, and every scan walks a stage's unissued list from its front.
Within that body:

- every policy is consulted through one interface: a load decision is
  :meth:`~repro.multiscalar.policies.SpeculationPolicy.may_issue_load`,
  and a denial parks on the wake conditions
  :meth:`~repro.multiscalar.policies.SpeculationPolicy.deny_hints`
  reports;
- the deny sites that verify their own wake condition (register
  producers, the FU limit and the intra-task store gate) park directly,
  without the hint-list round trip;
- trace-pure streams are precomputed once per decoded trace and shared
  across every (config, policy) cell: the cache bank/set/tag geometry
  and the sequencer's correct/mispredict stream (a pure function of the
  task-PC sequence);
- the speculative register models (``conservative``/``always``/
  ``predict``) take operand readiness from
  ``MultiscalarSimulator._source_ready_time``.  Their stale-value rules
  have no wake conditions, so a register denial never parks and its
  stage is rescanned next cycle;
- telemetry sits behind one ``tel_on`` flag read once per run.

Violations, squashes, register violations and the i-cache fetch
schedule are cold paths and stay methods of the simulator.

The per-cycle scan in ``tests/multiscalar/reference.py`` is the
specification: it re-derives every decision each cycle.  The
differential harness (``tests/multiscalar/test_kernel_differential.py``)
holds this loop equal to it in every statistic and squash cause, which
is why statement order matters here: a park that fails keeps the
registrations it already made, store address resolution and issue share
one hint list, and a mid-scan squash (VSYNC) leaves the scan iterating
the pre-squash entry list.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, List, Optional

from repro.core.stats import SpeculationStats
from repro.frontend.static_index import FU_ORDER, NUM_FU_CLASSES
from repro.memsys.icache import InstructionCache
from repro.multiscalar.policies import (
    WAKE_ADDR_MIN,
    WAKE_COMMIT,
    WAKE_EXEC_MIN,
    WAKE_ISSUE,
    WAKE_RESOLVE,
    WAKE_TIME,
)
from repro.multiscalar.processor import _INF, SimulationError, _LazyMinSet
from repro.multiscalar.sequencer import PathBasedTaskPredictor


def _sequencer_stream(task_pcs, history):
    """Replay the path predictor over the static task-PC sequence.

    ``PathBasedTaskPredictor.record`` consumes only the sequence of
    actual next-task PCs, and the simulator feeds it exactly the static
    task order (one record per dispatch, and every task dispatches
    exactly once — squash does not un-dispatch).  The per-dispatch
    correct/mispredict stream is therefore a pure function of
    ``(task_pcs, history)``, shared across every cell over one trace.
    """
    predictor = PathBasedTaskPredictor(history=history)
    record = predictor.record
    stream = [record(pc) for pc in task_pcs[1:]]
    return stream, predictor.mispredictions


def run_batched(sim) -> SpeculationStats:
    """Run ``sim`` to completion; returns its stats.

    Run state that policies, the violation observers or the
    simulator's cold paths read is created on ``sim`` and aliased to
    locals; containers are shared by reference, so mutations made by
    ``sim`` methods called from here stay visible.  Only the scalars
    (``_head``, ``_next_dispatch``) need explicit syncing before any
    call that can read them.
    """
    cfg = sim.config
    n = sim.n
    n_tasks = sim.n_tasks
    policy = sim.policy

    cols = sim._index.columns()

    # ---- per-run state: on ``sim`` where its methods or the policy
    # read it, local otherwise ----
    done: List[Optional[int]] = [None] * n
    sim.done = done
    sim.issued = issued = [False] * n
    issue_time: List[Optional[int]] = [None] * n
    sim.issue_time = issue_time
    sim._completed = completed = [False] * n
    sim._epoch = epochs = [0] * n
    sim._reg_spec_mode = reg_mode = cfg.register_speculation
    sim._reg_learned = set()
    events: List[tuple] = []
    pending_class: Dict[int, str] = {}
    sim._pending_class = pending_class
    sim._issue_floor = issue_floor = [0] * n_tasks

    sim._unexecuted_stores = unexecuted_stores = _LazyMinSet(sim.all_store_seqs)
    sim._unknown_addr_stores = unknown_addr = _LazyMinSet(sim.all_store_seqs)
    sim._store_perform = store_perform = [0] * n

    dispatch_time: List[Optional[int]] = [None] * n_tasks
    fetch_time: Dict[int, int] = {}
    sim._fetch_time = fetch_time
    sim._icaches = icaches = (
        [InstructionCache() for _ in range(cfg.stages)] if cfg.model_icache else None
    )
    tasks = sim.tasks
    sim._remaining = remaining = [len(seqs) for seqs in tasks]
    task_unissued: Dict[int, List[int]] = {}
    sim._task_unissued = task_unissued
    sim._task_live = task_live = [0] * n_tasks
    sim._head = 0
    sim._next_dispatch = 0

    # the sequencer stream is trace-pure: prefill the whole
    # correct/mispredict schedule instead of calling record() per
    # dispatch (entry t is written at task t-1's dispatch and read no
    # earlier than task t's own dispatch-readiness check, so prefilling
    # is unobservable)
    history = cfg.predictor_history
    task_pcs = sim.task_pcs
    stream, total_mispredictions = cols.derived(
        ("sequencer", history),
        lambda: _sequencer_stream(task_pcs, history),
    )
    pending_correct = [True] * (n_tasks + 1)
    if n_tasks > 1:
        pending_correct[1:n_tasks] = stream
    load_first_attempt: Dict[int, int] = {}
    sim._load_first_attempt = load_first_attempt

    # event scheduling: a stage is rescanned when dirty or when its
    # timed wake is due.  Wake registrations carry (task id, entry seq):
    # firing one unparks that entry and dirties its stage.
    sim._task_dirty = dirty = [True] * n_tasks
    next_try: List[float] = [0] * n_tasks
    wake_on_issue: Dict[int, List[tuple]] = {}  # producer seq -> regs
    resolve_watchers: Dict[int, List[tuple]] = {}  # store seq -> regs
    addr_watchers: List[tuple] = []  # (threshold seq, task, seq) heap
    exec_watchers: List[tuple] = []  # (threshold seq, task, seq) heap
    commit_watchers: List[tuple] = []  # (task threshold, task, seq) heap
    sim._entry_parked = parked = bytearray(n)
    entry_wake: List[float] = [0.0] * n

    fu_limits = [cfg.fu_counts[cls] for cls in FU_ORDER]
    latencies = [cfg.fu_latencies[cls] for cls in FU_ORDER]

    stages = cfg.stages
    tel_on = sim._tel_on
    if tel_on:
        metrics = sim.telemetry.metrics
        trace_sink = sim.telemetry.trace
        for stage in range(stages):
            trace_sink.thread_name(stage, "stage %d" % stage)

    policy.bind(sim)

    # ---- hoisted locals ----
    stats = sim.stats
    task_of = sim.task_of
    index_in_task = sim.index_in_task
    # register producers unrolled into two parallel columns (-1 = none):
    # the ISA has at most two source registers, so the issue loop can
    # check both without tuple iteration overhead
    src_p1 = sim._index.src_p1
    src_p2 = sim._index.src_p2

    prior_stores_get = sim.prior_task_stores.get  # earlier same-task stores
    dependents_get = sim.dependents.get
    addr_producer_get = sim.addr_producer.get
    c_addr = sim._c_addr
    c_is_load = sim._c_is_load
    c_is_store = sim._c_is_store
    c_is_memory = sim._c_is_memory
    c_fu = sim._c_fu
    c_pc = sim._c_pc

    unknown_set = unknown_addr._set
    unknown_min = unknown_addr.minimum
    unknown_discard = unknown_addr.discard
    unexecuted_min = unexecuted_stores.minimum
    unexecuted_discard = unexecuted_stores.discard
    wake_on_issue_pop = wake_on_issue.pop
    wake_on_issue_setdefault = wake_on_issue.setdefault
    resolve_watchers_pop = resolve_watchers.pop
    resolve_watchers_setdefault = resolve_watchers.setdefault

    cache = sim.cache
    ccfg = cache.config
    bank_col, set_col, tag_col = cols.cache_geometry(
        ccfg.banks, ccfg.block_bytes, ccfg.sets_per_bank
    )
    bank_busy = cache._bank_busy_until
    bank_tags = cache._tags
    hit_latency = ccfg.hit_latency
    miss_latency = ccfg.hit_latency + ccfg.miss_penalty
    cache_hits = 0
    cache_misses = 0
    cache_conflicts = 0

    task_n_instr = cols.task_n_instr
    task_n_loads = cols.task_n_loads
    task_n_stores = cols.task_n_stores
    task_load_seqs = cols.task_load_seqs

    find_violation = sim._find_violation
    handle_violation = sim._handle_violation
    find_register_violation = sim._find_register_violation
    handle_register_violation = sim._handle_register_violation
    source_ready_time = sim._source_ready_time
    oracle_regs = reg_mode == "oracle"
    reg_violations = reg_mode in ("always", "predict")
    # destination registers: read only by the register-violation check
    c_rd: Any = sim._index.rd if reg_violations else None
    schedule_fetch = sim._schedule_fetch
    may_issue_load = policy.may_issue_load
    deny_hints = policy.deny_hints
    on_store_issued = policy.on_store_issued
    on_task_dispatched = policy.on_task_dispatched
    on_task_committed = policy.on_task_committed

    rs_window = cfg.rs_window
    issue_width = cfg.issue_width
    fetch_width = cfg.fetch_width
    hop = cfg.ring_hop_latency
    agen = cfg.agen_latency
    dispatch_latency = cfg.dispatch_latency
    mispredict_penalty = cfg.mispredict_penalty

    head = 0
    next_dispatch = 0
    last_dispatch_time = -dispatch_latency
    shared_hints: List[tuple] = []

    now = 0
    idle_cycles = 0
    while head < n_tasks:
        progressed = False

        # ---- completion events --------------------------------------
        store_completed = False
        while events and events[0][0] <= now:
            time, seq, epoch = heappop(events)
            if epoch != epochs[seq] or not issued[seq]:
                continue  # stale (squashed) event
            progressed = True
            completed[seq] = True
            remaining[task_of[seq]] -= 1
            if c_is_store[seq]:
                unexecuted_discard(seq)
                store_completed = True
                if dependents_get(seq) is not None:
                    sim._head = head
                    sim._next_dispatch = next_dispatch
                    violator = find_violation(seq, time)
                    if violator is not None:
                        handle_violation(seq, violator, time)
            if reg_violations and c_rd[seq] > 0:
                sim._head = head
                sim._next_dispatch = next_dispatch
                violator = find_register_violation(seq, time)
                if violator is not None:
                    handle_register_violation(seq, violator, time)
        if store_completed and exec_watchers:
            m = unexecuted_min()
            while exec_watchers and (m is None or exec_watchers[0][0] <= m):
                _, t_id, s = heappop(exec_watchers)
                parked[s] = 0
                dirty[t_id] = True

        # ---- dispatch -----------------------------------------------
        while next_dispatch < n_tasks and next_dispatch - head < stages:
            task_id = next_dispatch
            ready = last_dispatch_time + dispatch_latency
            if not pending_correct[task_id]:
                last_prev = tasks[task_id - 1][-1]
                resolve_t = done[last_prev]
                if resolve_t is None or not issued[last_prev]:
                    break  # misprediction not resolved yet
                alt = resolve_t + mispredict_penalty
                if alt > ready:
                    ready = alt
            if ready > now:
                break
            dispatch_time[task_id] = now
            last_dispatch_time = now
            dirty[task_id] = True
            next_try[task_id] = now
            task_unissued[task_id] = list(tasks[task_id])
            task_live[task_id] = len(tasks[task_id])
            if icaches is not None:
                schedule_fetch(task_id, now)
            next_dispatch += 1
            sim._head = head
            sim._next_dispatch = next_dispatch
            on_task_dispatched(task_id, now)
            # sequencer.record is replaced by the prefilled stream
            progressed = True
        sim._next_dispatch = next_dispatch

        # ---- issue ---------------------------------------------------
        for task_id in range(head, next_dispatch):
            if not dirty[task_id] and next_try[task_id] > now:
                continue
            dirty[task_id] = False
            if dispatch_time[task_id] > now:
                continue
            if not task_live[task_id]:
                next_try[task_id] = _INF
                continue
            floor = issue_floor[task_id]
            if floor > now:
                next_try[task_id] = floor
                continue
            unissued = task_unissued[task_id]
            counters = [0] * NUM_FU_CLASSES
            issued_count = 0
            resolved = False
            unparked = 0
            nt_plan = _INF
            considered = 0
            dispatch = dispatch_time[task_id]
            fetch_limit = (now - dispatch + 1) * fetch_width
            for seq in unissued:
                if issued[seq]:
                    continue  # dead entry awaiting compaction
                considered += 1
                if parked[seq]:
                    wake = entry_wake[seq]
                    if wake > now:
                        if considered > rs_window or issued_count >= issue_width:
                            break
                        if wake < nt_plan:
                            nt_plan = wake
                        continue
                    parked[seq] = 0  # its timed wake is due: rescan
                if icaches is None:
                    if index_in_task[seq] >= fetch_limit:
                        fetch = dispatch + index_in_task[seq] // fetch_width
                        if fetch < nt_plan:
                            nt_plan = fetch
                        break
                else:
                    fetch = fetch_time.get(seq, dispatch)
                    if fetch > now:
                        if fetch < nt_plan:
                            nt_plan = fetch
                        break
                if considered <= rs_window and c_is_store[seq] and seq in unknown_set:
                    # ---- store address resolution: known once the
                    #      base register is ready ----
                    producer = addr_producer_get(seq)
                    res_ok = True
                    if producer is not None:
                        p_done = done[producer]
                        if p_done is None:
                            shared_hints.append((WAKE_ISSUE, producer))
                            res_ok = False
                        else:
                            avail = p_done
                            p_task = task_of[producer]
                            if p_task != task_id:
                                avail += hop * (task_id - p_task)
                            if avail + agen > now:
                                shared_hints.append((WAKE_TIME, avail + agen))
                                res_ok = False
                    if res_ok:
                        unknown_discard(seq)
                        if addr_watchers:
                            m = unknown_min()
                            while addr_watchers and (
                                m is None or addr_watchers[0][0] <= m
                            ):
                                _, t_id, s = heappop(addr_watchers)
                                parked[s] = 0
                                dirty[t_id] = True
                        if seq in resolve_watchers:
                            for t_id, s in resolve_watchers_pop(seq):
                                parked[s] = 0
                                dirty[t_id] = True
                        resolved = True
                if considered > rs_window or issued_count >= issue_width:
                    if shared_hints:
                        del shared_hints[:]
                    break
                # ---- try to issue ----
                # Deny sites park *directly* when they can: each site
                # has just verified its own wake condition, so the
                # generic hint-list round trip (re-validating every
                # registration) is pure overhead.  direct_nt is
                # the park's timed wake (_INF for pure event wakes);
                # the trailer finishes the park.  Sites that may run
                # with hints already pending (a store whose address
                # resolution left some) fall back to the shared list.
                ok = False
                direct_nt = None
                while True:  # single-pass block: break == return
                    if oracle_regs:
                        # register producers, unrolled (at most two sources)
                        ready = 0
                        producer = src_p1[seq]
                        if producer >= 0:
                            p_done = done[producer]
                            if p_done is None:
                                if shared_hints:
                                    shared_hints.append((WAKE_ISSUE, producer))
                                else:
                                    # producer provably unissued: register now
                                    wake_on_issue_setdefault(producer, []).append(
                                        (task_id, seq)
                                    )
                                    direct_nt = _INF
                                break
                            p_task = task_of[producer]
                            if p_task != task_id:
                                p_done += hop * (task_id - p_task)
                            ready = p_done
                            producer = src_p2[seq]
                            if producer >= 0:
                                p_done = done[producer]
                                if p_done is None:
                                    if shared_hints:
                                        shared_hints.append((WAKE_ISSUE, producer))
                                    else:
                                        wake_on_issue_setdefault(producer, []).append(
                                            (task_id, seq)
                                        )
                                        direct_nt = _INF
                                    break
                                p_task = task_of[producer]
                                if p_task != task_id:
                                    p_done += hop * (task_id - p_task)
                                if p_done > ready:
                                    ready = p_done
                        if ready > now:
                            if shared_hints:
                                shared_hints.append((WAKE_TIME, ready))
                            else:
                                direct_nt = ready
                            break
                    else:
                        # stale-value register models: no wake condition,
                        # so the entry stays unparked and its stage is
                        # rescanned next cycle
                        sim._head = head
                        ready = source_ready_time(seq, task_id, now)
                        if ready < 0 or ready > now:
                            if shared_hints:
                                del shared_hints[:]
                            break
                    fu = c_fu[seq]
                    if counters[fu] >= fu_limits[fu]:
                        # a full complement already issued into this
                        # class this scan; retry when the units free
                        if shared_hints:
                            shared_hints.append((WAKE_TIME, now + 1))
                        else:
                            direct_nt = now + 1
                        break
                    if c_is_load[seq]:
                        addr = c_addr[seq]
                        # ---- intra-task dependences are never
                        #      speculated (Section 5) ----
                        # loads reach here with shared_hints empty (the
                        # resolve step runs for stores only), so every
                        # gate deny parks directly
                        gated = False
                        pts = prior_stores_get(seq)
                        if pts is not None:
                            for store_seq in pts:
                                if store_seq in unknown_set:
                                    resolve_watchers_setdefault(
                                        store_seq, []
                                    ).append((task_id, seq))
                                    direct_nt = _INF
                                    gated = True
                                    break
                                if c_addr[store_seq] == addr:
                                    s_done = done[store_seq]
                                    if s_done is None:
                                        wake_on_issue_setdefault(
                                            store_seq, []
                                        ).append((task_id, seq))
                                        direct_nt = _INF
                                        gated = True
                                        break
                                    if s_done > now:
                                        direct_nt = s_done
                                        gated = True
                                        break
                        if gated:
                            break
                        if tel_on:
                            load_first_attempt.setdefault(seq, now)
                        # ---- the policy decides; a deny parks on its
                        #      hints ----
                        sim._head = head
                        if not may_issue_load(seq, now):
                            hints = deny_hints(seq, now)
                            if hints:
                                shared_hints.extend(hints)
                            else:
                                # the policy does not model its wake
                                # conditions: re-ask every cycle
                                shared_hints.append((WAKE_TIME, now + 1))
                            if tel_on:
                                metrics.counter("policy.load_denials").inc()
                            break
                        if tel_on:
                            metrics.counter("policy.load_grants").inc()
                    if c_is_memory[seq]:
                        # ---- BankedCache.access inline over the
                        #      precomputed geometry columns ----
                        t_access = now + agen
                        bank = bank_col[seq]
                        busy = bank_busy[bank]
                        if busy > t_access:
                            cache_conflicts += busy - t_access
                            start = busy
                        else:
                            start = t_access
                        bank_busy[bank] = start + 1
                        tags = bank_tags[bank]
                        set_idx = set_col[seq]
                        tag = tag_col[seq]
                        if tags.get(set_idx) == tag:
                            cache_hits += 1
                            completion = start + hit_latency
                        else:
                            cache_misses += 1
                            tags[set_idx] = tag
                            completion = start + miss_latency
                    else:
                        completion = now + latencies[fu]
                    counters[fu] += 1
                    issued[seq] = True
                    issue_time[seq] = now
                    done[seq] = completion
                    # ---- wake the entries parked on this issue ----
                    if seq in wake_on_issue:
                        for t_id, s in wake_on_issue_pop(seq):
                            parked[s] = 0
                            dirty[t_id] = True
                    if c_is_store[seq]:
                        unknown_discard(seq)
                        if addr_watchers:
                            m = unknown_min()
                            while addr_watchers and (
                                m is None or addr_watchers[0][0] <= m
                            ):
                                _, t_id, s = heappop(addr_watchers)
                                parked[s] = 0
                                dirty[t_id] = True
                        if seq in resolve_watchers:
                            for t_id, s in resolve_watchers_pop(seq):
                                parked[s] = 0
                                dirty[t_id] = True
                        store_perform[seq] = now + 1
                        # VSYNC may squash from in here; the scan then
                        # keeps iterating the pre-squash entry list
                        sim._head = head
                        on_store_issued(seq, now)
                    if tel_on and c_is_load[seq]:
                        first = load_first_attempt.pop(seq, now)
                        wait = now - first
                        metrics.histogram("load.wait_cycles").observe(wait)
                        if wait > 0:
                            pc = c_pc[seq]
                            trace_sink.complete(
                                "load stall pc=%d" % pc,
                                ts=first,
                                dur=wait,
                                tid=task_id % stages,
                                cat="stall",
                                args={"seq": seq, "pc": pc, "task": task_id},
                            )
                    heappush(events, (completion, seq, epochs[seq]))
                    ok = True
                    break
                if ok:
                    # a store can issue with its failed-resolve hints
                    # still pending; drop them (hints are cleared lazily
                    # at consumption sites, not per entry)
                    if shared_hints:
                        del shared_hints[:]
                    issued_count += 1
                    progressed = True
                elif direct_nt is not None:
                    # registrations already made at the deny site
                    entry_wake[seq] = direct_nt
                    parked[seq] = 1
                    if direct_nt < nt_plan:
                        nt_plan = direct_nt
                elif shared_hints:
                    # ---- park on the hint list (a hint that already
                    #      holds ends the park; registrations made
                    #      before it stay) ----
                    nt = _INF
                    park_ok = True
                    for kind_h, arg in shared_hints:
                        if kind_h == WAKE_TIME:
                            if arg < nt:
                                nt = arg
                        elif kind_h == WAKE_ISSUE:
                            if issued[arg]:
                                park_ok = False
                                break
                            wake_on_issue_setdefault(arg, []).append((task_id, seq))
                        elif kind_h == WAKE_RESOLVE:
                            if arg not in unknown_set:
                                park_ok = False
                                break
                            resolve_watchers_setdefault(arg, []).append(
                                (task_id, seq)
                            )
                        elif kind_h == WAKE_ADDR_MIN:
                            m = unknown_min()
                            if m is None or m >= arg:
                                park_ok = False
                                break
                            heappush(addr_watchers, (arg, task_id, seq))
                        elif kind_h == WAKE_EXEC_MIN:
                            m = unexecuted_min()
                            if m is None or m >= arg:
                                park_ok = False
                                break
                            heappush(exec_watchers, (arg, task_id, seq))
                        elif kind_h == WAKE_COMMIT:
                            if head > arg:
                                park_ok = False
                                break
                            heappush(commit_watchers, (arg, task_id, seq))
                    del shared_hints[:]
                    if park_ok and nt > now:
                        entry_wake[seq] = nt
                        parked[seq] = 1
                        if nt < nt_plan:
                            nt_plan = nt
                    else:
                        unparked += 1
                else:
                    # the deny produced no wake condition; fall back to
                    # per-cycle rescans for this entry
                    unparked += 1
            if issued_count:
                live_left = task_live[task_id] - issued_count
                task_live[task_id] = live_left
                if len(unissued) - live_left >= 64 and live_left * 2 < len(unissued):
                    # mostly dead: compact so later scans stay short
                    task_unissued[task_id] = [s for s in unissued if not issued[s]]
            if issued_count or resolved or unparked:
                next_try[task_id] = now + 1
            elif nt_plan < _INF:
                next_try[task_id] = nt_plan if nt_plan > now else now + 1
            else:
                next_try[task_id] = _INF

        # ---- commit -------------------------------------------------
        while head < n_tasks and remaining[head] == 0:
            task_id = head
            stats.committed_instructions += task_n_instr[task_id]
            stats.committed_loads += task_n_loads[task_id]
            stats.committed_stores += task_n_stores[task_id]
            if pending_class:
                breakdown = stats.breakdown
                for seq in task_load_seqs[task_id]:
                    bucket = pending_class.pop(seq, "nn")
                    setattr(breakdown, bucket, getattr(breakdown, bucket) + 1)
            else:
                stats.breakdown.nn += task_n_loads[task_id]
            stats.tasks_committed += 1
            if tel_on:
                dispatch = dispatch_time[task_id]
                trace_sink.complete(
                    "task %d" % task_id,
                    ts=dispatch,
                    dur=max(1, now - dispatch),
                    tid=task_id % stages,
                    cat="task",
                    args={
                        "task_pc": task_pcs[task_id],
                        "instructions": task_n_instr[task_id],
                    },
                )
            sim._head = head
            sim._next_dispatch = next_dispatch
            on_task_committed(task_id, now)
            head += 1
            sim._head = head
            progressed = True
            if commit_watchers:
                while commit_watchers and commit_watchers[0][0] < head:
                    _, t_id, s = heappop(commit_watchers)
                    parked[s] = 0
                    dirty[t_id] = True

        if head >= n_tasks:
            break
        if progressed:
            idle_cycles = 0
            now += 1
            continue
        # ---- idle: jump to the next time anything can change --------
        candidates = []
        while events:
            time, seq, epoch = events[0]
            if epoch != epochs[seq] or not issued[seq]:
                heappop(events)
                continue
            candidates.append(time)
            break
        if next_dispatch < n_tasks and next_dispatch - head < stages:
            ready = last_dispatch_time + dispatch_latency
            if not pending_correct[next_dispatch]:
                last_prev = tasks[next_dispatch - 1][-1]
                resolve_t = done[last_prev]
                if resolve_t is None or not issued[last_prev]:
                    ready = None
                else:
                    alt = resolve_t + mispredict_penalty
                    if alt > ready:
                        ready = alt
            if ready is not None:
                candidates.append(ready)
        for task_id in range(head, next_dispatch):
            dt = dispatch_time[task_id]
            if dt is not None and dt > now:
                candidates.append(dt)
            floor = issue_floor[task_id]
            if floor > now and task_live[task_id]:
                candidates.append(floor)
        future = [c for c in candidates if c > now]
        next_time = min(future) if future else None
        if next_time is not None and next_time > now:
            now = next_time
            idle_cycles = 0
        else:
            now += 1
            idle_cycles += 1
            if idle_cycles > 100_000:
                raise SimulationError(
                    "no progress for %d cycles at t=%d (head task %d of %d)"
                    % (idle_cycles, now, head, n_tasks)
                )

    # ---- finalise ----------------------------------------------------
    sim._head = head
    sim._next_dispatch = next_dispatch
    cache.hits += cache_hits
    cache.misses += cache_misses
    cache.bank_conflict_cycles += cache_conflicts
    stats.cycles = now
    stats.control_mispredictions = total_mispredictions
    if tel_on:
        sim._publish_run_metrics()
        policy.publish_telemetry(sim.telemetry)
    return stats
