"""Trace-sharing chunks are pure scheduling.

The executor groups sweep cells that read one ``(workload, scale)``
trace into chunks of at most ``ceil(pending / (CHUNKS_PER_WORKER *
workers))`` cells.  Grouping must not change one bit of any payload or
any cache key — the only legitimate effects are which process runs
which cell and in what order.  These tests pin that contract from
three sides: the planner (``_plan`` / ``_group_key``, including a
hypothesis property over random grids), the execution paths (inline
and pool, against ungrouped references), and the failure path (a
FAILED cell inside a chunk is retried solo and stays solo on a resumed
run; a worker that dies hard takes only its chunk down, not the run).
"""

import json
import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.backends import InlineBackend
from repro.experiments.executor import (
    CHUNKS_PER_WORKER,
    FAILED,
    OK,
    Cell,
    Executor,
    _group_key,
    source_fingerprint,
)
from repro.experiments.sweeps import sweep


# -- cell evaluators (top-level: must be picklable for the pool) -----------

def payload_cell(spec):
    """Deterministic pure function of the spec — any scheduling change
    that leaks into the payload shows up as an A/B mismatch."""
    params = dict(spec["params"])
    return {
        "name": spec["name"],
        "workload": params.get("workload"),
        "policy": params.get("policy"),
    }


def flaky_marked(spec):
    """Fail the first attempt of cells whose params carry a marker path
    (filesystem state, so it works across worker processes)."""
    params = dict(spec["params"])
    marker = params.get("marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempt 1\n")
        raise RuntimeError("injected transient failure")
    return {"name": spec["name"]}


def hard_exit_marked(spec):
    """Kill the worker process outright for cells marked crash=True."""
    params = dict(spec["params"])
    if params.get("crash"):
        os._exit(13)
    return {"name": spec["name"]}


POLICIES = tuple("p%d" % i for i in range(8))


def sweep_cell(workload, policy, **extra):
    return Cell.make(
        "sweep",
        "%s/%s" % (workload, policy),
        workload=workload,
        policy=policy,
        scale="tiny",
        overrides=[],
        **extra,
    )


def grid_cells(workloads=("alpha", "beta"), policies=POLICIES, **extra):
    """A sweep-shaped grid: cells sharing a workload share a trace.

    The default 16 cells make chunks of 4 on one worker and of 2 on
    two, so every test below runs multi-cell chunks."""
    return [sweep_cell(w, p, **extra) for w in workloads for p in policies]


def keys_of(cells):
    fingerprint = source_fingerprint()
    return [cell.key(fingerprint) for cell in cells]


def plan_of(executor, cells, workers, pending=None):
    if pending is None:
        pending = list(range(len(cells)))
    return executor._plan(pending, cells, keys_of(cells), workers)


def payloads(report):
    return [json.dumps(r.payload, sort_keys=True) for r in report.results]


def ungrouped(cells, run_cell):
    """Reference payloads: every cell in its own run, so no plan can
    group it with anything."""
    out = []
    for cell in cells:
        out += payloads(Executor(jobs=1, run_cell=run_cell).run([cell]))
    return out


# -- the planner ------------------------------------------------------------

def test_group_key_buckets_sweep_cells_by_workload_and_scale():
    a1, a2 = grid_cells(workloads=("alpha",))[:2]
    b1 = grid_cells(workloads=("beta",))[0]
    assert _group_key(a1) == _group_key(a2) == ("alpha", "tiny")
    assert _group_key(b1) == ("beta", "tiny")
    assert _group_key(Cell.make("experiment", "table1", experiment="table1")) is None


def test_plan_is_singletons_when_cap_is_one():
    cells = grid_cells()
    # 16 cells on 4 workers, or on an external fleet of unknown size
    for workers in (4, None):
        assert plan_of(Executor(), cells, workers) == [[i] for i in range(16)]


def test_plan_groups_shared_traces_in_first_seen_order():
    cells = grid_cells(workloads=("alpha",), policies=POLICIES[:6])
    cells.append(Cell.make("experiment", "lone", experiment="table1"))
    cells += grid_cells(workloads=("beta",), policies=POLICIES[:6])
    # 13 pending cells on one worker: cap = ceil(13 / 4) = 4; each
    # chunk opens where its first cell appears, and the ungroupable
    # cell stays a singleton at its position
    assert plan_of(Executor(), cells, 1) == [
        [0, 1, 2, 3], [4, 5], [6], [7, 8, 9, 10], [11, 12],
    ]
    # interleaved workloads: chunks still hold one trace each
    mixed = [cells[i] for i in (0, 7, 1, 8, 2, 9, 3, 10)]
    assert plan_of(Executor(), mixed, 1) == [[0, 2], [1, 3], [4, 6], [5, 7]]


def test_plan_only_covers_pending_indices():
    cells = grid_cells(workloads=("alpha",), policies=["p%d" % i for i in range(16)])
    odd = list(range(1, 16, 2))
    # 8 pending cells on one worker: cap = 2
    assert plan_of(Executor(), cells, 1, pending=odd) == [
        [1, 3], [5, 7], [9, 11], [13, 15],
    ]


class SoloMarks:
    """Stand-in result cache that only answers solo-marker lookups."""

    def __init__(self, keys):
        self.keys = set(keys)

    def is_solo(self, key):
        return key in self.keys


@st.composite
def plan_inputs(draw):
    sizes = draw(st.lists(st.integers(1, 16), min_size=1, max_size=40))
    cells = [
        Cell.make("sweep", "w%d/p%d" % (w, p), workload="w%d" % w, scale="tiny", policy=p)
        for w, size in enumerate(sizes)
        for p in range(size)
    ]
    cells += [
        Cell.make("experiment", "e%d" % i) for i in range(draw(st.integers(0, 8)))
    ]
    cells = draw(st.permutations(cells))
    n = len(cells)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pending = [i for i in range(n) if keep[i]]
    solo = draw(st.sets(st.integers(0, n - 1), max_size=n // 4))
    workers = draw(st.one_of(st.none(), st.integers(1, 8)))
    return cells, pending, solo, workers


@settings(max_examples=150, deadline=None)
@given(plan_inputs())
def test_plan_property(inputs):
    cells, pending, solo, workers = inputs
    keys = ["k%d" % i for i in range(len(cells))]
    executor = Executor()
    executor.cache = SoloMarks(keys[i] for i in solo)
    plan = executor._plan(pending, cells, keys, workers)

    cap = math.ceil(len(pending) / (CHUNKS_PER_WORKER * workers)) if workers else 1
    # the chunks partition pending exactly once
    assert sorted(i for chunk in plan for i in chunk) == pending
    # first-seen order, within chunks and across chunk openings
    assert all(chunk == sorted(chunk) for chunk in plan)
    assert [chunk[0] for chunk in plan] == sorted(chunk[0] for chunk in plan)
    for chunk in plan:
        assert 1 <= len(chunk) <= cap
        assert len({_group_key(cells[i]) for i in chunk}) == 1
        if len(chunk) > 1:
            assert all(cells[i].kind == "sweep" and i not in solo for i in chunk)
    if cap == 1:
        assert plan == [[i] for i in pending]
    # each trace's groupable cells are cut into full chunks, the last
    # possibly short — grouping is not optional
    by_trace = {}
    for chunk in plan:
        if cells[chunk[0]].kind == "sweep" and chunk[0] not in solo:
            by_trace.setdefault(_group_key(cells[chunk[0]]), []).append(len(chunk))
    for sizes in by_trace.values():
        assert all(size == cap for size in sizes[:-1])


# -- bit-identity, inline and pool ------------------------------------------

def test_batch_inline_payloads_identical_to_ungrouped():
    cells = grid_cells()
    assert max(map(len, plan_of(Executor(), cells, 1))) == 4
    grouped = Executor(jobs=1, run_cell=payload_cell).run(cells)
    assert not grouped.failed
    assert payloads(grouped) == ungrouped(cells, payload_cell)


def test_batch_pool_payloads_identical_to_ungrouped():
    cells = grid_cells()
    assert max(map(len, plan_of(Executor(), cells, 2))) == 2
    grouped = Executor(jobs=2, run_cell=payload_cell).run(cells)
    assert not grouped.failed
    assert payloads(grouped) == ungrouped(cells, payload_cell)


def test_batch_group_runs_on_one_worker():
    cells = grid_cells()
    report = Executor(jobs=2, run_cell=payload_cell).run(cells)
    # each chunk is one future, so all its cells share a process
    for chunk in plan_of(Executor(), cells, 2):
        assert len({report.results[i].worker for i in chunk}) == 1


def test_batch_cache_keys_unchanged(tmp_path):
    """A cache warmed by a grouped pool run serves an inline run fully."""
    cells = grid_cells()
    cold = Executor(jobs=2, run_cell=payload_cell, cache=tmp_path / "cache").run(cells)
    assert cold.counters()["cells_cached"] == 0
    warm = Executor(jobs=1, run_cell=payload_cell, cache=tmp_path / "cache").run(cells)
    assert warm.counters()["cells_run"] == 0
    assert warm.counters()["cells_cached"] == len(cells)
    assert payloads(warm) == payloads(cold)


def test_sweep_batch_is_bit_identical_to_serial():
    # 16 cells on two workers: chunks of 2 cells sharing a trace
    grid = dict(policies=("always", "esync", "psync", "sync"),
                overrides={"stages": (4, 8)}, scale="tiny")
    serial = sweep(["sc", "xlisp"], **grid)
    grouped = sweep(["sc", "xlisp"], jobs=2, **grid)
    assert not grouped.failed
    assert grouped.points == serial.points


# -- failure semantics ------------------------------------------------------

def test_failed_cell_in_group_retries_solo(tmp_path):
    cells = grid_cells()
    cells[1] = sweep_cell("alpha", "flaky", marker=str(tmp_path / "marker"))
    cache = tmp_path / "cache"
    assert [0, 1] in plan_of(Executor(), cells, 2)
    report = Executor(jobs=2, run_cell=flaky_marked, retries=1, cache=cache).run(cells)
    assert [r.status for r in report.results] == [OK] * len(cells)
    assert report.retried == 1
    by_name = {r.cell.name: r for r in report.results}
    assert by_name["alpha/flaky"].attempts == 2
    # its chunk-mate succeeded on the first (grouped) attempt
    assert by_name["alpha/p0"].attempts == 1
    keys = keys_of(cells)
    store = Executor(cache=cache).cache
    assert store.is_solo(keys[1]) and not store.is_solo(keys[0])


class RecordingBackend(InlineBackend):
    """Inline backend that records the groups of every round."""

    def __init__(self):
        self.rounds = []

    def run(self, executor, groups, attempt):
        self.rounds.append((attempt, groups))
        return super().run(executor, groups, attempt)


def test_retry_rounds_rerun_failed_cells_as_singletons(tmp_path):
    cells = grid_cells()
    for i in (1, 9):
        cells[i] = sweep_cell(cells[i].param("workload"), "flaky%d" % i,
                              marker=str(tmp_path / ("m%d" % i)))
    backend = RecordingBackend()
    report = Executor(jobs=1, run_cell=flaky_marked, retries=1, backend=backend).run(cells)
    assert not report.failed
    plan = plan_of(Executor(), cells, 1)
    assert [len(chunk) for chunk in plan] == [4, 4, 4, 4]
    # a failed cell waits for its round to drain, then runs alone
    assert backend.rounds == [(1, plan), (2, [[1], [9]])]


def test_batch_resume_replans_group_failures_as_singletons(tmp_path):
    """Pinned regression: a cell that failed inside a chunk used to
    re-enter the planner *grouped* when a later run resumed from the
    cache — re-forming the dead chunk and failing the same way.  The
    persistent solo marker written on the group-failure path must
    survive into the next run and keep each such cell a singleton."""
    cache = tmp_path / "cache"
    cells = [
        sweep_cell("alpha", "ok%d" % i) if i % 2 else
        sweep_cell("alpha", "flaky%d" % i, marker=str(tmp_path / ("m%d" % i)))
        for i in range(20)
    ]
    first = Executor(jobs=2, run_cell=flaky_marked, retries=0, cache=cache).run(cells)
    flaky = [i for i in range(20) if i % 2 == 0]
    assert [i for i, r in enumerate(first.results) if r.status == FAILED] == flaky

    # resume: the survivors are cached and the ten failures pending;
    # without the markers the plan would put them in chunks of two
    assert max(map(len, plan_of(Executor(), cells, 2, pending=flaky))) == 2
    resumed = Executor(jobs=2, run_cell=flaky_marked, retries=0, cache=cache)
    assert plan_of(resumed, cells, 2, pending=flaky) == [[i] for i in flaky]

    report = resumed.run(cells)
    assert [r.status for r in report.results] == [OK] * 20
    assert [r.cached for r in report.results] == [bool(i % 2) for i in range(20)]


def test_hard_worker_death_fails_the_group_not_the_run():
    # a chunk holding a cell that kills its worker process: every
    # member degrades to FAILED instead of hanging or raising, and the
    # run still reports every cell
    cells = grid_cells()
    cells[1] = sweep_cell("alpha", "crash", crash=True)
    assert [0, 1] in plan_of(Executor(), cells, 2)
    report = Executor(jobs=2, run_cell=hard_exit_marked, retries=0).run(cells)
    assert [r.cell for r in report.results] == cells
    for result in report.results[:2]:
        assert result.status == FAILED
        assert "worker crashed" in result.error
