"""Executor backends: selection, equivalence, and fault injection.

The contract under test: backends only decide *where* cells run —
every payload, cache key, and result ordering is bit-identical across
inline, local-pool, and queue-dir execution, including when a
queue-dir worker is killed mid-run and its lease is reclaimed.
"""

import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.experiments.backends import (
    ExecutorBackend,
    InlineBackend,
    LocalPoolBackend,
    QueueDirBackend,
)
from repro.experiments.executor import Cell, CellError, Executor, default_run_cell
from repro.experiments.queuedir import QueueDir, run_worker


# -- cell evaluators (top-level: importable by worker processes) ------------

def payload_cell(spec):
    """Deterministic pure function of the spec."""
    params = dict(spec["params"])
    return {"name": spec["name"], "workload": params.get("workload")}


def sleepy_cell(spec):
    """Deterministic payload after a configurable nap — slow enough to
    kill a worker while its task is in flight."""
    params = dict(spec["params"])
    time.sleep(float(params.get("naptime", 0)))
    return {"name": spec["name"]}


#: set in the driver by a test: a forked worker returns the new value, a
#: fresh interpreter re-imports this module and returns this default
FORK_MARKER = "fresh interpreter"


def marker_cell(spec):
    return {"name": spec["name"], "marker": FORK_MARKER}


def trace_cache_cell(spec):
    """The default cell, and where this worker's trace cache lives and
    how it found the trace: [root, disk hits, misses]."""
    from repro.frontend.trace_cache import global_trace_cache

    payload = default_run_cell(spec)
    cache = global_trace_cache()
    payload["trace_cache"] = [str(cache.root), cache.disk_hits, cache.misses]
    return payload


def grid_cells(n=4, **extra):
    return [
        Cell.make("sweep", "w%d/p" % i, workload="w%d" % i, policy="p", **extra)
        for i in range(n)
    ]


def shared_trace_cells(n=16):
    """Sweep cells over two traces: on two workers the plan cuts them
    into chunks of ceil(n / 8) cells."""
    return [
        Cell.make("sweep", "w%d/p%d" % (i % 2, i), workload="w%d" % (i % 2), policy="p%d" % i)
        for i in range(n)
    ]


def payloads(report):
    return [json.dumps(r.payload, sort_keys=True) for r in report.results]


# -- selection ---------------------------------------------------------------

def test_executor_default_backend_follows_jobs():
    assert isinstance(Executor(jobs=1).backend, InlineBackend)
    assert isinstance(Executor(jobs=2).backend, LocalPoolBackend)


def test_make_backend_passes_instances_through():
    # a backend instance the Executor is given is used as is, whatever
    # the job count: no name lookup or rebuild sits in between
    backend = InlineBackend()
    assert Executor(jobs=4, backend=backend).backend is backend


def test_custom_backend_must_implement_run():
    with pytest.raises(NotImplementedError):
        ExecutorBackend().run(None, [], 1)


# -- equivalence across backends --------------------------------------------

def assert_backends_agree(tmp_path, cells):
    """Inline, local pool, and queue-dir: one result per input cell, with
    identical payloads, in input order."""
    backend = QueueDirBackend(tmp_path / "q", workers=2, poll_interval=0.01, lease_timeout=5)
    reports = [
        Executor(jobs=1, run_cell=payload_cell).run(cells),
        Executor(jobs=2, run_cell=payload_cell).run(cells),
        Executor(jobs=2, run_cell=payload_cell, backend=backend).run(cells),
    ]
    for report in reports:
        assert [r.cell for r in report.results] == cells
        assert all(r.ok for r in report.results)
        assert payloads(report) == payloads(reports[0])


def test_inline_local_and_queue_dir_payloads_identical(tmp_path):
    cells = grid_cells()
    keys = [cell.key() for cell in cells]
    assert Executor()._plan(list(range(4)), cells, keys, 2) == [[0], [1], [2], [3]]
    assert_backends_agree(tmp_path, cells)


def test_backends_agree_on_multi_cell_chunks(tmp_path):
    cells = shared_trace_cells()
    keys = [cell.key() for cell in cells]
    plan = Executor()._plan(list(range(16)), cells, keys, 2)
    assert plan[:2] == [[0, 2], [1, 3]]
    assert_backends_agree(tmp_path, cells)


def test_duplicated_cell_gets_one_result_per_input_cell(tmp_path):
    """Pinned regression: queue-dir tracked outstanding cells by cache
    key, so a cell listed twice came back once and the report lost an
    input.  The executor now dispatches each key once and fills every
    place that holds it, on every backend."""
    base = shared_trace_cells(10)
    cells = base[:6] + [base[2]] + base[6:] + [base[2]]
    assert_backends_agree(tmp_path, cells)


def test_queue_dir_process_mode_rejects_closures(tmp_path):
    backend = QueueDirBackend(tmp_path / "q", workers=1)
    with pytest.raises(CellError, match="not importable"):
        Executor(jobs=1, run_cell=lambda spec: {}, backend=backend).run(grid_cells(1))


def test_queue_dir_writes_results_through_executor_cache(tmp_path):
    cells = grid_cells()
    backend = QueueDirBackend(tmp_path / "q", workers=2, poll_interval=0.01)
    cold = Executor(
        jobs=2, run_cell=payload_cell, cache=tmp_path / "cache", backend=backend
    ).run(cells)
    assert cold.counters()["cells_cached"] == 0
    # a warm rerun needs no backend at all: everything is cached
    warm = Executor(jobs=1, run_cell=payload_cell, cache=tmp_path / "cache").run(cells)
    assert warm.counters()["cells_cached"] == len(cells)
    assert payloads(warm) == payloads(cold)


def test_queue_dir_external_workers_only(tmp_path):
    """workers=0 relies entirely on externally started workers."""
    cells = grid_cells()
    queue_root = tmp_path / "q"
    backend = QueueDirBackend(queue_root, workers=0, poll_interval=0.01)
    external = threading.Thread(
        target=run_worker,
        kwargs=dict(queue=QueueDir(queue_root).init(), poll_interval=0.01),
        daemon=True,
    )
    external.start()
    report = Executor(jobs=1, run_cell=payload_cell, backend=backend).run(cells)
    assert all(r.ok for r in report.results)
    external.join(timeout=10)
    assert not external.is_alive()  # the stop sentinel drained it


# -- fault injection ---------------------------------------------------------

def test_killed_worker_lease_is_reclaimed_and_sweep_completes(tmp_path):
    """Kill a queue-dir worker process mid-task: the driver reclaims
    its lease, a replacement re-executes the shard, and the run ends
    with every cell delivered exactly once — no lost, no duplicated."""
    cells = [
        Cell.make("sweep", "w%d/p" % i, workload="w%d" % i, policy="p", naptime=0.4)
        for i in range(6)
    ]
    backend = QueueDirBackend(
        tmp_path / "q",
        workers=2,
        poll_interval=0.02,
        heartbeat_interval=0.1,
        lease_timeout=1.0,
    )
    executor = Executor(jobs=2, run_cell=sleepy_cell, backend=backend, retries=1)

    killed = {}

    def assassin():
        deadline = time.time() + 30
        leases = (tmp_path / "q") / "leases"
        while time.time() < deadline:
            if backend._procs and any(leases.glob("*.lease")):
                victim = backend._procs[0]
                victim.kill()
                killed["pid"] = victim.pid
                return
            time.sleep(0.02)

    thread = threading.Thread(target=assassin, daemon=True)
    thread.start()
    report = executor.run(cells)
    thread.join(timeout=30)

    assert "pid" in killed, "assassin never found a claimed lease"
    assert len(report.results) == len(cells)
    assert all(r.ok for r in report.results)
    # exactly one result per cell, in input order
    assert [r.cell.name for r in report.results] == [c.name for c in cells]
    # and the payloads match an undisturbed inline run bit for bit
    reference = Executor(jobs=1, run_cell=sleepy_cell).run(cells)
    assert payloads(report) == payloads(reference)


def test_all_workers_dead_and_budget_exhausted_raises(tmp_path):
    backend = QueueDirBackend(
        tmp_path / "q",
        workers=1,
        poll_interval=0.02,
        heartbeat_interval=0.1,
        lease_timeout=0.5,
        max_respawns=0,
    )
    cells = [Cell.make("sweep", "w/p", workload="w", policy="p", naptime=5.0)]
    executor = Executor(jobs=1, run_cell=sleepy_cell, backend=backend)

    def assassinate_everything():
        deadline = time.time() + 30
        while time.time() < deadline:
            if backend._procs:
                for proc in backend._procs:
                    proc.kill()
                return
            time.sleep(0.02)

    thread = threading.Thread(target=assassinate_everything, daemon=True)
    thread.start()
    with pytest.raises(RuntimeError, match="respawn budget"):
        executor.run(cells)
    thread.join(timeout=10)


# -- spawned workers are forks of the driver ---------------------------------

def test_spawned_workers_are_forks_of_the_driver(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "FORK_MARKER", "set in the driver")
    backend = QueueDirBackend(tmp_path / "q", workers=2, poll_interval=0.01)
    report = Executor(jobs=2, run_cell=marker_cell, backend=backend).run(grid_cells())
    assert [r.payload["marker"] for r in report.results] == ["set in the driver"] * 4


@pytest.mark.parametrize("start", ["default", "spawn"])
def test_spawned_worker_keeps_its_traces_beside_the_results(tmp_path, monkeypatch, start):
    """With no REPRO_TRACE_CACHE, a spawned worker interprets into, and
    then reads from, the trace cache co-located with the result cache:
    a fork inherits it, and a fresh interpreter (``spawn``, as where
    the platform cannot fork) is handed its root."""
    from repro.experiments import backends
    from repro.experiments import executor as executor_module
    from repro.experiments.sweeps import sweep_cells
    from repro.frontend import trace_cache

    if start == "spawn":
        monkeypatch.setattr(backends, "_pool_context", lambda: multiprocessing.get_context("spawn"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    # the driver holds no trace, so only the worker can have produced one
    monkeypatch.setattr(executor_module, "_trace_cache", {})
    monkeypatch.setattr(trace_cache, "_MEMORY", {})
    monkeypatch.setattr(trace_cache, "_GLOBAL", None)
    cache = tmp_path / "cache"
    traces = str(cache / "traces")
    first, second = sweep_cells(["sc"], policies=("always", "esync"), scale="tiny")
    for run, (cell, found) in enumerate(((first, [traces, 0, 1]), (second, [traces, 1, 0]))):
        backend = QueueDirBackend(tmp_path / ("q%d" % run), workers=1, poll_interval=0.01)
        executor = Executor(jobs=1, run_cell=trace_cache_cell, cache=cache, backend=backend)
        (result,) = executor.run([cell]).results
        assert result.ok, result.error
        assert result.payload["trace_cache"] == found
    assert len(list((cache / "traces").glob("*/*.trace"))) == 1
    assert executor_module._trace_cache == {} and trace_cache._MEMORY == {}


def reaped(pid):
    """True once the process *pid* has exited and been waited for."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def tracked_executor(tmp_path, fail):
    """An executor on two spawned workers, and the set its progress
    callback fills with their pids.  With *fail*, the callback raises on
    the first finished cell, as a failing driver would."""
    backend = QueueDirBackend(tmp_path / "q", workers=2, poll_interval=0.01)
    pids = set()

    def progress(event):
        if event["event"] == "cell":
            pids.update(proc.pid for proc in backend._procs)
            if fail:
                raise RuntimeError("the driver failed")

    executor = Executor(jobs=2, run_cell=payload_cell, backend=backend, progress=progress)
    return executor, pids


def test_spawned_workers_exit_with_the_run(tmp_path):
    executor, pids = tracked_executor(tmp_path, fail=False)
    assert all(r.ok for r in executor.run(grid_cells()).results)
    assert len(pids) == 2 and all(reaped(pid) for pid in pids)
    assert executor.backend._procs == []


def test_failing_driver_leaves_no_workers_behind(tmp_path):
    """A driver that raises mid-run still stops and reaps its workers:
    none outlives it, and none is left for the interpreter's exit hook
    (which joins live children) to wait on."""
    executor, pids = tracked_executor(tmp_path, fail=True)
    with pytest.raises(RuntimeError, match="the driver failed"):
        executor.run(grid_cells())
    assert len(pids) == 2 and all(reaped(pid) for pid in pids)
    assert executor.backend._procs == []
    assert not pids & {child.pid for child in multiprocessing.active_children()}


def test_hold_open_keeps_workers_across_executes(tmp_path):
    backend = QueueDirBackend(tmp_path / "q", workers=2, poll_interval=0.01)
    executor = Executor(jobs=2, run_cell=payload_cell, backend=backend)
    with backend.hold_open():
        first = executor.run(grid_cells(3))
        pids = [proc.pid for proc in backend._procs if proc.is_alive()]
        assert len(pids) == 2  # no stop sentinel between runs
        assert not os.path.exists(tmp_path / "q" / "STOP")
        second = executor.run(grid_cells(5))
        assert [proc.pid for proc in backend._procs] == pids  # the same fleet
    assert all(r.ok for r in first.results + second.results)
    assert os.path.exists(tmp_path / "q" / "STOP")
    assert backend._procs == [] and all(reaped(pid) for pid in pids)
