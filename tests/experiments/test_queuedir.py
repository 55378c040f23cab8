"""The queue-directory protocol: claims, heartbeats, streams, reclaim.

Everything here exercises :mod:`repro.experiments.queuedir` directly —
the filesystem primitives the work-stealing backend is built from.
End-to-end driver/worker integration (including killing workers) lives
in ``test_backends.py``.
"""

import hashlib
import json
import math
import os
import time

import pytest

from repro.experiments.executor import CellError, default_run_cell
from repro.experiments.queuedir import (
    QueueDir,
    resolve_run_cell,
    run_cell_path,
    run_worker,
)


def echo_cell(spec):
    """Module-level evaluator (importable across process boundaries)."""
    return {"name": spec["name"], "params": dict(spec["params"])}


def key_for(name):
    """Cell keys are hex digests (they seed the per-cell RNG)."""
    return hashlib.sha256(name.encode()).hexdigest()


def make_task(task_id="run-t000000", names=("a",), **extra):
    return dict(
        {
            "id": task_id,
            "run": "run",
            "attempt": 1,
            "specs": [{"kind": "k", "name": n, "params": []} for n in names],
            "keys": [key_for(n) for n in names],
            "timeout": None,
            "run_cell": run_cell_path(echo_cell),
        },
        **extra,
    )


# -- evaluator shipping ------------------------------------------------------

def test_run_cell_path_round_trips_module_functions():
    path = run_cell_path(echo_cell)
    assert path == "%s:echo_cell" % __name__
    assert resolve_run_cell(path) is echo_cell


def test_run_cell_path_is_none_for_default():
    assert run_cell_path(default_run_cell) is None
    assert resolve_run_cell(None) is default_run_cell


def test_run_cell_path_rejects_closures():
    def local(spec):
        return {}

    with pytest.raises(CellError):
        run_cell_path(local)
    with pytest.raises(CellError):
        run_cell_path(lambda spec: {})


def test_resolve_run_cell_rejects_bad_paths():
    for bad in ("no_colon", "missing.module:fn", "%s:absent" % __name__):
        with pytest.raises(CellError):
            resolve_run_cell(bad)


# -- claims and leases -------------------------------------------------------

def test_claim_is_exclusive(tmp_path):
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task())
    first = queue.claim("w1")
    assert first is not None and first["id"] == "run-t000000"
    assert queue.claim("w2") is None  # lease held


def test_complete_marks_done_and_releases(tmp_path):
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task())
    task = queue.claim("w1")
    queue.complete(task["id"])
    assert queue.is_done(task["id"])
    assert queue.pending_task_ids() == []
    assert queue.claim("w2") is None


def test_claim_skips_task_completed_after_listing(tmp_path, monkeypatch):
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task("run-t000000"))
    queue.enqueue(make_task("run-t000001"))
    stale = queue.pending_task_ids()
    # another worker finishes the first task after this one listed the
    # queue: complete() marks it done, then drops its lease
    first = queue.claim("w1")
    queue.complete(first["id"])
    monkeypatch.setattr(queue, "pending_task_ids", lambda: list(stale))
    task = queue.claim("w2")
    assert task is not None and task["id"] == "run-t000001"
    assert not (queue.leases / "run-t000000.lease").exists()


def test_reclaim_renames_stale_leases(tmp_path):
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task())
    task = queue.claim("w1")
    # a fresh heartbeat is not stale
    assert queue.reclaim_stale(lease_timeout=60) == []
    # pretend the heartbeat stopped long ago
    assert queue.reclaim_stale(lease_timeout=60, now=time.time() + 120) == [task["id"]]
    # the tombstone keeps the dead worker from re-asserting the claim
    assert not queue.heartbeat(task["id"])
    assert (queue.leases / (task["id"] + ".stale.0")).exists()
    # and the task is claimable again
    assert queue.claim("w2") is not None


def test_reclaim_skips_done_tasks(tmp_path):
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task())
    task = queue.claim("w1")
    (queue.leases / (task["id"] + ".lease")).touch()  # lease left behind
    queue.complete(task["id"])
    (queue.leases / (task["id"] + ".lease")).touch()
    assert queue.reclaim_stale(lease_timeout=0, now=time.time() + 120) == []


# -- coarse mtime granularity ------------------------------------------------

def coarse_heartbeat(queue, task_id, now):
    """Touch a lease as a file system with whole-second mtimes does
    (FAT, ext3, HFS+): the mtime lands on floor(now)."""
    mtime = math.floor(now)
    os.utime(queue.leases / (task_id + ".lease"), (mtime, mtime))


def reclaimed_at(queue, task_id, start, interval, timeout, beats):
    """Simulated time from *start* in 10 ms steps: the worker holding
    *task_id* heartbeats every *interval* seconds *beats* times and then
    stops, while the driver calls ``reclaim_stale(timeout)`` at every
    step.  Returns (time of the last heartbeat, time of the reclaim,
    or None if the lease outlived 20 s of driver checks)."""
    last = None
    for step in range(2000):
        now = start + step / 100.0
        if beats and (last is None or now >= last + interval):
            coarse_heartbeat(queue, task_id, now)
            last, beats = now, beats - 1
        if queue.reclaim_stale(timeout, now=now):
            return last, now
    return last, None


@pytest.mark.parametrize("phase", [0.0, 0.35, 0.99])
def test_reclaim_tolerates_whole_second_mtimes(tmp_path, phase):
    """With a lease timeout above the mtime granularity plus the
    heartbeat interval, a live lease is never reclaimed; once its
    heartbeat stops, it is reclaimed by the time it ages past the
    timeout (up to one granule early, as its mtime was rounded down)."""
    granularity, interval, timeout = 1.0, 0.3, 1.5
    assert timeout > granularity + interval
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task())
    task_id = queue.claim("w1")["id"]
    start = math.floor(time.time()) + 10 + phase
    # 15 s of heartbeats, then silence
    last, reclaimed = reclaimed_at(queue, task_id, start, interval, timeout, beats=51)
    assert last >= start + 15
    assert reclaimed is not None
    assert last + timeout - granularity < reclaimed <= last + timeout + 0.01
    assert queue.claim("w2")["id"] == task_id


def test_reclaim_needs_the_granularity_margin(tmp_path):
    """The margin is needed: a timeout of one granule reclaims a live
    lease whose last heartbeat fell just before a whole second."""
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task())
    task_id = queue.claim("w1")["id"]
    start = math.floor(time.time()) + 10.99
    _, reclaimed = reclaimed_at(queue, task_id, start, 0.3, 1.0, beats=51)
    assert reclaimed is not None and reclaimed < start + 15  # still beating


# -- result streaming --------------------------------------------------------

def test_read_new_results_tails_by_offset(tmp_path):
    queue = QueueDir(tmp_path).init()
    offsets = {}
    queue.append_result("w1", {"n": 1})
    queue.append_result("w1", {"n": 2})
    assert [r["n"] for r in queue.read_new_results(offsets)] == [1, 2]
    assert queue.read_new_results(offsets) == []
    queue.append_result("w1", {"n": 3})
    queue.append_result("w2", {"n": 4})
    assert sorted(r["n"] for r in queue.read_new_results(offsets)) == [3, 4]


def test_read_new_results_skips_torn_tail(tmp_path):
    queue = QueueDir(tmp_path).init()
    offsets = {}
    queue.append_result("w1", {"n": 1})
    stream = queue.results / "w1.jsonl"
    with open(stream, "a") as fh:
        fh.write('{"n": 2')  # a worker died mid-append
    assert [r["n"] for r in queue.read_new_results(offsets)] == [1]
    with open(stream, "a") as fh:
        fh.write("}\n")  # ... or was merely slow: the line completes
    assert [r["n"] for r in queue.read_new_results(offsets)] == [2]


def test_read_new_results_skips_corrupt_lines(tmp_path):
    queue = QueueDir(tmp_path).init()
    stream = queue.results / "w1.jsonl"
    with open(stream, "w") as fh:
        fh.write("not json\n")
        fh.write(json.dumps({"n": 1}) + "\n")
    assert [r["n"] for r in queue.read_new_results({})] == [1]


# -- the worker loop ---------------------------------------------------------

def test_run_worker_executes_and_streams(tmp_path):
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task(names=("a", "b")))
    stats = run_worker(queue, worker_id="w1", max_tasks=1)
    assert stats == {"worker": "w1", "tasks": 1, "cells": 2, "failed": 0}
    assert queue.is_done("run-t000000")
    records = queue.read_new_results({})
    assert [r["key"] for r in records] == [key_for("a"), key_for("b")]
    # records carry the run nonce and attempt so the driver can reject
    # stale failures from reclaimed attempts
    assert all(r["run"] == "run" and r["attempt"] == 1 for r in records)
    assert all(r["outcome"]["status"] == "ok" for r in records)
    assert records[0]["outcome"]["payload"] == {"name": "a", "params": {}}


def test_run_worker_honors_stop_sentinel(tmp_path):
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task())
    queue.request_stop()
    stats = run_worker(queue, worker_id="w1")
    assert stats["tasks"] == 0
    assert queue.pending_task_ids() == ["run-t000000"]


def test_run_worker_idle_timeout(tmp_path):
    queue = QueueDir(tmp_path).init()
    start = time.time()
    stats = run_worker(queue, worker_id="w1", idle_timeout=0.1, poll_interval=0.01)
    assert stats["tasks"] == 0
    assert time.time() - start < 5


def test_run_worker_streams_failures(tmp_path):
    queue = QueueDir(tmp_path).init()
    queue.enqueue(make_task(run_cell="%s:absent" % __name__))
    stats = run_worker(queue, worker_id="w1", max_tasks=1)
    assert stats["failed"] == 1
    (record,) = queue.read_new_results({})
    assert record["outcome"]["status"] == "failed"
    assert "absent" in record["outcome"]["error"]
    # the task still completes: the failure is the *result*, not a wedge
    assert queue.is_done("run-t000000")


def test_worker_id_defaults_are_unique(tmp_path):
    queue = QueueDir(tmp_path).init()
    ids = set()
    for _ in range(4):
        stats = run_worker(queue, idle_timeout=0, poll_interval=0.01)
        ids.add(stats["worker"])
    assert len(ids) == 4
    assert all(str(os.getpid()) in worker_id for worker_id in ids)
