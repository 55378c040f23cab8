"""Fault injection: crashing, hanging, flaky, and garbage-returning
cells must degrade to FAILED results (with retry accounting) instead of
killing the run, and an interrupted sweep must resume from the cache
without recomputing finished cells.
"""

import os
import time

from repro.experiments.executor import (
    FAILED,
    OK,
    Cell,
    Executor,
)
from repro.telemetry import MetricRegistry


def ok_cell(spec):
    return {"name": spec["name"]}


def crash_cell(spec):
    raise RuntimeError("injected crash")


def slow_cell(spec):
    time.sleep(30)
    return {"name": spec["name"]}


def garbage_object_cell(spec):
    return ["not", "a", "dict"]


def garbage_unserializable_cell(spec):
    return {"payload": object()}


def crash_if_marked(spec):
    """Crash only for cells whose params carry crash=True."""
    params = dict(spec["params"])
    if params.get("crash"):
        raise RuntimeError("injected crash")
    return {"name": spec["name"]}


def flaky_once(spec):
    """Fail the first attempt, succeed after — state via the filesystem
    so it works across worker processes too."""
    marker = dict(spec["params"])["marker"]
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempt 1\n")
        raise RuntimeError("injected transient failure")
    return {"name": spec["name"], "recovered": True}


def counting_cell(spec):
    """Record every execution in a per-run directory (resume tests)."""
    params = dict(spec["params"])
    with open(os.path.join(params["log_dir"], spec["name"]), "a") as fh:
        fh.write("ran\n")
    return {"name": spec["name"]}


def crash_logged(spec):
    """Log every run; cells marked crash=True then kill their worker
    process outright — only on their first run if also marked once=True."""
    params = dict(spec["params"])
    log = os.path.join(params["log_dir"], spec["name"])
    first = not os.path.exists(log)
    with open(log, "a") as fh:
        fh.write("ran\n")
    if params.get("crash") and (first or not params.get("once")):
        os._exit(13)
    return {"name": spec["name"]}


def cells(n, **params):
    return [Cell.make("fault", "cell%d" % i, index=i, **params) for i in range(n)]


def test_raising_cell_yields_failed_result():
    report = Executor(jobs=1, run_cell=crash_cell, retries=0).run(cells(2))
    assert [r.status for r in report.results] == [FAILED, FAILED]
    assert all("injected crash" in r.error for r in report.results)
    assert report.counters()["cells_failed"] == 2


def test_raising_cell_in_pool_does_not_kill_siblings():
    grid = cells(1, crash=True) + [
        Cell.make("fault", "fine%d" % i, index=i) for i in range(3)
    ]
    report = Executor(jobs=2, run_cell=crash_if_marked, retries=0).run(grid)
    statuses = [r.status for r in report.results]
    assert statuses == [FAILED, OK, OK, OK]


def test_timeout_yields_failed_result():
    start = time.time()
    report = Executor(jobs=1, run_cell=slow_cell, timeout=0.2, retries=0).run(cells(1))
    assert time.time() - start < 10  # the 30s sleep was interrupted
    (result,) = report.results
    assert result.status == FAILED
    assert "CellTimeout" in result.error


def test_garbage_payloads_yield_failed_results():
    for run_cell in (garbage_object_cell, garbage_unserializable_cell):
        report = Executor(jobs=1, run_cell=run_cell, retries=0).run(cells(1))
        (result,) = report.results
        assert result.status == FAILED, run_cell.__name__
        assert "garbage payload" in result.error


def test_garbage_is_not_cached(tmp_path):
    cache = tmp_path / "cache"
    Executor(jobs=1, run_cell=garbage_object_cell, cache=cache, retries=0).run(cells(1))
    report = Executor(jobs=1, run_cell=ok_cell, cache=cache, retries=0).run(cells(1))
    (result,) = report.results
    assert result.ok and not result.cached  # FAILED result did not poison the cache


def test_retry_then_success_increments_retry_counter(tmp_path):
    metrics = MetricRegistry()
    cell = Cell.make("fault", "flaky", marker=str(tmp_path / "marker"))
    report = Executor(jobs=1, run_cell=flaky_once, retries=1, metrics=metrics).run([cell])
    (result,) = report.results
    assert result.ok
    assert result.attempts == 2
    assert result.payload["recovered"] is True
    assert report.retried == 1
    assert metrics.to_dict()["counters"]["executor.cells_retried"] == 1


def test_retries_exhausted_reports_failed():
    report = Executor(jobs=1, run_cell=crash_cell, retries=2).run(cells(1))
    (result,) = report.results
    assert result.status == FAILED
    assert result.attempts == 3  # 1 attempt + 2 retries
    assert report.retried == 2


def crash_grid(log_dir, **crash):
    """Seven sweep-shaped cells over one trace; the fourth kills its worker."""
    grid = []
    for i in range(7):
        params = dict(workload="alpha", policy="p%d" % i, scale="tiny", log_dir=str(log_dir))
        if i == 3:
            params.update(crash=True, **crash)
        grid.append(Cell.make("sweep", "alpha-p%d" % i, **params))
    return grid


def runs(log_dir, cell):
    return len((log_dir / cell.name).read_text().splitlines())


def test_pool_retries_after_hard_worker_crash_really_run(tmp_path):
    """Pinned regression: after a worker died hard, the pool was broken,
    so every retry it counted failed to submit and its cell was reported
    FAILED after one attempt.  Retries now run in a fresh pool."""
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    grid = crash_grid(log_dir, once=True)
    report = Executor(jobs=2, run_cell=crash_logged, retries=1).run(grid)
    assert [r.status for r in report.results] == [OK] * 7
    # every counted retry ran: its cell's second attempt returned the payload
    assert report.retried == sum(r.attempts - 1 for r in report.results) >= 1
    assert report.results[3].attempts == 2
    assert runs(log_dir, grid[3]) == 2


def test_pool_hard_crash_uses_every_attempt(tmp_path):
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    grid = crash_grid(log_dir)
    retries = 2
    report = Executor(jobs=2, run_cell=crash_logged, retries=retries).run(grid)
    failed = report.failed
    assert report.results[3] in failed
    for result in failed:
        assert result.attempts == retries + 1
        assert "worker crashed" in result.error
    assert report.retried == sum(r.attempts - 1 for r in report.results)
    # the crashing cell really ran once per attempt
    assert runs(log_dir, grid[3]) == retries + 1


def test_resume_completes_killed_run_without_recompute(tmp_path):
    """Emulate a run killed mid-sweep: only the first half of the cells
    completed (and were checkpointed to the cache).  Re-invoking over
    the full cell list completes the rest — the cells-cached counter
    proves nothing finished was recomputed."""
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    cache = tmp_path / "cache"
    grid = cells(6, log_dir=str(log_dir))

    Executor(jobs=1, run_cell=counting_cell, cache=cache).run(grid[:3])
    assert len(list(log_dir.iterdir())) == 3

    metrics = MetricRegistry()
    report = Executor(jobs=2, run_cell=counting_cell, cache=cache, metrics=metrics).run(grid)
    assert not report.failed
    counters = metrics.to_dict()["counters"]
    assert counters["executor.cells_cached"] == 3
    assert counters["executor.cells_run"] == 3
    # every cell executed exactly once across both invocations
    for path in log_dir.iterdir():
        assert path.read_text() == "ran\n"

    rerun = Executor(jobs=1, run_cell=counting_cell, cache=cache).run(grid)
    assert rerun.counters()["cells_cached"] == 6
    assert rerun.counters()["cells_run"] == 0
