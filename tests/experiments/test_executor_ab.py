"""Determinism A/B contract: inline == parallel == warm-cache.

Extends the PR-2 telemetry A/B pattern to the executor: fanning cells
out to worker processes, or serving them from the content-addressed
cache, must not change one bit of any experiment's JSON payload.  The
reference is the golden fixtures under ``tests/experiments/golden/``,
which pin the tables and sweep points the in-process serial runners
produced before experiments were built from shared sweep cells.
"""

import hashlib
from pathlib import Path

from repro.experiments import run_all
from repro.experiments.executor import Executor, ResultCache, experiment_cells
from repro.experiments.sweeps import sweep
from tests.experiments.test_golden import (
    GOLDEN_EXPERIMENTS,
    SCALE,
    canonical,
    golden_points,
    golden_table,
    rendered_points,
)


def assert_golden(tables):
    assert {k: canonical(tables[k]) for k in GOLDEN_EXPERIMENTS} == {
        k: golden_table(k) for k in GOLDEN_EXPERIMENTS
    }


def test_parallel_four_jobs_is_bit_identical_to_serial():
    tables, report = run_all(scale=SCALE, executor=Executor(jobs=4))
    assert not report.failed
    assert report.jobs == 4
    assert_golden(tables)


def test_executor_inline_is_bit_identical_to_serial():
    keys = ("figure5", "table1", "table3", "table6", "table9")
    tables, report = run_all(scale=SCALE, experiments=keys, executor=Executor(jobs=1))
    assert not report.failed
    assert {k: canonical(tables[k]) for k in keys} == {k: golden_table(k) for k in keys}


def test_warm_cache_is_bit_identical_to_serial(tmp_path):
    cache = tmp_path / "cache"
    cold_tables, cold = run_all(scale=SCALE, executor=Executor(jobs=2, cache=cache))
    assert not cold.failed
    assert cold.counters()["cells_cached"] == 0
    warm_tables, warm = run_all(scale=SCALE, executor=Executor(jobs=2, cache=cache))
    assert not warm.failed
    assert warm.counters()["cells_run"] == 0
    assert warm.counters()["cells_cached"] == cold.counters()["cells_run"]
    assert_golden(cold_tables)
    assert_golden(warm_tables)


def test_shared_simulations_run_once():
    """Six views of one SPECint92 grid declare 160 simulations, 80 of
    them distinct: each runs once."""
    keys = ["figure5", "figure6", "table6", "table8", "table9", "window-scaling"]
    assert sum(len(experiment_cells([key], SCALE)) for key in keys) == 160
    tables, report = run_all(scale=SCALE, experiments=keys)
    assert report.counters()["cells_run"] == 80
    assert {k: canonical(tables[k]) for k in keys} == {k: golden_table(k) for k in keys}


def _result_format_1_fingerprint():
    """The source fingerprint before the result format was versioned."""
    import repro
    import repro.workloads as workloads
    from repro.frontend.trace_cache import TRACE_FORMAT_VERSION

    digest = hashlib.sha256()
    digest.update(repro.__version__.encode())
    digest.update(b":trace-format:%d:" % TRACE_FORMAT_VERSION)
    for path in sorted(Path(workloads.__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_parent_format_cache_is_served_as_misses(tmp_path):
    """A cache of sweep payloads without ``stats`` is never assembled
    from: its keys carry the old fingerprint, so every cell misses."""
    cache = ResultCache(tmp_path / "cache")
    old = _result_format_1_fingerprint()
    cells = experiment_cells(["table6"], scale=SCALE)
    for cell in cells:
        payload = {
            "workload": cell.param("workload"),
            "policy": cell.param("policy"),
            "overrides": cell.param("overrides"),
            "cycles": 1,
            "ipc": 1.0,
            "mis_speculations": 0,
        }
        cache.put(cell.key(old), cell, payload)
    assert len(cache) == len(cells)
    tables, report = run_all(scale=SCALE, experiments=["table6"], executor=Executor(cache=cache))
    assert report.counters()["cells_cached"] == 0
    assert report.counters()["cells_run"] == len(cells)
    assert canonical(tables["table6"]) == golden_table("table6")


def test_sweep_parallel_is_bit_identical_to_serial():
    grid = dict(policies=("always", "esync"), overrides={"stages": (2, 4)}, scale=SCALE)
    for jobs in (1, 4):
        result = sweep(["sc", "xlisp"], executor=Executor(jobs=jobs), **grid)
        assert not result.failed
        assert rendered_points(result) == golden_points("sweep-sc-xlisp")
