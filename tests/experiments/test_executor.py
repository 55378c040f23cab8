"""Unit tests for the cell executor: specs, cache, assembly, telemetry."""

import json

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.executor import (
    Cell,
    Executor,
    ResultCache,
    assemble_experiments,
    experiment_cells,
    source_fingerprint,
)
from repro.telemetry import MetricRegistry, TraceEventSink


def ok_cell(spec):
    """Echo evaluator used by the inline-execution tests."""
    return {"name": spec["name"], "params": spec["params"]}


def make_cells(n):
    return [Cell.make("test", "cell%d" % i, index=i) for i in range(n)]


# -- Cell specs and keys ---------------------------------------------------


def test_cell_params_are_order_insensitive():
    a = Cell.make("experiment", "table3", scale="tiny", suites=["a"])
    b = Cell.make("experiment", "table3", suites=["a"], scale="tiny")
    assert a == b
    assert a.key() == b.key()


def test_cell_key_is_stable_hex():
    key = Cell.make("experiment", "table3", scale="tiny").key()
    assert len(key) == 64
    int(key, 16)  # hex


def test_source_fingerprint_covers_version_and_sources():
    fp = source_fingerprint()
    assert len(fp) == 64
    assert source_fingerprint() == fp  # cached, stable within a process


def test_cell_key_changes_with_fingerprint():
    cell = Cell.make("experiment", "table3", scale="tiny")
    assert cell.key(fingerprint="aaa") != cell.key(fingerprint="bbb")


# -- ResultCache -----------------------------------------------------------


def test_cache_roundtrip_and_len(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cell = Cell.make("test", "x", v=1)
    key = cell.key()
    assert cache.get(key) is None
    assert key not in cache
    cache.put(key, cell, {"rows": [1, 2]})
    assert key in cache
    assert len(cache) == 1
    record = cache.get(key)
    assert record["payload"] == {"rows": [1, 2]}
    assert record["cell"] == cell.spec()


def test_cache_rejects_corrupt_records(tmp_path):
    cache = ResultCache(tmp_path)
    cell = Cell.make("test", "x")
    key = cell.key()
    cache.put(key, cell, {"a": 1})
    cache.path(key).write_text("{not json")
    assert cache.get(key) is None  # corrupt -> miss, not crash
    cache.path(key).write_text(json.dumps({"key": "wrong", "payload": {}}))
    assert cache.get(key) is None  # key mismatch -> miss


# -- Executor basics -------------------------------------------------------


def test_inline_run_preserves_input_order():
    cells = make_cells(5)
    report = Executor(jobs=1, run_cell=ok_cell).run(cells)
    assert [r.cell for r in report.results] == cells
    assert all(r.ok and r.attempts == 1 and not r.cached for r in report.results)
    assert report.counters()["cells_run"] == 5


def test_pool_run_matches_inline(tmp_path):
    cells = make_cells(6)
    inline = Executor(jobs=1, run_cell=ok_cell).run(cells)
    pooled = Executor(jobs=2, run_cell=ok_cell).run(cells)
    assert [r.payload for r in pooled.results] == [r.payload for r in inline.results]


def test_cache_serves_second_run(tmp_path):
    cells = make_cells(3)
    cache = tmp_path / "cache"
    first = Executor(jobs=1, cache=cache, run_cell=ok_cell).run(cells)
    second = Executor(jobs=1, cache=cache, run_cell=ok_cell).run(cells)
    assert first.counters()["cells_cached"] == 0
    assert second.counters()["cells_cached"] == 3
    assert second.counters()["cells_run"] == 0
    assert [r.payload for r in second.results] == [r.payload for r in first.results]


def test_executor_publishes_metrics_and_trace():
    metrics = MetricRegistry()
    trace = TraceEventSink()
    Executor(jobs=1, run_cell=ok_cell, metrics=metrics, trace=trace).run(make_cells(2))
    catalogue = metrics.to_dict()
    assert catalogue["counters"]["executor.cells_total"] == 2
    assert catalogue["counters"]["executor.cells_run"] == 2
    assert catalogue["counters"]["executor.cells_failed"] == 0
    assert catalogue["gauges"]["executor.jobs"] == 1
    assert catalogue["gauges"]["executor.wall_seconds"] >= 0
    spans = [e for e in trace.events if e["ph"] == "X" and e["cat"] == "cell"]
    assert len(spans) == 2
    names = {
        e["args"]["name"] for e in trace.events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names == {"worker 0"}


# -- experiment planning and assembly --------------------------------------


def test_experiment_cells_keep_whole_cells_for_the_rest():
    cells = experiment_cells(["table1", "table3", "figure7"], scale="tiny")
    whole = [cell for cell in cells if cell.kind == "experiment"]
    assert [cell.name for cell in whole] == ["table1", "table3"]
    assert all(cell.param("suites") is None for cell in whole)
    assert sum(cell.kind == "sweep" for cell in cells) == 3 * 18


def test_cell_labels_are_distinct_within_a_run():
    from repro.experiments.sweeps import sweep_cells

    cells = sweep_cells(
        ["sc"], ("always", "esync"), {"stages": (2, 4)}, "tiny",
        policy_overrides={"capacity": (16, 64)},
    )
    assert len({cell.label for cell in cells}) == len(cells) == 8
    assert cells[0].label == "sweep:sc/always[stages=2,capacity=16]"
    assert cells[0].name == "sc/always"  # name, spec and key unchanged
    cells = experiment_cells(sorted(ALL_EXPERIMENTS), scale="tiny")
    assert len({cell.label for cell in cells}) == len(cells)


def boom(spec):
    raise RuntimeError("deliberate failure for %s" % spec["name"])


def test_assemble_tolerates_failed_cells():
    cells = experiment_cells(["table2"], scale="tiny")
    report = Executor(jobs=1, run_cell=boom, retries=0).run(cells)
    tables = assemble_experiments(["table2"], report, "tiny")
    table = tables["table2"]
    assert table.experiment == "table2"
    assert "FAILED" in table.title
    assert any("FAILED" in note for note in table.notes)
    assert "deliberate failure" in table.rows[0][1]


def test_run_all_rejects_unknown_experiment():
    from repro.experiments import run_all

    with pytest.raises(KeyError):
        run_all(experiments=["no-such-table"])


def test_assemble_degrades_only_the_grids_reading_a_failed_cell():
    from repro.experiments.executor import default_run_cell

    def flaky(spec):
        if spec["name"] == "gcc/always":
            raise RuntimeError("deliberate failure")
        return default_run_cell(spec)

    keys = ["table6", "table8"]
    report = Executor(jobs=1, run_cell=flaky, retries=0).run(
        experiment_cells(keys, scale="tiny")
    )
    tables = assemble_experiments(keys, report, "tiny")
    assert "FAILED" in tables["table6"].title  # reads gcc under ALWAYS
    assert tables["table6"].rows[0][0] == "sweep:gcc/always[stages=4]"
    assert "FAILED" not in tables["table8"].title  # reads SYNC/ESYNC only
