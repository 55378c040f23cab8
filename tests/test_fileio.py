"""Fault injection for the one atomic write behind the trace cache, the
result cache and the queue directory: a write that fails partway keeps
the old file and leaves no temporary file behind."""

import os

import pytest

from repro.experiments.executor import Cell, ResultCache
from repro.experiments.queuedir import QueueDir
from repro.frontend import trace_cache
from repro.workloads import get_workload


@pytest.fixture
def fail_replace(monkeypatch):
    """Call to make every later rename fail after the data is written."""

    def replace(src, dst):
        assert os.path.getsize(src) > 0
        raise OSError(28, "No space left on device")

    return lambda: monkeypatch.setattr(os, "replace", replace)


def temp_files(root):
    return sorted(str(path) for path in root.rglob("*") if "tmp" in path.name)


def test_trace_cache_write_that_fails_keeps_the_old_file_and_the_run(
    tmp_path, monkeypatch, fail_replace
):
    monkeypatch.setattr(trace_cache, "_MEMORY", {})
    program = get_workload("sc").program("tiny")
    cache = trace_cache.TraceCache(tmp_path)
    path = cache.path(trace_cache.program_fingerprint(program))
    path.parent.mkdir(parents=True)
    path.write_bytes(b"old")  # unreadable, so the run interprets and rewrites
    fail_replace()
    trace = cache.get_or_run(program)
    assert len(trace) > 0 and cache.misses == 1
    assert path.read_bytes() == b"old"
    assert temp_files(tmp_path) == []


def test_result_cache_write_that_fails_keeps_the_old_record(tmp_path, fail_replace):
    cache = ResultCache(tmp_path)
    cell = Cell.make("experiment", "table2", scale="tiny")
    cache.put("ab12", cell, {"rows": 1})
    fail_replace()
    with pytest.raises(OSError):
        cache.put("ab12", cell, {"rows": 2})
    assert cache.get("ab12")["payload"] == {"rows": 1}
    assert temp_files(tmp_path) == []


def test_queue_task_write_that_fails_keeps_the_old_task(tmp_path, fail_replace):
    queue = QueueDir(tmp_path).init()
    queue.enqueue({"id": "t1", "cells": 1})
    fail_replace()
    with pytest.raises(OSError):
        queue.enqueue({"id": "t1", "cells": 2})
    assert (queue.tasks / "t1.json").read_text() == '{"cells": 1, "id": "t1"}\n'
    assert temp_files(tmp_path) == []
