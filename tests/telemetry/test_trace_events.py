"""Tests for the Chrome trace-event sink."""

import json

from repro.telemetry import NULL_TRACE, NullTraceSink, TraceEventSink, merged_trace


def test_complete_event_shape():
    sink = TraceEventSink(pid=3)
    sink.complete("task 0", ts=10, dur=5, tid=2, cat="task", args={"pc": 4})
    (event,) = sink.events
    assert event == {
        "name": "task 0",
        "cat": "task",
        "ph": "X",
        "ts": 10,
        "dur": 5,
        "pid": 3,
        "tid": 2,
        "args": {"pc": 4},
    }


def test_instant_event_is_thread_scoped():
    sink = TraceEventSink()
    sink.instant("violation", ts=7)
    (event,) = sink.events
    assert event["ph"] == "i"
    assert event["s"] == "t"
    assert "args" not in event  # omitted when not given


def test_counter_event_carries_values():
    sink = TraceEventSink()
    sink.counter("MDPT occupancy", ts=4, values={"entries": 9})
    (event,) = sink.events
    assert event["ph"] == "C"
    assert event["args"] == {"entries": 9}


def test_metadata_events():
    sink = TraceEventSink(pid=1)
    sink.thread_name(3, "stage 3")
    kinds = [(e["name"], e["ph"], e["tid"], e["args"]["name"]) for e in sink.events]
    assert kinds == [("thread_name", "M", 3, "stage 3")]


def test_to_dict_is_valid_trace_json():
    sink = TraceEventSink()
    sink.complete("a", 0, 1)
    sink.instant("b", 1)
    payload = json.loads(json.dumps(sink.to_dict()))
    assert isinstance(payload["traceEvents"], list)
    assert payload["displayTimeUnit"] == "ms"
    for event in payload["traceEvents"]:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)


def test_null_sink_records_nothing():
    assert NULL_TRACE.enabled is False
    sink = NullTraceSink()
    sink.complete("a", 0, 1)
    sink.instant("b", 1)
    sink.counter("c", 2, {"v": 1})
    sink.thread_name(0, "t")
    assert sink.events == []
    assert sink.to_dict()["traceEvents"] == []


def test_merged_trace_groups_by_pid():
    a = TraceEventSink(pid=0)
    a.complete("x", 0, 1)
    b = TraceEventSink(pid=1)
    b.complete("y", 0, 1)
    merged = merged_trace([a, b], names=["NEVER", "ESYNC"])
    events = merged["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert [(m["pid"], m["args"]["name"]) for m in meta] == [(0, "NEVER"), (1, "ESYNC")]
    spans = [e for e in events if e["ph"] == "X"]
    assert {(s["pid"], s["name"]) for s in spans} == {(0, "x"), (1, "y")}


def test_merged_trace_with_executor_worker_tracks(tmp_path):
    """A merged trace holding executor runs keeps per-run pids and
    per-worker tids distinct, with valid, loadable JSON."""
    from repro.experiments.executor import Cell, Executor

    def ok_cell(spec):
        return {"name": spec["name"]}

    sinks = []
    for pid in range(2):
        sink = TraceEventSink(pid=pid)
        Executor(jobs=2, run_cell=ok_cell, trace=sink).run(
            [Cell.make("test", "run%d-cell%d" % (pid, i), index=i) for i in range(4)]
        )
        sinks.append(sink)

    merged = merged_trace(sinks, names=["run A", "run B"])
    path = tmp_path / "merged.json"
    with open(path, "w") as fh:
        json.dump(merged, fh)
    with open(path) as fh:
        loaded = json.load(fh)  # valid JSON round-trip
    events = loaded["traceEvents"]

    process_meta = [
        e for e in events if e["ph"] == "M" and e["name"] == "process_name"
    ]
    assert [(m["pid"], m["args"]["name"]) for m in process_meta] == [
        (0, "run A"),
        (1, "run B"),
    ]
    thread_meta = [
        e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    # (pid, tid) identifies a worker track uniquely across the merge
    tracks = [(m["pid"], m["tid"]) for m in thread_meta]
    assert len(tracks) == len(set(tracks))
    assert all(m["args"]["name"].startswith("worker ") for m in thread_meta)

    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 8  # 4 cells per run, nothing dropped
    for span in spans:
        assert span["ts"] >= 0
        assert span["dur"] >= 1
        assert (span["pid"], span["tid"]) in tracks
    # each run's spans stay on that run's pid
    assert {s["pid"] for s in spans} == {0, 1}
