"""Tests for the wall-clock profiler."""

from repro.telemetry import PROFILER, Profiler


def test_scope_records_and_aggregates():
    p = Profiler()
    with p.scope("outer"):
        with p.scope("inner"):
            pass
        with p.scope("inner"):
            pass
    summary = p.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["seconds"] >= summary["inner"]["seconds"] >= 0


def test_nesting_depth_recorded():
    p = Profiler()
    with p.scope("a"):
        with p.scope("b"):
            pass
    by_name = {r.name: r for r in p.records}
    assert by_name["a"].depth == 0
    assert by_name["b"].depth == 1


def test_mark_scopes_the_summary():
    p = Profiler()
    with p.scope("old"):
        pass
    mark = p.mark()
    with p.scope("new"):
        pass
    assert list(p.summary(since=mark)) == ["new"]
    assert set(p.summary()) == {"old", "new"}


def test_to_text_lists_scopes():
    p = Profiler()
    with p.scope("simulate"):
        pass
    text = p.to_text()
    assert "simulate" in text
    assert "seconds" in text
    assert Profiler().to_text() == "(no profile records)"


def test_to_trace_events_shape():
    p = Profiler()
    with p.scope("trace-gen"):
        pass
    with p.scope("simulate"):
        pass
    payload = p.to_trace_events()
    events = payload["traceEvents"]
    assert events[0]["ph"] == "M"  # thread name
    spans = [e for e in events if e["ph"] == "X"]
    assert [s["name"] for s in spans] == ["trace-gen", "simulate"]
    assert spans[0]["ts"] == 0.0  # relative to the earliest span
    assert all(s["dur"] >= 0 for s in spans)


def test_to_trace_events_empty():
    assert Profiler().to_trace_events() == {"traceEvents": [], "displayTimeUnit": "ms"}


def test_module_profiler_exists():
    mark = PROFILER.mark()
    with PROFILER.scope("test-scope"):
        pass
    assert PROFILER.summary(since=mark)["test-scope"]["calls"] == 1


def test_scopes_inside_one_phase_scope_nest_under_it():
    p = Profiler()
    with p.scope("total"):
        with p.scope("simulate"):
            with p.scope("staticdep.slices"):
                pass
        with p.scope("trace-gen"):
            pass
    with p.scope("loose"):
        pass
    with p.scope("simulate"):
        with p.scope("loose"):
            pass
    # phase scopes, roll-ups and scopes seen at two places stay outer rows
    assert p.nested() == {"staticdep.slices": "simulate"}
    assert set(p.phases()) == {"interpret", "simulate"}
    lines = p.to_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("simulate "))
    assert lines[at + 1].startswith("  staticdep.slices ")
    assert sum(line.split()[0] == "staticdep.slices" for line in lines) == 1
