"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import POLICIES, main

HISTOGRAM = "examples/programs/histogram.s"
LINT_DEMO = "examples/programs/lint_demo.s"


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("compress", "espresso", "tomcatv", "fpppp"):
        assert name in out


def test_trace_command(capsys):
    assert main(["trace", "compress", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert "dependences:" in out
    assert "hottest static dependence pairs" in out


def test_trace_streaming_workload_has_no_pairs(capsys):
    assert main(["trace", "swim", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "hottest" not in out


def test_simulate_command(capsys):
    assert main(["simulate", "sc", "--scale", "tiny", "--policy", "esync", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "mis_speculations" in out


def test_compare_command(capsys):
    assert main(["compare", "xlisp", "--scale", "tiny", "-n", "4"]) == 0
    out = capsys.readouterr().out
    for policy in ("NEVER", "ALWAYS", "WAIT", "PSYNC", "SYNC", "ESYNC"):
        assert policy in out


def test_experiment_command(capsys):
    assert main(["experiment", "table4", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "table4" in out


def test_experiment_bars_flag(capsys):
    assert main(["experiment", "table2", "--bars", "latency (cycles)"]) == 0
    out = capsys.readouterr().out
    assert "#" in out
    assert "each #" in out


def test_experiment_bars_bad_column(capsys):
    assert main(["experiment", "table2", "--bars", "nope"]) == 0
    assert "not in" in capsys.readouterr().err


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "table99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bad_policy_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "sc", "--policy", "bogus"])


def test_module_entry_point():
    import repro.__main__  # noqa: F401  (importable without running)


def test_policies_derived_from_registry():
    from repro.multiscalar import available_policies, make_policy

    assert POLICIES == available_policies()
    for name in POLICIES:
        assert make_policy(name) is not None


def test_simulate_json_output(capsys):
    assert main(["simulate", "sc", "--scale", "tiny", "-n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "sc"
    assert payload["stages"] == 4
    assert payload["stats"]["cycles"] > 0
    assert set(payload["stats"]["breakdown"]) == {"nn", "ny", "yn", "yy"}


def test_simulate_writes_metrics_and_trace_events(capsys, tmp_path):
    metrics_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.json"
    assert main([
        "simulate", "sc", "--scale", "tiny", "--policy", "esync", "-n", "4",
        "--metrics", str(metrics_path), "--trace-events", str(trace_path),
    ]) == 0
    capsys.readouterr()

    metrics = json.loads(metrics_path.read_text())
    assert metrics["series"]["mdpt.occupancy"]
    assert metrics["series"]["mdst.occupancy"]
    assert metrics["histograms"]["load.wait_cycles"]["count"] > 0
    assert metrics["gauges"]["sim.cycles"] > 0

    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    assert isinstance(events, list) and events
    for event in events:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
    assert any(e["ph"] == "X" for e in events)


def test_compare_json_and_merged_trace(capsys, tmp_path):
    metrics_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.json"
    assert main([
        "compare", "xlisp", "--scale", "tiny", "-n", "4", "--json",
        "--metrics", str(metrics_path), "--trace-events", str(trace_path),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["policies"]) == set(POLICIES)
    assert payload["policies"]["never"]["speedup_vs_never"] == 0.0
    for summary in payload["policies"].values():
        assert "cycles" in summary

    metrics = json.loads(metrics_path.read_text())
    assert set(metrics) == set(POLICIES)
    trace = json.loads(trace_path.read_text())
    pids = {e["pid"] for e in trace["traceEvents"]}
    assert len(pids) == len(POLICIES)  # one trace process per policy


def test_experiment_json_output(capsys, monkeypatch):
    # the legacy serial path attaches the wall-clock profile; pin it
    # even when the environment opts into the parallel executor
    monkeypatch.delenv("REPRO_EXECUTOR_JOBS", raising=False)
    assert main(["experiment", "table2", "--json"]) == 0
    (payload,) = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "table2"
    assert payload["columns"]
    assert payload["rows"]
    assert "experiment:table2" in payload["profile"]


def test_experiment_profile_exports(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR_JOBS", raising=False)
    metrics_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.json"
    assert main([
        "experiment", "table4", "--scale", "tiny",
        "--metrics", str(metrics_path), "--trace-events", str(trace_path),
    ]) == 0
    capsys.readouterr()
    profile = json.loads(metrics_path.read_text())["profile"]
    assert "experiment:table4" in profile
    trace = json.loads(trace_path.read_text())
    assert any(
        e["ph"] == "X" and e["name"] == "experiment:table4"
        for e in trace["traceEvents"]
    )


def test_profile_command(capsys):
    assert main(["profile", "sc", "--scale", "tiny", "-n", "4", "--repeat", "2"]) == 0
    out = capsys.readouterr().out
    assert "trace-gen" in out
    assert "simulate" in out
    assert "IPC" in out


def test_profile_command_json(capsys, tmp_path):
    trace_path = tmp_path / "t.json"
    assert main([
        "profile", "sc", "--scale", "tiny", "-n", "4", "--json",
        "--trace-events", str(trace_path),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"]["simulate"]["calls"] == 1
    assert payload["profile"]["total"]["seconds"] >= payload["profile"]["simulate"]["seconds"]
    assert payload["stats"]["cycles"] > 0
    names = {e["name"] for e in json.loads(trace_path.read_text())["traceEvents"]}
    assert {"total", "trace-gen", "simulate"} <= names


def test_profile_command_top_limits_scopes(capsys):
    assert main([
        "profile", "sc", "--scale", "tiny", "-n", "4", "--top", "1",
    ]) == 0
    out = capsys.readouterr().out
    scope_lines = [
        line for line in out.splitlines()
        if line.startswith(("total ", "trace-gen ", "simulate ", "dependence-profile "))
    ]
    assert len(scope_lines) == 1
    assert "more scope" in out


def test_profile_command_phase_breakdown(capsys):
    assert main(["profile", "sc", "--scale", "tiny", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "phase breakdown:" in out
    for phase in ("interpret", "simulate", "report"):
        assert phase in out


def test_profile_command_json_phases(capsys):
    assert main(["profile", "sc", "--scale", "tiny", "-n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    phases = payload["phases"]
    assert set(phases) == {"interpret", "simulate", "report"}
    assert phases["simulate"]["seconds"] == payload["profile"]["simulate"]["seconds"]
    assert phases["interpret"]["seconds"] == payload["profile"]["trace-gen"]["seconds"]
    assert phases["report"]["seconds"] == payload["profile"]["dependence-profile"]["seconds"]


def test_staticdep_command_on_workload(capsys):
    assert main(["staticdep", "micro-recurrence-d1", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "'recall': 1.0" in out
    assert "static candidate pairs" in out


def test_staticdep_command_json(capsys):
    assert main(["staticdep", "compress", "--scale", "tiny", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["recall"] == 1.0
    assert payload["sound"] is True
    assert payload["static_pairs"] == len(payload["pairs"])


def test_staticdep_command_on_assembly_file(capsys):
    assert main(["staticdep", HISTOGRAM]) == 0
    out = capsys.readouterr().out
    assert "static analysis:" in out


def test_staticdep_unknown_target(capsys):
    assert main(["staticdep", "no-such-workload"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lint_clean_program_exits_zero(capsys):
    assert main(["lint", HISTOGRAM]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_demo_exits_nonzero_with_findings(capsys):
    assert main(["lint", LINT_DEMO]) == 1
    out = capsys.readouterr().out
    rules = {
        line.split("[", 1)[1].split("]", 1)[0]
        for line in out.splitlines()
        if "[" in line and "]" in line
    }
    assert len(rules) >= 3


def test_lint_json_output(capsys):
    assert main(["lint", LINT_DEMO, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] >= 1
    assert len({d["rule"] for d in payload["diagnostics"]}) >= 3
    for diag in payload["diagnostics"]:
        assert {"severity", "rule", "pc", "message"} <= set(diag)


def test_lint_workload_target(capsys):
    assert main(["lint", "micro-recurrence-d1", "--scale", "tiny"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_lint_missing_file(capsys):
    assert main(["lint", "examples/programs/nope.s"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lint_mdpt_capacity_flag(capsys):
    assert main(["lint", HISTOGRAM, "--mdpt", "1"]) == 0
    assert "mdpt-undersized" in capsys.readouterr().out


def test_staticdep_symbolic_flag(capsys):
    assert main(["staticdep", "micro-recurrence-d2", "--symbolic"]) == 0
    out = capsys.readouterr().out
    assert "symbolic verdicts" in out
    assert "MUST" in out
    assert "primable" in out


def test_staticdep_symbolic_json(capsys):
    assert main(["staticdep", "compress", "--scale", "tiny", "--symbolic", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sound"] is True
    verdicts = {c["verdict"] for c in payload["classified"]}
    assert verdicts <= {"must", "may", "no"}
    assert payload["must_pairs"] + payload["may_pairs"] + payload["no_pairs"] == len(
        payload["classified"]
    )
    for entry in payload["primable"]:
        assert entry["distance"] >= 1


def test_lint_symbolic_flag(capsys):
    assert main(["lint", "micro-recurrence-d1", "--symbolic", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rules = {d["rule"] for d in payload["diagnostics"]}
    assert "must-alias-pair" in rules


# --- the documented exit-code contract: 0 clean / 1 findings / 2 usage ---


def test_exit_code_zero_on_clean_target(capsys):
    assert main(["lint", HISTOGRAM]) == 0
    assert main(["staticdep", HISTOGRAM]) == 0
    capsys.readouterr()


def test_exit_code_one_on_findings(capsys):
    assert main(["lint", LINT_DEMO]) == 1
    assert main(["lint", LINT_DEMO, "--json"]) == 1
    capsys.readouterr()


def test_exit_code_two_on_usage_errors(capsys):
    # unknown workload name: both commands, both output modes
    assert main(["lint", "no-such-workload"]) == 2
    assert main(["staticdep", "no-such-workload"]) == 2
    assert main(["lint", "no-such-workload", "--json"]) == 2
    # unreadable file
    assert main(["lint", "examples/programs/nope.s"]) == 2
    assert main(["staticdep", "examples/programs/nope.s"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 5


# --- lint --fail-on: the severity threshold for exit code 1 ---


def test_lint_fail_on_warning(capsys):
    # micro-recurrence-d1 --symbolic produces warnings but no errors
    assert main(["lint", "micro-recurrence-d1", "--symbolic"]) == 0
    assert main(["lint", "micro-recurrence-d1", "--symbolic",
                 "--fail-on", "warning"]) == 1
    assert main(["lint", "micro-recurrence-d1", "--symbolic",
                 "--fail-on", "warn"]) == 1
    capsys.readouterr()


def test_lint_fail_on_info(capsys):
    # histogram lints perfectly clean: even the info threshold passes
    assert main(["lint", HISTOGRAM, "--fail-on", "note"]) == 0
    capsys.readouterr()


def test_lint_fail_on_rejects_unknown_level():
    with pytest.raises(SystemExit):
        main(["lint", HISTOGRAM, "--fail-on", "fatal"])


def test_lint_json_carries_source_lines(capsys):
    assert main(["lint", LINT_DEMO, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert all("line" in d for d in payload["diagnostics"])
    assert any(d["line"] is not None for d in payload["diagnostics"])


# --- leakcheck: static verdicts + dynamic sanitizer, exit 0/1/2 ---

LEAK_DEMO = "examples/programs/leak_demo.s"


def test_leakcheck_flags_demo(capsys):
    assert main(["leakcheck", LEAK_DEMO]) == 1
    out = capsys.readouterr().out
    assert "1 leak, 1 gated" in out
    assert "cross-check: sound" in out
    assert "transient secret read(s)" in out


def test_leakcheck_primed_policy_still_flags_but_observes_nothing(capsys):
    assert main(["leakcheck", LEAK_DEMO, "--policy", "sync_static_primed"]) == 1
    out = capsys.readouterr().out
    assert "0 transient secret read(s)" in out
    assert "cross-check: sound" in out


def test_leakcheck_clean_program_exits_zero(capsys):
    assert main(["leakcheck", HISTOGRAM]) == 0
    assert "0 leak, 0 gated" in capsys.readouterr().out


def test_leakcheck_secret_range_override(capsys):
    # pointing the override at untouched memory clears every verdict
    assert main(["leakcheck", LEAK_DEMO, "--secret-range", "0x9000:0x9000"]) == 0
    capsys.readouterr()


def test_leakcheck_json_output(capsys):
    assert main(["leakcheck", LEAK_DEMO, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["leak"] == 1 and payload["gated"] == 1
    assert payload["policy"] == "always"
    assert payload["cross_check"]["sound"] is True
    assert payload["dynamic"]["transient_secret_reads"] > 0
    assert payload["cross_check"]["precision"] == 1.0
    assert payload["cross_check"]["recall"] == 1.0


def test_leakcheck_workload_target(capsys):
    # workloads declare no secrets: trivially clean
    assert main(["leakcheck", "micro-recurrence-d1", "--scale", "tiny"]) == 0
    capsys.readouterr()


def test_leakcheck_usage_errors(capsys):
    assert main(["leakcheck", "examples/programs/nope.s"]) == 2
    assert main(["leakcheck", "no-such-workload"]) == 2
    assert main(["leakcheck", HISTOGRAM, "--secret-range", "bogus"]) == 2
    assert main(["leakcheck", HISTOGRAM, "--secret-range", "0x10"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4


# --- the parallel executor through `repro experiment` / `repro sweep` ---


def test_experiment_jobs_flag(capsys):
    """--jobs routes through the executor; tables carry no wall-clock
    profile (the determinism contract) but are otherwise identical."""
    assert main(["experiment", "table2", "--jobs", "2", "--json"]) == 0
    (payload,) = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "table2"
    assert payload["rows"]
    assert payload["profile"] == {}


def test_experiment_cache_end_to_end(capsys, tmp_path):
    """Cold run populates the cache; the warm run serves every cell from
    it (cells_cached counter) and prints bit-identical output."""
    cache = str(tmp_path / "cache")
    metrics = tmp_path / "metrics.json"
    assert main(["experiment", "table3", "--scale", "tiny",
                 "--cache-dir", cache, "--json"]) == 0
    cold = capsys.readouterr().out
    assert main(["experiment", "table3", "--scale", "tiny",
                 "--cache-dir", cache, "--json",
                 "--metrics", str(metrics)]) == 0
    warm = capsys.readouterr().out
    assert warm == cold
    counters = json.loads(metrics.read_text())["executor"]
    assert counters["cells_cached"] == 1
    assert counters["cells_run"] == 0
    assert counters["cells_failed"] == 0


def test_experiment_failed_cell_exits_two(capsys):
    """A cell over its wall-clock budget degrades to FAILED -> exit 2."""
    assert main(["experiment", "table3", "--scale", "tiny",
                 "--jobs", "1", "--timeout", "0.000001", "--retries", "0"]) == 2
    captured = capsys.readouterr()
    assert "FAILED cell experiment:table3" in captured.err
    # the run degrades instead of dying: a placeholder table is printed
    assert "FAILED" in captured.out


def test_experiment_executor_trace_export(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main(["experiment", "table2", "--jobs", "1",
                 "--trace-events", str(trace_path)]) == 0
    capsys.readouterr()
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert any(e["ph"] == "X" and e["cat"] == "cell" for e in events)
    worker_tracks = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert "worker 0" in worker_tracks


def test_sweep_command(capsys):
    assert main(["sweep", "sc", "--policies", "always,esync",
                 "--override", "stages=2,4", "--scale", "tiny", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "sweep"
    assert len(payload["rows"]) == 4  # 1 workload x 2 stages x 2 policies
    assert set(payload["columns"]) >= {"workload", "policy", "stages"}


def test_sweep_command_parallel_matches_serial(capsys):
    argv = ["sweep", "xlisp", "--policies", "always,esync",
            "--override", "stages=2,4", "--scale", "tiny", "--json"]
    assert main(argv) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(argv + ["--jobs", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert parallel == serial


def test_sweep_unknown_workload_exits_two(capsys):
    assert main(["sweep", "no-such-workload"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_policy_override_axis(capsys):
    assert main(["sweep", "sc", "--policies", "esync",
                 "--override", "stages=4",
                 "--policy-override", "capacity=16,64",
                 "--scale", "tiny", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 2
    assert "capacity" in payload["columns"]


def test_sweep_adaptive_json_ledger_and_progress(capsys, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    rungs_jsonl = tmp_path / "rungs.jsonl"
    assert main(["sweep", "sc", "xlisp", "--policies", "always,esync",
                 "--override", "stages=2,4", "--scale", "tiny",
                 "--adaptive", "--eta", "2", "--json",
                 "--ledger", str(ledger),
                 "--progress-json", str(rungs_jsonl)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "successive halving" in payload["title"]
    assert any(note.startswith("winner ") for note in payload["notes"])
    record = json.loads(ledger.read_text().splitlines()[0])
    assert record["config"]["adaptive"]["eta"] == 2
    assert [r["rung"] for r in record["rungs"]] == [1, 2]
    events = [json.loads(line) for line in rungs_jsonl.read_text().splitlines()]
    rung_events = [e for e in events if e["event"] == "rung"]
    assert [e["rung"] for e in rung_events] == [1, 2]
    assert all(e["best"] for e in rung_events)


def test_sweep_adaptive_queue_dir_matches_local_pool(capsys, tmp_path):
    """The CI smoke contract: an adaptive sweep over the queue-dir
    backend is bit-identical to the same sweep on the process pool."""
    argv = ["sweep", "sc", "--policies", "always,esync",
            "--override", "stages=2,4", "--scale", "tiny",
            "--adaptive", "--eta", "2", "--jobs", "2", "--json"]
    assert main(argv) == 0
    pooled = capsys.readouterr().out
    assert main(argv + ["--backend", "queue-dir",
                        "--queue-dir", str(tmp_path / "q"),
                        "--workers", "2"]) == 0
    stolen = capsys.readouterr().out
    assert stolen == pooled


def test_sweep_adaptive_bad_metric_exits_two(capsys):
    assert main(["sweep", "sc", "--scale", "tiny",
                 "--adaptive", "--metric", "cycles", "--eta", "1"]) == 2
    assert "eta" in capsys.readouterr().err


def test_sweep_queue_dir_flags_validated(capsys):
    assert main(["sweep", "sc", "--backend", "queue-dir"]) == 2
    assert "--queue-dir" in capsys.readouterr().err
    assert main(["sweep", "sc", "--queue-dir", "/tmp/q"]) == 2
    assert "--backend queue-dir" in capsys.readouterr().err
    assert main(["sweep", "sc", "--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_worker_command_drains_queue(capsys, tmp_path):
    from tests.experiments.test_queuedir import make_task

    from repro.experiments.queuedir import QueueDir

    queue = QueueDir(tmp_path / "q").init()
    queue.enqueue(make_task())
    assert main(["worker", str(tmp_path / "q"), "--max-tasks", "1"]) == 0
    err = capsys.readouterr().err
    assert "1 task(s), 1 cell(s), 0 failed" in err
    assert queue.is_done("run-t000000")


def test_worker_rejects_negative_max_tasks(capsys):
    assert main(["worker", "/tmp/q", "--max-tasks", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


# -- observability: run ledger, explain, metrics-serve, bench-report ------


def test_runs_empty_ledger_lists_nothing(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    ledger = str(tmp_path / "runs.jsonl")
    assert main(["runs", "--ledger", ledger]) == 0
    assert "no runs recorded" in capsys.readouterr().out


def test_simulate_records_to_ledger(capsys, tmp_path):
    ledger = str(tmp_path / "runs.jsonl")
    assert main(["simulate", "sc", "--scale", "tiny", "--ledger", ledger]) == 0
    captured = capsys.readouterr()
    assert "recorded run" in captured.err
    records = [json.loads(line) for line in open(ledger)]
    assert len(records) == 1
    record = records[0]
    assert record["kind"] == "simulate"
    assert record["config"]["workload"] == "sc"
    assert "source" in record["fingerprints"]
    assert "trace" in record["fingerprints"]
    assert record["stats"]["cycles"] > 0
    assert "simulate" in record["phases"]

    assert main(["runs", "--ledger", ledger]) == 0
    out = capsys.readouterr().out
    assert record["id"] in out
    assert "workload=sc" in out


def test_ledger_env_var_enables_recording(capsys, tmp_path, monkeypatch):
    ledger = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("REPRO_LEDGER", ledger)
    assert main(["simulate", "sc", "--scale", "tiny"]) == 0
    capsys.readouterr()
    assert len(open(ledger).readlines()) == 1


def test_runs_show_and_unknown_id(capsys, tmp_path):
    ledger = str(tmp_path / "runs.jsonl")
    assert main(["simulate", "sc", "--scale", "tiny", "--ledger", ledger]) == 0
    capsys.readouterr()
    run_id = json.loads(open(ledger).readline())["id"]
    assert main(["runs", "show", run_id[:6], "--ledger", ledger]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["id"] == run_id
    assert main(["runs", "show", "ffffffffffff", "--ledger", ledger]) == 2
    assert "no run matching" in capsys.readouterr().err


def test_runs_diff_exit_codes(capsys, tmp_path):
    ledger = str(tmp_path / "runs.jsonl")
    base = ["simulate", "sc", "--scale", "tiny", "--ledger", ledger]
    assert main(base) == 0
    assert main(base) == 0
    assert main(base[:-2] + ["--policy", "always", "--ledger", ledger]) == 0
    capsys.readouterr()
    ids = [json.loads(line)["id"] for line in open(ledger)]

    # identical re-run: wall clock differs, content does not -> 0
    assert main(["runs", "diff", ids[0], ids[1], "--ledger", ledger]) == 0
    assert "identical" in capsys.readouterr().out

    # different policy -> 1, and the diff names the changed field
    assert main(["runs", "diff", ids[0], ids[2], "--ledger", ledger]) == 1
    out = capsys.readouterr().out
    assert "DIFFER" in out
    assert "policy" in out

    # usage errors -> 2
    assert main(["runs", "diff", ids[0], "--ledger", ledger]) == 2
    capsys.readouterr()
    assert main(["runs", "diff", ids[0], "zzz", "--ledger", ledger]) == 2
    capsys.readouterr()


def test_runs_diff_json_payload(capsys, tmp_path):
    ledger = str(tmp_path / "runs.jsonl")
    base = ["simulate", "sc", "--scale", "tiny", "--ledger", ledger]
    assert main(base) == 0
    assert main(base[:-2] + ["--policy", "always", "--ledger", ledger]) == 0
    capsys.readouterr()
    ids = [json.loads(line)["id"] for line in open(ledger)]
    assert main(["runs", "diff", ids[0], ids[1], "--ledger", ledger,
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["identical"] is False
    assert payload["config"]["policy"] == {"a": "esync", "b": "always"}
    assert "cycles" in payload["stats"]


def test_explain_command(capsys):
    assert main(["explain", "compress", "--scale", "tiny",
                 "--policy", "always"]) == 0
    out = capsys.readouterr().out
    assert "squash(es)" in out
    assert "store PC" in out
    assert "must" in out


def test_explain_json_output(capsys):
    assert main(["explain", "compress", "--scale", "tiny", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["program"] == "compress"
    assert payload["contradictions"] == 0
    for pair in payload["pairs"]:
        assert pair["verdict"] in ("must", "may", "no", "unseen")


def test_explain_unknown_target_exits_two(capsys):
    assert main(["explain", "no-such-workload"]) == 2
    assert "error:" in capsys.readouterr().err


def test_metrics_serve_once_prints_parseable_text(capsys, tmp_path):
    snapshot = tmp_path / "metrics.json"
    assert main(["simulate", "sc", "--scale", "tiny",
                 "--metrics", str(snapshot)]) == 0
    capsys.readouterr()
    assert main(["metrics-serve", str(snapshot), "--once"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE" in out
    from tests.telemetry.test_prometheus import parse_exposition

    assert parse_exposition(out)


def test_metrics_serve_missing_snapshot_exits_two(capsys, tmp_path):
    assert main(["metrics-serve", str(tmp_path / "absent.json"), "--once"]) == 2
    assert "error:" in capsys.readouterr().err


CLEAN_ADAPTIVE = {"savings": 0.64, "top1_match": True,
                  "adaptive_units": 11.6, "exhaustive_units": 32.0}


def _write_bench_data(tmp_path, adaptive=None):
    history = tmp_path / "BENCH_history.jsonl"
    results = tmp_path / "BENCH_results.json"
    record = {
        "test": "benchmarks/test_figure5_policy_speedups.py::test_figure5",
        "seconds": 9.0,
    }
    records = [record]
    if adaptive is not None:
        records.append({
            "test": "benchmarks/test_adaptive_sweep.py::test_adaptive_sweep_savings",
            "seconds": 12.0,
            "adaptive": adaptive,
        })
    payload = {"scale": "test", "results": records}
    results.write_text(json.dumps(payload))
    history.write_text(
        json.dumps({"git_sha": "abc1234", "time": 1700000000.0,
                    "scale": "test", "results": [record]}) + "\n"
    )
    return str(history), str(results)


def test_bench_report_clean_exits_zero(capsys, tmp_path):
    history, results = _write_bench_data(tmp_path, adaptive=CLEAN_ADAPTIVE)
    assert main(["bench-report", "--history", history,
                 "--results", results]) == 0
    out = capsys.readouterr().out
    assert "abc1234" in out
    assert "no regression" in out


def test_bench_report_flags_regression(capsys, tmp_path):
    # 40% saved is below the 60% floor
    history, results = _write_bench_data(
        tmp_path, adaptive=dict(CLEAN_ADAPTIVE, savings=0.40))
    assert main(["bench-report", "--history", history,
                 "--results", results]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.err
    assert "adaptive-savings" in captured.err


def test_bench_report_json_output(capsys, tmp_path):
    history, results = _write_bench_data(tmp_path, adaptive=CLEAN_ADAPTIVE)
    assert main(["bench-report", "--history", history,
                 "--results", results, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regressions"] == []
    assert payload["adaptive"]["savings"] == 0.64
    assert payload["history"][0]["git_sha"] == "abc1234"


def test_bench_report_adaptive_clean(capsys, tmp_path):
    history, results = _write_bench_data(
        tmp_path, adaptive={"savings": 0.64, "top1_match": True,
                            "adaptive_units": 11.6, "exhaustive_units": 32.0})
    assert main(["bench-report", "--history", history,
                 "--results", results]) == 0
    out = capsys.readouterr().out
    assert "adaptive sweep: 64.0% of full-scale units saved" in out
    assert "top-1 matches exhaustive" in out


def test_bench_report_adaptive_savings_below_floor(capsys, tmp_path):
    history, results = _write_bench_data(
        tmp_path, adaptive={"savings": 0.40, "top1_match": True,
                            "adaptive_units": 19.2, "exhaustive_units": 32.0})
    assert main(["bench-report", "--history", history,
                 "--results", results, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [r["leg"] for r in payload["regressions"]] == ["adaptive-savings"]


def test_bench_report_adaptive_top1_mismatch(capsys, tmp_path):
    history, results = _write_bench_data(
        tmp_path, adaptive={"savings": 0.64, "top1_match": False,
                            "adaptive_units": 11.6, "exhaustive_units": 32.0})
    assert main(["bench-report", "--history", history,
                 "--results", results]) == 1
    assert "adaptive-top1" in capsys.readouterr().err


def test_bench_report_no_data_exits_two(capsys, tmp_path):
    assert main(["bench-report",
                 "--history", str(tmp_path / "none.jsonl"),
                 "--results", str(tmp_path / "none.json")]) == 2
    assert "no benchmark data" in capsys.readouterr().err


def test_sweep_watch_parity(capsys, tmp_path):
    """--watch renders progress to stderr only: the stdout table and
    exit code are byte-identical to a non-watch run."""
    argv = ["sweep", "sc", "--policies", "always,esync",
            "--override", "stages=4,8", "--scale", "tiny", "--jobs", "2"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    progress_json = tmp_path / "progress.jsonl"
    assert main(argv + ["--watch", "--progress-json", str(progress_json)]) == 0
    watched = capsys.readouterr()
    assert watched.out == plain.out
    # non-TTY stderr falls back to line mode: one line per event
    assert "sweep: 4 cell(s)" in watched.err
    assert "[4/4]" in watched.err
    events = [json.loads(line) for line in progress_json.read_text().splitlines()]
    assert [e["event"] for e in events] == ["start"] + ["cell"] * 4 + ["done"]
    assert events[-1]["failed"] == 0


def test_experiment_watch_routes_to_executor(capsys):
    assert main(["experiment", "table2", "--scale", "tiny", "--watch"]) == 0
    captured = capsys.readouterr()
    assert "table2" in captured.out
    assert "[1/1]" in captured.err


def test_experiment_ledger_keeps_tables_golden(capsys, tmp_path):
    """The A/B gate: recording a figure5 run to the ledger leaves the
    emitted table bit-identical to the golden fixture."""
    from pathlib import Path

    golden = json.loads(
        (Path(__file__).parent / "experiments" / "golden" / "figure5.json")
        .read_text()
    )
    ledger = str(tmp_path / "runs.jsonl")
    assert main(["experiment", "figure5", "--scale", "tiny", "--json",
                 "--ledger", ledger]) == 0
    (payload,) = json.loads(capsys.readouterr().out)
    payload["profile"] = {}  # wall time is nondeterministic by design
    assert payload == golden
    record = json.loads(open(ledger).readline())
    assert record["kind"] == "experiment"
    assert "experiment:figure5" in record["fingerprints"]["cells"]
