"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([command] + target, id="target%d-%s" % (index, command))
        for index, target in enumerate(
            [["no-such-workload"], ["compress", "--scale", "no-such-scale"]]
        )
        for command in ("trace", "simulate", "compare", "profile")
    ]
    + [
        pytest.param(argv.split(), id=argv.split()[0] + "-" + argv.split()[1])
        for argv in (
            "experiment spectaint --scale bogus",
            "experiment table2 --scale bogus",
            "experiment table1 --scale bogus",
            "sweep sc --scale bogus",
            "staticdep %s --scale bogus" % HISTOGRAM,
        )
    ],
)
def test_unknown_workload_or_scale_is_a_usage_error(capsys, argv):
    """Checked before any work runs, whether or not the command would
    read the scale: one ``error:`` line and nothing on stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown ")
    assert captured.err.count("\n") == 1


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
    # tables carry no wall-clock profile on any backend: the cells they
    # read are shared with other tables
    monkeypatch.delenv("REPRO_EXECUTOR_JOBS", raising=False)
    assert main(["experiment", "table2", "--json"]) == 0
    (payload,) = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "table2"
    assert payload["columns"]
    assert payload["rows"]
    assert payload["profile"] == {}


def test_experiment_profile_exports(capsys, tmp_path, monkeypatch):
    """An inline run writes its phase times under ``profile`` in
    --metrics, and the executor's cell spans to --trace-events."""
    monkeypatch.delenv("REPRO_EXECUTOR_JOBS", raising=False)
    metrics_path = tmp_path / "m.json"
    trace_path = tmp_path / "t.json"
    assert main([
        "experiment", "table4", "--scale", "tiny",
        "--metrics", str(metrics_path), "--trace-events", str(trace_path),
    ]) == 0
    capsys.readouterr()
    metrics = json.loads(metrics_path.read_text())
    assert metrics["profile"]["window-analysis"]["calls"] > 0
    assert metrics["executor"]["cells_run"] == 1
    trace = json.loads(trace_path.read_text())
    assert any(
        e["ph"] == "X" and e["cat"] == "cell" and e["name"] == "experiment:table4"
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


def test_profile_command_charges_the_index_build_to_interpret(capsys, monkeypatch):
    from repro.frontend import trace_cache

    # a fresh trace, so this run interprets (or decodes) and indexes it
    monkeypatch.setattr(trace_cache, "_MEMORY", {})
    assert main(["profile", "sc", "--scale", "tiny", "-n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    profile = payload["profile"]
    assert profile["frontend.index"]["calls"] == 1
    # the index is built inside trace-gen, not inside dependence-profile
    assert payload["nested"]["frontend.index"] == "trace-gen"
    frontend = [s for s in ("frontend.interpret", "frontend.decode") if s in profile]
    assert frontend and all(payload["nested"][s] == "trace-gen" for s in frontend)
    # nested frontend scopes are counted once, through trace-gen
    assert payload["phases"]["interpret"] == profile["trace-gen"]
    assert payload["phases"]["report"] == profile["dependence-profile"]


def test_profile_command_reports_bind_time_analysis_under_simulate(capsys):
    # a slice-warmed policy runs the symbolic analysis, the PDG build and
    # slice extraction while binding, inside sim.run(): the profile must
    # show them nested under simulate and keep them out of the phases
    args = ["profile", "sc", "--policy", "sync_slice_warmed", "--scale", "tiny", "-n", "4"]
    assert main(args + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    scopes = ("staticdep.symbolic", "staticdep.pdg", "staticdep.slices")
    for scope in scopes:
        assert payload["profile"][scope]["calls"] == 1
        assert payload["nested"][scope] == "simulate"
        assert payload["profile"][scope]["seconds"] <= payload["profile"]["simulate"]["seconds"]
    assert set(payload["phases"]) == {"interpret", "simulate", "report"}
    assert payload["phases"]["simulate"] == payload["profile"]["simulate"]
    assert payload["phases"]["report"] == payload["profile"]["dependence-profile"]

    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("simulate "))
    assert sorted(line.split()[0] for line in lines[at + 1 : at + 4]) == sorted(scopes)
    assert all(line.startswith("  staticdep.") for line in lines[at + 1 : at + 4])


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


def test_lint_unparsable_file_is_a_usage_error(capsys, tmp_path):
    """A file that does not assemble exits 2 with the same ``error:``
    line as ``pdg``, in both output modes, and no traceback."""
    path = tmp_path / "bad.s"
    path.write_text("main:\n  addi r1, r0,\n  halt\n")
    assert main(["pdg", str(path)]) == 2
    expected = capsys.readouterr().err
    assert expected.startswith("error: line 2: ")
    for argv in (["lint", str(path)], ["lint", str(path), "--json"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == expected
        assert captured.out == ""


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


PREFIX_SUM = "examples/programs/prefix_sum.s"


def test_slice_command(capsys):
    assert main(["slice", PREFIX_SUM, "6"]) == 0
    assert "slice of pc 6 (address)" in capsys.readouterr().out
    assert main(["slice", PREFIX_SUM, "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == [
        "cost", "criterion", "criterion_pc", "instructions",
        "loop_carried", "pcs", "program",
    ]
    assert payload["criterion_pc"] == 6


def test_slice_unreachable_pc_exits_two(capsys):
    assert main(["slice", PREFIX_SUM, "9999"]) == 2
    assert "error:" in capsys.readouterr().err


def test_pdg_strict_flags_loop_carried_pairs(capsys):
    assert main(["pdg", HISTOGRAM, "--strict"]) == 1
    capsys.readouterr()


def test_pdg_unknown_target_exits_two(capsys):
    assert main(["pdg", "no-such-workload"]) == 2
    assert "error:" in capsys.readouterr().err


def test_pdg_dot_and_json_output(capsys):
    assert main(["pdg", LEAK_DEMO, "--dot", "-"]) == 0
    assert capsys.readouterr().out.startswith("digraph pdg")
    assert main(["pdg", LEAK_DEMO, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"summary", "slices"} <= set(payload)


def test_pdg_dot_builds_the_graph_once(capsys, tmp_path):
    from repro.telemetry import PROFILER

    mark = PROFILER.mark()
    assert main(["pdg", LEAK_DEMO, "--dot", str(tmp_path / "pdg.dot")]) == 0
    capsys.readouterr()
    assert (tmp_path / "pdg.dot").read_text().startswith("digraph pdg")
    scopes = PROFILER.summary(since=mark)
    assert scopes["staticdep.symbolic"]["calls"] == 1
    assert scopes["staticdep.pdg"]["calls"] == 1


#: programs that assemble but fault when interpreted
FAULTING_PROGRAMS = {
    "unaligned": "li s1, 0x2001\nlw t0, 0(s1)\nhalt\n",
    "negative": "li s1, -4\nlw t0, 0(s1)\nhalt\n",
    "divzero": "li s1, 7\nli s2, 0\ndiv t0, s1, s2\nhalt\n",
}


@pytest.mark.parametrize("command", ["staticdep", "explain", "leakcheck"])
@pytest.mark.parametrize("program", sorted(FAULTING_PROGRAMS))
def test_interpreter_fault_is_a_usage_error(capsys, tmp_path, command, program):
    path = tmp_path / (program + ".s")
    path.write_text(FAULTING_PROGRAMS[program])
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [[command, "sc", "--scale", "tiny", "-n", "0"]
     for command in ("simulate", "compare", "profile", "explain")]
    + [["simulate", "sc", "--scale", "tiny", "--metrics", "{missing}/m.json"],
       ["compare", "sc", "--scale", "tiny", "--trace-events", "{missing}/t.json"],
       ["pdg", LEAK_DEMO, "--dot", "{missing}/g.dot"],
       ["explain", "compress", "--scale", "tiny", "--top", "0"],
       ["trace", "compress", "--scale", "tiny", "--top", "-1"],
       ["staticdep", "compress", "--scale", "tiny", "--top", "-1"],
       ["profile", "compress", "--scale", "tiny", "--top", "0"],
       ["lint", LEAK_DEMO, "--mdpt", "0"],
       ["lint", LEAK_DEMO, "--mdst", "-3"],
       ["pdg", LEAK_DEMO, "--budget-length", "-1"],
       ["pdg", LEAK_DEMO, "--budget-loads", "-1"],
       ["sweep", "sc", "--scale", "tiny", "--override", "stages=4",
        "--queue-dir", "{tmp}/queue", "--workers", "-1"],
       ["sweep", "sc", "--scale", "tiny", "--cache-dir", "{tmp}/cache", "--timeout", "-1"],
       ["experiment", "table3", "--scale", "tiny", "--cache-dir", "{tmp}/cache",
        "--timeout", "0"],
       ["sweep", "sc", "--scale", "tiny", "--cache-dir", "{tmp}/cache", "--retries", "-1"],
       ["experiment", "table3", "--scale", "tiny", "--cache-dir", "{tmp}/cache",
        "--jobs", "0"],
       ["sweep", "sc", "--scale", "tiny", "--cache-dir", "{tmp}/cache", "--jobs", "-3"],
       ["profile", "sc", "--scale", "tiny", "--repeat", "0"],
       ["worker", "{tmp}/queue", "--max-tasks", "-1"],
       ["experiment", "table2", "--cache-dir", "{tmp}/cache", "--timeout", "inf"],
       ["sweep", "sc", "--scale", "tiny", "--cache-dir", "{tmp}/cache", "--timeout", "1e12"],
       ["worker", "{tmp}/queue", "--poll", "0"],
       ["worker", "{tmp}/queue", "--heartbeat", "-5"]],
)
def test_bad_flag_value_or_output_path_is_a_usage_error(capsys, tmp_path, argv):
    """An invalid flag value, or an output file in a directory that does
    not exist, exits 2 with one ``error:`` line and nothing on stdout,
    before any cache or queue directory is created."""
    argv = [arg.format(missing=tmp_path / "missing", tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "cache").exists()
    assert not (tmp_path / "queue").exists()


def test_broken_pipe_still_exits_zero(monkeypatch):
    """A closed stdout raises BrokenPipeError, an OSError that must not
    be reported as a usage error."""
    import io
    import sys

    from repro import cli

    def closed_stdout(_args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "cmd_workloads", closed_stdout)
    monkeypatch.setattr(sys, "stderr", io.StringIO())  # main closes it
    assert main(["workloads"]) == 0


def test_every_flag_named_in_help_is_registered():
    import argparse

    from repro.cli import _build_parser

    (subparsers,) = [action for action in _build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    registered, texts = set(), []
    for parser in subparsers.choices.values():
        texts.append(parser.description or "")
        for action in parser._actions:
            registered.update(action.option_strings)
            texts.append(action.help or "")
    texts += [action.help for action in subparsers._choices_actions]
    named = set(re.findall(r"--[a-z][a-z-]*", " ".join(texts)))
    assert named and named <= registered, named - registered


EXAMPLE_SOURCES = {
    path.name: re.sub(r"#[^\n]*", "", path.read_text())
    for path in sorted(Path("examples/programs").glob("*.s"))
}
#: whitespace runs, punctuation, and everything between them
ASM_TOKEN = re.compile(r"\s+|[,()]|[^\s,()]+")
#: tokens the mutations may splice in besides the program's own
ASM_SPLICES = ["0x2001", "-4", "0", "99999999999999999999", "zero", "t9", "lw", "div",
               "halt", ".task", ".word", ".secret", "loop:", ":", "(", ")", ",", "x"]


@st.composite
def mutated_example(draw):
    """An example program with 1-3 of its tokens deleted, doubled or
    replaced by another of its tokens or a splice token."""
    tokens = ASM_TOKEN.findall(EXAMPLE_SOURCES[draw(st.sampled_from(sorted(EXAMPLE_SOURCES)))])
    positions = [i for i, token in enumerate(tokens) if not token.isspace()]
    pool = sorted({token for token in tokens if not token.isspace()} | set(ASM_SPLICES))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.sampled_from(positions))
        doubled = tokens[i] + " " + tokens[i]
        tokens[i] = draw(st.one_of(st.just(""), st.just(doubled), st.sampled_from(pool)))
    return "".join(tokens)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=mutated_example())
def test_malformed_assembly_never_escapes_the_exit_contract(capsys, tmp_path, source):
    """Malformed ``.s`` input gets exit 0, 1 or 2, a 2 with an
    ``error:`` diagnostic, and never a traceback."""
    path = tmp_path / "mutated.s"
    path.write_text(source)
    for argv in (["lint", str(path)], ["pdg", str(path)], ["slice", str(path), "0"],
                 ["staticdep", str(path)], ["explain", str(path)], ["leakcheck", str(path)]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert code != 2 or "error:" in err, argv
        assert "Traceback" not in err, argv


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


def test_experiment_queue_dir_backend_runs_on_the_queue(capsys, tmp_path):
    """--queue-dir alone reaches the executor: the cells run on the
    queue directory and print what the inline backend prints."""
    argv = ["experiment", "table1", "--scale", "tiny", "--json"]
    assert main(argv) == 0
    inline = json.loads(capsys.readouterr().out)
    queue = tmp_path / "q"
    assert main(argv + ["--queue-dir", str(queue)]) == 0
    stolen = json.loads(capsys.readouterr().out)
    assert list(queue.glob("results/*.jsonl"))
    assert stolen == inline


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


@pytest.mark.parametrize(
    "axis, label",
    [(["--policies", "esync,bogus"], "sweep:sc/bogus"),
     (["--override", "nosuchfield=1,2"], "sweep:sc/always[nosuchfield=1]"),
     (["--policies", "esync", "--policy-override", "capacity=0"],
      "sweep:sc/esync[capacity=0]"),
     (["--policies", "esync", "--policy-override", "threshold=99"],
      "sweep:sc/esync[threshold=99]"),
     (["--policies", "storeset", "--policy-override", "ssit_size=0"],
      "sweep:sc/storeset[ssit_size=0]")],
)
def test_sweep_unbuildable_cell_stops_before_any_cell_runs(capsys, tmp_path, axis, label):
    """An unknown policy or config field, or a policy value its tables
    or predictor reject, is a usage error naming its first cell: nothing
    is printed, run or cached."""
    cache = tmp_path / "cache"
    assert main(["sweep", "sc", "--scale", "tiny", "--cache-dir", str(cache)] + axis) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cell %s: " % label)
    assert captured.err.count("\n") == 1
    assert not cache.exists()


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
    assert main(argv + ["--queue-dir", str(tmp_path / "q"), "--workers", "2"]) == 0
    stolen = capsys.readouterr().out
    assert stolen == pooled


def test_sweep_adaptive_bad_metric_exits_two(capsys):
    assert main(["sweep", "sc", "--scale", "tiny",
                 "--adaptive", "--metric", "cycles", "--eta", "1"]) == 2
    assert "eta" in capsys.readouterr().err


def test_sweep_queue_dir_flags_validated(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_QUEUE_DIR", raising=False)
    assert main(["sweep", "sc", "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--workers" in err


def test_queue_dir_from_the_environment_selects_the_queue(capsys, tmp_path, monkeypatch):
    """$REPRO_QUEUE_DIR alone, with no executor flag, runs the sweep on
    that queue directory and prints the inline output."""
    argv = ["sweep", "sc", "--policies", "always,esync",
            "--override", "stages=2,4", "--scale", "tiny", "--json"]
    monkeypatch.delenv("REPRO_QUEUE_DIR", raising=False)
    assert main(argv) == 0
    inline = capsys.readouterr().out
    monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path))
    assert main(argv) == 0
    assert capsys.readouterr().out == inline
    assert list(tmp_path.glob("results/*.jsonl"))


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


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"counters": [1]}'])
def test_metrics_serve_unrenderable_snapshot_exits_two(capsys, tmp_path, text):
    snapshot = tmp_path / "metrics.json"
    snapshot.write_text(text)
    assert main(["metrics-serve", str(snapshot), "--once"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot render ")


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
    assert payload == golden
    record = json.loads(open(ledger).readline())
    assert record["kind"] == "experiment"
    # figure5 is 40 sweep cells: 5 workloads x 2 stage counts x 4 policies
    cells = record["fingerprints"]["cells"]
    assert len(cells) == 40
    assert "sweep:compress/never[stages=4]" in cells


def test_ledger_records_every_cell_of_a_run(capsys, tmp_path, monkeypatch):
    """Cells whose names collide (a sweep point under several overrides)
    each keep their own cache key in the ledger."""
    monkeypatch.delenv("REPRO_EXECUTOR_JOBS", raising=False)
    ledger = tmp_path / "runs.jsonl"
    assert main(["sweep", "sc", "--policies", "always,esync",
                 "--override", "stages=2,4", "--scale", "tiny",
                 "--ledger", str(ledger)]) == 0
    assert main(["experiment", "figure7", "--scale", "tiny",
                 "--ledger", str(ledger)]) == 0
    capsys.readouterr()
    sweep_record, figure7_record = [
        json.loads(line) for line in ledger.read_text().splitlines()
    ]
    assert len(set(sweep_record["fingerprints"]["cells"].values())) == 4
    assert len(set(figure7_record["fingerprints"]["cells"].values())) == 54
    # an inline run records every cell's phase times in the ledger
    assert figure7_record["phases"]["simulate"]["calls"] == 54


def test_sweep_records_its_phase_times(capsys, tmp_path, monkeypatch):
    """Like ``repro experiment``, an inline sweep writes its phase times
    under ``profile`` in --metrics and under ``phases`` in the ledger."""
    from repro.experiments import executor

    monkeypatch.delenv("REPRO_EXECUTOR_JOBS", raising=False)
    # an empty trace memo, so the sweep interprets (and times) its trace
    monkeypatch.setattr(executor, "_trace_cache", {})
    metrics_path = tmp_path / "m.json"
    ledger = tmp_path / "runs.jsonl"
    assert main(["sweep", "sc", "--override", "stages=4", "--policies", "always",
                 "--scale", "tiny", "--metrics", str(metrics_path),
                 "--ledger", str(ledger)]) == 0
    capsys.readouterr()
    profile = json.loads(metrics_path.read_text())["profile"]
    assert {"simulate", "trace-gen"} <= set(profile)
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["phases"]
