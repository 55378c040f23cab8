"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro workloads                          # list the synthetic suites
    repro trace compress --scale test        # interpret + profile a workload
    repro simulate sc --policy esync -n 8    # one timing simulation
    repro simulate sc --metrics m.json --trace-events t.json  # + telemetry
    repro compare compress -n 8              # every policy side by side
    repro experiment table3                  # regenerate a paper table
    repro experiment all --scale tiny        # every table and figure
    repro experiment all --jobs 4 \\
        --cache-dir .repro-cache             # parallel + result cache
    repro sweep sc compress --override stages=4,8 --jobs 4  # design space
    repro profile compress                   # where does wall time go?
    repro staticdep compress                 # static pairs vs the oracle
    repro staticdep compress --symbolic      # MUST/MAY/NO alias verdicts
    repro lint examples/programs/histogram.s # speculation linter
    repro lint compress --symbolic           # + provable-dependence rules
    repro pdg examples/programs/prefix_sum.s --slices  # dependence graph
    repro pdg compress --dot pdg.dot         # Graphviz export
    repro slice examples/programs/prefix_sum.s 6       # backward slice
    repro leakcheck examples/programs/leak_demo.s           # spec-leak check
    repro leakcheck histogram --secret-range 0x1000:0x103c  # ad-hoc secrets
    repro sweep sc --jobs 4 --watch          # live cells-done/ETA view
    repro simulate sc --ledger runs.jsonl    # record the run durably
    repro runs                               # list recorded runs
    repro runs diff a1b2c3 d4e5f6            # what changed between two?
    repro explain compress                   # why did we squash?
    repro metrics-serve m.json --port 9464   # Prometheus /metrics
    repro bench-report                       # bench trajectory + regressions

Most subcommands accept ``--json`` (machine-readable stdout); the
simulation commands additionally accept ``--metrics FILE`` (metric
registry dump), ``--trace-events FILE`` (Chrome trace-event JSON,
viewable at https://ui.perfetto.dev), and ``--ledger FILE`` (append one
run-ledger record, also enabled by ``$REPRO_LEDGER``).

The analysis commands (``staticdep``, ``lint``, ``pdg``, ``slice``,
``leakcheck``, ``explain``, ``runs diff``, ``bench-report``) share one
exit-code contract: **0** — the command ran and found nothing wrong;
**1** — it found problems (lint errors past the ``--fail-on``
threshold, a soundness violation against the oracle, an unaffordable
predictor slice under ``pdg --strict``, leak-relevant findings, a
squash on a statically-proven non-aliasing pair, two runs that differ,
an adaptive-sweep benchmark below its floor); **2** — usage
error (unknown workload, unreadable file, unparsable target, unknown
run id, missing snapshot).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from repro.core.stats import speedup
from repro.experiments import ALL_EXPERIMENTS
from repro.frontend import analyze_trace, run_program
from repro.multiscalar import (
    MultiscalarConfig,
    MultiscalarSimulator,
    available_policies,
    make_policy,
)
from repro.oracle import profile_dependences
from repro.telemetry import Profiler, make_telemetry, merged_trace
from repro.workloads import all_workloads, get_workload

#: Derived from the policy registry so new policies surface here
#: automatically (order is the registry's presentation order).
POLICIES = available_policies()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Dynamic Speculation and Synchronization "
        "of Data Dependences' (Moshovos et al., ISCA 1997)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the synthetic workloads")

    p_trace = sub.add_parser("trace", help="interpret a workload and profile it")
    p_trace.add_argument("workload")
    p_trace.add_argument("--scale", default="test")
    p_trace.add_argument("--top", type=int, default=5, help="pairs to display")

    def add_telemetry_flags(p):
        p.add_argument(
            "--metrics", metavar="FILE",
            help="write the run's metric registry (counters, gauges, "
            "histograms, occupancy series) as JSON",
        )
        p.add_argument(
            "--trace-events", metavar="FILE", dest="trace_events",
            help="write a Chrome trace-event JSON file "
            "(open at https://ui.perfetto.dev or chrome://tracing)",
        )
        p.add_argument("--json", action="store_true", dest="as_json")

    def add_ledger_flag(p):
        p.add_argument(
            "--ledger", metavar="FILE",
            help="append one run-ledger record (config + fingerprints + "
            "phases + stats) to FILE as JSONL; default: $REPRO_LEDGER, "
            "else no recording",
        )

    p_sim = sub.add_parser("simulate", help="run one timing simulation")
    p_sim.add_argument("workload")
    p_sim.add_argument("--policy", default="esync", choices=POLICIES)
    p_sim.add_argument("-n", "--stages", type=int, default=8)
    p_sim.add_argument("--scale", default="test")
    add_telemetry_flags(p_sim)
    add_ledger_flag(p_sim)

    p_cmp = sub.add_parser("compare", help="compare all policies on a workload")
    p_cmp.add_argument("workload")
    p_cmp.add_argument("-n", "--stages", type=int, default=8)
    p_cmp.add_argument("--scale", default="test")
    add_telemetry_flags(p_cmp)

    def add_executor_flags(p):
        p.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="fan cells out to N worker processes (default: "
            "$REPRO_EXECUTOR_JOBS, else the legacy serial in-process path)",
        )
        p.add_argument(
            "--cache-dir", dest="cache_dir", metavar="DIR",
            default=os.environ.get("REPRO_CACHE_DIR") or None,
            help="content-addressed result cache; finished cells are "
            "written immediately and reused on later runs, so rerunning "
            "an interrupted run resumes it (default: $REPRO_CACHE_DIR)",
        )
        p.add_argument(
            "--retries", type=int, default=1, metavar="N",
            help="re-attempts per failed cell before it is reported FAILED "
            "(default 1)",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-cell wall-clock budget; a cell over budget fails "
            "(and is retried) instead of hanging the run",
        )
        p.add_argument(
            "--watch", action="store_true",
            help="render live progress (cells done/failed/cached, EWMA "
            "ETA) to stderr while the grid runs; ANSI in-place on a "
            "TTY, one line per cell otherwise",
        )
        p.add_argument(
            "--progress-json", metavar="FILE", dest="progress_json",
            help="append every progress event as one JSON line to FILE "
            "(the machine-readable sibling of --watch)",
        )
        p.add_argument(
            "--backend", choices=("local", "inline", "queue-dir"), default=None,
            help="where cells run: 'local' process pool, 'inline' in "
            "this process, or 'queue-dir' work-stealing over a shared "
            "directory (see 'repro worker').  Default: $REPRO_EXECUTOR_BACKEND, "
            "else local pool for --jobs > 1 and inline otherwise.  All "
            "backends produce bit-identical results",
        )
        p.add_argument(
            "--queue-dir", dest="queue_dir", metavar="DIR",
            default=os.environ.get("REPRO_QUEUE_DIR") or None,
            help="shared queue directory for --backend queue-dir "
            "(created if missing; default: $REPRO_QUEUE_DIR)",
        )
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="queue-dir only: spawn N local 'repro worker' "
            "processes (default: --jobs).  0 spawns none — the sweep "
            "is served entirely by externally launched workers",
        )

    p_exp = sub.add_parser(
        "experiment", help="regenerate a paper table/figure",
        description="Regenerate paper tables/figures, optionally in "
        "parallel through the cell executor. Exit codes: 0 all cells "
        "completed, 2 unknown experiment / usage error / any FAILED cell.",
    )
    p_exp.add_argument("which", help="'all' or one of: %s" % ", ".join(sorted(ALL_EXPERIMENTS)))
    p_exp.add_argument("--scale", default="test")
    p_exp.add_argument(
        "--bars",
        metavar="COLUMN",
        help="additionally render COLUMN as a text bar chart",
    )
    add_executor_flags(p_exp)
    add_telemetry_flags(p_exp)
    add_ledger_flag(p_exp)

    p_sweep = sub.add_parser(
        "sweep", help="run a (workload x config x policy) parameter sweep",
        description="Sweep the design space: the cross product of "
        "workloads, --override value lists, and --policies, one "
        "simulation per grid cell. Exit codes: 0 all cells completed, "
        "2 usage error / any FAILED cell.",
    )
    p_sweep.add_argument("workloads", nargs="+", help="workload names")
    p_sweep.add_argument(
        "--policies", default="always,esync,psync", metavar="P1,P2,...",
        help="comma-separated policy list (default: always,esync,psync)",
    )
    p_sweep.add_argument(
        "--override", action="append", default=[], metavar="FIELD=V1,V2,...",
        help="sweep a MultiscalarConfig field over a value list, e.g. "
        "--override stages=4,8 (repeatable; the grid is the cross product)",
    )
    p_sweep.add_argument(
        "--policy-override", action="append", default=[], dest="policy_override",
        metavar="KW=V1,V2,...",
        help="sweep a make_policy() keyword over a value list, e.g. "
        "--policy-override capacity=16,64 for the MDPT size or "
        "mdst_capacity=16,64 with structure=split for the MDST size "
        "(repeatable; crossed into the grid like --override)",
    )
    p_sweep.add_argument("--scale", default="tiny")
    p_sweep.add_argument(
        "--adaptive", action="store_true",
        help="successive halving instead of the exhaustive grid: every "
        "config runs at scale/eta^(rungs-1), the top 1/eta per workload "
        "promote one rung up, and only finalists run at --scale.  "
        "Deterministic: rankings tie-break on the full-scale cell key, "
        "so serial, parallel, and queue-dir runs are bit-identical",
    )
    p_sweep.add_argument(
        "--eta", type=int, default=3, metavar="N",
        help="adaptive halving factor: keep the top 1/N per rung "
        "(default 3)",
    )
    p_sweep.add_argument(
        "--metric", choices=("cycles", "ipc", "mis_speculations"),
        default="cycles",
        help="adaptive selection metric (default cycles; ipc is "
        "maximized, the others minimized)",
    )
    p_sweep.add_argument(
        "--rungs", type=int, default=None, metavar="N",
        help="adaptive rung count (default: enough that at most eta "
        "configs reach full scale)",
    )
    add_executor_flags(p_sweep)
    add_telemetry_flags(p_sweep)
    add_ledger_flag(p_sweep)

    p_worker = sub.add_parser(
        "worker",
        help="work-stealing executor worker over a shared queue directory",
        description="Claim and execute cell shards from a queue "
        "directory written by 'repro sweep/experiment --backend "
        "queue-dir' (any number of workers, same host or shared "
        "storage).  Tasks are claimed with atomic lease files, a "
        "heartbeat thread keeps the lease fresh, and results stream "
        "back as JSONL the driver tails.  Exit codes: 0 drained/stopped, "
        "2 usage error.",
    )
    p_worker.add_argument("queue_dir", help="the shared queue directory")
    p_worker.add_argument(
        "--max-tasks", type=int, default=None, metavar="N", dest="max_tasks",
        help="exit after executing N tasks (default: until stopped)",
    )
    p_worker.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        dest="idle_timeout",
        help="exit after SECONDS with nothing claimable (default: wait "
        "for the stop sentinel forever)",
    )
    p_worker.add_argument(
        "--heartbeat", type=float, default=1.0, metavar="SECONDS",
        help="lease heartbeat interval (default 1.0); drivers reclaim "
        "leases quiet for longer than their --lease-timeout",
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.05, metavar="SECONDS",
        help="poll interval while idle (default 0.05)",
    )
    p_worker.add_argument(
        "--worker-id", default=None, dest="worker_id", metavar="ID",
        help="stable worker name for the result stream and lease "
        "records (default: pid + random suffix)",
    )

    p_prof = sub.add_parser(
        "profile", help="profile one workload end to end (wall clock)"
    )
    p_prof.add_argument("workload")
    p_prof.add_argument("--policy", default="esync", choices=POLICIES)
    p_prof.add_argument("-n", "--stages", type=int, default=8)
    p_prof.add_argument("--scale", default="test")
    p_prof.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="simulate N times (trace generation still runs once)",
    )
    p_prof.add_argument(
        "--trace-events", metavar="FILE", dest="trace_events",
        help="write the wall-clock spans as Chrome trace-event JSON",
    )
    p_prof.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N widest scopes (default: all)",
    )
    p_prof.add_argument("--json", action="store_true", dest="as_json")

    p_static = sub.add_parser(
        "staticdep",
        help="static dependence analysis, cross-checked against the oracle",
        description="Static dependence analysis, cross-checked against "
        "the dynamic oracle. Exit codes: 0 analysis clean, 1 soundness "
        "violation (a dynamic dependence escaped the static set), "
        "2 usage error.",
    )
    p_static.add_argument("target", help="workload name or assembly (.s) file")
    p_static.add_argument("--scale", default="test")
    p_static.add_argument("--top", type=int, default=5, help="pairs to display")
    p_static.add_argument(
        "--symbolic", action="store_true",
        help="refine candidate pairs with the symbolic affine classifier "
        "(MUST/MAY/NO verdicts, static dependence distances, primable set)",
    )
    p_static.add_argument("--json", action="store_true", dest="as_json")

    p_lint = sub.add_parser(
        "lint", help="run the speculation linter over a program",
        description="Speculation linter. Exit codes: 0 no errors "
        "(warnings/infos allowed), 1 at least one error-severity "
        "finding, 2 usage error.",
    )
    p_lint.add_argument("target", help="workload name or assembly (.s) file")
    p_lint.add_argument("--scale", default="test")
    p_lint.add_argument(
        "--mdpt", type=int, default=64, metavar="ENTRIES",
        help="MDPT capacity to check the static pair set against (default 64)",
    )
    p_lint.add_argument(
        "--mdst", type=int, default=None, metavar="ENTRIES",
        help="MDST capacity to check (default: unchecked)",
    )
    p_lint.add_argument(
        "--symbolic", action="store_true",
        help="lint against the symbolic classifier's refined pair set and "
        "enable the must-alias-pair / dist-over-mdst rules",
    )
    from repro.staticdep.lint import FAIL_ON_CHOICES

    p_lint.add_argument(
        "--fail-on", default="error", choices=FAIL_ON_CHOICES, dest="fail_on",
        help="lowest severity that makes the exit code 1 (default: error; "
        "'warn'/'note' are aliases for warning/info)",
    )
    p_lint.add_argument("--json", action="store_true", dest="as_json")

    p_pdg = sub.add_parser(
        "pdg",
        help="program dependence graph, predictor slices, DOT export",
        description="Build the whole-program dependence graph (register "
        "def-use, control dependence, symbolic memory edges) and extract "
        "the Prophet-style address-generation slice of every MAY/MUST "
        "store->load pair. Exit codes: 0 graph built (all requested "
        "outputs produced), 1 --strict and at least one pair has no "
        "affordable predictor slice, 2 usage error.",
    )
    p_pdg.add_argument("target", help="workload name or assembly (.s) file")
    p_pdg.add_argument("--scale", default="test")
    p_pdg.add_argument(
        "--slices", action="store_true",
        help="list every MAY/MUST pair's predictor slice (cost, status, PCs)",
    )
    p_pdg.add_argument(
        "--dot", metavar="FILE", default=None,
        help="write the Graphviz rendering of the PDG to FILE ('-' for stdout)",
    )
    p_pdg.add_argument(
        "--budget-length", type=int, default=None, metavar="N",
        help="slice-affordability cap on instructions (default 64)",
    )
    p_pdg.add_argument(
        "--budget-loads", type=int, default=None, metavar="N",
        help="slice-affordability cap on loads touched (default 8)",
    )
    p_pdg.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any MAY/MUST pair's slice is unaffordable "
        "(too expensive or loop-carried)",
    )
    p_pdg.add_argument("--json", action="store_true", dest="as_json")

    p_slice = sub.add_parser(
        "slice",
        help="backward slice of one instruction over the PDG",
        description="Extract the executable backward slice of the "
        "instruction at PC (criterion: address, value, or full) and "
        "print its cost and instruction listing. Exit codes: 0 slice "
        "extracted, 2 usage error (bad PC, unreadable target).",
    )
    p_slice.add_argument("target", help="workload name or assembly (.s) file")
    p_slice.add_argument("pc", type=int, help="PC of the criterion instruction")
    p_slice.add_argument(
        "--criterion", default="address", choices=("address", "value", "full"),
        help="which facet of the instruction the slice must reproduce "
        "(default: address)",
    )
    p_slice.add_argument("--scale", default="test")
    p_slice.add_argument("--json", action="store_true", dest="as_json")

    p_leak = sub.add_parser(
        "leakcheck",
        help="static + dynamic speculative-leak analysis of a program",
        description="Classify every static store->load pair as LEAK / "
        "GATED / NO-LEAK under the taint lattice, then replay the "
        "program through the multiscalar simulator with the dynamic "
        "taint sanitizer and cross-check the verdicts. Exit codes: "
        "0 clean (no leaks, no gated pairs, no contradictions), "
        "1 leak-relevant findings, 2 usage error.",
    )
    p_leak.add_argument("target", help="workload name or assembly (.s) file")
    p_leak.add_argument("--scale", default="test")
    p_leak.add_argument(
        "--secret-range", action="append", dest="secret_ranges",
        metavar="LO:HI", default=None,
        help="mark [LO, HI] (inclusive, word-aligned, 0x.. accepted) as "
        "secret memory; repeatable; overrides .secret directives",
    )
    p_leak.add_argument(
        "--policy", default="always", choices=POLICIES,
        help="speculation policy for the dynamic replay (default: always, "
        "i.e. blind speculation — the adversarial baseline)",
    )
    p_leak.add_argument("--json", action="store_true", dest="as_json")

    p_runs = sub.add_parser(
        "runs", help="inspect the run ledger (list / show / diff)",
        description="Inspect the append-only run ledger. 'runs' lists "
        "recorded runs, 'runs show ID' dumps one record, 'runs diff A B' "
        "compares two. Exit codes: 0 OK (diff: identical), 1 the two "
        "runs differ, 2 usage error (no ledger, unknown id).",
    )
    p_runs.add_argument(
        "action", nargs="?", default="list", choices=["list", "show", "diff"],
        help="list recorded runs (default), show one record, or diff two",
    )
    p_runs.add_argument(
        "ids", nargs="*", metavar="ID",
        help="run id(s) — full or unique prefix (show: 1, diff: 2)",
    )
    p_runs.add_argument(
        "--last", type=int, default=20, metavar="N",
        help="list only the N most recent runs (default 20, 0 = all)",
    )
    add_ledger_flag(p_runs)
    p_runs.add_argument("--json", action="store_true", dest="as_json")

    p_explain = sub.add_parser(
        "explain", help="why did we squash? per-pair causes vs verdicts",
        description="Run a program with the squash ledger attached and "
        "explain every surviving squash: static pair, dependence "
        "distance, policy decision and MDPT/MDST state at squash time, "
        "cross-referenced against the symbolic MUST/MAY/NO verdicts. "
        "Exit codes: 0 no contradictions, 1 a squash happened on a "
        "pair the symbolic analysis proved non-aliasing, 2 usage error.",
    )
    p_explain.add_argument("target", help="workload name or assembly (.s) file")
    p_explain.add_argument("--scale", default="test")
    p_explain.add_argument("--policy", default="esync", choices=POLICIES)
    p_explain.add_argument("-n", "--stages", type=int, default=8)
    p_explain.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="show only the K hottest squashing pairs (default 10)",
    )
    p_explain.add_argument("--json", action="store_true", dest="as_json")

    p_serve = sub.add_parser(
        "metrics-serve",
        help="serve a metrics snapshot in Prometheus text format",
        description="Expose a --metrics JSON snapshot on a Prometheus "
        "text-format endpoint (stdlib HTTP server; the snapshot file is "
        "re-read on every request, so a running simulation can refresh "
        "it in place). Exit codes: 0 served/printed, 2 usage error "
        "(missing or invalid snapshot).",
    )
    p_serve.add_argument("snapshot", help="metrics JSON written by --metrics")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9464)
    p_serve.add_argument(
        "--once", action="store_true",
        help="print the Prometheus text to stdout and exit (no server)",
    )
    p_serve.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        dest="max_requests",
        help="serve N requests then exit (default: serve forever)",
    )

    p_bench = sub.add_parser(
        "bench-report",
        help="benchmark trajectory and regression check",
        description="Summarise BENCH_history.jsonl (one line per "
        "benchmark session, keyed by git SHA) and gate the adaptive "
        "sweep's savings and top-1 agreement. Exit codes: 0 no "
        "regression, 1 regression flagged, 2 no benchmark data.",
    )
    p_bench.add_argument(
        "--history", default="BENCH_history.jsonl", metavar="FILE",
        help="benchmark history JSONL (default: BENCH_history.jsonl)",
    )
    p_bench.add_argument(
        "--results", default="BENCH_results.json", metavar="FILE",
        help="latest benchmark results JSON (default: BENCH_results.json)",
    )
    p_bench.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _is_assembly_path(target) -> bool:
    return target.endswith(".s") or os.path.sep in target or os.path.exists(target)


def _load_program(target, scale):
    """Resolve a CLI target to a Program: a .s file or a workload name."""
    if _is_assembly_path(target):
        from repro.isa.parser import parse_file

        return parse_file(target)
    return get_workload(target).program(scale)


def cmd_workloads(_args) -> int:
    print("%-12s %-10s %s" % ("name", "suite", "description"))
    for workload in all_workloads():
        print("%-12s %-10s %s" % (workload.name, workload.suite, workload.description))
    return 0


def cmd_trace(args) -> int:
    trace = get_workload(args.workload).trace(args.scale)
    print("summary:", trace.summary())
    analysis = analyze_trace(trace)
    print("dynamics:", analysis.summary())
    mix = analysis.mix_percentages()
    print(
        "mix: "
        + "  ".join("%s %.1f%%" % (cls, pct) for cls, pct in list(mix.items())[:5])
    )
    profile = profile_dependences(trace)
    print("dependences:", profile.summary())
    top = profile.top_pairs(args.top)
    if top:
        print("\nhottest static dependence pairs:")
        print("%-10s %-10s %8s %6s %10s" % ("store PC", "load PC", "count", "DIST", "stability"))
        for pair in top:
            print(
                "%-10d %-10d %8d %6d %9.0f%%"
                % (
                    pair.store_pc,
                    pair.load_pc,
                    pair.dynamic_count,
                    pair.modal_task_distance,
                    100 * pair.distance_stability(),
                )
            )
    return 0


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _run_telemetry(args, pid=0):
    """A telemetry bundle when the run asked for one, else None.

    None keeps the simulator on its null-sink default, which is the
    zero-overhead contract the A/B test enforces.
    """
    if args.metrics or args.trace_events:
        return make_telemetry(pid=pid)
    return None


def cmd_simulate(args) -> int:
    from repro.telemetry import PROFILER

    start = time.time()
    mark = PROFILER.mark()
    with PROFILER.scope("trace-gen"):
        trace = get_workload(args.workload).trace(args.scale)
    policy = make_policy(args.policy)
    telemetry = _run_telemetry(args)
    sim = MultiscalarSimulator(
        trace, MultiscalarConfig(stages=args.stages), policy, telemetry=telemetry
    )
    with PROFILER.scope("simulate"):
        stats = sim.run()
    if args.metrics:
        _write_json(args.metrics, telemetry.metrics.to_dict())
    if args.trace_events:
        _write_json(args.trace_events, telemetry.trace.to_dict())
    summary = stats.summary()
    if _ledger_enabled(args):
        fingerprints = {}
        try:
            from repro.frontend.trace_cache import program_fingerprint

            fingerprints["trace"] = program_fingerprint(
                get_workload(args.workload).program(args.scale)
            )
        except Exception:  # fingerprinting must never fail a run
            pass
        _record_run(
            args,
            "simulate",
            config={
                "workload": args.workload,
                "policy": args.policy,
                "stages": args.stages,
                "scale": args.scale,
            },
            fingerprints=fingerprints,
            phases=PROFILER.summary(since=mark),
            stats=summary,
            metrics=telemetry.metrics.to_dict() if telemetry else None,
            wall_seconds=round(time.time() - start, 6),
        )
    if args.as_json:
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "policy": args.policy,
                    "stages": args.stages,
                    "scale": args.scale,
                    "stats": summary,
                },
                indent=2,
            )
        )
        return 0
    print(
        "%s on %d stages under %s:"
        % (args.workload, args.stages, args.policy.upper())
    )
    for key, value in summary.items():
        if key == "breakdown":
            value = "  ".join("%s=%d" % (b, value[b]) for b in ("nn", "ny", "yn", "yy"))
        print("  %-24s %s" % (key, value))
    return 0


def cmd_compare(args) -> int:
    trace = get_workload(args.workload).trace(args.scale)
    config = MultiscalarConfig(stages=args.stages)
    results = {}
    telemetries = {}
    for pid, name in enumerate(POLICIES):
        telemetry = _run_telemetry(args, pid=pid)
        sim = MultiscalarSimulator(trace, config, make_policy(name), telemetry=telemetry)
        results[name] = sim.run()
        telemetries[name] = telemetry
    base = results["never"]
    if args.metrics:
        _write_json(
            args.metrics,
            {name: telemetries[name].metrics.to_dict() for name in POLICIES},
        )
    if args.trace_events:
        _write_json(
            args.trace_events,
            merged_trace(
                [telemetries[name].trace for name in POLICIES],
                names=[name.upper() for name in POLICIES],
            ),
        )
    if args.as_json:
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "stages": args.stages,
                    "scale": args.scale,
                    "baseline": "never",
                    "policies": {
                        name: dict(
                            results[name].summary(),
                            speedup_vs_never=round(speedup(base, results[name]), 2),
                        )
                        for name in POLICIES
                    },
                },
                indent=2,
            )
        )
        return 0
    print(
        "%s, %d stages (%d instructions, %d tasks)"
        % (args.workload, args.stages, len(trace), trace.count_tasks())
    )
    print("%-8s %8s %6s %10s %6s" % ("policy", "cycles", "IPC", "vs NEVER", "ms"))
    for name in POLICIES:
        stats = results[name]
        print(
            "%-8s %8d %6.2f %9.1f%% %6d"
            % (name.upper(), stats.cycles, stats.ipc, speedup(base, stats), stats.mis_speculations)
        )
    return 0


def _resolved_jobs(args):
    """--jobs, else $REPRO_EXECUTOR_JOBS, else None (legacy serial)."""
    if args.jobs is not None:
        return max(1, args.jobs)
    env = os.environ.get("REPRO_EXECUTOR_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            print(
                "ignoring non-integer REPRO_EXECUTOR_JOBS=%r" % env,
                file=sys.stderr,
            )
    return None


def _check_executor_usage(args) -> Optional[int]:
    """Exit code 2 for inconsistent executor flags, else None."""
    backend = _resolved_backend_name(args)
    if backend not in (None, "local", "inline", "queue-dir"):
        print("error: unknown backend %r" % backend, file=sys.stderr)
        return 2
    if backend == "queue-dir" and not getattr(args, "queue_dir", None):
        print("error: --backend queue-dir requires --queue-dir", file=sys.stderr)
        return 2
    if backend != "queue-dir":
        if getattr(args, "queue_dir", None):
            print("error: --queue-dir requires --backend queue-dir", file=sys.stderr)
            return 2
        if getattr(args, "workers", None) is not None:
            print("error: --workers requires --backend queue-dir", file=sys.stderr)
            return 2
    return None


def _resolved_backend_name(args) -> Optional[str]:
    """--backend, else $REPRO_EXECUTOR_BACKEND, else None (legacy pick)."""
    name = getattr(args, "backend", None)
    if name:
        return name
    env = os.environ.get("REPRO_EXECUTOR_BACKEND", "").strip()
    return env or None


def _make_backend(args, jobs):
    """Build the ExecutorBackend instance the flags describe (or None
    for the legacy jobs-based inline/pool pick)."""
    name = _resolved_backend_name(args)
    if name is None:
        return None
    if name == "queue-dir":
        from repro.experiments.backends import QueueDirBackend

        return QueueDirBackend(
            args.queue_dir,
            workers=args.workers if args.workers is not None else (jobs or 1),
        )
    from repro.experiments.backends import make_backend

    return make_backend(name)


def _executor_telemetry(args):
    """(metrics registry, trace sink) — real sinks only when requested."""
    from repro.telemetry import MetricRegistry, TraceEventSink

    metrics = MetricRegistry() if args.metrics else None
    trace = TraceEventSink() if args.trace_events else None
    return metrics, trace


def _write_executor_telemetry(args, report, metrics, trace):
    if args.metrics:
        _write_json(
            args.metrics,
            {"executor": report.counters(), "metrics": metrics.to_dict()},
        )
    if args.trace_events:
        _write_json(args.trace_events, trace.to_dict())


def _print_failed_cells(report) -> None:
    for result in report.failed:
        print(
            "FAILED cell %s after %d attempt(s): %s"
            % (result.cell.label, result.attempts, result.error),
            file=sys.stderr,
        )


# -- observability plumbing: live progress + run ledger -------------------


def _progress_sinks(args):
    """(progress callback or None, JsonlWriter to close or None).

    ``--watch`` renders to stderr (ANSI on a TTY, one line per event
    otherwise) so the stdout table stays byte-identical to a non-watch
    run; ``--progress-json`` appends every event to a JSONL file.
    """
    from repro.experiments.progress import JsonlWriter, fanout, make_renderer

    renderer = make_renderer(sys.stderr) if getattr(args, "watch", False) else None
    writer = (
        JsonlWriter(args.progress_json)
        if getattr(args, "progress_json", None)
        else None
    )
    return fanout(renderer, writer), writer


def _ledger_enabled(args) -> bool:
    from repro.telemetry import resolve_ledger_path

    return resolve_ledger_path(getattr(args, "ledger", None)) is not None


def _record_run(args, kind, config, fingerprints=None, phases=None,
                stats=None, executor=None, metrics=None, wall_seconds=None,
                rungs=None):
    """Append one record to the run ledger when one is configured
    (``--ledger`` or ``$REPRO_LEDGER``); no-op otherwise."""
    from repro.telemetry import RunLedger, make_record, resolve_ledger_path

    path = resolve_ledger_path(getattr(args, "ledger", None))
    if not path:
        return None
    prints = dict(fingerprints or {})
    if "source" not in prints:
        try:
            from repro.experiments.executor import source_fingerprint

            prints["source"] = source_fingerprint()
        except Exception:  # fingerprinting must never fail a run
            pass
    record = make_record(
        kind=kind,
        config=config,
        argv=getattr(args, "_argv", None),
        fingerprints=prints,
        phases=phases,
        stats=stats,
        executor=executor,
        metrics=metrics,
        wall_seconds=wall_seconds,
        rungs=rungs,
    )
    run_id = RunLedger(path).append(record)
    print("recorded run %s -> %s" % (run_id, path), file=sys.stderr)
    return run_id


def _cell_fingerprints(cells) -> dict:
    """Source fingerprint + per-cell content-addressed cache keys."""
    from repro.experiments.executor import source_fingerprint

    fp = source_fingerprint()
    return {
        "source": fp,
        "cells": {cell.label: cell.key(fp) for cell in cells},
    }


def cmd_experiment(args) -> int:
    keys = sorted(ALL_EXPERIMENTS) if args.which == "all" else [args.which]
    for key in keys:
        if key not in ALL_EXPERIMENTS:
            print(
                "unknown experiment %r (expected 'all' or one of: %s)"
                % (key, ", ".join(sorted(ALL_EXPERIMENTS))),
                file=sys.stderr,
            )
            return 2
    usage_error = _check_executor_usage(args)
    if usage_error is not None:
        return usage_error
    jobs = _resolved_jobs(args)
    if (
        jobs is None
        and not args.cache_dir
        and args.timeout is None
        and not args.watch
        and not args.progress_json
    ):
        return _experiment_serial(args, keys)
    return _experiment_executor(args, keys, jobs or 1)


def _experiment_serial(args, keys) -> int:
    """The legacy in-process path (tables keep their wall-clock profile)."""
    from repro.telemetry import PROFILER

    start = time.time()
    mark = PROFILER.mark()
    tables = []
    for key in keys:
        table = ALL_EXPERIMENTS[key](args.scale)
        tables.append(table)
        _print_table(args, table)
    if args.metrics:
        _write_json(args.metrics, {"profile": PROFILER.summary(since=mark)})
    if args.trace_events:
        _write_json(args.trace_events, PROFILER.to_trace_events(since=mark))
    if args.as_json:
        print(json.dumps([table.to_json() for table in tables], indent=2))
    if _ledger_enabled(args):
        from repro.experiments.executor import experiment_cells

        _record_run(
            args,
            "experiment",
            config={
                "which": args.which,
                "scale": args.scale,
                "experiments": keys,
            },
            fingerprints=_cell_fingerprints(experiment_cells(keys, args.scale)),
            phases=PROFILER.summary(since=mark),
            wall_seconds=round(time.time() - start, 6),
        )
    return 0


def _experiment_executor(args, keys, jobs) -> int:
    """The cell-executor path: parallel, cached, fault tolerant."""
    from repro.experiments import run_all

    start = time.time()
    metrics, trace = _executor_telemetry(args)
    progress, progress_writer = _progress_sinks(args)
    try:
        tables, report = run_all(
            parallel=jobs,
            scale=args.scale,
            experiments=keys,
            cache_dir=args.cache_dir,
            timeout=args.timeout,
            retries=args.retries,
            metrics=metrics,
            trace=trace,
            progress=progress,
        )
    finally:
        if progress_writer is not None:
            progress_writer.close()
    for key in keys:
        _print_table(args, tables[key])
    _write_executor_telemetry(args, report, metrics, trace)
    if args.as_json:
        print(json.dumps([tables[key].to_json() for key in keys], indent=2))
    if _ledger_enabled(args):
        from repro.experiments.executor import experiment_cells

        _record_run(
            args,
            "experiment",
            config={
                "which": args.which,
                "scale": args.scale,
                "experiments": keys,
            },
            fingerprints=_cell_fingerprints(experiment_cells(keys, args.scale)),
            executor=report.counters(),
            metrics=metrics.to_dict() if metrics is not None else None,
            wall_seconds=round(time.time() - start, 6),
        )
    if report.failed:
        _print_failed_cells(report)
        return 2
    return 0


def _print_table(args, table) -> None:
    if args.as_json:
        return
    print(table.to_text())
    if getattr(args, "bars", None):
        try:
            print()
            print(table.to_bars(args.bars))
        except ValueError:
            print(
                "(column %r not in %s)" % (args.bars, table.experiment),
                file=sys.stderr,
            )
    print()


def _parse_override(text):
    """``stages=4,8`` -> ("stages", [4, 8]) with numeric coercion."""
    if "=" not in text:
        raise ValueError("expected FIELD=V1,V2,..., got %r" % text)
    name, _, values = text.partition("=")
    out = []
    for token in values.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(int(token))
        except ValueError:
            try:
                out.append(float(token))
            except ValueError:
                out.append(token)
    if not out:
        raise ValueError("override %r has no values" % name)
    return name.strip(), out


def cmd_sweep(args) -> int:
    from repro.experiments.sweeps import sweep

    usage_error = _check_executor_usage(args)
    if usage_error is not None:
        return usage_error
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    try:
        overrides = dict(_parse_override(text) for text in args.override)
        policy_overrides = dict(
            _parse_override(text) for text in args.policy_override
        )
        for name in args.workloads:
            get_workload(name)  # fail fast on unknown workloads
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    start = time.time()
    metrics, trace = _executor_telemetry(args)
    jobs = _resolved_jobs(args)
    backend = _make_backend(args, jobs)
    progress, progress_writer = _progress_sinks(args)
    adaptive = None
    try:
        if args.adaptive:
            from repro.experiments.adaptive import adaptive_sweep

            adaptive = adaptive_sweep(
                args.workloads,
                policies=policies,
                overrides=overrides,
                policy_overrides=policy_overrides,
                scale=args.scale,
                metric=args.metric,
                eta=args.eta,
                rungs=args.rungs,
                jobs=jobs or 1,
                cache_dir=args.cache_dir,
                timeout=args.timeout,
                retries=args.retries,
                metrics=metrics,
                trace=trace,
                progress=progress,
                backend=backend,
            )
            result = adaptive.result
        else:
            result = sweep(
                args.workloads,
                policies=policies,
                overrides=overrides,
                policy_overrides=policy_overrides,
                scale=args.scale,
                jobs=jobs or 1,
                cache_dir=args.cache_dir,
                timeout=args.timeout,
                retries=args.retries,
                metrics=metrics,
                trace=trace,
                progress=progress,
                backend=backend,
            )
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if progress_writer is not None:
            progress_writer.close()
    report = getattr(result, "report", None)
    if report is not None:
        _write_executor_telemetry(args, report, metrics, trace)
    if _ledger_enabled(args):
        from repro.experiments.sweeps import sweep_cells

        config = {
            "workloads": list(args.workloads),
            "policies": policies,
            "overrides": {k: list(v) for k, v in overrides.items()},
            "scale": args.scale,
        }
        if policy_overrides:
            config["policy_overrides"] = {
                k: list(v) for k, v in policy_overrides.items()
            }
        if adaptive is not None:
            config["adaptive"] = {
                "eta": adaptive.eta,
                "metric": adaptive.metric,
                "exhaustive_units": adaptive.exhaustive_units,
                "adaptive_units": adaptive.adaptive_units,
                "savings": round(adaptive.savings, 6),
            }
        _record_run(
            args,
            "sweep",
            config=config,
            fingerprints=_cell_fingerprints(
                sweep_cells(
                    args.workloads, policies, overrides, args.scale,
                    policy_overrides=policy_overrides,
                )
            ),
            executor=report.counters() if report is not None else None,
            metrics=metrics.to_dict() if metrics is not None else None,
            wall_seconds=round(time.time() - start, 6),
            rungs=adaptive.rungs if adaptive is not None else None,
        )
    table = adaptive.to_table() if adaptive is not None else result.to_table()
    if args.as_json:
        print(json.dumps(table.to_json(), indent=2))
    else:
        print(table.to_text())
    if result.failed:
        for label, error in result.failed:
            print("FAILED cell %s: %s" % (label, error), file=sys.stderr)
        return 2
    return 0


def cmd_worker(args) -> int:
    from repro.experiments.queuedir import run_worker

    if args.max_tasks is not None and args.max_tasks < 0:
        print("error: --max-tasks must be >= 0", file=sys.stderr)
        return 2
    try:
        stats = run_worker(
            args.queue_dir,
            worker_id=args.worker_id,
            max_tasks=args.max_tasks,
            idle_timeout=args.idle_timeout,
            poll_interval=max(0.001, args.poll),
            heartbeat_interval=max(0.01, args.heartbeat),
        )
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(
        "worker %s: %d task(s), %d cell(s), %d failed"
        % (stats["worker"], stats["tasks"], stats["cells"], stats["failed"]),
        file=sys.stderr,
    )
    return 0


def cmd_profile(args) -> int:
    """Profile one workload end to end: trace generation, dependence
    profiling, and (repeated) simulation, all wall-clock scoped."""
    profiler = Profiler()
    with profiler.scope("total"):
        with profiler.scope("trace-gen"):
            trace = get_workload(args.workload).trace(args.scale)
        with profiler.scope("dependence-profile"):
            profile_dependences(trace)
        stats = None
        for _ in range(max(1, args.repeat)):
            policy = make_policy(args.policy)
            sim = MultiscalarSimulator(
                trace, MultiscalarConfig(stages=args.stages), policy
            )
            with profiler.scope("simulate"):
                stats = sim.run()
    if args.trace_events:
        _write_json(args.trace_events, profiler.to_trace_events())
    if args.as_json:
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "policy": args.policy,
                    "stages": args.stages,
                    "scale": args.scale,
                    "repeat": max(1, args.repeat),
                    "profile": profiler.summary(),
                    "phases": profiler.phases(),
                    "stats": stats.summary(),
                },
                indent=2,
            )
        )
        return 0
    print(
        "%s (scale %s) under %s on %d stages, %d simulation run(s):"
        % (args.workload, args.scale, args.policy.upper(), args.stages, max(1, args.repeat))
    )
    print(profiler.to_text(top=args.top))
    print(
        "simulated %d instructions in %d cycles (IPC %.2f)"
        % (stats.committed_instructions, stats.cycles, stats.ipc)
    )
    return 0


def cmd_staticdep(args) -> int:
    from repro.staticdep import (
        analyze_program,
        analyze_program_symbolic,
        cross_check,
    )

    try:
        program = _load_program(args.target, args.scale)
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.symbolic:
        analysis = analyze_program_symbolic(program)
    else:
        analysis = analyze_program(program)
    result = cross_check(run_program(program), analysis)
    if args.as_json:
        payload = dict(analysis.summary())
        payload.update(result.summary())
        payload["pairs"] = [
            {
                "store_pc": p.store_pc,
                "load_pc": p.load_pc,
                "store_expr": str(p.store_expr),
                "load_expr": str(p.load_expr),
                "min_task_distance": p.min_task_distance,
                "observed": p.pair in result.dynamic_pairs,
            }
            for p in analysis.pairs
        ]
        if args.symbolic:
            payload["classified"] = [
                {
                    "store_pc": p.store_pc,
                    "load_pc": p.load_pc,
                    "verdict": p.verdict,
                    "lag": p.lag,
                    "static_distance": p.static_distance,
                    "store_addr": str(p.store_addr),
                    "load_addr": str(p.load_addr),
                }
                for p in analysis.classified
            ]
            payload["primable"] = [
                {"store_pc": s, "load_pc": l, "distance": d}
                for s, l, d in analysis.primable()
            ]
        print(json.dumps(payload, indent=2))
        return 0 if result.sound else 1
    print("static analysis:", analysis.summary())
    print("vs dynamic oracle:", result.summary())
    if args.symbolic:
        shown_classified = sorted(
            analysis.classified,
            key=lambda p: (p.verdict != "must", p.store_pc, p.load_pc),
        )[: args.top]
        if shown_classified:
            print("\nsymbolic verdicts (MUST first):")
            print(
                "%-10s %-10s %-7s %5s %9s  %-16s %-16s"
                % ("store PC", "load PC", "verdict", "lag", "distance",
                   "store addr", "load addr")
            )
            for p in shown_classified:
                print(
                    "%-10d %-10d %-7s %5s %9s  %-16s %-16s"
                    % (
                        p.store_pc,
                        p.load_pc,
                        p.verdict.upper(),
                        "?" if p.lag is None else p.lag,
                        "?" if p.static_distance is None else p.static_distance,
                        p.store_addr,
                        p.load_addr,
                    )
                )
        primable = analysis.primable()
        if primable:
            print(
                "primable (MDPT pre-install): "
                + ", ".join(
                    "(store %d, load %d, dist %d)" % t for t in primable
                )
            )
    shown = sorted(
        analysis.pairs,
        key=lambda p: (p.pair not in result.dynamic_pairs, p.store_pc, p.load_pc),
    )[: args.top]
    if shown:
        print("\nstatic candidate pairs (observed first):")
        print(
            "%-10s %-10s %-12s %-12s %9s %9s"
            % ("store PC", "load PC", "store expr", "load expr", "min DIST", "observed")
        )
        for pair in shown:
            print(
                "%-10d %-10d %-12s %-12s %9s %9s"
                % (
                    pair.store_pc,
                    pair.load_pc,
                    pair.store_expr,
                    pair.load_expr,
                    "?" if pair.min_task_distance is None else pair.min_task_distance,
                    "yes" if pair.pair in result.dynamic_pairs else "no",
                )
            )
    if not result.sound:
        print(
            "UNSOUND: dynamic pairs missing from the static set: %s"
            % sorted(result.missed_pairs),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_lint(args) -> int:
    from repro.staticdep import fails_threshold, lint_path, lint_program

    try:
        if _is_assembly_path(args.target):
            diagnostics = lint_path(
                args.target,
                mdpt_capacity=args.mdpt,
                mdst_capacity=args.mdst,
                symbolic=args.symbolic,
            )
            name = args.target
        else:
            program = get_workload(args.target).program(args.scale)
            diagnostics = lint_program(
                program,
                mdpt_capacity=args.mdpt,
                mdst_capacity=args.mdst,
                symbolic=args.symbolic,
            )
            name = program.name
    except Exception as exc:
        # unknown workload, unreadable file, bad scale, ... -> usage error
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.as_json:
        print(
            json.dumps(
                {
                    "target": name,
                    "errors": sum(d.is_error for d in diagnostics),
                    "diagnostics": [d.to_json() for d in diagnostics],
                },
                indent=2,
            )
        )
    else:
        for diag in diagnostics:
            print("%s: %s" % (name, diag))
        errors = sum(d.is_error for d in diagnostics)
        warnings = sum(d.severity == "warning" for d in diagnostics)
        print(
            "%s: %d error(s), %d warning(s), %d finding(s) total"
            % (name, errors, warnings, len(diagnostics))
        )
    return 1 if fails_threshold(diagnostics, args.fail_on) else 0


def _parse_secret_ranges(specs):
    """Parse repeated ``--secret-range LO:HI`` flags (base-prefixed ints)."""
    ranges = []
    for spec in specs:
        lo_text, sep, hi_text = spec.partition(":")
        if not sep:
            raise ValueError(
                "bad --secret-range %r: expected LO:HI (e.g. 0x2000:0x201c)"
                % spec
            )
        ranges.append((int(lo_text, 0), int(hi_text, 0)))
    return ranges


def cmd_pdg(args) -> int:
    from repro.staticdep.pdg import SliceBudget, pdg_report

    budget = SliceBudget()
    if args.budget_length is not None or args.budget_loads is not None:
        budget = SliceBudget(
            max_length=args.budget_length
            if args.budget_length is not None
            else budget.max_length,
            max_loads=args.budget_loads
            if args.budget_loads is not None
            else budget.max_loads,
        )
    try:
        program = _load_program(args.target, args.scale)
        report = pdg_report(program, budget=budget)
        dot = None
        if args.dot is not None:
            from repro.staticdep.pdg import build_pdg

            dot = build_pdg(program).to_dot()
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.dot is not None:
        if args.dot == "-":
            sys.stdout.write(dot)
        else:
            with open(args.dot, "w") as handle:
                handle.write(dot)
            print("wrote %s" % args.dot, file=sys.stderr)
    if args.as_json:
        print(json.dumps(report, indent=2))
    elif args.dot != "-":
        summary = report["summary"]
        print("pdg: %s" % report["program"])
        for key in (
            "nodes",
            "register_edges",
            "control_edges",
            "memory_edges",
            "predictor_slices",
        ):
            print("  %-18s %s" % (key, summary[key]))
        print("  %-18s %s" % ("memory verdicts", summary["memory_edges_by_verdict"]))
        print("  %-18s %s" % ("slice statuses", summary["slices_by_status"]))
        if args.slices:
            for entry in report["slices"]:
                print(
                    "  pair (store %d, load %d) %s d=%s %s: "
                    "%d instr, %d load(s), pcs %s"
                    % (
                        entry["store_pc"],
                        entry["load_pc"],
                        entry["verdict"],
                        entry["static_distance"],
                        entry["status"],
                        entry["cost"]["length"],
                        entry["cost"]["loads"],
                        entry["pcs"],
                    )
                )
    if args.strict and any(s["status"] != "warmable" for s in report["slices"]):
        return 1
    return 0


def cmd_slice(args) -> int:
    from repro.staticdep.pdg import slice_report

    try:
        program = _load_program(args.target, args.scale)
        report = slice_report(program, args.pc, args.criterion)
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        print(
            "slice of pc %d (%s) in %s: %d instruction(s), %d load(s), "
            "ratio %.2f%s"
            % (
                report["criterion_pc"],
                report["criterion"],
                report["program"],
                report["cost"]["length"],
                report["cost"]["loads"],
                report["cost"]["ratio"],
                ", loop-carried" if report["loop_carried"] else "",
            )
        )
        for line in report["instructions"]:
            print("  %s" % line)
    return 0


def cmd_leakcheck(args) -> int:
    from repro.multiscalar.sanitizer import check_program_leaks

    try:
        secret_ranges = (
            None
            if args.secret_ranges is None
            else _parse_secret_ranges(args.secret_ranges)
        )
        program = _load_program(args.target, args.scale)
        result = check_program_leaks(
            program, secret_ranges=secret_ranges, policy=args.policy
        )
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    name = program.name or args.target
    if args.as_json:
        print(json.dumps({"target": name, **result.summary()}, indent=2))
    else:
        analysis, check = result.analysis, result.check
        counts = analysis.verdict_counts()
        print(
            "%s: policy=%s  verdicts: %d leak, %d gated, %d no-leak"
            % (name, result.policy, counts["leak"], counts["gated"],
               counts["no-leak"])
        )
        for verdict in analysis.leaks() + analysis.gated():
            sinks = ", ".join(
                "%s@%d" % (t.kind, t.pc) for t in verdict.transmitters
            ) or "none"
            print(
                "  %-6s store %d -> load %d  (%s; sinks: %s)"
                % (verdict.verdict.upper(), verdict.store_pc,
                   verdict.load_pc, verdict.reason, sinks)
            )
        sanitizer = result.sanitizer
        print(
            "dynamic: %d violation(s), %d transient secret read(s), "
            "%d transmitted" % (sanitizer.violations, len(sanitizer.events),
                                len(sanitizer.transmitted_pairs()))
        )
        for pair, count in sorted(sanitizer.pair_counts().items()):
            print("  observed store %d -> load %d: %d event(s)" % (
                pair[0], pair[1], count))
        if check.contradictions:
            for text in check.contradictions:
                print("CONTRADICTION: %s" % text, file=sys.stderr)
        print(
            "cross-check: %s  precision=%s recall=%s"
            % ("sound" if check.sound else "UNSOUND",
               "n/a" if check.precision is None else "%.2f" % check.precision,
               "n/a" if check.recall is None else "%.2f" % check.recall)
        )
    return 0 if result.clean else 1


def cmd_runs(args) -> int:
    """Inspect the run ledger: list, show one record, or diff two."""
    from datetime import datetime

    from repro.telemetry import (
        DEFAULT_LEDGER,
        RunLedger,
        diff_records,
        resolve_ledger_path,
    )

    path = resolve_ledger_path(args.ledger) or DEFAULT_LEDGER
    ledger = RunLedger(path)

    if args.action == "list":
        if args.ids:
            print("error: 'runs list' takes no run ids", file=sys.stderr)
            return 2
        records = ledger.records()
        shown = records if args.last <= 0 else records[-args.last:]
        if args.as_json:
            print(json.dumps(shown, indent=2))
            return 0
        if not records:
            print("no runs recorded in %s" % path)
            return 0
        print("%-12s %-10s %-19s %9s  %s" % ("id", "kind", "when", "wall", "config"))
        for record in shown:
            when = datetime.fromtimestamp(record.get("time", 0)).strftime(
                "%Y-%m-%d %H:%M:%S"
            )
            wall = record.get("wall_seconds")
            config = record.get("config") or {}
            print(
                "%-12s %-10s %-19s %9s  %s"
                % (
                    record["id"],
                    record.get("kind", "?"),
                    when,
                    "-" if wall is None else "%.2fs" % wall,
                    " ".join("%s=%s" % (k, config[k]) for k in sorted(config)),
                )
            )
        if len(shown) < len(records):
            print(
                "(%d older run(s) hidden; --last 0 shows all)"
                % (len(records) - len(shown))
            )
        return 0

    if args.action == "show":
        if len(args.ids) != 1:
            print("error: 'runs show' takes exactly one run id", file=sys.stderr)
            return 2
        record = ledger.get(args.ids[0])
        if record is None:
            print(
                "error: no run matching %r in %s" % (args.ids[0], path),
                file=sys.stderr,
            )
            return 2
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0

    # diff
    if len(args.ids) != 2:
        print("error: 'runs diff' takes exactly two run ids", file=sys.stderr)
        return 2
    pair = []
    for run_id in args.ids:
        record = ledger.get(run_id)
        if record is None:
            print(
                "error: no run matching %r in %s" % (run_id, path), file=sys.stderr
            )
            return 2
        pair.append(record)
    diff = diff_records(pair[0], pair[1])
    if args.as_json:
        print(json.dumps(diff, indent=2))
    else:
        print(
            "runs %s vs %s: %s"
            % (diff["a"], diff["b"], "identical" if diff["identical"] else "DIFFER")
        )
        for section in ("config", "fingerprints", "stats", "counters", "phases"):
            changed = diff[section]
            if not changed:
                continue
            print("%s:" % section)
            for key, entry in changed.items():
                delta = ""
                if "delta" in entry:
                    delta = "  (%+g)" % entry["delta"]
                print("  %-36s %s -> %s%s" % (key, entry["a"], entry["b"], delta))
    return 0 if diff["identical"] else 1


def _format_decision(decision) -> str:
    """One-cell summary of a policy's squash-time decision context."""
    if not isinstance(decision, dict):
        return "-"
    state = decision.get("pair_state")
    if not isinstance(state, dict):
        return decision.get("decision", "-")
    predicts = state.get("predicts_dependence")
    return "ctr=%s dist=%s predicts=%s" % (
        state.get("counter", "?"),
        state.get("distance", "?"),
        {True: "yes", False: "no"}.get(predicts, "?"),
    )


def cmd_explain(args) -> int:
    """Why did we squash? Per-pair causes vs the symbolic verdicts."""
    from repro.multiscalar.explain import explain_program

    try:
        program = _load_program(args.target, args.scale)
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = explain_program(program, policy=args.policy, stages=args.stages)
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
        return 1 if report.contradictions else 0

    stats = report.stats
    print(
        "%s under %s on %d stages: %s cycles, %s squash(es) over %d static pair(s)"
        % (
            report.program,
            report.policy.upper(),
            report.stages,
            stats.get("cycles", "?"),
            stats.get("mis_speculations", "?"),
            len(report.rows),
        )
    )
    if report.verdict_counts:
        print(
            "verdicts: "
            + "  ".join(
                "%s=%d" % (v, n) for v, n in sorted(report.verdict_counts.items())
            )
        )
    rows = report.top(args.top)
    if not rows:
        print("no squashes -- nothing to explain")
    else:
        print()
        print(
            "%-10s %-10s %8s %6s %8s %7s  %s"
            % ("store PC", "load PC", "squashes", "DIST", "verdict", "static", "last decision")
        )
        for row in rows:
            static = row.get("static_distance")
            print(
                "%-10d %-10d %8d %6d %8s %7s  %s"
                % (
                    row["store_pc"],
                    row["load_pc"],
                    row["squashes"],
                    row["modal_distance"],
                    row["verdict"],
                    "-" if static is None else static,
                    _format_decision(row.get("last_decision")),
                )
            )
        if len(report.rows) > len(rows):
            print(
                "(%d more pair(s); raise --top to see them)"
                % (len(report.rows) - len(rows))
            )
    for row in report.contradictions:
        print(
            "CONTRADICTION: pair (%d, %d) squashed %d time(s) but the "
            "symbolic analysis proved it non-aliasing"
            % (row["store_pc"], row["load_pc"], row["squashes"]),
            file=sys.stderr,
        )
    return 1 if report.contradictions else 0


def cmd_metrics_serve(args) -> int:
    """Serve a --metrics snapshot in Prometheus text format."""
    from repro.telemetry.prometheus import MetricsServer, to_prometheus

    def render() -> str:
        with open(args.snapshot) as fh:
            return to_prometheus(json.load(fh))

    try:
        text = render()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(
            "error: cannot render %s: %s" % (args.snapshot, exc), file=sys.stderr
        )
        return 2
    if args.once:
        sys.stdout.write(text)
        return 0
    server = MetricsServer(render, host=args.host, port=args.port)
    print(
        "serving %s at http://%s:%d/metrics (Ctrl-C to stop)"
        % (args.snapshot, args.host, server.port),
        file=sys.stderr,
    )
    try:
        if args.max_requests is not None:
            server.handle_requests(args.max_requests)
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _read_bench_history(path) -> list:
    out = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict):
                    out.append(entry)
    except OSError:
        pass
    return out


def _adaptive_of(results) -> Optional[dict]:
    """The adaptive-sweep record inside a benchmark results list."""
    for record in results or []:
        if isinstance(record, dict) and "adaptive" in record:
            return record["adaptive"]
    return None


#: minimum fraction of full-scale cell units the adaptive sweep must
#: save vs the exhaustive grid (the PR's measured claim, gated)
ADAPTIVE_SAVINGS_FLOOR = 0.60


def cmd_bench_report(args) -> int:
    """Benchmark trajectory + adaptive-sweep regression gate."""
    history = _read_bench_history(args.history)
    latest_results = None
    try:
        with open(args.results) as fh:
            payload = json.load(fh)
        latest_results = payload.get("results")
    except (OSError, ValueError, AttributeError):
        latest_results = None
    if latest_results is None and history:
        latest_results = history[-1].get("results")
    if latest_results is None and not history:
        print(
            "error: no benchmark data (looked for %s and %s); run "
            "'pytest benchmarks/ --benchmark-only' first"
            % (args.history, args.results),
            file=sys.stderr,
        )
        return 2

    regressions = []
    adaptive = _adaptive_of(latest_results)
    if adaptive is not None:
        savings = adaptive.get("savings")
        if savings is not None and savings < ADAPTIVE_SAVINGS_FLOOR:
            regressions.append(
                {
                    "leg": "adaptive-savings",
                    "measured": savings,
                    "floor": ADAPTIVE_SAVINGS_FLOOR,
                }
            )
        if adaptive.get("top1_match") is False:
            regressions.append(
                {"leg": "adaptive-top1", "measured": False, "floor": True}
            )

    trajectory = []
    for entry in history:
        trajectory.append(
            {
                "git_sha": entry.get("git_sha"),
                "time": entry.get("time"),
                "scale": entry.get("scale"),
                "benchmarks": len(entry.get("results") or []),
                "total_seconds": round(
                    sum(
                        r.get("seconds", 0.0)
                        for r in entry.get("results") or []
                        if isinstance(r, dict)
                    ),
                    3,
                ),
            }
        )

    if args.as_json:
        print(
            json.dumps(
                {
                    "history": trajectory,
                    "adaptive": adaptive,
                    "regressions": regressions,
                },
                indent=2,
            )
        )
        return 1 if regressions else 0

    from datetime import datetime

    if trajectory:
        print("benchmark history (%s):" % args.history)
        print("%-10s %-19s %-6s %6s %10s" % ("sha", "when", "scale", "n", "total"))
        for point in trajectory:
            when = (
                datetime.fromtimestamp(point["time"]).strftime("%Y-%m-%d %H:%M:%S")
                if point.get("time")
                else "-"
            )
            print(
                "%-10s %-19s %-6s %6d %9.1fs"
                % (
                    point.get("git_sha") or "-",
                    when,
                    point.get("scale") or "-",
                    point["benchmarks"],
                    point["total_seconds"],
                )
            )
    else:
        print("no benchmark history at %s" % args.history)
    if adaptive is None:
        print("no adaptive-sweep record in the latest results; regression check skipped")
        return 0
    print(
        "adaptive sweep: %.1f%% of full-scale units saved "
        "(%.2f vs %.0f exhaustive, floor %.0f%%), top-1 %s"
        % (
            100.0 * (adaptive.get("savings") or 0.0),
            adaptive.get("adaptive_units", 0.0),
            adaptive.get("exhaustive_units", 0.0),
            100.0 * ADAPTIVE_SAVINGS_FLOOR,
            "matches exhaustive"
            if adaptive.get("top1_match")
            else "DIVERGES from exhaustive",
        )
    )
    if regressions:
        for reg in regressions:
            print(
                "REGRESSION: %s measured %s, floor %s"
                % (reg["leg"], reg["measured"], reg["floor"]),
                file=sys.stderr,
            )
        return 1
    print("no regression: the adaptive sweep is within its floor")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the raw argv rides along for the run ledger (tests pass argv
    # explicitly, so sys.argv would be the test runner's)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    handler = {
        "workloads": cmd_workloads,
        "trace": cmd_trace,
        "simulate": cmd_simulate,
        "compare": cmd_compare,
        "experiment": cmd_experiment,
        "sweep": cmd_sweep,
        "worker": cmd_worker,
        "profile": cmd_profile,
        "staticdep": cmd_staticdep,
        "lint": cmd_lint,
        "pdg": cmd_pdg,
        "slice": cmd_slice,
        "leakcheck": cmd_leakcheck,
        "runs": cmd_runs,
        "explain": cmd_explain,
        "metrics-serve": cmd_metrics_serve,
        "bench-report": cmd_bench_report,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head); not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
