"""The traced run: spans around each layer call and per-layer metrics.

The traced run is separate from the timed runs.  It sets a workload up
once, runs one untraced pass and one traced pass over its grid, then
probes every layer with the benchmark's own calls on the workload's
programs.  Each layer metric comes from those spans.  Host times of
in-process passes are at the reference speed of ``harness.SpeedGauge``;
those of probes and sweeps are raw.  ``LAYERS``
records which end-to-end metric each layer metric should move, and on
which workloads it should stay flat.
"""

from __future__ import annotations

import statistics

from repro.frontend import deserialize_trace, run_program, serialize_trace
from repro.staticdep.analysis import analyze_program_symbolic
from repro.staticdep.pdg import SliceBudget, build_pdg, extract_predictor_slices
from repro.telemetry import NULL_TRACE, MetricRegistry, Telemetry

from harness import add_cell_spans, shuffled, simulate

IN_PROCESS = ("fig5-stateless", "mech-spec95")
SWEEPS = ("sweep-cold", "sweep-warm-queuedir")
ALL = IN_PROCESS + SWEEPS

#: policy family of each policy the benchmark runs, and the policy a
#: probe runs for a family the workload's own grid leaves out
FAMILY_OF = {
    "never": "stateless",
    "always": "stateless",
    "wait": "stateless",
    "psync": "stateless",
    "esync": "mdpt",
    "storeset": "storeset",
    "sync_slice_warmed": "slice",
}
PROBE_POLICY = {
    "stateless": "always",
    "mdpt": "esync",
    "storeset": "storeset",
    "slice": "sync_slice_warmed",
}
PROBE_STAGES = 8


def _layer(moves=None, flat=(), note=None):
    return {"moves": moves or {}, "flat": flat, "note": note}


def _same(moves, workloads):
    return {w: moves for w in workloads}


_RUN_MOVES = "sim_kips, cell_ms_p50"
_NOT_MECH = ("fig5-stateless",) + SWEEPS
_EXECUTOR_MOVES = _same("sim_kips", SWEEPS)
_FRONTEND_MOVES = dict(_same("setup_s", IN_PROCESS), **{"sweep-cold": "cell_ms_p90, sim_kips"})
_INDEX_MOVES = dict(_same("setup_s, peak_rss_mb", IN_PROCESS), **_same("cell_ms_p90", SWEEPS))
_BASELINE = "baseline: moves nothing today (timed runs have metrics and tracing off)"
_MODELLED = "modelled: no host metric; a simulator-only change must leave this count identical"

#: What each per-layer metric of BENCHMARK.json should do, by name.
#: ``moves`` maps each workload the metric is exercised on to the
#: end-to-end metrics it should move there; ``flat`` lists workloads
#: where it should not move any end-to-end metric.
LAYERS = {
    "workloads.build_ms": _layer(_same("setup_s", ALL)),
    "frontend.interpret_kips": _layer(_FRONTEND_MOVES, ("sweep-warm-queuedir",)),
    "frontend.encode_mbps": _layer(_FRONTEND_MOVES, ("sweep-warm-queuedir",)),
    "frontend.decode_mbps": _layer({"sweep-warm-queuedir": "cell_ms_p90, sim_kips"}, IN_PROCESS),
    "frontend.index_kips": _layer(_INDEX_MOVES),
    "frontend.columns_kips": _layer(_INDEX_MOVES),
    "multiscalar.init_ms": _layer(_same("cell_ms_p50", SWEEPS)),
    "staticdep.symbolic_ms": _layer({"mech-spec95": "cell_ms_p90"}, _NOT_MECH),
    "staticdep.slices_ms": _layer({"mech-spec95": "cell_ms_p90"}, _NOT_MECH),
    "experiments.worker_start_ms": _layer(_EXECUTOR_MOVES, IN_PROCESS),
    "experiments.dispatch_gap_ms_p50": _layer(_EXECUTOR_MOVES, IN_PROCESS),
    "experiments.result_lag_ms_p50": _layer(_EXECUTOR_MOVES, IN_PROCESS),
    "experiments.worker_busy_ratio": _layer(_EXECUTOR_MOVES, IN_PROCESS),
    "experiments.queuedir.useful_exec_ratio": _layer(
        {"sweep-warm-queuedir": "sim_kips"}, ("sweep-cold",)
    ),
    "experiments.queuedir.reclaims": _layer({"sweep-warm-queuedir": "sim_kips"}, ("sweep-cold",)),
    "telemetry.metrics_overhead": _layer(note=_BASELINE),
    "trace_overhead": _layer(note=_BASELINE),
    "multiscalar.useful_issue_ratio": _layer(flat=ALL, note=_MODELLED),
    "multiscalar.misspec_per_kload": _layer(flat=ALL, note=_MODELLED),
    "core.sync_useful_ratio": _layer(flat=ALL, note=_MODELLED),
    "core.mdpt.evictions": _layer(flat=ALL, note=_MODELLED),
    "memsys.dcache_miss_ratio": _layer(flat=ALL, note=_MODELLED),
}
for _family, _on, _flat in (
    ("stateless", "fig5-stateless", "mech-spec95"),
    ("mdpt", "mech-spec95", "fig5-stateless"),
    ("storeset", "mech-spec95", "fig5-stateless"),
    ("slice", "mech-spec95", "fig5-stateless"),
):
    for _kind in ("run_kips", "ns_per_issue"):
        LAYERS["multiscalar.%s.%s" % (_kind, _family)] = _layer({_on: _RUN_MOVES}, (_flat,))


def expectation(name, workload):
    """What per-layer metric *name* should move on *workload*, as printed."""
    layer = LAYERS[name]
    if workload in layer["moves"]:
        return "-> " + layer["moves"][workload]
    if layer["note"]:
        return layer["note"]
    if workload in layer["flat"]:
        return "flat here"
    return "no prediction here"


def _ratio(num, den):
    return num / den if den else 0.0


def _median_ms(values):
    return 1000.0 * statistics.median(values) if values else 0.0


def _kips(instructions, seconds):
    return _ratio(instructions, seconds) / 1000.0


def _duration(span):
    return span["end"] - span["start"]


def probe_programs(workload, spans, parent):
    """The benchmark's own calls into workloads, frontend and staticdep.

    Returns one fresh decoded trace per program (index not yet built),
    for the family probes.
    """
    fresh = []
    budget = SliceBudget()
    for member in workload.members:
        cell = member.name
        with spans.span("workloads.build", parent, cell):
            program = member.program(workload.scale)
        with spans.span("frontend.interpret", parent, cell) as sid:
            trace = run_program(program)
        spans.spans[sid]["attrs"]["entries"] = len(trace)
        with spans.span("frontend.encode", parent, cell) as sid:
            blob = serialize_trace(trace)
        spans.spans[sid]["attrs"]["bytes"] = len(blob)
        with spans.span("frontend.decode", parent, cell, bytes=len(blob)):
            decoded = deserialize_trace(blob, program)
        with spans.span("frontend.index", parent, cell, entries=len(decoded)):
            decoded.index()
        with spans.span("frontend.columns", parent, cell, entries=len(decoded)):
            decoded.columns()
        with spans.span("staticdep.symbolic", parent, cell):
            analysis = analyze_program_symbolic(program)
        with spans.span("staticdep.slices", parent, cell):
            extract_predictor_slices(build_pdg(program, analysis=analysis), budget)
        fresh.append((member.name, deserialize_trace(blob, program)))
    return fresh


def probe_families(fresh, families, spans, parent, with_metrics=False):
    """Probe cells: one per program and family, on fresh traces.

    The first probe cell on each trace builds its index inside
    ``MultiscalarSimulator(...)``, as a sweep worker's first cell does.
    *with_metrics* repeats each program's cells with a live
    ``MetricRegistry`` right after them, so the two sets run within a
    second of each other, at nearly the same machine speed.  Returns
    the simulators of the plain cells, for the modelled counts.
    """
    kinds = ("probe.cell", "probe.cell.metrics") if with_metrics else ("probe.cell",)
    sims = []
    for name, trace in fresh:
        for kind in kinds:
            for family in families:
                policy = PROBE_POLICY[family]
                cell = "%s/%d/%s" % (name, PROBE_STAGES, policy)
                tel = None
                if kind == "probe.cell.metrics":
                    tel = Telemetry(metrics=MetricRegistry(), trace=NULL_TRACE)
                sim, marks = simulate(trace, PROBE_STAGES, policy, tel)
                add_cell_spans(spans, kind, marks, parent, cell, policy, sim.stats)
                if tel is None:
                    sims.append(sim)
    return sims


def _frontend_metrics(spans, parent):
    def total(name, attr):
        chosen = [s for s in spans.named(name) if s["parent"] == parent]
        size = sum(s["attrs"].get(attr, 0) for s in chosen)
        return size, sum(_duration(s) for s in chosen), len(chosen)

    out = {}
    _, seconds, _ = total("workloads.build", "")
    out["workloads.build_ms"] = 1000.0 * seconds
    entries, seconds, _ = total("frontend.interpret", "entries")
    out["frontend.interpret_kips"] = _kips(entries, seconds)
    size, seconds, _ = total("frontend.encode", "bytes")
    out["frontend.encode_mbps"] = _ratio(size, seconds) / 1e6
    size, seconds, _ = total("frontend.decode", "bytes")
    out["frontend.decode_mbps"] = _ratio(size, seconds) / 1e6
    entries, seconds, _ = total("frontend.index", "entries")
    out["frontend.index_kips"] = _kips(entries, seconds)
    entries, seconds, _ = total("frontend.columns", "entries")
    out["frontend.columns_kips"] = _kips(entries, seconds)
    _, seconds, count = total("staticdep.symbolic", "")
    out["staticdep.symbolic_ms"] = 1000.0 * _ratio(seconds, count)
    _, seconds, count = total("staticdep.slices", "")
    out["staticdep.slices_ms"] = 1000.0 * _ratio(seconds, count)
    return out


def _children(spans, name, parent_name):
    return [s for s in spans.named(name) if spans.spans[s["parent"]]["name"] == parent_name]


def _run_metrics(run_spans, families, factor=1.0):
    """run_kips and ns_per_issue per policy family, from run spans."""
    out = {}
    for family in families:
        chosen = [s for s in run_spans if FAMILY_OF[s["attrs"]["policy"]] == family]
        seconds = factor * sum(_duration(s) for s in chosen)
        committed = sum(s["attrs"]["committed"] for s in chosen)
        issued = committed + sum(s["attrs"]["squashed"] for s in chosen)
        out["multiscalar.run_kips." + family] = _kips(committed, seconds)
        out["multiscalar.ns_per_issue." + family] = 1e9 * _ratio(seconds, issued)
    return out


def _executor_metrics(result):
    """Executor-layer metrics of one pass, from outside the workers.

    In-process, the one worker is this process, and the gap between
    two cells holds the speed gauge's reference loop.
    """
    by_worker = {}
    for record in result.records:
        by_worker.setdefault(record.worker, []).append(record)
    starts, gaps = [], []
    for records in by_worker.values():
        records.sort(key=lambda r: r.started)
        starts.append(records[0].started - result.wall_start)
        gaps += [b.started - a.finished for a, b in zip(records, records[1:])]
    lags = [r.delivered - r.finished for r in result.records if r.delivered is not None]
    busy = sum(r.seconds for r in result.records)
    executions = result.executions
    if executions is None:
        executions = sum(r.attempts for r in result.records)
    return {
        "experiments.worker_start_ms": 1000.0 * result.factor * statistics.mean(starts),
        "experiments.dispatch_gap_ms_p50": result.factor * _median_ms(gaps),
        "experiments.result_lag_ms_p50": result.factor * _median_ms(lags),
        "experiments.worker_busy_ratio": _ratio(busy, len(by_worker) * result.seconds),
        "experiments.queuedir.useful_exec_ratio": _ratio(len(result.records), executions),
        "experiments.queuedir.reclaims": result.reclaims,
    }


def _modelled_metrics(sims):
    committed = squashed = misspec = loads = yy = yn = evictions = misses = accesses = 0
    for sim in sims:
        stats = sim.stats
        committed += stats.committed_instructions
        squashed += stats.squashed_instructions
        misspec += stats.mis_speculations
        loads += stats.committed_loads
        engine = getattr(sim.policy, "engine", None)
        if engine is not None:
            yy += stats.breakdown.yy
            yn += stats.breakdown.yn
            evictions += engine.mdpt.evictions
        misses += sim.cache.misses
        accesses += sim.cache.accesses
    return {
        "multiscalar.useful_issue_ratio": _ratio(committed, committed + squashed),
        "multiscalar.misspec_per_kload": 1000.0 * _ratio(misspec, loads),
        "core.sync_useful_ratio": _ratio(yy, yy + yn),
        "core.mdpt.evictions": evictions,
        "memsys.dcache_miss_ratio": _ratio(misses, accesses),
    }


def _pass_seconds(result):
    """A pass's summed cell latency, at the reference speed in-process."""
    return sum(r.seconds * r.factor for r in result.records)


def _pass_kips(result):
    return _kips(sum(r.instructions for r in result.records), result.factor * result.seconds)


def traced_run(workload, workdir, rng, spans):
    """Run *workload* traced; returns (per-layer metrics, checked cell records)."""
    with spans.span("setup") as sid:
        state = workload.setup(workdir, spans, sid)
    untraced = workload.run_pass(state, shuffled(workload.cells, rng))
    order = shuffled(workload.cells, rng)
    traced = workload.run_pass(state, order, spans=spans)
    records = untraced.records + traced.records

    own = {FAMILY_OF[cell[-1]] for cell in workload.cells} if workload.in_process else set()
    families = [f for f in PROBE_POLICY if f not in own]
    with spans.span("probe") as probe_id:
        fresh = probe_programs(workload, spans, probe_id)
        probe_sims = probe_families(
            fresh, families, spans, probe_id, with_metrics=not workload.in_process
        )

    metrics = _frontend_metrics(spans, probe_id)
    metrics.update(_run_metrics(_children(spans, "multiscalar.run", "cell"), own, traced.factor))
    metrics.update(_run_metrics(_children(spans, "multiscalar.run", "probe.cell"), families))
    # in-process cells find the index built by set-up; sweep cells build
    # it in their first cell, which the probes on fresh traces mirror
    if workload.in_process:
        init, factor = _children(spans, "multiscalar.init", "cell"), traced.factor
    else:
        init, factor = _children(spans, "multiscalar.init", "probe.cell"), 1.0
    metrics["multiscalar.init_ms"] = 1000.0 * factor * statistics.mean(map(_duration, init))
    metrics.update(_executor_metrics(traced))
    metrics["trace_overhead"] = _ratio(_pass_kips(traced), _pass_kips(untraced))

    # the same cells again with a live MetricRegistry, against no registry
    if workload.in_process:
        telemetry = Telemetry(metrics=MetricRegistry(), trace=NULL_TRACE)
        with_metrics = workload.run_pass(state, order, telemetry=telemetry)
        records += with_metrics.records
        overhead = _ratio(_pass_seconds(with_metrics), _pass_seconds(untraced))
        sims = traced.sims + probe_sims
    else:
        runs = {
            kind: sum(map(_duration, _children(spans, "multiscalar.run", kind)))
            for kind in ("probe.cell", "probe.cell.metrics")
        }
        overhead = _ratio(runs["probe.cell.metrics"], runs["probe.cell"])
        sims = probe_sims
    metrics["telemetry.metrics_overhead"] = overhead
    # the modelled counts cover the workload's own cells and the probes
    metrics.update(_modelled_metrics(sims))
    return metrics, records
