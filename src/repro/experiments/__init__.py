"""Experiment runners: one per table and figure of the paper."""

from repro.experiments.figures import (
    extension_window_scaling,
    figure5_policy_speedups,
    figure6_mechanism_speedups,
    figure7_spec95_speedups,
)
from repro.experiments.results import ExperimentTable
from repro.experiments.slicewarm import slice_warming
from repro.experiments.spectaint import spectaint_leakage
from repro.experiments.staticdep import staticdep_coverage, staticdep_symbolic
from repro.telemetry import PROFILER
from repro.experiments.sweeps import SweepPoint, SweepResult, sweep, sweep_cells
from repro.experiments.tables import (
    RecordingAlwaysPolicy,
    load_traces,
    table1_instruction_counts,
    table2_fu_latencies,
    table3_window_missspec,
    table4_static_coverage,
    table5_ddc_missrate,
    table6_multiscalar_missspec,
    table7_multiscalar_ddc,
    table8_prediction_breakdown,
    table9_missspec_rates,
)

def _profiled(key, runner):
    """Wrap a runner so its wall-clock breakdown rides on the table.

    Every invocation records an ``experiment:<key>`` scope on the
    module-level profiler and attaches the aggregate of all scopes the
    run produced (trace-gen, simulate, static-analysis, assembly
    remainder) as ``table.profile`` — which ``to_text``/``to_json``
    render, so the breakdown lands in EXPERIMENTS.md and ``--json``
    output with no further plumbing.
    """

    def run(scale="test", **kwargs):
        mark = PROFILER.mark()
        with PROFILER.scope("experiment:%s" % key):
            table = runner(scale, **kwargs)
        profile = PROFILER.summary(since=mark)
        total = profile["experiment:%s" % key]
        # only the experiment's direct children: a nested scope (such
        # as a policy's static analysis inside ``simulate``) is already
        # part of its parent's seconds
        records = PROFILER.records[mark:]
        depth = records[-1].depth + 1
        attributed = sum(r.seconds for r in records if r.depth == depth)
        remainder = round(total["seconds"] - attributed, 6)
        if remainder > 0:
            profile["assemble"] = {"calls": 1, "seconds": remainder}
        table.profile = profile
        return table

    run.__name__ = "profiled_%s" % runner.__name__
    run.__doc__ = runner.__doc__
    return run


#: experiment id -> profiled runner, for programmatic access to the
#: whole set (the CLI, report generator, and benchmarks all go through
#: this table, so every run carries its wall-clock profile)
ALL_EXPERIMENTS = {
    key: _profiled(key, runner)
    for key, runner in {
        "table1": table1_instruction_counts,
        "table2": table2_fu_latencies,
        "table3": table3_window_missspec,
        "table4": table4_static_coverage,
        "table5": table5_ddc_missrate,
        "table6": table6_multiscalar_missspec,
        "table7": table7_multiscalar_ddc,
        "table8": table8_prediction_breakdown,
        "table9": table9_missspec_rates,
        "figure5": figure5_policy_speedups,
        "figure6": figure6_mechanism_speedups,
        "figure7": figure7_spec95_speedups,
        "window-scaling": extension_window_scaling,
        "staticdep": staticdep_coverage,
        "staticdep-symbolic": staticdep_symbolic,
        "spectaint": spectaint_leakage,
        "slice-warming": slice_warming,
    }.items()
}

#: experiments that render configuration rather than simulate — they
#: need no interpreted traces, so the executor skips pre-warming for
#: them (spectaint builds its own leak programs instead of using the
#: workload suites, so it needs no pre-warmed traces either)
_NO_TRACE_EXPERIMENTS = frozenset({"table2", "spectaint"})


def run_all(
    parallel=None,
    scale="test",
    experiments=None,
    cache_dir=None,
    timeout=None,
    retries=1,
    metrics=None,
    trace=None,
    progress=None,
    backend=None,
):
    """Run experiments through the parallel executor.

    Args:
        parallel: worker processes (None/1 = inline in this process).
        scale: workload scale for every cell.
        experiments: iterable of experiment ids (default: all of them).
        cache_dir: content-addressed result cache directory; finished
            cells are written immediately and reloaded on re-invocation,
            so rerunning an interrupted run resumes it.
        timeout: per-cell wall-clock budget in seconds.
        retries: re-attempts per FAILED cell.
        metrics/trace: optional telemetry sinks for executor counters
            and the per-worker Chrome trace.
        progress: optional live-progress callback (see
            :mod:`repro.experiments.progress`).
        backend: where cells run — an
            :class:`~repro.experiments.backends.ExecutorBackend` or a
            backend name; None picks inline or the local process pool
            from *parallel*.

    Returns:
        ``(tables, report)`` — a dict of experiment id ->
        :class:`ExperimentTable` in sorted-key order (FAILED experiments
        degrade to placeholder tables instead of aborting the run), and
        the executor's :class:`~repro.experiments.executor.RunReport`.
    """
    from repro.experiments.executor import (
        Executor,
        assemble_experiments,
        experiment_cells,
    )
    from repro.experiments.tables import warm_traces

    keys = sorted(ALL_EXPERIMENTS) if experiments is None else list(experiments)
    unknown = [key for key in keys if key not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError("unknown experiment(s): %s" % ", ".join(sorted(unknown)))
    cells = experiment_cells(keys, scale)

    suites = set()
    for cell in cells:
        cell_suites = cell.param("suites")
        if cell_suites:
            suites.update(cell_suites)
        elif cell.name not in _NO_TRACE_EXPERIMENTS:
            suites.add("specint92")
    prewarm = (lambda: warm_traces(sorted(suites), scale)) if suites else None

    executor = Executor(
        jobs=parallel or 1,
        cache=cache_dir,
        timeout=timeout,
        retries=retries,
        metrics=metrics,
        trace=trace,
        prewarm=prewarm,
        progress=progress,
        backend=backend,
    )
    report = executor.run(cells)
    return assemble_experiments(keys, report), report


__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentTable",
    "RecordingAlwaysPolicy",
    "SweepPoint",
    "SweepResult",
    "extension_window_scaling",
    "slice_warming",
    "spectaint_leakage",
    "staticdep_coverage",
    "staticdep_symbolic",
    "sweep",
    "sweep_cells",
    "table2_fu_latencies",
    "figure5_policy_speedups",
    "figure6_mechanism_speedups",
    "figure7_spec95_speedups",
    "load_traces",
    "run_all",
    "table1_instruction_counts",
    "table3_window_missspec",
    "table4_static_coverage",
    "table5_ddc_missrate",
    "table6_multiscalar_missspec",
    "table7_multiscalar_ddc",
    "table8_prediction_breakdown",
    "table9_missspec_rates",
]
