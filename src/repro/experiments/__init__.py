"""Experiment runners: one per table and figure of the paper."""

from repro.experiments import figures, tables
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
    workload_trace,
)

#: experiment id -> runner, for programmatic access to the whole set
#: (the CLI, report generator, and benchmarks all go through this table)
ALL_EXPERIMENTS = {
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
}

#: experiment id -> (cells, table) for the experiments that are views of
#: the shared simulation grid: ``cells(scale)`` declares the sweep cells
#: the experiment reads and ``table(stats)`` builds its table from their
#: stats.  Every other experiment runs as one whole ``experiment`` cell:
#: it reads no Multiscalar statistics, or it reads policy internals,
#: violation streams, or programs outside the workload registry.
GRID_EXPERIMENTS = {
    "figure5": (figures.figure5_cells, figures.figure5_table),
    "figure6": (figures.figure6_cells, figures.figure6_table),
    "figure7": (figures.figure7_cells, figures.figure7_table),
    "window-scaling": (figures.window_scaling_cells, figures.window_scaling_table),
    "table6": (tables.table6_cells, tables.table6_table),
    "table8": (tables.table8_cells, tables.table8_table),
    "table9": (tables.table9_cells, tables.table9_table),
}


def run_all(scale="test", experiments=None, executor=None):
    """Run experiments through the executor, each distinct cell once.

    The cells are the declared sweep cells of every requested grid
    experiment, listed once however many tables read them, plus one
    whole ``experiment`` cell per other experiment; one
    :meth:`~repro.experiments.executor.Executor.run` executes them all,
    then every table is assembled.

    Args:
        scale: workload scale for every cell.
        experiments: iterable of experiment ids (default: all of them).
        executor: the :class:`~repro.experiments.executor.Executor` to
            run on (default: an inline ``Executor()``); it says where
            cells run, where results are cached (a rerun of an
            interrupted run resumes from the cache), the per-cell
            timeout and retries, and the telemetry and progress sinks.

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

    keys = sorted(ALL_EXPERIMENTS) if experiments is None else list(experiments)
    unknown = [key for key in keys if key not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError("unknown experiment(s): %s" % ", ".join(sorted(unknown)))
    cells = experiment_cells(keys, scale)

    # the sweep cells' traces, warmed in the parent before a pool forks;
    # a whole cell interprets what it reads itself, once, in its worker
    workloads = {cell.param("workload") for cell in cells if cell.kind == "sweep"}

    def prewarm():
        for name in sorted(workloads):
            workload_trace(name, scale)

    report = (executor or Executor()).run(cells, prewarm=prewarm if workloads else None)
    return assemble_experiments(keys, report, scale), report


__all__ = [
    "ALL_EXPERIMENTS",
    "GRID_EXPERIMENTS",
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
