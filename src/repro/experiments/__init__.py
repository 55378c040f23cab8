"""Experiment runners: one per table and figure of the paper.

The package-level names load their module on first access (a PEP 562
module ``__getattr__``), so importing the executor, the sweeps or a
backend to run sweep cells loads no table or figure runner, nor the
static analysis, oracle and sanitizer code those runners call.
"""

from importlib import import_module
from typing import TYPE_CHECKING

from repro._lazy import lazy_names

if TYPE_CHECKING:
    from typing import Callable, Dict, List, Tuple

    from repro.experiments import executor
    from repro.experiments.executor import workload_trace
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

    ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentTable]]
    GRID_EXPERIMENTS: Dict[
        str, Tuple[Callable[..., List[executor.Cell]], Callable[..., ExperimentTable]]
    ]

#: experiment id -> (module, runner), in the order of ALL_EXPERIMENTS
_RUNNERS = {
    "table1": ("tables", "table1_instruction_counts"),
    "table2": ("tables", "table2_fu_latencies"),
    "table3": ("tables", "table3_window_missspec"),
    "table4": ("tables", "table4_static_coverage"),
    "table5": ("tables", "table5_ddc_missrate"),
    "table6": ("tables", "table6_multiscalar_missspec"),
    "table7": ("tables", "table7_multiscalar_ddc"),
    "table8": ("tables", "table8_prediction_breakdown"),
    "table9": ("tables", "table9_missspec_rates"),
    "figure5": ("figures", "figure5_policy_speedups"),
    "figure6": ("figures", "figure6_mechanism_speedups"),
    "figure7": ("figures", "figure7_spec95_speedups"),
    "window-scaling": ("figures", "extension_window_scaling"),
    "staticdep": ("staticdep", "staticdep_coverage"),
    "staticdep-symbolic": ("staticdep", "staticdep_symbolic"),
    "spectaint": ("spectaint", "spectaint_leakage"),
    "slice-warming": ("slicewarm", "slice_warming"),
}

#: every experiment id, known without importing a runner
EXPERIMENT_IDS = tuple(_RUNNERS)

#: experiment id -> (module, cells, table) for the experiments that are
#: views of the shared simulation grid: ``cells(scale)`` declares the
#: sweep cells the experiment reads and ``table(stats)`` builds its
#: table from their stats.  Every other experiment runs as one whole
#: ``experiment`` cell: it reads no Multiscalar statistics, or it reads
#: policy internals, violation streams, or programs outside the
#: workload registry.
_GRID = {
    "figure5": ("figures", "figure5_cells", "figure5_table"),
    "figure6": ("figures", "figure6_cells", "figure6_table"),
    "figure7": ("figures", "figure7_cells", "figure7_table"),
    "window-scaling": ("figures", "window_scaling_cells", "window_scaling_table"),
    "table6": ("tables", "table6_cells", "table6_table"),
    "table8": ("tables", "table8_cells", "table8_table"),
    "table9": ("tables", "table9_cells", "table9_table"),
}

#: each runner and every other lazily loaded name -> its module
_LAZY = {runner: module for module, runner in _RUNNERS.values()}
_LAZY.update(
    ExperimentTable="results",
    SweepPoint="sweeps",
    SweepResult="sweeps",
    load_traces="tables",
    sweep="sweeps",
    sweep_cells="sweeps",
    workload_trace="executor",
)


def _load(module, name):
    return getattr(import_module("repro.experiments." + module), name)


def _all_experiments():
    # experiment id -> runner, for programmatic access to the whole set
    # (the CLI, report generator, and benchmarks all go through it)
    return {key: _load(*runner) for key, runner in _RUNNERS.items()}


def _grid_experiments():
    return {
        key: (_load(module, cells), _load(module, table))
        for key, (module, cells, table) in _GRID.items()
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
        workload_trace,
    )

    keys = sorted(EXPERIMENT_IDS) if experiments is None else list(experiments)
    unknown = [key for key in keys if key not in _RUNNERS]
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


__getattr__, __all__ = lazy_names(
    __name__,
    globals(),
    _LAZY,
    eager=("EXPERIMENT_IDS", "run_all"),
    computed={"ALL_EXPERIMENTS": _all_experiments, "GRID_EXPERIMENTS": _grid_experiments},
)
