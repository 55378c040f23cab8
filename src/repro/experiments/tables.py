"""Runners for the paper's tables (1, 3-9).

Each function regenerates one table over the synthetic workload suites.
Absolute values differ from the paper (the substrate is synthetic — see
DESIGN.md), but each runner's docstring states the *shape* the paper
reports, which the test suite asserts.

Tables 6, 8 and 9 are views of the shared SPECint92 simulation grid:
each is split into a ``*_cells`` function that declares the sweep cells
it reads and a pure ``*_table`` function that builds the table from
their stats (see :func:`repro.experiments.sweeps.run_grid`).
"""

from __future__ import annotations

from repro.experiments.executor import workload_trace
from repro.experiments.results import ExperimentTable
from repro.experiments.sweeps import run_grid, sweep_cells
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, SquashLedger
from repro.oracle import (
    PAPER_DDC_SIZES_MULTISCALAR,
    PAPER_DDC_SIZES_OOO,
    PAPER_WINDOW_SIZES,
    analyze_window,
    simulate_ddc_sizes,
)
from repro.telemetry import PROFILER
from repro.workloads import suite

#: The benchmark suite of the paper's Tables 3-9 experiments.
SPECINT92 = "specint92"


def load_traces(suite_name=SPECINT92, scale="test"):
    """A suite's traces by workload name, through :func:`workload_trace`."""
    return {w.name: workload_trace(w.name, scale) for w in suite(suite_name)}


def suite_names(suite_name=SPECINT92):
    """A suite's workload names in sorted order, without interpreting."""
    return sorted(w.name for w in suite(suite_name))


def table1_instruction_counts(scale="test", suites=("specint92", "specint95", "specfp95")):
    """Table 1: committed dynamic instruction counts per benchmark."""
    table = ExperimentTable(
        "table1",
        "dynamic committed instruction counts per benchmark",
        ["benchmark", "suite", "instructions", "loads", "stores", "tasks"],
    )
    for suite_name in suites:
        for name, trace in sorted(load_traces(suite_name, scale).items()):
            s = trace.summary()
            table.add_row(
                name, suite_name, s["instructions"], s["loads"], s["stores"], s["tasks"]
            )
    table.notes.append("synthetic workloads at scale %r (see DESIGN.md)" % (scale,))
    return table


def table2_fu_latencies(scale=None):
    """Table 2: functional-unit latencies (machine configuration).

    Not an experiment but part of the paper's reported setup; rendered
    so the full table/figure index is regenerable.  *scale* is accepted
    and ignored for interface uniformity.
    """
    from repro.multiscalar.config import FU_COUNTS, FU_LATENCIES

    table = ExperimentTable(
        "table2",
        "functional unit latencies and counts per processing unit",
        ["functional unit", "latency (cycles)", "units"],
    )
    for cls in sorted(FU_LATENCIES, key=lambda c: c.value):
        table.add_row(cls.value, FU_LATENCIES[cls], FU_COUNTS[cls])
    return table


def table3_window_missspec(scale="test", window_sizes=PAPER_WINDOW_SIZES):
    """Table 3: unrealistic OoO model — dynamic mis-speculations vs
    window size.  Paper shape: counts grow sharply with the window."""
    table = ExperimentTable(
        "table3",
        "unrealistic OoO model: mis-speculations vs window size",
        ["WS"] + [name for name in sorted(load_traces(SPECINT92, scale))],
    )
    traces = load_traces(SPECINT92, scale)
    names = sorted(traces)
    for ws in window_sizes:
        row = [ws]
        for name in names:
            with PROFILER.scope("window-analysis"):
                result = analyze_window(traces[name], ws)
            row.append(result.mis_speculations)
        table.add_row(*row)
    return table


def table4_static_coverage(scale="test", window_sizes=PAPER_WINDOW_SIZES, coverage=0.999):
    """Table 4: number of static dependences responsible for 99.9% of
    mis-speculations.  Paper shape: few static pairs dominate; more
    pairs become exposed as the window grows."""
    traces = load_traces(SPECINT92, scale)
    names = sorted(traces)
    table = ExperimentTable(
        "table4",
        "static dependences covering %.1f%% of mis-speculations" % (100 * coverage),
        ["WS"] + names,
    )
    for ws in window_sizes:
        row = [ws]
        for name in names:
            with PROFILER.scope("window-analysis"):
                result = analyze_window(traces[name], ws)
            row.append(result.pairs_for_coverage(coverage))
        table.add_row(*row)
    return table


def table5_ddc_missrate(scale="test", window_sizes=(128, 256, 512), ddc_sizes=PAPER_DDC_SIZES_OOO):
    """Table 5: DDC miss rate (percent) as a function of window size and
    DDC size under the unrealistic OoO model.  Paper shape: moderate
    DDC sizes capture most dependences (low miss rates)."""
    traces = load_traces(SPECINT92, scale)
    names = sorted(traces)
    table = ExperimentTable(
        "table5",
        "unrealistic OoO model: DDC miss rate (%)",
        ["WS", "CS"] + names,
    )
    for ws in window_sizes:
        with PROFILER.scope("window-analysis"):
            events = {name: analyze_window(traces[name], ws).events for name in names}
        for cs in ddc_sizes:
            row = [ws, cs]
            for name in names:
                results = simulate_ddc_sizes(events[name], (cs,))
                row.append(round(results[cs].miss_rate_percent, 2))
            table.add_row(*row)
    return table


def table6_cells(scale="test", stage_counts=(4, 8)):
    return sweep_cells(suite_names(), ("always",), {"stages": stage_counts}, scale)


def table6_table(stats, stage_counts=(4, 8)):
    names = suite_names()
    table = ExperimentTable(
        "table6",
        "Multiscalar model: mis-speculations under blind speculation",
        ["stages"] + names,
    )
    for stages in stage_counts:
        table.add_row(
            stages, *(stats(name, "always", stages).mis_speculations for name in names)
        )
    return table


def table6_multiscalar_missspec(scale="test", stage_counts=(4, 8)):
    """Table 6: Multiscalar model — mis-speculations under blind
    speculation.  Paper shape: more mis-speculations at 8 stages than 4
    (a larger window exposes more dependences)."""
    return run_grid(table6_cells, table6_table, scale, stage_counts=stage_counts)


def table7_multiscalar_ddc(scale="test", stages=8, ddc_sizes=PAPER_DDC_SIZES_MULTISCALAR):
    """Table 7: DDC miss rates over the 8-stage Multiscalar
    mis-speculation stream.  Paper shape: a 64-entry DDC already has a
    miss rate below ~10% for all benchmarks."""
    traces = load_traces(SPECINT92, scale)
    names = sorted(traces)
    table = ExperimentTable(
        "table7",
        "%d-stage Multiscalar: DDC miss rates (%%) vs DDC size" % stages,
        ["CS"] + names,
    )
    # each benchmark's mis-speculation stream under blind speculation:
    # static (store PC, load PC) pairs in detection order
    event_streams = {}
    for name in names:
        ledger = SquashLedger()
        sim = MultiscalarSimulator(
            traces[name], MultiscalarConfig(stages=stages), observers=[ledger]
        )
        with PROFILER.scope("simulate"):
            sim.run()
        event_streams[name] = [(c["store_pc"], c["load_pc"]) for c in ledger.causes]
    for cs in ddc_sizes:
        row = [cs]
        for name in names:
            results = simulate_ddc_sizes(event_streams[name], (cs,))
            row.append(round(results[cs].miss_rate_percent, 2))
        table.add_row(*row)
    table.notes.append(
        "empty streams report 0%: a benchmark with no mis-speculations has no DDC accesses"
    )
    return table


def table8_cells(scale="test", stages=4, predictors=("sync", "esync")):
    return sweep_cells(suite_names(), predictors, {"stages": (stages,)}, scale)


def table8_table(stats, stages=4, predictors=("sync", "esync")):
    names = suite_names()
    table = ExperimentTable(
        "table8",
        "%d-stage Multiscalar: dependence prediction breakdown (%%)" % stages,
        ["predictor", "P/A"] + names,
    )
    for predictor in predictors:
        breakdowns = {
            name: stats(name, predictor, stages).breakdown.percentages()
            for name in names
        }
        for bucket, label in (("nn", "N/N"), ("ny", "N/Y"), ("yn", "Y/N"), ("yy", "Y/Y")):
            row = [predictor.upper(), label]
            for name in names:
                row.append(round(breakdowns[name][bucket], 2))
            table.add_row(*row)
    return table


def table8_prediction_breakdown(scale="test", stages=4, predictors=("sync", "esync")):
    """Table 8: dependence-prediction breakdown (percent of dynamic
    predictions in each predicted/actual bucket).  Paper shape: N/N
    dominates; ESYNC converts SYNC's false dependence predictions (Y/N)
    into correct no-dependence predictions for path-dependent programs
    (compress)."""
    return run_grid(
        table8_cells, table8_table, scale, stages=stages, predictors=predictors
    )


def table9_cells(scale="test", stage_counts=(4, 8), predictor="esync"):
    return sweep_cells(suite_names(), ("always", predictor), {"stages": stage_counts}, scale)


def table9_table(stats, stage_counts=(4, 8), predictor="esync"):
    names = suite_names()
    table = ExperimentTable(
        "table9",
        "mis-speculations per committed load: ALWAYS vs mechanism (%s)" % predictor.upper(),
        ["stages", "policy"] + names,
    )
    for stages in stage_counts:
        for policy_name in ("always", predictor):
            row = [stages, policy_name.upper()]
            for name in names:
                rate = stats(name, policy_name, stages).mis_speculations_per_committed_load
                row.append(round(rate, 5))
            table.add_row(*row)
    return table


def table9_missspec_rates(scale="test", stage_counts=(4, 8), predictor="esync"):
    """Table 9: mis-speculations per committed load, blind speculation
    versus the mechanism.  Paper shape: the mechanism reduces the rate
    by roughly an order of magnitude, typically below 1%."""
    return run_grid(
        table9_cells, table9_table, scale, stage_counts=stage_counts, predictor=predictor
    )
