"""Runners for the paper's figures (5, 6, 7).

The figures report percent speedups between speculation policies on
Multiscalar configurations.  As with the tables, absolute numbers
differ from the paper (synthetic workloads), but the orderings the
paper argues from are reproduced — see each docstring.

Every figure is a view of the shared simulation grid: a ``*_cells``
function declares the sweep cells it reads, and a pure ``*_table``
function builds the table from their stats (see
:func:`repro.experiments.sweeps.run_grid`).
"""

from __future__ import annotations

from repro.core.stats import speedup
from repro.experiments.results import ExperimentTable
from repro.experiments.sweeps import run_grid, sweep_cells
from repro.experiments.tables import suite_names

_FIGURE5_POLICIES = ("never", "always", "wait", "psync")
_FIGURE6_POLICIES = ("always", "sync", "esync", "psync")
_FIGURE7_POLICIES = ("always", "esync", "psync")


def _speedup_table(stats, table, policies, stage_counts):
    """Rows of *policies[1:]* speedups over *policies[0]*, plus its IPC."""
    for stages in stage_counts:
        for name in suite_names():
            base = stats(name, policies[0], stages)
            row = [stages, name, round(base.ipc, 2)]
            for policy_name in policies[1:]:
                row.append(round(speedup(base, stats(name, policy_name, stages)), 1))
            table.add_row(*row)
    return table


def figure5_cells(scale="test", stage_counts=(4, 8)):
    return sweep_cells(suite_names(), _FIGURE5_POLICIES, {"stages": stage_counts}, scale)


def figure5_table(stats, stage_counts=(4, 8)):
    table = ExperimentTable(
        "figure5",
        "policy speedups (%) over NEVER, plus NEVER IPC",
        ["stages", "benchmark", "never_ipc", "ALWAYS", "WAIT", "PSYNC"],
    )
    return _speedup_table(stats, table, _FIGURE5_POLICIES, stage_counts)


def figure5_policy_speedups(scale="test", stage_counts=(4, 8)):
    """Figure 5: ALWAYS / WAIT / PSYNC speedups relative to NEVER.

    Paper shape: blind speculation (ALWAYS) significantly outperforms
    no speculation; PSYNC always at least matches ALWAYS and the gap
    grows with the window (8 vs 4 stages); selective WAIT loses to
    blind speculation for compress and sc.
    """
    return run_grid(figure5_cells, figure5_table, scale, stage_counts=stage_counts)


def figure6_cells(scale="test", stage_counts=(4, 8)):
    return sweep_cells(suite_names(), _FIGURE6_POLICIES, {"stages": stage_counts}, scale)


def figure6_table(stats, stage_counts=(4, 8)):
    table = ExperimentTable(
        "figure6",
        "mechanism speedups (%) over blind speculation (ALWAYS)",
        ["stages", "benchmark", "always_ipc", "SYNC", "ESYNC", "PSYNC"],
    )
    return _speedup_table(stats, table, _FIGURE6_POLICIES, stage_counts)


def figure6_mechanism_speedups(scale="test", stage_counts=(4, 8)):
    """Figure 6: SYNC / ESYNC / PSYNC speedups relative to ALWAYS
    (SPECint92).

    Paper shape: ESYNC never loses to SYNC and approaches PSYNC; SYNC
    underperforms on compress, whose dependences are path dependent
    (false dependence predictions).
    """
    return run_grid(figure6_cells, figure6_table, scale, stage_counts=stage_counts)


def window_scaling_cells(scale="test", stage_counts=(2, 4, 8, 16)):
    return sweep_cells(suite_names(), ("always", "psync"), {"stages": stage_counts}, scale)


def window_scaling_table(stats, stage_counts=(2, 4, 8, 16)):
    names = suite_names()
    table = ExperimentTable(
        "extension-window-scaling",
        "PSYNC speedup (%) over ALWAYS as the window grows",
        ["stages"] + names + ["mean"],
    )
    for stages in stage_counts:
        gaps = [
            round(speedup(stats(name, "always", stages), stats(name, "psync", stages)), 1)
            for name in names
        ]
        table.add_row(stages, *gaps, round(sum(gaps) / len(gaps), 1))
    return table


def extension_window_scaling(scale="test", stage_counts=(2, 4, 8, 16)):
    """Extension: the paper's central claim swept further.

    Section 2 argues that as dynamically scheduled processors establish
    wider windows, the net loss of blind speculation grows.  The paper
    demonstrates 4 vs 8 stages; this extension sweeps 2..16 and reports
    the PSYNC-over-ALWAYS gap per window size (it should widen
    monotonically on speculation-sensitive workloads).
    """
    return run_grid(
        window_scaling_cells, window_scaling_table, scale, stage_counts=stage_counts
    )


def figure7_cells(scale="test", stages=8, suites=("specint95", "specfp95")):
    names = [name for suite_name in suites for name in suite_names(suite_name)]
    return sweep_cells(names, _FIGURE7_POLICIES, {"stages": (stages,)}, scale)


def figure7_table(stats, stages=8, suites=("specint95", "specfp95")):
    table = ExperimentTable(
        "figure7",
        "%d-stage Multiscalar, SPEC95: speedups (%%) over ALWAYS" % stages,
        ["benchmark", "suite", "esync_ipc", "ESYNC", "PSYNC"],
    )
    for suite_name in suites:
        for name in suite_names(suite_name):
            base, esync, psync = (stats(name, p, stages) for p in _FIGURE7_POLICIES)
            table.add_row(
                name,
                suite_name,
                round(esync.ipc, 2),
                round(speedup(base, esync), 1),
                round(speedup(base, psync), 1),
            )
    return table


def figure7_spec95_speedups(scale="test", stages=8, suites=("specint95", "specfp95")):
    """Figure 7: ESYNC and PSYNC speedups over ALWAYS for the SPEC95
    suites on an 8-stage Multiscalar, plus the ESYNC IPC.

    Paper shape: appreciable gains for most SPECint95 programs with
    ESYNC close to ideal for m88ksim/compress/li; streaming FP codes
    (swim, mgrid, turb3d) gain nothing; su2cor and fpppp fall well
    short of the ideal because their dependence working sets exceed
    the prediction structures.

    *suites* restricts the run to a subset.
    """
    return run_grid(figure7_cells, figure7_table, scale, stages=stages, suites=suites)
