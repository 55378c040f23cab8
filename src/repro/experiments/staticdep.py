"""Static-analysis experiment: the compile-time counterpart of Table 4.

The paper's Table 4 counts how many *dynamically discovered* static
pairs cover 99.9% of mis-speculations.  This runner asks the inverse
question: how well does a purely static enumeration of candidate pairs
(:mod:`repro.staticdep`) agree with the dynamic oracle?  Recall must be
1.0 everywhere — the analysis is a conservative over-approximation —
while precision measures how much of the static set is alias noise a
dynamic predictor would never allocate an MDPT entry for.
"""

from __future__ import annotations

from repro.experiments.results import ExperimentTable
from repro.frontend import cached_run_program
from repro.multiscalar.config import MultiscalarConfig
from repro.multiscalar.policies import make_policy
from repro.multiscalar.processor import simulate
from repro.oracle.profiles import profile_dependences
from repro.staticdep import (
    analyze_program,
    analyze_program_symbolic,
    cross_check,
)
from repro.telemetry import PROFILER
from repro.workloads import suite


def staticdep_coverage(scale="test", suites=("specint92", "micro")):
    """Static candidate pairs vs the dynamic oracle, per workload."""
    table = ExperimentTable(
        "staticdep",
        "static dependence analysis vs dynamic oracle (Table 4 static analogue)",
        [
            "benchmark",
            "suite",
            "static pairs",
            "dynamic pairs",
            "precision",
            "recall",
            "coverage",
        ],
    )
    for suite_name in suites:
        for workload in suite(suite_name):
            program = workload.program(scale)
            with PROFILER.scope("static-analysis"):
                analysis = analyze_program(program)
            with PROFILER.scope("trace-gen"):
                trace = cached_run_program(program)
            result = cross_check(trace, analysis)
            table.add_row(
                workload.name,
                suite_name,
                len(result.static_pairs),
                len(result.dynamic_pairs),
                round(result.precision, 3),
                round(result.recall, 3),
                round(result.coverage, 3),
            )
    table.notes.append(
        "recall below 1.0 would be a soundness bug: the static set must "
        "over-approximate every dependence the oracle observes"
    )
    return table


def staticdep_symbolic(scale="test", suites=("specint92", "micro")):
    """Symbolic alias classifier precision and MDPT cold-start priming.

    Two questions per workload.  First, how much alias noise does the
    symbolic affine interpreter prove away: ``prec(lattice)`` is the
    one-bit reaching-stores precision against the dynamic oracle,
    ``prec(symbolic)`` the precision after NO-alias pairs are dropped
    (never lower — a NO verdict is a proof).  ``dist match`` is the
    fraction of oracle-observed MUST pairs whose statically inferred
    dependence distance equals the modal task distance the MDPT's DIST
    field would learn.  Second, does seeding the MDPT from
    statically-proven MUST pairs pay: ``missp(sync)`` vs
    ``missp(primed)`` are total mis-speculations under the plain SYNC
    policy and under ``sync_static_primed``, and ``avoided`` their
    difference (cold-start squashes the priming removed).
    """
    table = ExperimentTable(
        "staticdep-symbolic",
        "symbolic alias classification precision and MDPT priming",
        [
            "benchmark",
            "suite",
            "lattice pairs",
            "MUST",
            "MAY",
            "NO",
            "prec(lattice)",
            "prec(symbolic)",
            "recall",
            "dist match",
            "missp(sync)",
            "missp(primed)",
            "avoided",
        ],
    )
    config = MultiscalarConfig()
    for suite_name in suites:
        for workload in suite(suite_name):
            program = workload.program(scale)
            with PROFILER.scope("static-analysis"):
                lattice = analyze_program(program)
            symbolic = analyze_program_symbolic(program)
            with PROFILER.scope("trace-gen"):
                trace = cached_run_program(program)
            lattice_check = cross_check(trace, lattice)
            symbolic_check = cross_check(trace, symbolic)
            counts = symbolic.verdict_counts()
            profile = profile_dependences(trace)
            matched = total = 0
            for pair in symbolic.must_pairs():
                observed = profile.pairs.get(pair.pair)
                if observed is None or pair.static_distance is None:
                    continue
                total += 1
                if pair.static_distance == observed.modal_task_distance:
                    matched += 1
            with PROFILER.scope("simulate"):
                baseline = simulate(trace, config, make_policy("sync"))
                primed = simulate(
                    trace, config, make_policy("sync_static_primed")
                )
            table.add_row(
                workload.name,
                suite_name,
                len(lattice.pairs),
                counts["must"],
                counts["may"],
                counts["no"],
                round(lattice_check.precision, 3),
                round(symbolic_check.precision, 3),
                round(symbolic_check.recall, 3),
                "-" if total == 0 else round(matched / total, 3),
                baseline.mis_speculations,
                primed.mis_speculations,
                baseline.mis_speculations - primed.mis_speculations,
            )
    table.notes.append(
        "prec(symbolic) >= prec(lattice) by construction: only proven "
        "NO-alias pairs are dropped, so recall stays 1.0"
    )
    table.notes.append(
        "priming installs MUST pairs whose producer dominates its loop "
        "latch and whose static distance fits the task window, so "
        "avoided is never negative: primed entries only front-load what "
        "SYNC would have learned from its first squash"
    )
    return table
