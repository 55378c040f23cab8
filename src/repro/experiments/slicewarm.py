"""Slice-warming experiment: Prophet-style pre-computation vs priming.

Static MDPT priming (:class:`~repro.multiscalar.policies.
StaticPrimedSyncPolicy`) removes cold-start squashes only for pairs the
symbolic classifier *proves* MUST-alias.  The ``sync_slice_warmed``
policy generalizes it: for every MAY/MUST pair whose address-generation
slice is affordable and loop-carried-free, it pre-executes the slice a
bounded number of instructions ahead of the sequencer and installs the
pair as soon as the slice resolves a collision — before the first
consumer load issues.

This runner compares NEVER / SYNC / PRIMED / SLICEWARM over the Figure 5
SPECint92 workloads plus two adversarial legs:

* ``table-walk`` — a MAY-dominant loop whose recurring dependence is
  data-indexed (the affine classifier cannot prove it), so PRIMED pays
  the same cold-start squash SYNC pays while SLICEWARM resolves it
  ahead of time.
* ``random-adv`` — a dense-shared-region random program that stresses
  the never-worse property on branchy, generator-shaped code.

Shape asserted by the test suite: SLICEWARM's total squashes never
exceed SYNC's on any row, and on the MAY-dominant leg its cold-start
squashes drop below PRIMED's.
"""

from __future__ import annotations

from repro.core.stats import speedup
from repro.experiments.results import ExperimentTable
from repro.experiments.tables import SPECINT92, load_traces
from repro.frontend import run_program
from repro.isa.assembler import Assembler
from repro.multiscalar.config import MultiscalarConfig
from repro.multiscalar.policies import make_policy
from repro.multiscalar.processor import MultiscalarSimulator
from repro.telemetry import PROFILER
from repro.workloads.random_gen import RandomProgramConfig, generate_program

#: policies compared per row, in presentation order
_POLICIES = ("never", "sync", "sync_static_primed", "sync_slice_warmed")


def _table_walk(tasks=16):
    """The worked MAY-dominant example (examples/programs/table_walk.s).

    Each task reads an index from a read-only walk table and increments
    the data counter it picks; the table repeats every index twice, so a
    real store->load dependence recurs at distance 1.  The data address
    is computed from a *loaded* value, which defeats the affine
    classifier (MAY, not MUST) — priming cannot help, slice warming can.
    The data region sits *below* the table: the upward-walking table
    cursor is unbounded above, so the NO-alias proof for the table load
    needs the store range to stay under the table base.
    """
    a = Assembler("table-walk")
    for i in range(tasks):
        a.word(0x3000 + 4 * i, (i // 2) % 8)
    for i in range(8):
        a.word(0x2000 + 4 * i, 0)
    a.li("s1", 0x3000)
    a.li("s2", 0x2000)
    a.li("s3", 0)
    a.li("s4", tasks)
    a.label("loop")
    a.task_begin()
    a.lw("t0", "s1", 0)
    a.sll("t1", "t0", 2)
    a.andi("t1", "t1", 28)
    a.add("t2", "s2", "t1")
    a.lw("t3", "t2", 0)
    a.addi("t3", "t3", 1)
    a.sw("t3", "t2", 0)
    a.addi("s1", "s1", 4)
    a.addi("s3", "s3", 1)
    a.blt("s3", "s4", "loop")
    a.halt()
    return a.assemble()


#: the adversarial legs' task counts, by scale name
LEG_TASKS = {"tiny": 8, "test": 16, "ref": 32, "large": 64}


def _extra_traces(scale):
    """The two adversarial legs, interpreted at the given scale."""
    tasks = LEG_TASKS[scale]
    legs = {}
    with PROFILER.scope("trace-gen"):
        legs["table-walk"] = run_program(_table_walk(tasks))
        legs["random-adv"] = run_program(
            generate_program(
                RandomProgramConfig(
                    tasks=max(tasks, 12),
                    shared_words=4,
                    loads_per_task=2,
                    stores_per_task=2,
                    seed=7,
                )
            )
        )
    return legs


def _run(trace, stages, policy_name):
    """Simulate one (trace, policy) cell; returns (stats, policy)."""
    policy = make_policy(policy_name)
    sim = MultiscalarSimulator(
        trace, MultiscalarConfig(stages=stages), policy
    )
    with PROFILER.scope("simulate"):
        stats = sim.run()
    return stats, policy


def _cold_starts(policy):
    """MDPT entries learned the hard way: allocations minus installs."""
    mdpt = policy.engine.mdpt
    return mdpt.allocations - mdpt.primed


def slice_warming(scale="test", stage_counts=(4, 8)):
    """NEVER/SYNC/PRIMED/SLICEWARM squashes, cold starts, and speedups."""
    table = ExperimentTable(
        "slice-warming",
        "slice-warmed MDPT vs learned SYNC and static priming",
        [
            "stages",
            "benchmark",
            "warmable",
            "installed",
            "slice instr",
            "never_ipc",
            "SYNC",
            "PRIMED",
            "SLICEWARM",
            "missp(sync)",
            "missp(primed)",
            "missp(warmed)",
            "cold(sync)",
            "cold(primed)",
            "cold(warmed)",
        ],
    )
    traces = dict(load_traces(SPECINT92, scale))
    traces.update(_extra_traces(scale))
    for stages in stage_counts:
        for name in sorted(traces):
            trace = traces[name]
            base, _ = _run(trace, stages, "never")
            row = [stages, name]
            missp, cold = {}, {}
            warmed_policy = None
            speedups = []
            for policy_name in _POLICIES[1:]:
                stats, policy = _run(trace, stages, policy_name)
                missp[policy_name] = stats.mis_speculations
                cold[policy_name] = _cold_starts(policy)
                speedups.append(round(speedup(base, stats), 1))
                if policy_name == "sync_slice_warmed":
                    warmed_policy = policy
            if missp["sync_slice_warmed"] > missp["sync"]:
                raise AssertionError(
                    "slice warming must never squash more than SYNC: "
                    "%s at %d stages squashed %d vs %d"
                    % (
                        name,
                        stages,
                        missp["sync_slice_warmed"],
                        missp["sync"],
                    )
                )
            row += [
                warmed_policy.warmable_pairs,
                warmed_policy.installed_pairs,
                warmed_policy.slice_instructions,
                round(base.ipc, 2),
            ]
            row += speedups
            row += [missp[p] for p in _POLICIES[1:]]
            row += [cold[p] for p in _POLICIES[1:]]
            table.add_row(*row)
    table.notes.append(
        "SLICEWARM only installs pairs its pre-executed address slices "
        "actually observe colliding, so it can never squash more than "
        "SYNC: every install front-loads a cold-start squash SYNC would "
        "have paid (the runner asserts this per row)"
    )
    table.notes.append(
        "table-walk is the MAY-dominant leg: its recurring dependence "
        "is data-indexed, so PRIMED's MUST-only proofs leave the same "
        "cold start SYNC pays while SLICEWARM resolves it ahead of need"
    )
    return table
