"""Speculative-leak experiment: static taint verdicts vs dynamic observations.

The spec-taint pass (:mod:`repro.staticdep.spectaint`) classifies every
static store->load pair of a program with a declared secret region as
LEAK / GATED / NO-LEAK.  This runner replays each program through the
multiscalar simulator with the dynamic taint sanitizer attached and
scores the static verdicts against what the machine actually did, per
speculation policy: how many transient secret reads occurred, how many
reached a transmitter, and the precision/recall of the flagged
(LEAK + GATED) pair set against the observed pair set.

The headline claim mirrors the paper's synchronization story: blind
speculation (``always``) realizes the statically predicted transient
secret reads, while ``sync_static_primed`` — the MDPT pre-installed
with the statically proven dependences — closes every GATED pair, so
its transient-secret-read count drops to zero.
"""

from __future__ import annotations

from repro.experiments.results import ExperimentTable
from repro.isa.assembler import Assembler
from repro.multiscalar.sanitizer import check_program_leaks
from repro.staticdep.spectaint import analyze_spec_leaks
from repro.telemetry import PROFILER
from repro.workloads.random_gen import RandomProgramConfig, generate_program

#: policies compared per program, in presentation order: no speculation,
#: blind speculation, learned synchronization, statically primed sync
_POLICIES = ("never", "always", "sync", "sync_static_primed")


def _leak_demo(iterations=24):
    """The worked leak example (examples/programs/leak_demo.s).

    A secret-indexed gather/scatter loop: the loop-carried accumulator
    store at the task boundary creates a GATED pair the MDPT can prime,
    and the secret-indexed scatter creates an open-window LEAK pair.
    Needs enough iterations for the path-based sequencer to reach
    steady state, so blind speculation overlaps tasks deeply enough to
    violate on every instance.
    """
    a = Assembler("leak-demo")
    a.secret(0x2000, 0x201C)
    for i, value in enumerate((11, 22, 33, 44, 55, 66, 77, 88)):
        a.word(0x2000 + 4 * i, value)
    for i, value in enumerate((1, 2, 3, 4, 5, 6, 7, 8)):
        a.word(0x1000 + 4 * i, value)
    a.word(0x3000, 0)
    a.word(0x4000, 0)
    a.li("s1", 0x2000)
    a.li("s2", 0x1000)
    a.li("s5", 0x3000)
    a.li("s6", 0x4000)
    a.li("s3", 0)
    a.li("s4", iterations)
    a.label("loop")
    a.task_begin()
    a.lw("t0", "s1", 0)
    a.andi("t1", "t0", 0x1C)
    a.add("t2", "s2", "t1")
    a.lw("t3", "t2", 0)
    a.lw("t4", "s5", 0)
    a.add("t4", "t4", "t3")
    a.add("t4", "t4", "t0")
    a.andi("t5", "t4", 0x1C)
    a.add("t5", "s2", "t5")
    a.lw("t6", "t5", 0)
    a.sw("t4", "s5", 0)
    a.sw("t4", "t2", 0)
    a.lw("t7", "s6", 0)
    a.addi("t7", "t7", 1)
    a.sw("t7", "s6", 0)
    a.beq("t0", "zero", "skip")
    a.nop()
    a.label("skip")
    a.addi("s3", "s3", 1)
    a.blt("s3", "s4", "loop")
    a.halt()
    return a.assemble()


#: the random programs' task counts, by scale name
PROGRAM_TASKS = {"tiny": 12, "test": 20, "ref": 40, "large": 80}


def _programs(scale):
    """The experiment's program set: the worked demo plus two random
    secret-region programs (dense shared region -> real violations)."""
    tasks = PROGRAM_TASKS[scale]
    programs = [_leak_demo()]
    for seed in (9, 29):
        programs.append(
            generate_program(
                RandomProgramConfig(
                    tasks=tasks,
                    shared_words=4,
                    secret_words=2,
                    loads_per_task=2,
                    stores_per_task=2,
                    seed=seed,
                )
            )
        )
    return programs


def spectaint_leakage(scale="test", policies=_POLICIES):
    """Static LEAK/GATED/NO-LEAK verdicts vs the dynamic taint sanitizer."""
    table = ExperimentTable(
        "spectaint",
        "speculative-leak verdicts vs dynamic taint sanitizer, per policy",
        [
            "program",
            "policy",
            "leak",
            "gated",
            "no-leak",
            "violations",
            "secret reads",
            "transmitted",
            "precision",
            "recall",
            "sound",
        ],
    )
    for program in _programs(scale):
        with PROFILER.scope("static-analysis"):
            analysis = analyze_spec_leaks(program)
        counts = analysis.verdict_counts()
        for policy in policies:
            with PROFILER.scope("simulate"):
                result = check_program_leaks(
                    program, policy=policy, analysis=analysis
                )
            check = result.check
            if not check.sound:
                raise AssertionError(
                    "sanitizer contradicts the static verdicts on %s/%s: %s"
                    % (program.name, policy, check.contradictions)
                )
            table.add_row(
                program.name,
                policy,
                counts["leak"],
                counts["gated"],
                counts["no-leak"],
                result.sanitizer.violations,
                len(result.sanitizer.events),
                len(result.sanitizer.transmitted_pairs()),
                "-" if check.precision is None else round(check.precision, 3),
                "-" if check.recall is None else round(check.recall, 3),
                "yes" if check.sound else "NO",
            )
    table.notes.append(
        "sound means the sanitizer never observed a transient secret read "
        "on a pair the static pass proved NO-LEAK: the verdicts "
        "over-approximate the dynamic behaviour by construction"
    )
    table.notes.append(
        "under sync_static_primed the MDPT is pre-installed with every "
        "statically proven GATED dependence, so its transient secret "
        "reads drop to zero on pairs blind speculation leaks on; the "
        "residual violations are cold-start squashes on MAY pairs"
    )
    return table
