"""Dynamic taint sanitizer: the runtime oracle for the leak verdicts.

The static pass in :mod:`repro.staticdep.spectaint` *claims* which
store→load pairs can leak transient secrets; this module *observes*.
A :class:`TaintSanitizer` attaches to a
:class:`~repro.multiscalar.processor.MultiscalarSimulator` and fires on
every memory-dependence violation — exactly the moments a load has
consumed stale data inside a mis-speculation window, between its
speculative issue and the squash.  Using an exact two-point taint
replay of the committed trace it decides whether the stale value the
load observed was secret-tagged, and whether the transient value
reached a *transmitter* before the squash (an issued consumer using it
to form a memory address, or a resolved branch/jump) by walking the
trace's register/forwarding dataflow over the currently issued window.

:func:`cross_check_leaks` then holds the static verdicts to those
observations, mirroring the reaching-stores soundness contract in
:mod:`repro.staticdep.checker`:

* any transient-secret observation on a pair classified ``NO_LEAK``
  for reasons ``no-alias``, ``window-zero``, or ``stale-public`` is a
  contradiction — those claims say the observation cannot happen;
* a *transmitted* observation on a ``no-transmitter`` pair is a
  contradiction — un-transmitted stale-secret reads are permitted
  there (the claim is only that the value cannot escape);
* observations on ``LEAK`` / ``GATED`` pairs are the expected true
  positives.

A contradiction is a soundness bug and a hard test failure.

The sanitizer counts its events unconditionally and deterministically —
the simulator's issue loop and the per-cycle reference scan must produce
bit-identical counts (A/B tested) — and additionally publishes telemetry
counters when the bound
simulator's registry is enabled, following the zero-overhead contract
of :mod:`repro.telemetry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.opcodes import Opcode
from repro.staticdep.spectaint import (
    GATED,
    LEAK,
    NO_LEAK,
    R_NO_TRANSMITTER,
    R_PRIMABLE,
    SpecTaintAnalysis,
    TaintReplay,
    analyze_spec_leaks,
    taint_replay,
    valid_ranges,
)


@dataclass(frozen=True)
class SanitizerEvent:
    """One transient-secret observation.

    A violated load read stale secret-tagged data during its
    mis-speculation window; ``transmitted`` records whether the value
    reached an address- or branch-forming use among the instructions
    issued before the squash."""

    store_pc: int
    load_pc: int
    store_seq: int
    load_seq: int
    time: int
    transmitted: bool

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.store_pc, self.load_pc)

    def to_dict(self) -> Dict[str, object]:
        return {
            "store_pc": self.store_pc,
            "load_pc": self.load_pc,
            "store_seq": self.store_seq,
            "load_seq": self.load_seq,
            "time": self.time,
            "transmitted": self.transmitted,
        }


class TaintSanitizer:
    """Observes a simulator's violations for transient secret reads.

    Construct it over the trace (the taint replay is a function of the
    committed execution alone), pass it to the simulator as one of its
    ``observers``, and read ``events`` after ``run()``.
    One sanitizer serves one simulation; build a fresh one per run.
    """

    def __init__(self, trace, secret_ranges=None, replay: Optional[TaintReplay] = None):
        self.trace = trace
        declared = (
            trace.program.secret_ranges if secret_ranges is None else secret_ranges
        )
        self.secret_ranges = valid_ranges(declared)
        self.replay = replay or taint_replay(trace, self.secret_ranges)
        self.events: List[SanitizerEvent] = []
        self.violations = 0
        self._sim = None

    def bind(self, sim):
        """Adopt the simulator whose violations this sanitizer watches
        (called by the simulator)."""
        self._sim = sim
        return self

    # -- the violation hook ---------------------------------------------

    def on_violation(self, store_seq, load_seq, time):
        """Called by the simulator on every detected violation, before
        the squash — the issued flags still describe the window."""
        self.violations += 1
        if not self.replay.stale_before_store.get(store_seq, False):
            return  # the stale value was public: nothing to observe
        sim = self._sim
        transmitted = self._transmitted(load_seq)
        event = SanitizerEvent(
            store_pc=sim._c_pc[store_seq],
            load_pc=sim._c_pc[load_seq],
            store_seq=store_seq,
            load_seq=load_seq,
            time=time,
            transmitted=transmitted,
        )
        self.events.append(event)
        if sim._tel_on:
            metrics = sim.telemetry.metrics
            metrics.counter("sanitizer.transient_secret_reads").inc()
            if transmitted:
                metrics.counter("sanitizer.transmitted_reads").inc()
            sim.telemetry.trace.instant(
                "transient-secret store@%d->load@%d"
                % (event.store_pc, event.load_pc),
                ts=time,
                tid=sim.task_of[load_seq] % sim.config.stages,
                cat="sanitizer",
                args=event.to_dict(),
            )

    def _transmitted(self, load_seq) -> bool:
        """Did the transient value reach a transmitter inside the
        window?  Forward dataflow walk from the violated load over the
        *currently issued* instructions: register edges via the trace's
        producer→consumer map, memory edges via store→load forwarding.
        This is the dynamic counterpart of the static transmitter
        slice, and by construction a subset of it."""
        sim = self._sim
        index = sim._index
        issued = sim.issued
        entries = self.trace.entries
        carriers = {load_seq}
        tainted_stores = set()
        stack = [load_seq]
        while stack:
            producer = stack.pop()
            for consumer in index.reg_dependents.get(producer, ()):
                if not issued[consumer]:
                    continue
                inst = entries[consumer].inst
                addr_use = data_use = value_use = False
                for reg, src, _ in index.src_operands[consumer]:
                    if src != producer:
                        continue
                    if inst.is_memory and reg == inst.rs1:
                        addr_use = True
                    elif inst.is_store and reg == inst.rs2:
                        data_use = True
                    else:
                        value_use = True
                if not (addr_use or data_use or value_use):
                    continue
                if addr_use:
                    return True  # address-forming use of a transient value
                if inst.is_branch or inst.op is Opcode.JR:
                    return True  # control decided by a transient value
                if inst.is_store and data_use and consumer not in tainted_stores:
                    tainted_stores.add(consumer)
                    for load in index.dependents.get(consumer, ()):
                        if issued[load] and load not in carriers:
                            carriers.add(load)
                            stack.append(load)
                elif (
                    value_use
                    and not inst.is_memory
                    and inst.written_register() is not None
                    and consumer not in carriers
                ):
                    carriers.add(consumer)
                    stack.append(consumer)
        return False

    # -- aggregation ------------------------------------------------------

    def pair_counts(self) -> Dict[Tuple[int, int], int]:
        """Transient-secret observations per static pair."""
        counts: Dict[Tuple[int, int], int] = {}
        for event in self.events:
            counts[event.pair] = counts.get(event.pair, 0) + 1
        return counts

    def transmitted_pairs(self) -> List[Tuple[int, int]]:
        return sorted({e.pair for e in self.events if e.transmitted})

    def summary(self) -> Dict[str, object]:
        return {
            "violations": self.violations,
            "transient_secret_reads": len(self.events),
            "transmitted_reads": sum(e.transmitted for e in self.events),
            "observed_pairs": sorted({e.pair for e in self.events}),
        }


# ---------------------------------------------------------------------------
# static-vs-dynamic cross-check
# ---------------------------------------------------------------------------

#: NO_LEAK reasons whose claim forbids *any* transient-secret read.
_HARD_NO_LEAK_REASONS = ("no-alias", "window-zero", "stale-public")


@dataclass
class LeakCrossCheck:
    """The static leak verdicts held against one simulation's events."""

    analysis: SpecTaintAnalysis
    events: List[SanitizerEvent]
    contradictions: List[str] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return not self.contradictions

    @property
    def flagged_pairs(self) -> List[Tuple[int, int]]:
        """Pairs the static pass says can leak (LEAK or GATED)."""
        return sorted(
            v.pair for v in self.analysis.verdicts if v.verdict in (LEAK, GATED)
        )

    @property
    def observed_pairs(self) -> List[Tuple[int, int]]:
        return sorted({e.pair for e in self.events})

    @property
    def precision(self) -> float:
        """Fraction of statically flagged pairs dynamically observed."""
        flagged = self.flagged_pairs
        if not flagged:
            return 1.0
        observed = set(self.observed_pairs)
        return sum(1 for p in flagged if p in observed) / len(flagged)

    @property
    def recall(self) -> float:
        """Fraction of observed transient-secret pairs the static pass
        flagged — 1.0 whenever the check is sound and every observation
        transmitted."""
        observed = self.observed_pairs
        if not observed:
            return 1.0
        flagged = set(self.flagged_pairs)
        return sum(1 for p in observed if p in flagged) / len(observed)

    def summary(self) -> Dict[str, object]:
        return {
            "sound": self.sound,
            "contradictions": list(self.contradictions),
            "flagged_pairs": [list(p) for p in self.flagged_pairs],
            "observed_pairs": [list(p) for p in self.observed_pairs],
            "precision": round(self.precision, 3),
            "recall": round(self.recall, 3),
        }


def cross_check_leaks(
    analysis: SpecTaintAnalysis, sanitizer: TaintSanitizer
) -> LeakCrossCheck:
    """Hold the static verdicts to the sanitizer's observations.

    Returns a :class:`LeakCrossCheck`; ``.sound`` is False iff some
    NO_LEAK claim was contradicted at runtime (see module docstring
    for the exact rules)."""
    by_pair = {v.pair: v for v in analysis.verdicts}
    contradictions: List[str] = []
    for event in sanitizer.events:
        verdict = by_pair.get(event.pair)
        if verdict is None:
            contradictions.append(
                "transient secret on pair (store %d, load %d) absent from "
                "the static verdict set" % event.pair
            )
            continue
        if verdict.verdict != NO_LEAK:
            continue  # LEAK/GATED observations are expected true positives
        if verdict.reason in _HARD_NO_LEAK_REASONS:
            contradictions.append(
                "NO_LEAK(%s) on pair (store %d, load %d) contradicted: "
                "stale secret observed at t=%d"
                % (verdict.reason, event.store_pc, event.load_pc, event.time)
            )
        elif verdict.reason == R_NO_TRANSMITTER and event.transmitted:
            contradictions.append(
                "NO_LEAK(%s) on pair (store %d, load %d) contradicted: "
                "transient secret transmitted at t=%d"
                % (verdict.reason, event.store_pc, event.load_pc, event.time)
            )
    return LeakCrossCheck(
        analysis=analysis, events=list(sanitizer.events), contradictions=contradictions
    )


# ---------------------------------------------------------------------------
# one-call driver (the CLI's `repro leakcheck` and the experiment use it)
# ---------------------------------------------------------------------------


@dataclass
class LeakCheckResult:
    """Everything one leak check produces."""

    analysis: SpecTaintAnalysis
    sanitizer: TaintSanitizer
    check: LeakCrossCheck
    policy: str

    @property
    def clean(self) -> bool:
        """No findings: nothing can leak and the oracle agrees."""
        counts = self.analysis.verdict_counts()
        return counts[LEAK] == 0 and counts[GATED] == 0 and self.check.sound

    def summary(self) -> Dict[str, object]:
        payload = dict(self.analysis.summary())
        payload["policy"] = self.policy
        payload["dynamic"] = self.sanitizer.summary()
        payload["cross_check"] = self.check.summary()
        return payload


def check_program_leaks(
    program,
    secret_ranges=None,
    policy: str = "always",
    config=None,
    analysis: Optional[SpecTaintAnalysis] = None,
) -> LeakCheckResult:
    """Run the full static + dynamic leak check on one program.

    The default ``always`` (blind speculation) policy maximizes the
    mis-speculation windows, making the dynamic oracle as adversarial
    as the simulator allows."""
    from repro.frontend import run_program
    from repro.multiscalar.config import MultiscalarConfig
    from repro.multiscalar.policies import make_policy
    from repro.multiscalar.processor import MultiscalarSimulator

    if analysis is None:
        analysis = analyze_spec_leaks(program, secret_ranges)
    trace = run_program(program)
    sanitizer = TaintSanitizer(trace, secret_ranges=analysis.secret_ranges)
    sim = MultiscalarSimulator(
        trace,
        config or MultiscalarConfig(),
        make_policy(policy),
        observers=[sanitizer],
    )
    sim.run()
    return LeakCheckResult(
        analysis=analysis,
        sanitizer=sanitizer,
        check=cross_check_leaks(analysis, sanitizer),
        policy=policy,
    )
