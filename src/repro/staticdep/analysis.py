"""Top-level static dependence analysis of one program.

:func:`analyze_program` bundles the CFG and the reaching-stores
fixpoint into a :class:`StaticDependenceAnalysis`, the object the CLI,
the cross-checker, and the linter all consume.

:func:`analyze_program_symbolic` layers the symbolic affine abstract
interpreter (:mod:`repro.staticdep.symbolic`) on top: every reaching
candidate pair gets a MUST / MAY / NO alias verdict, NO pairs are
dropped from the candidate set (a strict precision improvement — a NO
verdict is a proof the addresses never collide), and MUST pairs carry
a statically inferred dependence distance comparable against the
distance the dynamic MDPT learns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.isa.program import Program
from repro.staticdep.cfg import ControlFlowGraph, build_cfg
from repro.staticdep.reaching import ReachingStores, StaticPair
from repro.staticdep.symbolic import (
    MAY,
    MUST,
    NO,
    Classification,
    SymbolicSolution,
    SymValue,
    classify_addresses,
    collapse,
)
from repro.telemetry import PROFILER


@dataclass
class StaticDependenceAnalysis:
    """The static dependence facts of one program."""

    program: Program
    cfg: ControlFlowGraph
    reaching: ReachingStores
    pairs: List[StaticPair] = field(default_factory=list)

    @property
    def pair_set(self) -> Set[Tuple[int, int]]:
        """The (store PC, load PC) set — the MDPT's static working set."""
        return {p.pair for p in self.pairs}

    @property
    def static_loads(self) -> List[int]:
        return self.program.static_loads()

    @property
    def static_stores(self) -> List[int]:
        return self.program.static_stores()

    def pairs_for_load(self, load_pc: int) -> List[StaticPair]:
        """Candidate producers of the load at *load_pc*."""
        return [p for p in self.pairs if p.load_pc == load_pc]

    def dead_stores(self) -> List[int]:
        """Reachable stores that no candidate pair names, so provably
        observed by no load: the pairs over-approximate, and the symbolic
        analysis drops only pairs it proves never alias."""
        reachable = set(self.cfg.reachable_blocks())
        observed = {p.store_pc for p in self.pairs}
        return [
            pc
            for pc in self.program.static_stores()
            if pc not in observed and self.cfg.block_at(pc).index in reachable
        ]

    def multi_producer_loads(self) -> List[int]:
        """Loads with more than one candidate producer (Section 4.4.4's
        multiple-dependences case, found statically)."""
        counts: Dict[int, int] = {}
        for pair in self.pairs:
            counts[pair.load_pc] = counts.get(pair.load_pc, 0) + 1
        return sorted(pc for pc, n in counts.items() if n > 1)

    def summary(self) -> Dict[str, object]:
        return {
            "program": self.program.name,
            "instructions": len(self.program),
            "basic_blocks": len(self.cfg),
            "static_loads": len(self.static_loads),
            "static_stores": len(self.static_stores),
            "static_pairs": len(self.pairs),
            "dead_stores": len(self.dead_stores()),
            "multi_producer_loads": len(self.multi_producer_loads()),
        }


def analyze_program(program: Program) -> StaticDependenceAnalysis:
    """Run the full static dependence analysis on *program*."""
    cfg = build_cfg(program)
    reaching = ReachingStores(program, cfg)
    return StaticDependenceAnalysis(
        program=program,
        cfg=cfg,
        reaching=reaching,
        pairs=reaching.candidate_pairs(),
    )


@dataclass(frozen=True)
class SymbolicPair:
    """One reaching candidate pair with its symbolic verdict.

    ``static_distance`` is the inferred MDPT DIST analogue: the minimum
    number of task boundaries between the producing store instance and
    the consuming load instance, accounting for the iteration *lag*
    (how many loop iterations earlier the producer runs).  It is only
    available for MUST pairs whose addresses are exact functions of a
    common loop's iteration count.
    """

    store_pc: int
    load_pc: int
    verdict: str
    lag: Optional[int]
    static_distance: Optional[int]
    store_addr: SymValue
    load_addr: SymValue

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.store_pc, self.load_pc)


@dataclass
class SymbolicDependenceAnalysis(StaticDependenceAnalysis):
    """Static analysis refined by the symbolic alias classifier.

    ``pairs`` holds only the MUST and MAY candidates (NO pairs are
    proven non-aliasing and dropped); ``classified`` keeps the full
    per-candidate verdicts, including the dropped NO pairs.
    """

    solution: Optional[SymbolicSolution] = None
    classified: List[SymbolicPair] = field(default_factory=list)

    def verdict_counts(self) -> Dict[str, int]:
        counts = {MUST: 0, MAY: 0, NO: 0}
        for pair in self.classified:
            counts[pair.verdict] += 1
        return counts

    def must_pairs(self) -> List[SymbolicPair]:
        return [p for p in self.classified if p.verdict == MUST]

    def no_pairs(self) -> List[SymbolicPair]:
        return [p for p in self.classified if p.verdict == NO]

    def classified_for(self, store_pc: int, load_pc: int) -> Optional[SymbolicPair]:
        for pair in self.classified:
            if pair.store_pc == store_pc and pair.load_pc == load_pc:
                return pair
        return None

    def primable(self) -> List[Tuple[int, int, int]]:
        """(store PC, load PC, distance) triples safe to pre-install in
        an MDPT: provably aliasing pairs whose producer runs in an
        earlier task (distance >= 1) on *every* iteration of its loop.

        The every-iteration condition (producer dominates the loop
        latch) matters: priming a producer that fires only on a
        data-dependent path — the paper's multiple-producer / compress
        idiom — makes the consumer synchronize on iterations where the
        store never comes, and the resulting false-synchronization
        penalties decay the predictor below threshold right before the
        dependence does recur.  Those pairs are left to the dynamic
        predictor (or ESYNC), which is exactly the paper's division of
        labor."""
        triples = []
        for pair in self.must_pairs():
            if pair.static_distance is None or pair.static_distance < 1:
                continue
            if self.solution is not None and not self.solution.executes_every_iteration(
                pair.store_pc
            ):
                continue
            triples.append((pair.store_pc, pair.load_pc, pair.static_distance))
        return sorted(triples)

    def summary(self) -> Dict[str, object]:
        info = super().summary()
        counts = self.verdict_counts()
        info["must_pairs"] = counts[MUST]
        info["may_pairs"] = counts[MAY]
        info["no_pairs"] = counts[NO]
        info["primable_pairs"] = len(self.primable())
        return info


def _value_for_pair(solution: SymbolicSolution, pc: int) -> SymValue:
    """The address value at *pc*, demoted to its congruence class when
    its iteration-indexed form refers to a loop that does not contain
    *pc* (the lag would be meaningless there)."""
    value = solution.address_value(pc)
    if value.exact and not value.is_const and value.loop is not None:
        body = solution.loops.get(value.loop, set())
        if solution.cfg.block_at(pc).index not in body:
            return collapse(value)
    return value


def _static_distance(
    cfg: ControlFlowGraph,
    candidate: StaticPair,
    intra: bool,
    lag: Optional[int],
    wraps: Dict[int, Optional[int]],
) -> Optional[int]:
    """Task-boundary crossings from the producing store instance to the
    consuming load instance, *lag* loop iterations later.  *intra*
    tells whether the store reaches the load within one iteration;
    *wraps* keeps each store's crossings around its loop to itself."""
    if lag is None:
        return None
    direct = candidate.min_task_distance
    if lag == 0 or direct is None:
        return direct
    store_pc = candidate.store_pc
    if store_pc not in wraps:
        wraps[store_pc] = cfg.min_task_distance(store_pc, store_pc)
    wrap = wraps[store_pc]
    if wrap is None:
        return None
    if intra:
        # `direct` follows the iteration-local path; add `lag` full trips
        return direct + lag * wrap
    # `direct` already wraps around the loop once
    return direct + (lag - 1) * wrap


def analyze_program_symbolic(program: Program) -> SymbolicDependenceAnalysis:
    """Run the reaching-stores analysis refined by the symbolic
    classifier (records a ``staticdep.symbolic`` profiler scope)."""
    with PROFILER.scope("staticdep.symbolic"):
        cfg = build_cfg(program)
        reaching = ReachingStores(program, cfg)
        candidates = reaching.candidate_pairs()
        solution = SymbolicSolution(program, cfg)
        classified: List[SymbolicPair] = []
        refined: List[StaticPair] = []
        values: Dict[int, SymValue] = {}
        wraps: Dict[int, Optional[int]] = {}
        for candidate in candidates:
            store_pc, load_pc = candidate.store_pc, candidate.load_pc
            for pc in (store_pc, load_pc):
                if pc not in values:
                    values[pc] = _value_for_pair(solution, pc)
            intra = solution.reaches_without_back_edge(store_pc, load_pc)
            cls: Classification = classify_addresses(
                values[store_pc], values[load_pc], intra
            )
            distance = _static_distance(cfg, candidate, intra, cls.lag, wraps)
            classified.append(
                SymbolicPair(
                    store_pc=store_pc,
                    load_pc=load_pc,
                    verdict=cls.verdict,
                    lag=cls.lag,
                    static_distance=distance,
                    store_addr=values[store_pc],
                    load_addr=values[load_pc],
                )
            )
            if cls.verdict != NO:
                refined.append(candidate)
    return SymbolicDependenceAnalysis(
        program=program,
        cfg=cfg,
        reaching=reaching,
        pairs=refined,
        solution=solution,
        classified=classified,
    )
