"""Dependence profiling utilities.

Aggregates the true-dependence oracle of a trace into per-static-pair
statistics: dynamic counts, instruction and task distance
distributions, and address behaviour.  These are the quantities the
paper reasons about in Sections 3 and 5.3 (dependence distances,
locality, path dependence), exposed as a user-facing analysis API.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class PairProfile:
    """Statistics for one static (store PC, load PC) dependence pair."""

    store_pc: int
    load_pc: int
    dynamic_count: int = 0
    instruction_distances: Counter = field(default_factory=Counter)
    task_distances: Counter = field(default_factory=Counter)
    addresses: Counter = field(default_factory=Counter)

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.store_pc, self.load_pc)

    @property
    def distinct_addresses(self) -> int:
        return len(self.addresses)

    @property
    def distinct_task_distances(self) -> int:
        return len(self.task_distances)

    @property
    def modal_task_distance(self) -> int:
        """The most common task distance — what a DIST tag would learn."""
        return self.task_distances.most_common(1)[0][0]

    def distance_stability(self) -> float:
        """Fraction of dynamic instances at the modal task distance.

        1.0 means a single DIST value always suffices (the mechanism's
        easy case); low values flag pairs like the paper's gcc, whose
        distances the DIST tag cannot pin down.
        """
        if not self.dynamic_count:
            return 0.0
        return self.task_distances[self.modal_task_distance] / self.dynamic_count

    def address_invariant(self) -> bool:
        """True when every instance touches the same address (a scalar
        global) — the case where address tagging cannot disambiguate
        dynamic instances (Section 3)."""
        return self.distinct_addresses == 1


@dataclass
class DependenceProfile:
    """A whole-trace dependence profile."""

    trace_name: str
    pairs: Dict[Tuple[int, int], PairProfile]
    dependent_loads: int
    total_loads: int

    def top_pairs(self, n=10) -> List[PairProfile]:
        """The *n* most frequent pairs."""
        return sorted(
            self.pairs.values(), key=lambda p: p.dynamic_count, reverse=True
        )[:n]

    def pairs_for_coverage(self, coverage=0.999) -> int:
        """Static pairs needed to cover *coverage* of dynamic dependences."""
        if not 0 < coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        total = sum(p.dynamic_count for p in self.pairs.values())
        if total == 0:
            return 0
        needed = coverage * total
        covered = 0
        for rank, profile in enumerate(self.top_pairs(len(self.pairs)), start=1):
            covered += profile.dynamic_count
            if covered >= needed:
                return rank
        return len(self.pairs)

    def unstable_pairs(self, threshold=0.9) -> List[PairProfile]:
        """Pairs whose distance stability falls below *threshold* —
        candidates for mis-synchronization under DIST tagging."""
        return [
            p for p in self.pairs.values() if p.distance_stability() < threshold
        ]

    def summary(self) -> dict:
        return {
            "trace": self.trace_name,
            "loads": self.total_loads,
            "dependent_loads": self.dependent_loads,
            "static_pairs": len(self.pairs),
            "pairs_99_9": self.pairs_for_coverage(0.999),
            "unstable_pairs": len(self.unstable_pairs()),
        }


def profile_dependences(trace) -> DependenceProfile:
    """Build the dependence profile of a trace."""
    # walk only the loads, through the shared columnar index
    index = trace.index()
    producers = index.producers
    c_pc = index.pc
    c_task = index.task_of
    c_addr = index.addr
    pairs: Dict[Tuple[int, int], PairProfile] = {}
    dependent = 0
    load_seqs = index.load_seqs
    total = len(load_seqs)
    for seq in load_seqs:
        store_seq = producers[seq]
        if store_seq is None:
            continue
        dependent += 1
        key = (c_pc[store_seq], c_pc[seq])
        profile = pairs.get(key)
        if profile is None:
            profile = pairs[key] = PairProfile(key[0], key[1])
        profile.dynamic_count += 1
        profile.instruction_distances[seq - store_seq] += 1
        profile.task_distances[c_task[seq] - c_task[store_seq]] += 1
        profile.addresses[c_addr[seq]] += 1
    return DependenceProfile(
        trace_name=trace.name,
        pairs=pairs,
        dependent_loads=dependent,
        total_loads=total,
    )
