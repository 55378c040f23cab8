"""Cross-checking the static pair set against the dynamic oracle.

The static analysis promises a conservative over-approximation: every
store→load dependence the oracle observes at runtime must appear in the
static candidate set.  :func:`cross_check` replays a trace through
:func:`repro.oracle.profile_dependences` and scores the static set
against that ground truth:

* **recall** — observed pairs also predicted statically / observed
  pairs.  The soundness metric; anything below 1.0 is an analysis bug.
* **precision** — predicted pairs actually observed / predicted pairs.
  The may-alias lattice's sharpness on this workload.
* **dynamic coverage** — dynamic dependence *instances* whose pair is
  in the static set / all dynamic instances.  The static analogue of
  the paper's Table 4 coverage column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.frontend.trace import Trace
from repro.oracle import profile_dependences
from repro.staticdep.analysis import StaticDependenceAnalysis, analyze_program


@dataclass
class CrossCheckResult:
    """Static-vs-dynamic agreement for one workload trace."""

    name: str
    static_pairs: Set[Tuple[int, int]]
    dynamic_pairs: Set[Tuple[int, int]]
    dynamic_instances: int
    covered_instances: int

    @property
    def true_positives(self) -> Set[Tuple[int, int]]:
        return self.static_pairs & self.dynamic_pairs

    @property
    def missed_pairs(self) -> Set[Tuple[int, int]]:
        """Observed dynamically but not predicted — must be empty."""
        return self.dynamic_pairs - self.static_pairs

    @property
    def precision(self) -> float:
        if not self.static_pairs:
            return 1.0
        return len(self.true_positives) / len(self.static_pairs)

    @property
    def recall(self) -> float:
        if not self.dynamic_pairs:
            return 1.0
        return len(self.true_positives) / len(self.dynamic_pairs)

    @property
    def coverage(self) -> float:
        """Fraction of dynamic dependence instances statically predicted."""
        if not self.dynamic_instances:
            return 1.0
        return self.covered_instances / self.dynamic_instances

    @property
    def sound(self) -> bool:
        """True when the over-approximation promise held on this trace."""
        return not self.missed_pairs

    def summary(self) -> Dict[str, object]:
        return {
            "workload": self.name,
            "static_pairs": len(self.static_pairs),
            "dynamic_pairs": len(self.dynamic_pairs),
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "coverage": round(self.coverage, 4),
            "sound": self.sound,
        }


def cross_check(
    trace: Trace, analysis: Optional[StaticDependenceAnalysis] = None
) -> CrossCheckResult:
    """Score the static pair set of ``trace.program`` against the oracle."""
    if analysis is None:
        analysis = analyze_program(trace.program)
    static_pairs = analysis.pair_set
    profile = profile_dependences(trace)
    dynamic_pairs = set(profile.pairs)
    instances = sum(p.dynamic_count for p in profile.pairs.values())
    covered = sum(
        p.dynamic_count for p in profile.pairs.values() if p.pair in static_pairs
    )
    return CrossCheckResult(
        name=trace.name,
        static_pairs=static_pairs,
        dynamic_pairs=dynamic_pairs,
        dynamic_instances=instances,
        covered_instances=covered,
    )


def cross_check_workload(name: str, scale: str = "test") -> CrossCheckResult:
    """Assemble, trace, analyze, and cross-check one named workload."""
    from repro.frontend import run_program
    from repro.workloads import get_workload

    program = get_workload(name).program(scale)
    return cross_check(run_program(program), analyze_program(program))
