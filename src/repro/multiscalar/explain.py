"""Squash explainability: why did each mis-speculation squash happen?

The paper's whole argument is about *removing* squashes, so every one
that survives deserves a structured explanation.  A
:class:`SquashLedger` is one of a
:class:`~repro.multiscalar.processor.MultiscalarSimulator`'s violation
observers (as the taint sanitizer is) and fires on every dependence
violation — before the squash, while the issued flags still describe
the speculative window — recording one cause per event:

* the static pair (store PC, load PC) and the dynamic tasks involved;
* the dependence distance of this instance;
* the policy's decision context via
  :meth:`~repro.multiscalar.policies.SpeculationPolicy.explain_violation`
  — for the MDPT/MDST mechanism that includes the entry's counter and
  prediction state *at squash time* and the MDST load-parking pressure.

:func:`explain_program` runs a program under a policy with the ledger
attached, cross-references every squashing pair against the symbolic
MUST/MAY/NO alias verdicts, and returns the top-K "why did we squash"
table ``repro explain`` renders.  A squash on a pair the symbolic
analysis *proved* non-aliasing (NO) is a contradiction — either the
analysis or the simulator is wrong — and is flagged as such.

Observation only: attaching a ledger never changes simulated results
(asserted bit-identical in ``tests/multiscalar/test_explain.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class SquashLedger:
    """Per-violation structured causes, aggregated per static pair."""

    def __init__(self):
        self.causes: List[dict] = []
        self.sim = None

    def bind(self, sim) -> "SquashLedger":
        self.sim = sim
        return self

    @property
    def violations(self) -> int:
        return len(self.causes)

    def on_violation(self, store_seq, load_seq, time) -> None:
        """Record one violation (called by the simulator pre-squash)."""
        sim = self.sim
        store = sim.trace[store_seq]
        load = sim.trace[load_seq]
        self.causes.append(
            {
                "store_pc": store.pc,
                "load_pc": load.pc,
                "store_task": store.task_id,
                "load_task": load.task_id,
                "distance": load.task_id - store.task_id,
                "time": time,
                "policy": sim.policy.name,
                "decision": sim.policy.explain_violation(store_seq, load_seq),
            }
        )

    def pair_counts(self) -> Dict[Tuple[int, int], int]:
        counts: Counter = Counter()
        for cause in self.causes:
            counts[(cause["store_pc"], cause["load_pc"])] += 1
        return dict(counts)

    def aggregated(self) -> List[dict]:
        """One record per (store PC, load PC), hottest pair first.

        Carries the squash count, the modal dependence distance, the
        first/last squash times, and the *last* policy decision — the
        predictor state the pair ended the run with.
        """
        by_pair: Dict[Tuple[int, int], List[dict]] = {}
        for cause in self.causes:
            by_pair.setdefault((cause["store_pc"], cause["load_pc"]), []).append(cause)
        out = []
        for (store_pc, load_pc), causes in by_pair.items():
            distances = Counter(c["distance"] for c in causes)
            out.append(
                {
                    "store_pc": store_pc,
                    "load_pc": load_pc,
                    "squashes": len(causes),
                    "modal_distance": distances.most_common(1)[0][0],
                    "distances": {str(d): n for d, n in sorted(distances.items())},
                    "first_time": causes[0]["time"],
                    "last_time": causes[-1]["time"],
                    "policy": causes[-1]["policy"],
                    "last_decision": causes[-1]["decision"],
                }
            )
        out.sort(key=lambda r: (-r["squashes"], r["store_pc"], r["load_pc"]))
        return out


@dataclass
class ExplainReport:
    """The cross-referenced squash table for one (program, policy) run."""

    program: str
    policy: str
    stages: int
    stats: dict
    rows: List[dict] = field(default_factory=list)
    verdict_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def contradictions(self) -> List[dict]:
        """Squashing pairs the symbolic analysis proved non-aliasing."""
        return [row for row in self.rows if row["verdict"] == "no"]

    def top(self, k: int) -> List[dict]:
        return self.rows[: max(0, k)]

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "policy": self.policy,
            "stages": self.stages,
            "stats": self.stats,
            "verdict_counts": self.verdict_counts,
            "pairs": self.rows,
            "contradictions": len(self.contradictions),
        }


def explain_program(
    program,
    policy: str = "esync",
    stages: int = 8,
    config=None,
) -> ExplainReport:
    """Run *program* under *policy* with a squash ledger attached and
    cross-reference every squashing pair against the symbolic verdicts."""
    from repro.frontend.trace_cache import cached_run_program
    from repro.multiscalar.config import MultiscalarConfig
    from repro.multiscalar.policies import make_policy
    from repro.multiscalar.processor import MultiscalarSimulator
    from repro.staticdep import analyze_program_symbolic

    trace = cached_run_program(program)
    ledger = SquashLedger()
    sim = MultiscalarSimulator(
        trace,
        config or MultiscalarConfig(stages=stages),
        make_policy(policy),
        observers=[ledger],
    )
    stats = sim.run()
    analysis = analyze_program_symbolic(program)

    verdict_of: Dict[Tuple[int, int], Optional[str]] = {}
    rows = []
    for record in ledger.aggregated():
        pair = (record["store_pc"], record["load_pc"])
        if pair not in verdict_of:
            classified = analysis.classified_for(*pair)
            verdict_of[pair] = classified.verdict if classified is not None else None
        verdict = verdict_of[pair]
        rows.append(
            dict(
                record,
                verdict=verdict if verdict is not None else "unseen",
                static_distance=_static_distance(analysis, pair),
            )
        )

    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    return ExplainReport(
        program=program.name or "<program>",
        policy=policy,
        stages=stages,
        stats=stats.summary(),
        rows=rows,
        verdict_counts=counts,
    )


def _static_distance(analysis, pair) -> Optional[int]:
    classified = analysis.classified_for(*pair)
    if classified is None:
        return None
    return classified.static_distance
