"""Speculation accounting: the paper's Table 8 and Table 9 statistics."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PredictionBreakdown:
    """Dependence-prediction outcomes (paper Table 8).

    A dependence prediction is classified by predicted ("Y"/"N") versus
    actual outcome.  Following the paper's accounting: predictions are
    recorded once per dynamic load when it is ready to access memory;
    for loads on which a dependence is predicted, the outcome is
    recorded after checking the synchronization entries — a load that
    proceeds through a pre-existing full condition variable, or that is
    force-released without ever being signalled, counts as "no
    dependence" (the ``yn`` bucket), while a load that waits and is
    signalled by a store counts as "dependence" (``yy``).  Unpredicted
    loads count ``ny`` when they mis-speculate and ``nn`` otherwise.
    """

    nn: int = 0  # predicted no dependence, none materialized
    ny: int = 0  # predicted no dependence, mis-speculated
    yn: int = 0  # predicted dependence, none materialized (false prediction)
    yy: int = 0  # predicted dependence, store signalled the load

    @property
    def total(self) -> int:
        return self.nn + self.ny + self.yn + self.yy

    def rate(self, bucket) -> float:
        """Fraction of all predictions landing in *bucket* ('nn'...'yy')."""
        total = self.total
        if bucket not in ("nn", "ny", "yn", "yy"):
            raise ValueError("unknown bucket %r" % (bucket,))
        return getattr(self, bucket) / total if total else 0.0

    def percentages(self) -> dict:
        """The four buckets as percentages (Table 8 rows)."""
        return {b: 100.0 * self.rate(b) for b in ("nn", "ny", "yn", "yy")}


@dataclass
class SpeculationStats:
    """Aggregate run statistics reported by the Multiscalar simulator."""

    cycles: int = 0
    committed_instructions: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    mis_speculations: int = 0
    register_mis_speculations: int = 0
    value_mis_speculations: int = 0
    squashed_instructions: int = 0
    tasks_committed: int = 0
    control_mispredictions: int = 0
    breakdown: PredictionBreakdown = field(default_factory=PredictionBreakdown)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.committed_instructions / self.cycles if self.cycles else 0.0

    @property
    def mis_speculations_per_committed_load(self) -> float:
        """The paper's Table 9 metric."""
        if not self.committed_loads:
            return 0.0
        return self.mis_speculations / self.committed_loads

    def summary(self) -> dict:
        """Every accounted field, in a JSON-ready dict.

        Completeness is load-bearing: ``repro simulate --json`` emits
        exactly this, and the telemetry A/B test compares it between
        instrumented and uninstrumented runs.
        """
        return {
            "cycles": self.cycles,
            "instructions": self.committed_instructions,
            "ipc": round(self.ipc, 4),
            "loads": self.committed_loads,
            "stores": self.committed_stores,
            "tasks_committed": self.tasks_committed,
            "mis_speculations": self.mis_speculations,
            "register_mis_speculations": self.register_mis_speculations,
            "value_mis_speculations": self.value_mis_speculations,
            "missspec_per_load": round(self.mis_speculations_per_committed_load, 6),
            "squashed_instructions": self.squashed_instructions,
            "control_mispredictions": self.control_mispredictions,
            "breakdown": {
                "nn": self.breakdown.nn,
                "ny": self.breakdown.ny,
                "yn": self.breakdown.yn,
                "yy": self.breakdown.yy,
            },
        }

    @classmethod
    def from_summary(cls, summary: dict) -> "SpeculationStats":
        """Rebuild the stats from :meth:`summary`'s integer fields.

        The rounded ``ipc`` and ``missspec_per_load`` are ignored: the
        properties recompute them exactly from the counts, and rounding
        a rounded value can differ from rounding once.
        """
        return cls(
            cycles=summary["cycles"],
            committed_instructions=summary["instructions"],
            committed_loads=summary["loads"],
            committed_stores=summary["stores"],
            mis_speculations=summary["mis_speculations"],
            register_mis_speculations=summary["register_mis_speculations"],
            value_mis_speculations=summary["value_mis_speculations"],
            squashed_instructions=summary["squashed_instructions"],
            tasks_committed=summary["tasks_committed"],
            control_mispredictions=summary["control_mispredictions"],
            breakdown=PredictionBreakdown(**summary["breakdown"]),
        )


def speedup(base_stats, other_stats) -> float:
    """Percent speedup of *other* relative to *base* (paper Figures 5-7).

    Positive when *other* finishes the same work in fewer cycles.
    """
    if other_stats.cycles == 0:
        raise ValueError("cannot compute speedup of a zero-cycle run")
    return 100.0 * (base_stats.cycles / other_stats.cycles - 1.0)
