"""Adaptive design-space exploration: successive halving over sweeps.

The paper's design space (MDPT size × MDST size × stages × policy ×
workload) is far too large to simulate exhaustively at full scale —
"the design space is vast, and the simulation method extremely time
consuming".  This driver spends full-scale simulation only where the
competition is still open, the same spend-where-uncertain principle
the Prophet pre-computation work applies to instructions:

1. **Rung 0** simulates *every* configuration at a cheap scale — the
   final scale divided by ``eta**(rungs-1)``, via the existing
   fractional-``scale`` machinery (a shorter trace of the same
   workload).
2. Per workload, the top ``1/eta`` configurations by the target metric
   survive; the rest are eliminated.
3. Each following rung multiplies the scale by ``eta`` and re-runs
   only the survivors, until the last rung runs at the requested scale
   exactly — so the winners' numbers are *real* full-scale results,
   cache-compatible with an exhaustive sweep of the same grid.

Determinism: rankings sort by ``(direction * value, full_scale_key)``
where ``full_scale_key`` is the content-addressed cache key the
configuration would have *at the final scale* — a scale-independent
identity.  Ties therefore break identically at every rung, across
inline, process-pool, and queue-dir execution, and against an
exhaustive sweep: same grid + same sources ⇒ bit-identical rung
membership and final table, regardless of backend or worker count.

Cost accounting is in **full-scale cell units**: a cell simulated at
``1/9`` of the final scale costs ``1/9`` of a unit.  The exhaustive
grid costs ``configs × workloads`` units; :class:`AdaptiveResult`
reports both so the ≥60% saving the benchmark gate enforces is
measured, not asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.executor import Executor, source_fingerprint
from repro.experiments.results import ExperimentTable
from repro.experiments.sweeps import (
    SweepResult,
    config_grid,
    make_sweep_cell,
    point_from_payload,
)
from repro.workloads import resolve_scale

#: metric -> sort direction (+1 minimizes, -1 maximizes)
METRICS = {"cycles": 1.0, "mis_speculations": 1.0, "ipc": -1.0}


@dataclass
class AdaptiveResult:
    """Outcome of one successive-halving sweep.

    ``result`` holds the final-rung points (full-scale numbers only);
    ``winners`` maps each workload to its top-1 point; ``rungs`` is
    the JSON-able per-rung record that also lands in the run ledger.
    """

    result: SweepResult
    winners: Dict[str, object]
    rungs: List[dict] = field(default_factory=list)
    eta: int = 3
    metric: str = "cycles"
    exhaustive_units: float = 0.0
    adaptive_units: float = 0.0

    @property
    def savings(self) -> float:
        """Fraction of full-scale cell units avoided vs exhaustive."""
        if self.exhaustive_units <= 0:
            return 0.0
        return 1.0 - self.adaptive_units / self.exhaustive_units

    def to_table(self) -> ExperimentTable:
        table = self.result.to_table(
            title="adaptive sweep (successive halving, eta=%d, metric=%s)"
            % (self.eta, self.metric)
        )
        for record in self.rungs:
            table.notes.append(
                "rung %d/%d: %d cell(s) at scale %s, kept %d (%s units)"
                % (
                    record["rung"],
                    record["rungs"],
                    record["cells"],
                    record["scale"],
                    record["kept"],
                    record["units"],
                )
            )
        for workload in sorted(self.winners):
            point = self.winners[workload]
            table.notes.append(
                "winner %s: %s %s (%s=%s)"
                % (
                    workload,
                    point.policy,
                    _config_label(point.overrides, point.policy_overrides),
                    self.metric,
                    getattr(point, self.metric),
                )
            )
        table.notes.append(
            "cost: %.3f full-scale cell units vs %.1f exhaustive (%.1f%% saved)"
            % (self.adaptive_units, self.exhaustive_units, 100.0 * self.savings)
        )
        return table


def _config_label(overrides, policy_overrides) -> str:
    pairs = list(overrides) + list(policy_overrides)
    if not pairs:
        return "(base)"
    return " ".join("%s=%s" % (k, v) for k, v in pairs)


def default_rungs(n_configs: int, eta: int) -> int:
    """Enough rungs that the final one holds at most *eta* survivors."""
    if n_configs <= 1 or eta <= 1:
        return 1
    return max(1, math.ceil(math.log(n_configs) / math.log(eta)))


def adaptive_sweep(
    workloads: Sequence[str],
    policies: Sequence[str] = ("always", "esync", "psync"),
    overrides: Optional[Dict[str, Sequence[object]]] = None,
    policy_overrides: Optional[Dict[str, Sequence[object]]] = None,
    scale="tiny",
    metric: str = "cycles",
    eta: int = 3,
    rungs: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> AdaptiveResult:
    """Successive halving over the (config × workload) grid.

    Accepts the same grid and *executor* as
    :func:`~repro.experiments.sweeps.sweep` plus the halving knobs.
    Each rung is one run on that executor (default: an inline
    ``Executor()``), so caching, trace-sharing chunks, retries, fault
    tolerance, and the determinism contract apply per rung; its
    backend is held open across the rungs, so a queue-dir fleet is
    started once.  Rung counters go to the executor's metrics and rung
    events to its progress callback.  See the module docstring for the
    algorithm and its determinism guarantees.
    """
    if metric not in METRICS:
        raise ValueError(
            "unknown metric %r (expected one of %s)" % (metric, sorted(METRICS))
        )
    eta = int(eta)
    if eta < 2:
        raise ValueError("eta must be >= 2, got %r" % (eta,))
    workloads = list(workloads)
    configs = config_grid(policies, overrides, policy_overrides)
    if not workloads or not configs:
        raise ValueError("adaptive sweep needs at least one workload and one config")
    total_rungs = default_rungs(len(configs), eta) if rungs is None else int(rungs)
    if total_rungs < 1:
        raise ValueError("rungs must be >= 1, got %r" % (rungs,))

    fingerprint = source_fingerprint()
    direction = METRICS[metric]
    final_multiplier = resolve_scale(scale)

    def config_cell(workload: str, index: int, cell_scale):
        return make_sweep_cell(workload, scale=cell_scale, **configs[index])

    # the scale-independent identity used for tie-breaking: the key the
    # configuration has at the *final* scale, so exact ties resolve the
    # same way at every rung and in an exhaustive full-scale sweep
    final_keys = {
        (w, i): config_cell(w, i, scale).key(fingerprint)
        for w in workloads
        for i in range(len(configs))
    }

    executor = executor or Executor()
    metrics, progress = executor.metrics, executor.progress
    survivors: Dict[str, List[int]] = {w: list(range(len(configs))) for w in workloads}
    rung_records: List[dict] = []
    adaptive_units = 0.0
    report = None
    cellmeta: List[Tuple[str, int]] = []

    # keep backend workers (spawned and external) alive across rungs;
    # the stop sentinel is written once, after the final rung
    with executor.backend.hold_open():
        for rung_index in range(total_rungs):
            shrink = eta ** (total_rungs - 1 - rung_index)
            final_rung = shrink == 1
            # the final rung runs at the requested scale *verbatim* so
            # its cells are cache-compatible with an exhaustive sweep
            rung_scale = scale if final_rung else final_multiplier / shrink
            cells = []
            cellmeta = []
            for workload in workloads:
                for index in survivors[workload]:
                    cells.append(config_cell(workload, index, rung_scale))
                    cellmeta.append((workload, index))
            report = executor.run(cells)
            units = len(cells) / shrink
            adaptive_units += units

            values: Dict[Tuple[str, int], Optional[float]] = {}
            for meta, cell_result in zip(cellmeta, report.results):
                if cell_result.ok:
                    values[meta] = float(cell_result.payload[metric])
                else:
                    values[meta] = None

            kept_total = 0
            for workload in workloads:
                ranked = sorted(
                    survivors[workload],
                    key=lambda i: (
                        values[(workload, i)] is None,  # failures rank last
                        direction * (values[(workload, i)] or 0.0),
                        final_keys[(workload, i)],
                    ),
                )
                if not final_rung:
                    keep = max(1, math.ceil(len(ranked) / eta))
                    ranked = ranked[:keep]
                survivors[workload] = ranked
                kept_total += len(ranked)

            record = {
                "rung": rung_index + 1,
                "rungs": total_rungs,
                "scale": scale if final_rung else round(rung_scale, 9),
                "multiplier": round(1.0 / shrink, 9),
                "cells": len(cells),
                "cached": len(report.cached),
                "failed": len(report.failed),
                "kept": kept_total,
                "units": round(units, 6),
            }
            rung_records.append(record)
            metrics.counter("adaptive.rungs").inc()
            metrics.counter("adaptive.cells").inc(len(cells))
            metrics.counter("adaptive.rung%d.cells" % (rung_index + 1)).inc(len(cells))
            if progress is not None:
                best = []
                for workload in workloads:
                    top = survivors[workload][0]
                    value = values[(workload, top)]
                    best.append([workload, configs[top]["policy"], value])
                progress(dict(record, event="rung", best=best))

    # final table: the last rung's points, in its deterministic ranked
    # cell order; failures there degrade to result.failed as usual
    assert report is not None
    result = SweepResult(report=report)
    points_by_meta: Dict[Tuple[str, int], object] = {}
    for meta, cell_result in zip(cellmeta, report.results):
        if cell_result.ok:
            point = point_from_payload(cell_result.payload)
            result.points.append(point)
            points_by_meta[meta] = point
        else:
            result.failed.append(
                (cell_result.cell.label, cell_result.error or "unknown error")
            )
    winners = {}
    for workload in workloads:
        top = survivors[workload][0]
        point = points_by_meta.get((workload, top))
        if point is not None:
            winners[workload] = point

    exhaustive_units = float(len(configs) * len(workloads))
    metrics.gauge("adaptive.full_scale_units").set(round(adaptive_units, 6))
    metrics.gauge("adaptive.exhaustive_units").set(exhaustive_units)
    adaptive = AdaptiveResult(
        result=result,
        winners=winners,
        rungs=rung_records,
        eta=eta,
        metric=metric,
        exhaustive_units=exhaustive_units,
        adaptive_units=round(adaptive_units, 6),
    )
    metrics.gauge("adaptive.unit_savings").set(round(adaptive.savings, 6))
    return adaptive
