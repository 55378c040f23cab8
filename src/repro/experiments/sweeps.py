"""Parameter-sweep utilities.

The paper leaves most of the design space unexplored ("the design space
is vast, and the simulation method extremely time consuming").  This
module provides the machinery to explore it: run a matrix of
(workload x policy x configuration) simulations and collect the results
as an :class:`~repro.experiments.results.ExperimentTable`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.stats import SpeculationStats
from repro.experiments.results import ExperimentTable

if TYPE_CHECKING:
    from repro.experiments.executor import Executor, RunReport


@dataclass
class SweepPoint:
    """One completed simulation in a sweep."""

    workload: str
    policy: str
    overrides: Tuple[Tuple[str, object], ...]
    cycles: int
    ipc: float
    mis_speculations: int
    policy_overrides: Tuple[Tuple[str, object], ...] = ()

    def override(self, key, default=None):
        """Config override, falling back to policy overrides."""
        merged = dict(self.overrides)
        merged.update(self.policy_overrides)
        return merged.get(key, default)


@dataclass
class SweepResult:
    """All points of one sweep, with selection helpers.

    ``failed`` records (cell label, error) pairs for grid cells that
    did not complete — the surviving points are still usable, and
    :meth:`to_table` notes the gap.  ``report`` is the executor's
    :class:`~repro.experiments.executor.RunReport` for the grid (for
    an adaptive sweep, for its final rung).
    """

    points: List[SweepPoint] = field(default_factory=list)
    failed: List[Tuple[str, str]] = field(default_factory=list)
    report: Optional["RunReport"] = field(default=None, repr=False, compare=False)

    def select(self, **criteria) -> List[SweepPoint]:
        """Points matching workload=/policy=/<override>= criteria."""
        out = []
        for point in self.points:
            ok = True
            for key, value in criteria.items():
                if key == "workload":
                    ok = point.workload == value
                elif key == "policy":
                    ok = point.policy == value
                else:
                    ok = point.override(key) == value
                if not ok:
                    break
            if ok:
                out.append(point)
        return out

    def to_table(self, title="parameter sweep") -> ExperimentTable:
        override_keys = sorted(
            {key for point in self.points for key, _ in point.overrides}
            | {key for point in self.points for key, _ in point.policy_overrides}
        )
        table = ExperimentTable(
            "sweep",
            title,
            ["workload", "policy"] + override_keys + ["cycles", "ipc", "ms"],
        )
        for point in self.points:
            row = [point.workload, point.policy]
            row += [point.override(k, "-") for k in override_keys]
            row += [point.cycles, round(point.ipc, 2), point.mis_speculations]
            table.add_row(*row)
        if self.failed:
            table.notes.append(
                "FAILED: %d cell(s) missing: %s"
                % (len(self.failed), ", ".join(label for label, _ in self.failed))
            )
        return table


def make_sweep_cell(
    workload: str,
    policy: str,
    scale,
    overrides: Sequence[Tuple[str, object]] = (),
    policy_overrides: Sequence[Tuple[str, object]] = (),
):
    """One sweep cell.  ``policy_overrides`` (keyword arguments for
    :func:`~repro.multiscalar.make_policy`, e.g. MDPT/MDST capacities)
    are omitted from the spec when empty so cache keys of plain sweeps
    are unchanged from earlier releases."""
    from repro.experiments.executor import Cell

    params = dict(
        workload=workload,
        policy=policy,
        scale=scale,
        overrides=[[k, v] for k, v in overrides],
    )
    if policy_overrides:
        params["policy_overrides"] = [[k, v] for k, v in policy_overrides]
    return Cell.make("sweep", "%s/%s" % (workload, policy), **params)


def point_from_payload(payload: dict) -> SweepPoint:
    """Rebuild a :class:`SweepPoint` from an executor cell payload."""
    return SweepPoint(
        workload=payload["workload"],
        policy=payload["policy"],
        overrides=tuple((k, v) for k, v in payload["overrides"]),
        cycles=payload["cycles"],
        ipc=payload["ipc"],
        mis_speculations=payload["mis_speculations"],
        policy_overrides=tuple((k, v) for k, v in payload.get("policy_overrides", [])),
    )


def config_grid(
    policies: Sequence[str],
    overrides: Optional[Dict[str, Sequence[object]]] = None,
    policy_overrides: Optional[Dict[str, Sequence[object]]] = None,
) -> List[dict]:
    """The configuration axis of a sweep grid (everything but the
    workload): config overrides, then policy overrides, then policy.
    Each configuration holds the ``policy``, ``overrides`` and
    ``policy_overrides`` arguments of :func:`make_sweep_cell`.  With no
    axes, each policy gets one base configuration; an axis with no
    values raises ``ValueError``, as the grid it spans is empty."""
    overrides = overrides or {}
    policy_overrides = policy_overrides or {}
    for kind, axes in (("override", overrides), ("policy override", policy_overrides)):
        for name in sorted(axes):
            if not axes[name]:
                raise ValueError("%s axis %r has no values" % (kind, name))
    keys = sorted(overrides)
    pkeys = sorted(policy_overrides)
    combos = list(itertools.product(*(overrides[k] for k in keys)))
    pcombos = list(itertools.product(*(policy_overrides[k] for k in pkeys)))
    return [
        {
            "policy": policy,
            "overrides": list(zip(keys, combo)),
            "policy_overrides": list(zip(pkeys, pcombo)),
        }
        for combo in combos
        for pcombo in pcombos
        for policy in policies
    ]


def sweep_cells(
    workloads: Sequence[str],
    policies: Sequence[str] = ("always", "esync", "psync"),
    overrides: Optional[Dict[str, Sequence[object]]] = None,
    scale="tiny",
    policy_overrides: Optional[Dict[str, Sequence[object]]] = None,
):
    """The sweep grid as executor cells, workload-major: workload, then
    the :func:`config_grid` order."""
    configs = config_grid(policies, overrides, policy_overrides)
    return [
        make_sweep_cell(name, scale=scale, **config) for name in workloads for config in configs
    ]


def sweep(
    workloads: Sequence[str],
    policies: Sequence[str] = ("always", "esync", "psync"),
    overrides: Optional[Dict[str, Sequence[object]]] = None,
    scale="tiny",
    policy_overrides: Optional[Dict[str, Sequence[object]]] = None,
    executor: Optional[Executor] = None,
) -> SweepResult:
    """Run the full cross product and return a :class:`SweepResult`.

    *overrides* maps :class:`MultiscalarConfig` field names to value
    lists, e.g. ``{"stages": (4, 8), "squash_penalty": (2, 4, 8)}``;
    *policy_overrides* maps :func:`~repro.multiscalar.make_policy`
    keyword arguments to value lists (e.g. ``{"capacity": (16, 64)}``
    for the MDPT size), crossed into the grid the same way.

    The grid runs as one :meth:`~repro.experiments.executor.Executor.run`
    on *executor* (default: an inline ``Executor()``), which says where
    cells run, where results are cached, and the per-cell
    retry/timeout: one cell per (workload, config, policy) point, and
    FAILED cells recorded on ``result.failed`` instead of aborting.
    The executor groups cells that share one decoded trace into chunks
    sized from the grid and the worker count — a pure scheduling
    choice, so results and cache keys are the same on every backend.
    """
    from repro.experiments.executor import Executor

    cells = sweep_cells(
        workloads, policies, overrides, scale, policy_overrides=policy_overrides
    )
    report = (executor or Executor()).run(cells)
    result = SweepResult(report=report)
    for cell_result in report.results:
        if not cell_result.ok:
            result.failed.append(
                (cell_result.cell.label, cell_result.error or "unknown error")
            )
            continue
        result.points.append(point_from_payload(cell_result.payload))
    return result


# -- declared grids: the paper experiments that are views of one sweep ----


def grid_stats(payloads: Dict[str, dict], scale):
    """``stats(workload, policy, stages)`` over sweep-cell payloads keyed
    by cache key: the :class:`SpeculationStats` of the simulation on a
    *stages*-stage machine — the cell of a ``--override stages=N``
    sweep point — rebuilt from its payload's integer counts."""

    def stats(workload, policy, stages) -> SpeculationStats:
        cell = make_sweep_cell(workload, policy, scale, overrides=[("stages", stages)])
        return SpeculationStats.from_summary(payloads[cell.key()]["stats"])

    return stats


def run_grid(cells, table, scale, **kwargs) -> ExperimentTable:
    """Run one declared grid inline through the executor and assemble
    its table: ``cells(scale, **kwargs)`` lists the sweep cells and
    ``table(stats, **kwargs)`` builds the table from their stats."""
    from repro.experiments.executor import CellError, Executor

    payloads: Dict[str, dict] = {}
    for result in Executor().run(cells(scale, **kwargs)).results:
        if result.payload is None:
            raise CellError("cell %s failed: %s" % (result.cell.label, result.error))
        payloads[result.cell.key()] = result.payload
    return table(grid_stats(payloads, scale), **kwargs)
