"""Parameter-sweep utilities.

The paper leaves most of the design space unexplored ("the design space
is vast, and the simulation method extremely time consuming").  This
module provides the machinery to explore it: run a matrix of
(workload x policy x configuration) simulations and collect the results
as an :class:`~repro.experiments.results.ExperimentTable`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.results import ExperimentTable
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, make_policy
from repro.telemetry import PROFILER
from repro.workloads import get_workload


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
    did not complete under the parallel executor — the surviving points
    are still usable, and :meth:`to_table` notes the gap.
    """

    points: List[SweepPoint] = field(default_factory=list)
    failed: List[Tuple[str, str]] = field(default_factory=list)

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

    def best(self, metric="cycles", **criteria) -> SweepPoint:
        """The point minimizing *metric* among matching points."""
        candidates = self.select(**criteria)
        if not candidates:
            raise KeyError("no sweep points match %r" % (criteria,))
        return min(candidates, key=lambda p: getattr(p, metric))

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


def sweep_cells(
    workloads: Sequence[str],
    policies: Sequence[str] = ("always", "esync", "psync"),
    overrides: Optional[Dict[str, Sequence[object]]] = None,
    scale="tiny",
    policy_overrides: Optional[Dict[str, Sequence[object]]] = None,
):
    """The sweep grid as executor cells, in serial iteration order."""
    overrides = overrides or {}
    keys = sorted(overrides)
    combos = list(itertools.product(*(overrides[k] for k in keys))) or [()]
    pkeys = sorted(policy_overrides or {})
    pcombos = list(
        itertools.product(*((policy_overrides or {})[k] for k in pkeys))
    ) or [()]
    cells = []
    for name in workloads:
        for combo in combos:
            for pcombo in pcombos:
                for policy_name in policies:
                    cells.append(
                        make_sweep_cell(
                            name,
                            policy_name,
                            scale,
                            overrides=list(zip(keys, combo)),
                            policy_overrides=list(zip(pkeys, pcombo)),
                        )
                    )
    return cells


def _sweep_parallel(
    workloads, policies, overrides, scale, jobs, cache_dir, timeout, retries,
    metrics=None, trace=None, progress=None, backend=None, policy_overrides=None,
) -> SweepResult:
    from repro.experiments.executor import Executor

    cells = sweep_cells(
        workloads, policies, overrides, scale, policy_overrides=policy_overrides
    )
    executor = Executor(
        jobs=jobs or 1,
        cache=cache_dir,
        timeout=timeout,
        retries=retries,
        metrics=metrics,
        trace=trace,
        progress=progress,
        backend=backend,
    )
    report = executor.run(cells)
    result = SweepResult()
    for cell_result in report.results:
        if not cell_result.ok:
            result.failed.append(
                (cell_result.cell.label, cell_result.error or "unknown error")
            )
            continue
        result.points.append(point_from_payload(cell_result.payload))
    result.report = report  # type: ignore[attr-defined]
    return result


def sweep(
    workloads: Sequence[str],
    policies: Sequence[str] = ("always", "esync", "psync"),
    overrides: Optional[Dict[str, Sequence[object]]] = None,
    scale="tiny",
    base_config: Optional[MultiscalarConfig] = None,
    traces=None,
    jobs: Optional[int] = None,
    cache_dir=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    metrics=None,
    trace=None,
    progress=None,
    backend=None,
    policy_overrides: Optional[Dict[str, Sequence[object]]] = None,
) -> SweepResult:
    """Run the full cross product and return a :class:`SweepResult`.

    *overrides* maps :class:`MultiscalarConfig` field names to value
    lists, e.g. ``{"stages": (4, 8), "squash_penalty": (2, 4, 8)}``;
    *policy_overrides* maps :func:`~repro.multiscalar.make_policy`
    keyword arguments to value lists (e.g. ``{"capacity": (16, 64)}``
    for the MDPT size), crossed into the grid the same way.
    Pass *traces* (name -> Trace) to reuse interpreted traces.

    Pass ``jobs`` and/or ``cache_dir`` to route the grid through the
    parallel executor (:mod:`repro.experiments.executor`): one cell per
    (workload, config, policy) point, content-addressed caching,
    per-cell retry/timeout, and FAILED cells recorded on
    ``result.failed`` instead of aborting.  The executor path supports
    the default base configuration plus scalar ``overrides`` only (cell
    specs must be JSON-serializable); results are bit-identical to the
    serial path.  The executor groups cells that share one decoded
    trace into chunks sized from the grid and the worker count, so a
    trace is decoded and indexed once per chunk — a pure scheduling
    choice, results and cache keys are unchanged.
    """
    if jobs is not None or cache_dir is not None or backend is not None:
        if base_config is not None or traces is not None:
            raise ValueError(
                "parallel sweep supports the default base config only "
                "(cell specs must be JSON-serializable); drop base_config/traces "
                "or run serially"
            )
        return _sweep_parallel(
            workloads, policies, overrides, scale, jobs, cache_dir,
            timeout, retries, metrics=metrics, trace=trace, progress=progress,
            backend=backend, policy_overrides=policy_overrides,
        )
    overrides = overrides or {}
    base = base_config or MultiscalarConfig()
    traces = dict(traces or {})
    for name in workloads:
        if name not in traces:
            with PROFILER.scope("trace-gen"):
                traces[name] = get_workload(name).trace(scale)

    keys = sorted(overrides)
    combos = list(itertools.product(*(overrides[k] for k in keys))) or [()]
    pkeys = sorted(policy_overrides or {})
    pcombos = list(
        itertools.product(*((policy_overrides or {})[k] for k in pkeys))
    ) or [()]
    result = SweepResult()
    for name in workloads:
        for combo in combos:
            config = replace(base, **dict(zip(keys, combo)))
            for pcombo in pcombos:
                for policy_name in policies:
                    sim = MultiscalarSimulator(
                        traces[name], config, make_policy(policy_name, **dict(zip(pkeys, pcombo)))
                    )
                    with PROFILER.scope("simulate"):
                        stats = sim.run()
                    result.points.append(
                        SweepPoint(
                            workload=name,
                            policy=policy_name,
                            overrides=tuple(zip(keys, combo)),
                            cycles=stats.cycles,
                            ipc=stats.ipc,
                            mis_speculations=stats.mis_speculations,
                            policy_overrides=tuple(zip(pkeys, pcombo)),
                        )
                    )
    return result
