"""Parallel experiment execution: process pool, result cache, fault tolerance.

The full table/figure set of the paper is embarrassingly parallel
across ``(experiment x workload x config x policy)`` cells — exactly
the fan-out shape of the Prophet and FSPN evaluation harnesses this
reproduction cites.  This module is the substrate the experiment and
sweep front-ends run on:

* :class:`Cell` — one unit of work, described entirely by
  JSON-serializable data so it can cross a process boundary and be
  hashed into a cache key;
* :class:`ResultCache` — a content-addressed on-disk cache.  The key is
  the SHA-256 of the canonical cell spec plus a fingerprint of the
  package version and the workload sources, so editing a kernel or
  bumping the version invalidates exactly the affected results.  Every
  finished cell is written immediately (atomic rename), which makes the
  cache double as the checkpoint: re-invoking a killed run with the
  same cache loads the finished cells and computes only the rest;
* :class:`Executor` — plans cells into groups that share one decoded
  trace, hands the groups to a backend (inline, a
  ``ProcessPoolExecutor``, or a queue directory), and retries failed
  cells in one loop.  Every cell gets explicit RNG seeding (derived
  from the cache key, so results are independent of execution order
  and worker assignment), a per-cell wall-clock timeout enforced inside
  the worker, bounded retries, and graceful degradation — a crashing,
  hanging, or garbage-returning worker marks its cell FAILED in the
  report instead of killing the run;
* assembly helpers — experiment cells are re-assembled into
  :class:`~repro.experiments.results.ExperimentTable` objects,
  tolerating FAILED cells (a placeholder table carries the error).

Determinism contract: serial, parallel, and warm-cache runs produce
bit-identical ``ExperimentTable.to_json`` payloads, except that
executor-produced tables carry an empty wall-clock ``profile`` (wall
time is inherently nondeterministic; the executor's telemetry and
Chrome trace report timing instead).  The contract is asserted by
``tests/experiments/test_executor_ab.py``.

Telemetry: pass ``metrics=``/``trace=`` sinks to publish
``executor.cells_total/run/cached/retried/failed`` counters, the
``executor.wall_seconds`` gauge, and one Chrome-trace track per worker
process with a span per executed cell.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.results import ExperimentTable
from repro.telemetry import NULL_METRICS, NULL_TRACE

#: cell statuses
OK = "ok"
FAILED = "failed"


class CellError(Exception):
    """A cell could not be executed (bad spec, unknown kind)."""


class CellTimeout(CellError):
    """A cell exceeded its wall-clock budget (raised inside the worker)."""


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """SHA-256 over the package version, the workload sources, and the
    binary trace-cache format version.

    Part of every cache key: editing a synthetic kernel, bumping the
    package version, or changing the trace encoding (whose cached
    traces feed every simulation) changes the fingerprint and
    invalidates every cached result that could depend on it.
    """
    import repro
    import repro.workloads as workloads
    from repro.frontend.trace_cache import TRACE_FORMAT_VERSION

    digest = hashlib.sha256()
    digest.update(repro.__version__.encode())
    digest.update(b":trace-format:%d:" % TRACE_FORMAT_VERSION)
    root = Path(workloads.__file__).resolve().parent
    for path in sorted(root.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class Cell:
    """One unit of work: a kind, a name, and JSON-able parameters.

    ``params`` is a sorted tuple of (key, value) pairs so that two
    cells built from the same keyword arguments — in any order — are
    equal and hash to the same cache key.
    """

    kind: str
    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, kind, name, /, **params) -> "Cell":
        # kind/name are positional-only so params named "kind"/"name"
        # (found by the hypothesis suite) cannot collide with them
        return cls(kind, name, tuple(sorted(params.items())))

    def param(self, key, default=None):
        return dict(self.params).get(key, default)

    def spec(self) -> dict:
        """The JSON-serializable description workers execute from."""
        return {
            "kind": self.kind,
            "name": self.name,
            "params": [[k, v] for k, v in self.params],
        }

    def key(self, fingerprint: Optional[str] = None) -> str:
        """Content-addressed cache key for this cell."""
        if fingerprint is None:
            fingerprint = source_fingerprint()
        payload = {"spec": self.spec(), "fingerprint": fingerprint}
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    @property
    def label(self) -> str:
        return "%s:%s" % (self.kind, self.name)


class ResultCache:
    """Content-addressed on-disk results, one JSON file per cell.

    Layout: ``<root>/<key[:2]>/<key>.json`` holding ``{"key", "cell",
    "payload"}``.  Writes are atomic (temp file + rename) so a killed
    run never leaves a truncated record; corrupt or mismatched records
    read as misses.
    """

    def __init__(self, root):
        self.root = Path(root)

    def path(self, key) -> Path:
        return self.root / key[:2] / (key + ".json")

    def get(self, key) -> Optional[dict]:
        try:
            with open(self.path(key)) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        if not isinstance(record.get("payload"), dict):
            return None
        return record

    def put(self, key, cell: Cell, payload: dict) -> None:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"key": key, "cell": cell.spec(), "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    # -- solo markers ------------------------------------------------------
    #
    # A cell that failed inside a multi-cell group is retried solo — and
    # must *stay* solo when a later run resumes from this cache, instead
    # of re-forming the dead group around its surviving siblings.  The
    # marker is a plain file keyed like the result itself, so it carries
    # the same invalidation semantics (new fingerprint -> new key -> no
    # marker).

    def solo_path(self, key) -> Path:
        return self.root / "solo" / (key + ".solo")

    def mark_solo(self, key) -> None:
        path = self.solo_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.touch()
        except OSError:
            pass  # advisory only: losing the marker costs a retry, not a result

    def is_solo(self, key) -> bool:
        return self.solo_path(key).exists()


@dataclass
class CellResult:
    """Outcome of one cell: OK with a payload, or FAILED with an error."""

    cell: Cell
    status: str
    payload: Optional[dict] = None
    error: Optional[str] = None
    attempts: int = 0
    cached: bool = False
    seconds: float = 0.0
    started: float = 0.0
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass
class RunReport:
    """Everything one :meth:`Executor.run` produced, plus counters."""

    results: List[CellResult] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0
    retried: int = 0

    @property
    def failed(self) -> List[CellResult]:
        return [r for r in self.results if not r.ok]

    @property
    def cached(self) -> List[CellResult]:
        return [r for r in self.results if r.cached]

    @property
    def ran(self) -> List[CellResult]:
        return [r for r in self.results if not r.cached]

    def counters(self) -> dict:
        """The executor's own telemetry as one JSON-able object."""
        return {
            "cells_total": len(self.results),
            "cells_run": len(self.ran),
            "cells_cached": len(self.cached),
            "cells_failed": len(self.failed),
            "cells_retried": self.retried,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
        }


# -- cell execution (runs inside workers) ---------------------------------

#: per-process trace memo for sweep cells; workers are long-lived, so a
#: workload interpreted once serves every cell assigned to that worker
_SWEEP_TRACES: Dict[Tuple[str, object], object] = {}


def _run_sweep_cell(params: dict) -> dict:
    from dataclasses import replace

    from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, make_policy
    from repro.workloads import get_workload

    workload = params["workload"]
    scale = params["scale"]
    memo_key = (workload, scale)
    if memo_key not in _SWEEP_TRACES:
        _SWEEP_TRACES[memo_key] = get_workload(workload).trace(scale)
    trace = _SWEEP_TRACES[memo_key]
    overrides = [(k, v) for k, v in params.get("overrides", [])]
    policy_overrides = [(k, v) for k, v in params.get("policy_overrides", [])]
    config = replace(MultiscalarConfig(), **dict(overrides))
    policy = make_policy(params["policy"], **dict(policy_overrides))
    sim = MultiscalarSimulator(trace, config, policy)
    stats = sim.run()
    payload = {
        "workload": workload,
        "policy": params["policy"],
        "overrides": [[k, v] for k, v in overrides],
        "cycles": stats.cycles,
        "ipc": stats.ipc,
        "mis_speculations": stats.mis_speculations,
    }
    if policy_overrides:
        payload["policy_overrides"] = [[k, v] for k, v in policy_overrides]
    return payload


def default_run_cell(spec: dict) -> dict:
    """Execute one cell spec and return its JSON payload.

    ``experiment`` cells run an :data:`~repro.experiments.ALL_EXPERIMENTS`
    runner and return ``ExperimentTable.to_json()`` with the wall-clock
    profile cleared (wall time is nondeterministic; clearing it is what
    makes serial == parallel == cached bit-identical).  ``sweep`` cells
    run one (workload, config, policy) simulation.
    """
    kind = spec["kind"]
    params = {k: v for k, v in spec.get("params", [])}
    if kind == "experiment":
        from repro.experiments import ALL_EXPERIMENTS

        runner = ALL_EXPERIMENTS[spec["name"]]
        table = runner(**params)
        payload = table.to_json()
        payload["profile"] = {}
        return payload
    if kind == "sweep":
        return _run_sweep_cell(params)
    raise CellError("unknown cell kind %r" % (kind,))


def _seeded_call(run_cell, spec, key, timeout):
    """Run a cell with explicit RNG seeding and a wall-clock budget.

    The seed derives from the cache key, so it is a pure function of
    the cell spec — never of scheduling order or worker identity.  The
    timeout uses ``ITIMER_REAL`` delivered to the (single-task) worker
    process; on platforms without setitimer the budget is unenforced.
    """
    random.seed(int(key[:16], 16))
    use_timer = bool(timeout) and hasattr(signal, "setitimer")
    if use_timer:
        def _expired(signum, frame):
            raise CellTimeout("cell exceeded %.6gs budget" % timeout)

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return run_cell(spec)
    finally:
        if use_timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _worker(run_cell, spec, key, timeout) -> dict:
    """Top-level (picklable) worker: never propagates cell failures."""
    started = time.time()
    try:
        payload = _seeded_call(run_cell, spec, key, timeout)
        status, error = OK, None
    except Exception as exc:
        payload, status = None, FAILED
        error = "%s: %s" % (type(exc).__name__, exc)
    return {
        "pid": os.getpid(),
        "started": started,
        "finished": time.time(),
        "status": status,
        "payload": payload,
        "error": error,
    }


def _run_group(run_cell, specs, keys, timeout) -> List[dict]:
    """Run a group of cells sharing one decoded trace in one process.

    Each cell is still executed through :func:`_worker` — same
    per-cell RNG seeding (a pure function of the cell's cache key),
    same wall-clock budget, same failure capture — so payloads are
    bit-identical to ungrouped execution and one raising cell never
    takes its group down.  The grouping win is locality: every cell
    after the first finds the group's trace (and its shared index and
    columns) already decoded in this process's memo.
    """
    return [_worker(run_cell, spec, key, timeout) for spec, key in zip(specs, keys)]


def _group_key(cell: Cell):
    """The shared-trace grouping key of a cell, or None if ungroupable.

    Sweep cells over one ``(workload, scale)`` decode the same trace;
    anything else runs alone.  Grouping is pure scheduling: cache keys
    and payloads are byte-identical either way.
    """
    if cell.kind == "sweep":
        return (cell.param("workload"), cell.param("scale"))
    return None


#: the planner sizes chunks so every worker draws at least this many:
#: enough to balance load across workers, few enough that each chunk
#: still reuses its decoded trace for several cells
CHUNKS_PER_WORKER = 4


def _validated(outcome: dict) -> dict:
    """Reject garbage worker returns: the payload must be a
    JSON-serializable dict, else the cell degrades to FAILED."""
    if outcome["status"] != OK:
        return outcome
    payload = outcome["payload"]
    if not isinstance(payload, dict):
        return dict(
            outcome,
            status=FAILED,
            payload=None,
            error="garbage payload: expected dict, got %s" % type(payload).__name__,
        )
    try:
        canonical_json(payload)
    except (TypeError, ValueError) as exc:
        return dict(
            outcome,
            status=FAILED,
            payload=None,
            error="garbage payload: not JSON-serializable (%s)" % exc,
        )
    return outcome


# -- the executor ----------------------------------------------------------

def _pool_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        # fork shares the parent's warmed trace caches copy-on-write
        return multiprocessing.get_context("fork")
    return None


class Executor:
    """Fan cells out to worker processes, with cache, retry, timeout.

    The executor alone decides how cells are grouped and retried; a
    backend only runs the groups it is handed.  Sweep cells that read
    the same ``(workload, scale)`` trace are planned into chunks of at
    most ``ceil(pending / (CHUNKS_PER_WORKER * workers))`` cells, so a
    grid over many workloads reuses each decoded trace within a chunk
    while a grid over few workloads keeps one cell per chunk for load
    balance.  Failed cells are re-run as singletons in later rounds
    until they succeed or use up their ``retries``; a cell that failed
    inside a multi-cell chunk also stays solo on any later run that
    resumes from the same cache.  A cell listed twice runs once and
    its result fills both places.

    Args:
        jobs: worker processes; 1 runs inline in this process.
        cache: a :class:`ResultCache`, a directory path, or None.
        timeout: per-cell wall-clock budget in seconds (None = none).
        retries: how many times a FAILED cell is re-attempted.
        run_cell: cell evaluator (``spec dict -> payload dict``); the
            default dispatches on cell kind.  Injectable for tests.
        metrics: a telemetry :class:`MetricRegistry` (default: null sink).
        trace: a telemetry :class:`TraceEventSink` (default: null sink).
        prewarm: optional callable run once in the parent before the
            pool forks — e.g. trace-cache warming that every worker
            then inherits copy-on-write.
        progress: optional callback receiving live progress events
            (``start`` / ``cell`` / ``done`` dicts, see
            :mod:`repro.experiments.progress`) as cells complete; the
            default None skips all progress accounting.
        backend: where cells physically run — an
            :class:`~repro.experiments.backends.ExecutorBackend`
            instance or a name (``"inline"``/``"local"``).  The default
            (None) picks inline for ``jobs=1`` and the local process
            pool otherwise.  Backends only run the planned groups;
            planning, caching, retries, validation, and payloads are
            backend-independent, so every backend is bit-identical.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        timeout: Optional[float] = None,
        retries: int = 1,
        run_cell: Optional[Callable[[dict], dict]] = None,
        metrics=None,
        trace=None,
        prewarm: Optional[Callable[[], None]] = None,
        progress: Optional[Callable[[dict], None]] = None,
        backend=None,
    ):
        self.jobs = max(1, int(jobs or 1))
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.run_cell = run_cell or default_run_cell
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.trace = trace if trace is not None else NULL_TRACE
        self.prewarm = prewarm
        self.progress = progress
        self.backend = backend
        self._tracker = None
        self._warm_workloads: set = set()
        self._cells: List[Cell] = []
        self._keys: List[str] = []
        self._results: List[Optional[CellResult]] = []

    def _resolve_backend(self):
        from repro.experiments.backends import (
            ExecutorBackend,
            InlineBackend,
            LocalPoolBackend,
            make_backend,
        )

        if self.backend is None:
            return InlineBackend() if self.jobs == 1 else LocalPoolBackend()
        if isinstance(self.backend, ExecutorBackend):
            return self.backend
        return make_backend(self.backend)

    def run(self, cells: Iterable[Cell]) -> RunReport:
        """Execute *cells*, returning results in input order."""
        start = time.time()
        cells = list(cells)
        if self.cache is not None and "REPRO_TRACE_CACHE" not in os.environ:
            # co-locate the on-disk trace cache with the result cache so
            # repeated runs (and forked workers, which inherit the
            # configured global) skip re-interpreting workloads; an
            # explicit REPRO_TRACE_CACHE setting wins
            from repro.frontend.trace_cache import configure_trace_cache

            configure_trace_cache(self.cache.root / "traces")
        fingerprint = source_fingerprint()
        keys = [cell.key(fingerprint) for cell in cells]
        results: List[Optional[CellResult]] = [None] * len(cells)

        pending: List[int] = []
        for index, (cell, key) in enumerate(zip(cells, keys)):
            record = self.cache.get(key) if self.cache is not None else None
            if record is not None:
                results[index] = CellResult(
                    cell, OK, payload=record["payload"], cached=True
                )
            else:
                pending.append(index)

        if self.progress is not None:
            from repro.experiments.progress import ProgressTracker

            # the first execution per workload pays trace generation
            # (cold); the rest reuse the cached trace (warm) — tell the
            # tracker the cold population so its blended ETA can weight
            # the remaining warm/cold mix instead of chasing one EWMA
            self._warm_workloads = {
                self._cell_workload(cells[i])
                for i in range(len(cells))
                if results[i] is not None
            } - {None}
            cold_total = len(
                {self._cell_workload(cells[i]) for i in pending}
                - self._warm_workloads
                - {None}
            )
            self._tracker = ProgressTracker(
                total=len(cells),
                cached=len(cells) - len(pending),
                jobs=self.jobs,
                cold_total=cold_total,
            )
            self.progress(self._tracker.start_event())

        retried = 0
        if pending:
            backend = self._resolve_backend()
            if self.prewarm is not None and backend.forks:
                # warm shared state (trace caches) in the parent so
                # forked workers inherit it copy-on-write
                self.prewarm()
            self._cells, self._keys, self._results = cells, keys, results
            try:
                retried = self._execute(backend, pending)
            finally:
                self._cells, self._keys, self._results = [], [], []

        report = RunReport(
            results=[r for r in results if r is not None],
            jobs=self.jobs,
            wall_seconds=time.time() - start,
            retried=retried,
        )
        if self._tracker is not None:
            self.progress(self._tracker.done_event(report.wall_seconds))
            self._tracker = None
        self._publish(report, start)
        return report

    # -- planning and the retry loop ----------------------------------------

    def _execute(self, backend, pending: List[int]) -> int:
        """Run *pending* on *backend*; returns the retries performed.

        Each distinct cache key is dispatched once and its outcome fills
        every index holding it.  Round 1 runs the plan; each later round
        re-runs the cells that failed the round before, as singletons in
        a fresh backend round, while they have attempts left.
        """
        holders: Dict[str, List[int]] = {}
        for index in pending:
            holders.setdefault(self._keys[index], []).append(index)
        distinct = [indices[0] for indices in holders.values()]
        groups = self._plan(distinct, self._cells, self._keys, backend.worker_count(self))
        retried = 0
        attempt = 1
        with backend.hold_open():  # queue-dir workers outlive the rounds
            while groups:
                grouped = {index for group in groups if len(group) > 1 for index in group}
                failed = []
                for index, outcome in backend.run(self, groups, attempt):
                    outcome = _validated(outcome)
                    if outcome["status"] != OK:
                        if index in grouped and self.cache is not None:
                            # a later run resuming from the cache plans it alone
                            self.cache.mark_solo(self._keys[index])
                        if attempt <= self.retries:
                            failed.append(index)
                            continue
                    self._deliver(holders[self._keys[index]], outcome, attempt)
                retried += len(failed)
                groups = [[index] for index in sorted(failed)]
                attempt += 1
        return retried

    def _plan(self, pending, cells, keys, workers: Optional[int]) -> List[List[int]]:
        """Pending indices -> execution groups, in first-seen order.

        Sweep cells sharing a trace (:func:`_group_key`) fill chunks of
        at most ``cap = ceil(len(pending) / (CHUNKS_PER_WORKER * workers))``
        cells; a chunk opens where its first cell appears, so a cap of 1
        gives one group per cell in *pending* order.  *workers* None (an
        external fleet of unknown size) also means a cap of 1, which
        keeps any number of workers busy.  Other cells, and cells
        carrying a solo marker (they failed inside a chunk on an earlier
        run), are singletons.
        """
        cap = math.ceil(len(pending) / (CHUNKS_PER_WORKER * workers)) if workers else 1
        if cap <= 1:
            return [[index] for index in pending]
        open_chunks: Dict[object, List[int]] = {}
        plan: List[List[int]] = []
        for index in pending:
            gk = _group_key(cells[index])
            if gk is None or (self.cache is not None and self.cache.is_solo(keys[index])):
                plan.append([index])
                continue
            chunk = open_chunks.get(gk)
            if chunk is None or len(chunk) == cap:
                open_chunks[gk] = chunk = []
                plan.append(chunk)
            chunk.append(index)
        return plan

    def _task(self, group: List[int]) -> Tuple[List[dict], List[str]]:
        """The cell specs and cache keys a backend ships for *group*."""
        return [self._cells[i].spec() for i in group], [self._keys[i] for i in group]

    @staticmethod
    def _cell_workload(cell: Cell):
        return cell.param("workload")

    def _cell_progress(self, result: CellResult) -> None:
        if self._tracker is not None:
            workload = self._cell_workload(result.cell)
            warm = workload in self._warm_workloads if workload is not None else None
            if workload is not None:
                self._warm_workloads.add(workload)
            self.progress(
                self._tracker.cell_event(
                    result.cell.label,
                    ok=result.ok,
                    seconds=result.seconds,
                    attempts=result.attempts,
                    retried=result.attempts - 1,
                    warm=warm,
                )
            )

    def _deliver(self, indices: List[int], outcome: dict, attempts: int) -> None:
        """Record one key's final, validated outcome in every slot that
        holds it: the immediate cache write (the checkpoint a later run
        resumes from), the result, and the progress event."""
        if self.cache is not None and outcome["status"] == OK:
            self.cache.put(self._keys[indices[0]], self._cells[indices[0]], outcome["payload"])
        for index in indices:
            result = self._to_result(self._cells[index], outcome, attempts)
            self._results[index] = result
            self._cell_progress(result)

    @staticmethod
    def _to_result(cell, outcome, attempts) -> CellResult:
        return CellResult(
            cell=cell,
            status=outcome["status"],
            payload=outcome["payload"],
            error=outcome["error"],
            attempts=attempts,
            seconds=max(0.0, outcome["finished"] - outcome["started"]),
            started=outcome["started"],
            worker=outcome.get("pid"),
        )

    # -- telemetry ---------------------------------------------------------

    def _publish(self, report: RunReport, start: float) -> None:
        counters = report.counters()
        metrics = self.metrics
        for name in ("cells_total", "cells_run", "cells_cached", "cells_failed", "cells_retried"):
            metrics.counter("executor.%s" % name).inc(counters[name])
        metrics.gauge("executor.jobs").set(report.jobs)
        metrics.gauge("executor.wall_seconds").set(counters["wall_seconds"])

        if not self.trace.enabled:
            return
        tids: Dict[object, int] = {}
        for result in report.results:
            if result.cached:
                self.trace.instant(
                    "cached %s" % result.cell.label, ts=0, tid=0, cat="cache"
                )
                continue
            worker = result.worker
            if worker not in tids:
                tids[worker] = len(tids)
                self.trace.thread_name(tids[worker], "worker %d" % tids[worker])
            self.trace.complete(
                result.cell.label,
                ts=max(0.0, (result.started - start) * 1e6),
                dur=max(1.0, result.seconds * 1e6),
                tid=tids[worker],
                cat="cell",
                args={
                    "status": result.status,
                    "attempts": result.attempts,
                    "error": result.error,
                },
            )


# -- experiment-level planning and assembly -------------------------------

#: Experiments that decompose into finer cells (one per suite); the
#: merge concatenates rows in cell order, which matches the serial
#: runner's suite iteration order, so assembly is bit-identical.
EXPERIMENT_SPLITS: Dict[str, Tuple[str, Tuple[Tuple[str, ...], ...]]] = {
    "table1": ("suites", (("specint92",), ("specint95",), ("specfp95",))),
    "figure7": ("suites", (("specint95",), ("specfp95",))),
}


def experiment_cells(keys: Sequence[str], scale="test") -> List[Cell]:
    """The cell list for a set of experiment ids (splits applied)."""
    cells = []
    for key in keys:
        split = EXPERIMENT_SPLITS.get(key)
        if split is None:
            cells.append(Cell.make("experiment", key, scale=scale))
        else:
            param, groups = split
            for group in groups:
                cells.append(
                    Cell.make("experiment", key, scale=scale, **{param: list(group)})
                )
    return cells


def merge_payloads(payloads: Sequence[dict]) -> dict:
    """Merge split-cell payloads: concatenate rows, dedupe notes."""
    base = dict(payloads[0])
    rows: List[list] = []
    notes: List[str] = []
    for payload in payloads:
        rows.extend(payload["rows"])
        for note in payload.get("notes", []):
            if note not in notes:
                notes.append(note)
    base["rows"] = rows
    base["notes"] = notes
    return base


def failed_table(experiment: str, failures: Sequence[CellResult]) -> ExperimentTable:
    """Placeholder table for an experiment with FAILED cells."""
    table = ExperimentTable(
        experiment,
        "(FAILED — %d cell(s) did not complete)" % len(failures),
        ["cell", "error"],
    )
    for result in failures:
        table.add_row(result.cell.label, result.error or "unknown error")
    table.notes.append("FAILED: results incomplete; see the executor report")
    return table


def assemble_experiments(
    keys: Sequence[str], report: RunReport
) -> Dict[str, ExperimentTable]:
    """Cell results -> one table per experiment id, in *keys* order.

    Experiments whose cells all succeeded are reconstructed (split
    cells merged); any FAILED cell degrades that experiment to a
    placeholder table carrying the errors — the rest of the run is
    unaffected.
    """
    by_name: Dict[str, List[CellResult]] = {}
    for result in report.results:
        by_name.setdefault(result.cell.name, []).append(result)
    tables = {}
    for key in keys:
        results = by_name.get(key, [])
        failures = [r for r in results if not r.ok]
        if failures or not results:
            tables[key] = failed_table(key, failures)
        else:
            tables[key] = ExperimentTable.from_json(
                merge_payloads([r.payload for r in results])
            )
    return tables
