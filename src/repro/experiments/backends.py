"""Pluggable execution backends for the experiment executor.

The :class:`~repro.experiments.executor.Executor` owns everything that
must not vary across backends — cache scan, content-addressed keys,
the plan of cell groups, the retry loop, result validation, progress
events, telemetry — and delegates only the question of *where cells
physically run* to an :class:`ExecutorBackend`:

* :class:`InlineBackend` — in this process, one cell at a time.  The
  test backend, and what ``--jobs 1`` uses.
* :class:`LocalPoolBackend` — a ``ProcessPoolExecutor`` fan-out, one
  fresh pool per round (the default for ``--jobs N``).
* :class:`QueueDirBackend` — work-stealing over a shared queue
  directory (:mod:`repro.experiments.queuedir`): the driver publishes
  cell groups as task files, any number of ``repro worker`` processes
  claim them with ``O_CREAT|O_EXCL`` lease files, and the driver tails
  their JSONL result streams, reclaiming leases whose heartbeat stops.

A backend runs one round at a time: :meth:`ExecutorBackend.run` gets
groups of cell indices, runs each cell once, and yields ``(index, raw
outcome)`` as cells finish.  It never retries, validates, or caches,
so the determinism contract (serial ≡ parallel ≡ distributed,
bit-identical payloads) holds by construction.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterator, List, Optional, Tuple

from repro.experiments.executor import (
    FAILED,
    OK,
    CellError,
    _pool_context,
    _run_group,
    _worker,
    default_run_cell,
)
from repro.experiments.queuedir import (
    STOP_SENTINEL,
    QueueDir,
    run_cell_path,
    run_worker,
)


class ExecutorBackend:
    """Strategy for physically executing planned cell groups."""

    #: short name used by ``--backend`` and reports
    name = "base"
    #: whether the backend runs cells outside this process (the
    #: executor prewarms shared caches in the parent first if so)
    forks = True

    def worker_count(self, executor) -> Optional[int]:
        """Worker processes this backend runs for *executor*, or None
        when the fleet is external and its size unknown."""
        return executor.jobs

    def hold_open(self):
        """Context manager the executor holds around all of its rounds."""
        return contextlib.nullcontext(self)

    def run(self, executor, groups: List[List[int]], attempt: int) -> Iterator[Tuple[int, dict]]:
        """Run every cell of *groups* once, as attempt number *attempt*.

        Yields ``(index, outcome)`` for each cell as it finishes; the
        outcome is the raw :func:`~repro.experiments.executor._worker`
        record.  ``executor._task(group)`` gives the specs and keys to
        ship, ``executor.run_cell`` and ``executor.timeout`` the rest.
        """
        raise NotImplementedError


class InlineBackend(ExecutorBackend):
    """Run every cell in this process, in plan order."""

    name = "inline"
    forks = False

    def worker_count(self, executor) -> Optional[int]:
        return 1

    def run(self, executor, groups, attempt):
        for group in groups:
            specs, keys = executor._task(group)
            for index, spec, key in zip(group, specs, keys):
                yield index, _worker(executor.run_cell, spec, key, executor.timeout)


def _crashed(exc: BaseException) -> dict:
    """The outcome of a cell whose pool worker died before reporting it."""
    now = time.time()
    return {
        "pid": None,
        "started": now,
        "finished": now,
        "status": FAILED,
        "payload": None,
        "error": "worker crashed: %s: %s" % (type(exc).__name__, exc),
    }


class LocalPoolBackend(ExecutorBackend):
    """Fan groups out to a local ``ProcessPoolExecutor``.

    Each round gets a fresh pool, so the cells a hard worker crash
    took down really run again when the executor retries them.
    """

    name = "local"
    forks = True

    def run(self, executor, groups, attempt):
        with ProcessPoolExecutor(
            max_workers=min(executor.jobs, len(groups)), mp_context=_pool_context()
        ) as pool:
            futures = {}
            for group in groups:
                specs, keys = executor._task(group)
                try:
                    future = pool.submit(_run_group, executor.run_cell, specs, keys, executor.timeout)
                except BrokenProcessPool as exc:  # a worker died mid-submission
                    future = Future()
                    future.set_exception(exc)
                futures[future] = group
            for future in as_completed(futures):
                group = futures[future]
                try:
                    outcomes = future.result()
                except Exception as exc:  # a worker died hard, or its result did not unpickle
                    outcomes = [_crashed(exc) for _ in group]
                yield from zip(group, outcomes)


class QueueDirBackend(ExecutorBackend):
    """Work-stealing execution over a shared queue directory.

    Args:
        queue_dir: the shared directory (created if missing).
        workers: worker processes to spawn locally.  ``None`` spawns
            ``executor.jobs`` of them; ``0`` spawns none and relies on
            external ``repro worker`` processes entirely.
        lease_timeout: seconds without a heartbeat before a claim is
            considered dead and its task reclaimed.
        heartbeat_interval: how often workers touch their lease.
        poll_interval: driver/worker poll cadence.
        threads: run spawned workers as in-process threads instead of
            subprocesses — for tests with closure evaluators that
            cannot cross a process boundary.  Do not mix thread-mode
            closures with external process workers.
        max_respawns: replacement budget for spawned workers that die;
            default twice the spawn count.
        stop_workers: write the stop sentinel when the run finishes so
            idle workers (spawned and external) drain out.
    """

    name = "queue-dir"
    forks = True

    def __init__(
        self,
        queue_dir,
        workers: Optional[int] = None,
        lease_timeout: float = 10.0,
        heartbeat_interval: float = 1.0,
        poll_interval: float = 0.05,
        threads: bool = False,
        max_respawns: Optional[int] = None,
        stop_workers: bool = True,
    ):
        self.queue_dir = queue_dir
        self.workers = workers
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.poll_interval = float(poll_interval)
        self.threads = bool(threads)
        self.max_respawns = max_respawns
        self.stop_workers = bool(stop_workers)
        self._procs: List[subprocess.Popen] = []
        self._threads: List[threading.Thread] = []
        self._respawns = 0
        self._held = 0
        self._queue: Optional[QueueDir] = None

    @contextlib.contextmanager
    def hold_open(self):
        """Keep the queue and its workers alive across several rounds.

        The executor holds it around the rounds of one run, and
        multi-phase drivers (the adaptive sweep runs one executor per
        rung) around their phases, so the worker fleet — spawned *and*
        external — is started once; the stop sentinel is written once,
        when the outermost hold exits.
        """
        self._held += 1
        try:
            yield self
        finally:
            self._held -= 1
            if self._held == 0 and self._queue is not None:
                self._shutdown(self._queue)
                self._queue = None

    def worker_count(self, executor) -> Optional[int]:
        # an external fleet (workers=0) has unknown size
        return self._spawn_count(executor) or None

    # -- worker management -------------------------------------------------

    def _spawn_count(self, executor) -> int:
        return executor.jobs if self.workers is None else max(0, int(self.workers))

    def _spawn_process(self, executor, queue: QueueDir) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        if "REPRO_TRACE_CACHE" not in env and executor.cache is not None:
            # workers are fresh processes, not forks: point them at the
            # same on-disk trace cache the driver co-located with results
            env["REPRO_TRACE_CACHE"] = str(executor.cache.root / "traces")
        self._procs.append(
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    str(queue.root),
                    "--poll",
                    "%g" % self.poll_interval,
                    "--heartbeat",
                    "%g" % self.heartbeat_interval,
                ],
                env=env,
                stdout=subprocess.DEVNULL,
            )
        )

    def _spawn_thread(self, executor, queue: QueueDir) -> None:
        thread = threading.Thread(
            target=run_worker,
            kwargs=dict(
                queue=queue,
                run_cell=executor.run_cell,
                poll_interval=self.poll_interval,
                heartbeat_interval=self.heartbeat_interval,
            ),
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    def _spawn(self, executor, queue: QueueDir, count: int) -> None:
        # top up to *count* live workers (a held-open session keeps the
        # fleet from a previous round alive; don't double it)
        if self.threads:
            self._threads = [t for t in self._threads if t.is_alive()]
            deficit = count - len(self._threads)
        else:
            self._procs = [p for p in self._procs if p.poll() is None]
            deficit = count - len(self._procs)
        for _ in range(max(0, deficit)):
            if self.threads:
                self._spawn_thread(executor, queue)
            else:
                self._spawn_process(executor, queue)

    def _maintain_workers(self, executor, queue: QueueDir) -> None:
        """Replace spawned workers that died while work is outstanding."""
        if self.threads or not self._procs:
            return
        budget = self.max_respawns
        if budget is None:
            budget = 2 * max(1, self._spawn_count(executor))
        live = []
        dead = 0
        for proc in self._procs:
            if proc.poll() is None:
                live.append(proc)
            else:
                dead += 1
        self._procs = live
        for _ in range(dead):
            if self._respawns >= budget:
                if not live and self.workers != 0:
                    raise RuntimeError(
                        "queue-dir backend: all spawned workers died and the "
                        "respawn budget (%d) is exhausted" % budget
                    )
                return
            self._respawns += 1
            self._spawn_process(executor, queue)

    def _shutdown(self, queue: QueueDir) -> None:
        if self.stop_workers:
            queue.request_stop()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2)
                except subprocess.TimeoutExpired:
                    proc.kill()
        self._procs = []
        for thread in self._threads:
            thread.join(timeout=10)
        self._threads = []

    # -- driver ------------------------------------------------------------

    def _open(self) -> QueueDir:
        if self._queue is None:
            self._queue = QueueDir(self.queue_dir).init()
            try:
                # a sentinel left by an earlier run on the same directory
                # would make every fresh worker exit immediately
                os.unlink(self._queue.root / STOP_SENTINEL)
            except OSError:
                pass
        return self._queue

    def run(self, executor, groups, attempt):
        queue = self._open()
        nonce = os.urandom(4).hex()
        if executor.run_cell is default_run_cell:
            cell_path: Optional[str] = None
        else:
            try:
                cell_path = run_cell_path(executor.run_cell)
            except CellError:
                if not self.threads:
                    raise
                cell_path = None  # thread workers get the callable directly

        # key -> index: what this round still owes.  The executor sends
        # each key once, so keys are unique here; duplicate results (a
        # reclaimed worker finishing late) hit a missing key and are
        # dropped — safe, because payloads are pure functions of the spec.
        outstanding: Dict[str, int] = {}
        for number, group in enumerate(groups):
            specs, keys = executor._task(group)
            outstanding.update(zip(keys, group))
            queue.enqueue(
                {
                    "id": "%s-t%06d" % (nonce, number),
                    "run": nonce,
                    "attempt": attempt,
                    "specs": specs,
                    "keys": keys,
                    "timeout": executor.timeout,
                    "run_cell": cell_path,
                }
            )
        self._spawn(executor, queue, self._spawn_count(executor))
        offsets: Dict[str, int] = {}
        last_reclaim = time.monotonic()
        while outstanding:
            progressed = False
            for record in queue.read_new_results(offsets):
                key = record.get("key")
                index = outstanding.get(key) if isinstance(key, str) else None
                outcome = record.get("outcome")
                if index is None or not isinstance(outcome, dict) or "status" not in outcome:
                    continue  # duplicate, foreign, or malformed record
                if outcome["status"] != OK and (
                    record.get("run") != nonce or record.get("attempt") != attempt
                ):
                    continue  # stale failure from a reclaimed attempt
                del outstanding[key]
                progressed = True
                yield index, dict(
                    {"started": 0.0, "finished": 0.0, "payload": None, "error": None},
                    **outcome,
                )
            if not progressed:
                now = time.monotonic()
                if now - last_reclaim >= max(self.lease_timeout / 4, self.poll_interval):
                    queue.reclaim_stale(self.lease_timeout)
                    last_reclaim = now
                self._maintain_workers(executor, queue)
                time.sleep(self.poll_interval)


#: backend registry for ``--backend`` (queue-dir needs a directory, so
#: the CLI constructs it explicitly)
BACKENDS = {
    "inline": InlineBackend,
    "local": LocalPoolBackend,
    "queue-dir": QueueDirBackend,
}


def make_backend(spec, **kwargs) -> ExecutorBackend:
    """Build a backend from a name or pass an instance through."""
    if isinstance(spec, ExecutorBackend):
        return spec
    factory = BACKENDS.get(spec)
    if factory is None:
        raise ValueError(
            "unknown backend %r (expected one of %s)" % (spec, sorted(BACKENDS))
        )
    if factory is QueueDirBackend and "queue_dir" not in kwargs:
        raise ValueError("queue-dir backend needs queue_dir=")
    return factory(**kwargs)
