"""Filesystem work-stealing queue for distributed cell execution.

A *queue directory* is the shared medium between one sweep driver and
any number of workers running :func:`run_worker`: the driver's own
forks and ``repro worker`` processes (same host, or different hosts
over shared storage).  Everything is plain files with atomic
primitives only — ``O_CREAT|O_EXCL`` for claims, temp-file + rename
for records, append for result streams — so the protocol needs no
server, no sockets, and no locks beyond what POSIX rename gives us:

```
<queue-dir>/
  queue.json              # {"version": 1} — layout marker
  tasks/<id>.json         # one shard of cells: specs, keys, timeout
  leases/<id>.lease       # claim marker; mtime doubles as heartbeat
  done/<id>.done          # completion marker (task will not be re-claimed)
  results/<worker>.jsonl  # per-worker result stream, appended and tailed
  STOP                    # sentinel: workers drain out and exit
```

The protocol, from a worker's point of view:

1. **Claim**: pick the first task id with no ``done`` marker and no
   lease, and create ``leases/<id>.lease`` with ``O_CREAT|O_EXCL`` —
   exactly one worker wins the race, the rest move to the next task.
2. **Heartbeat**: while executing, a background thread touches the
   lease's mtime every ``heartbeat_interval`` seconds.
3. **Stream**: each finished cell is appended to the worker's own
   ``results/<worker>.jsonl`` (single-writer, so appends never
   interleave); the driver tails every stream by byte offset.
4. **Complete**: write ``done/<id>.done`` and release the lease.

Fault tolerance is the driver's side of the bargain: a lease whose
mtime is older than ``lease_timeout`` belongs to a dead (or wedged)
worker and is *reclaimed* — renamed aside so the task becomes
claimable again.  A worker that was merely slow may still finish and
append its results; the driver deduplicates by content-addressed cell
key, which is safe because payloads are pure functions of the cell
spec (the repository's determinism contract).
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments.executor import CellError, _validated, _worker, default_run_cell
from repro.fileio import write_atomic

QUEUE_VERSION = 1

#: name of the stop sentinel file
STOP_SENTINEL = "STOP"


def resolve_run_cell(path: Optional[str]) -> Callable[[dict], dict]:
    """Resolve a ``module:qualname`` import path to a cell evaluator.

    ``None``/empty resolves to :func:`default_run_cell` — the common
    case, where tasks carry ordinary experiment/sweep cells.
    """
    if not path:
        return default_run_cell
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise CellError("bad run_cell path %r (expected module:qualname)" % (path,))
    try:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise CellError("cannot resolve run_cell %r: %s" % (path, exc)) from exc
    if not callable(obj):
        raise CellError("run_cell %r resolved to non-callable %r" % (path, obj))
    return obj  # type: ignore[return-value]


def run_cell_path(run_cell: Callable[[dict], dict]) -> Optional[str]:
    """The importable ``module:qualname`` of a cell evaluator.

    Returns ``None`` for the default evaluator (workers fall back to
    it on their own).  Raises :class:`CellError` for evaluators that
    cannot cross a process boundary (lambdas, closures, locals).
    """
    if run_cell is default_run_cell:
        return None
    module = getattr(run_cell, "__module__", None)
    qualname = getattr(run_cell, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise CellError(
            "run_cell %r is not importable by workers (module=%r, qualname=%r); "
            "use a module-level function" % (run_cell, module, qualname)
        )
    return "%s:%s" % (module, qualname)


class QueueDir:
    """One queue directory: atomic task claiming and result streaming."""

    def __init__(self, root):
        self.root = Path(root)
        self.tasks = self.root / "tasks"
        self.leases = self.root / "leases"
        self.done = self.root / "done"
        self.results = self.root / "results"

    # -- setup -------------------------------------------------------------

    def init(self) -> "QueueDir":
        """Create the layout (idempotent; first caller wins the marker)."""
        for directory in (self.tasks, self.leases, self.done, self.results):
            directory.mkdir(parents=True, exist_ok=True)
        marker = self.root / "queue.json"
        if not marker.exists():
            write_atomic(marker, json.dumps({"version": QUEUE_VERSION}, sort_keys=True) + "\n")
        return self

    # -- driver side -------------------------------------------------------

    def enqueue(self, task: dict) -> str:
        """Publish one task record; ``task["id"]`` names it."""
        task_id = task["id"]
        write_atomic(self.tasks / (task_id + ".json"), json.dumps(task, sort_keys=True) + "\n")
        return task_id

    def read_new_results(self, offsets: Dict[str, int]) -> List[dict]:
        """Tail every worker result stream past the remembered offsets.

        *offsets* (stream name -> consumed bytes) is updated in place.
        Only complete (newline-terminated) lines are consumed, so a
        record appended concurrently is simply picked up next call.
        """
        records: List[dict] = []
        try:
            streams = sorted(self.results.glob("*.jsonl"))
        except OSError:
            return records
        for stream in streams:
            name = stream.name
            offset = offsets.get(name, 0)
            try:
                with open(stream, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                continue
            consumed = chunk.rfind(b"\n") + 1
            if consumed <= 0:
                continue
            offsets[name] = offset + consumed
            for line in chunk[:consumed].splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn write from a dying worker: skip the line
                if isinstance(record, dict):
                    records.append(record)
        return records

    def reclaim_stale(self, lease_timeout: float, now: Optional[float] = None) -> List[str]:
        """Rename leases whose heartbeat stopped, making tasks claimable.

        Returns the reclaimed task ids.  The stale lease is renamed (not
        deleted) so a revenant worker touching its old lease cannot
        re-assert a claim; its late results are deduplicated by key.
        """
        if now is None:
            now = time.time()
        reclaimed: List[str] = []
        for lease in sorted(self.leases.glob("*.lease")):
            task_id = lease.name[: -len(".lease")]
            if self.is_done(task_id):
                continue
            try:
                age = now - lease.stat().st_mtime
            except OSError:
                continue  # released or already reclaimed concurrently
            if age < lease_timeout:
                continue
            for attempt in range(100):
                tombstone = self.leases / ("%s.stale.%d" % (task_id, attempt))
                if tombstone.exists():
                    continue
                try:
                    os.rename(lease, tombstone)
                    reclaimed.append(task_id)
                except OSError:
                    pass  # lost the race; someone else reclaimed/released it
                break
        return reclaimed

    def request_stop(self) -> None:
        (self.root / STOP_SENTINEL).touch()

    def stop_requested(self) -> bool:
        return (self.root / STOP_SENTINEL).exists()

    # -- worker side -------------------------------------------------------

    def pending_task_ids(self) -> List[str]:
        """Task ids not yet completed, in enqueue (name) order."""
        try:
            names = sorted(p.name[: -len(".json")] for p in self.tasks.glob("*.json"))
        except OSError:
            return []
        return [task_id for task_id in names if not self.is_done(task_id)]

    def claim(self, worker_id: str) -> Optional[dict]:
        """Atomically claim one pending task, or None if none claimable."""
        for task_id in self.pending_task_ids():
            lease = self.leases / (task_id + ".lease")
            try:
                fd = os.open(str(lease), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue  # another worker holds it
            except OSError:
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps({"worker": worker_id, "pid": os.getpid()}))
            if self.is_done(task_id):
                # completed since we listed it: complete() marks the task
                # done before it drops the lease we just won
                self.release(task_id)
                continue
            task = self._read_task(task_id)
            if task is None:
                self.release(task_id)
                continue
            return task
        return None

    def _read_task(self, task_id: str) -> Optional[dict]:
        try:
            with open(self.tasks / (task_id + ".json")) as fh:
                task = json.load(fh)
        except (OSError, ValueError):
            return None
        return task if isinstance(task, dict) and task.get("id") == task_id else None

    def heartbeat(self, task_id: str) -> bool:
        """Touch the lease mtime; False if the lease was reclaimed."""
        try:
            os.utime(self.leases / (task_id + ".lease"))
            return True
        except OSError:
            return False

    def release(self, task_id: str) -> None:
        try:
            os.unlink(self.leases / (task_id + ".lease"))
        except OSError:
            pass

    def complete(self, task_id: str) -> None:
        (self.done / (task_id + ".done")).touch()
        self.release(task_id)

    def is_done(self, task_id: str) -> bool:
        return (self.done / (task_id + ".done")).exists()

    def append_result(self, worker_id: str, record: dict) -> None:
        """Append one record to this worker's stream (single writer)."""
        stream = self.results / (worker_id + ".jsonl")
        with open(stream, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


class _Heartbeat(threading.Thread):
    """Touches a task's lease every interval until stopped."""

    def __init__(self, queue: QueueDir, task_id: str, interval: float):
        super().__init__(daemon=True)
        self.queue = queue
        self.task_id = task_id
        self.interval = interval
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.queue.heartbeat(self.task_id)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.interval + 1.0)


def run_worker(
    queue,
    worker_id: Optional[str] = None,
    max_tasks: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    poll_interval: float = 0.05,
    heartbeat_interval: float = 1.0,
) -> dict:
    """Work-stealing loop: claim, execute, stream, complete — repeat.

    Runs until the stop sentinel appears, *max_tasks* tasks have been
    executed, or no task was claimable for *idle_timeout* seconds
    (None = wait forever for the sentinel).  Each task's ``run_cell``
    import path is resolved to its evaluator, falling back to
    :func:`default_run_cell`.  The same loop serves the driver's own
    forked workers and ``repro worker`` processes.

    Returns ``{"worker", "tasks", "cells", "failed"}`` stats.
    """
    if not isinstance(queue, QueueDir):
        queue = QueueDir(queue)
    queue.init()
    if worker_id is None:
        worker_id = "w%d-%s" % (os.getpid(), os.urandom(3).hex())
    stats = {"worker": worker_id, "tasks": 0, "cells": 0, "failed": 0}
    idle_since = time.time()
    while True:
        if queue.stop_requested():
            break
        if max_tasks is not None and stats["tasks"] >= max_tasks:
            break
        task = queue.claim(worker_id)
        if task is None:
            if idle_timeout is not None and time.time() - idle_since > idle_timeout:
                break
            time.sleep(poll_interval)
            continue
        idle_since = time.time()
        task_id = task["id"]
        heartbeat = _Heartbeat(queue, task_id, heartbeat_interval)
        heartbeat.start()
        try:
            try:
                evaluator = resolve_run_cell(task.get("run_cell"))
            except CellError as exc:
                evaluator = None
                resolve_error = str(exc)
            specs = task.get("specs", [])
            keys = task.get("keys", [])
            timeout = task.get("timeout")
            attempt = int(task.get("attempt", 1))
            for spec, key in zip(specs, keys):
                if evaluator is None:
                    outcome = {
                        "pid": os.getpid(),
                        "started": time.time(),
                        "finished": time.time(),
                        "status": "failed",
                        "payload": None,
                        "error": resolve_error,
                    }
                else:
                    outcome = _validated(_worker(evaluator, spec, key, timeout))
                if outcome["status"] != "ok":
                    stats["failed"] += 1
                stats["cells"] += 1
                queue.append_result(
                    worker_id,
                    {
                        "task": task_id,
                        "run": task.get("run"),
                        "key": key,
                        "attempt": attempt,
                        "outcome": outcome,
                    },
                )
            queue.complete(task_id)
            stats["tasks"] += 1
        finally:
            heartbeat.stop()
    return stats
