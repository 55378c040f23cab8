"""The benchmark's workloads: grids, set-up, timed passes, checks.

Every workload is a closed loop with one client: it submits a pass of
cells, in an order shuffled by the seed (see ``shuffled``), and submits
the next pass only after the previous one has completed.  Passes are
whole, so every run times the same cells and its percentiles do not
depend on the seed.  Runs time whole passes until ``--seconds`` of them
have passed.

Each cell's simulated statistics are compared with the expected values
committed under ``expected/``; a cell that fails, raises or differs
counts as failed.

Host times of cells are reported at a reference machine speed.  On a
2-vCPU VM the same fig5-stateless pass ran at 67 to 102 thousand
instructions per second, both between processes and between passes of
one process, with no steal time.  So a fixed pure-Python reference loop
runs beside the cells: in this process before each in-process cell and
after the last one, and in the sweep workers before each cell (see
``gauged_run_cell``).  The loop is timed in thread CPU time, so it
measures how fast the CPU runs, not how much of it the process gets:
an executor that takes more CPU from its workers slows their cells'
wall time but not the loop, and shows.  A cell's host time is multiplied by
the loop's nominal CPU time over the measured CPU time: the mean of the
two samples beside it in-process, the median of the pass's samples in a
sweep, whose quarter-length samples are too short to trust one by one.
Host times then read as on a machine that runs the loop in
``REF_NOMINAL_S``.  Over six one-pass fig5-stateless processes
the scaled speed varied 3.5% (coefficient of variation) where the raw
speed varied 8%; a loop timed only for 1 s before and after the pass
varied 9%, because the speed changes within a pass.  The loop lives
here, so no change to ``repro`` can move it.  Set-up times are raw.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.backends import QueueDirBackend
from repro.experiments.executor import Executor, default_run_cell, source_fingerprint
from repro.experiments.sweeps import sweep_cells
from repro.frontend.trace_cache import (
    cached_run_program,
    clear_memory_cache,
    configure_trace_cache,
)
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, make_policy
from repro.workloads import all_workloads, suite

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: cold set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3
#: worker processes of the sweep workloads (the machine has two cores)
SWEEP_JOBS = 2

#: the reference loop's CPU time at the reference speed
REF_NOMINAL_S = 0.005
#: sweep workers run a quarter-length reference loop before each cell
WORKER_REF_SCALE = 0.25


def reference_loop(table, lookup, scale=1.0):
    """Fixed work of the kinds the simulator does: integer arithmetic,
    small-dict updates, and indexed and dict reads over about 1.5 MB."""
    counts = {}
    x = 0
    for i in range(int(15000 * scale)):
        x = (x * 31 + i) & 0xFFFF
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    j = 0
    for _ in range(int(6000 * scale)):
        j = (j + 7919) & 65535
        weight = table[j]
        x += j + lookup.get(weight * 37 & 16383, 0)
        if weight > 500:
            x -= 1
    return x


@lru_cache(maxsize=1)
def _reference_data():
    """The loop's data: a 512 KiB ``array`` and a dict of 16384 ints,
    about 1.5 MB and no GC-tracked objects but the dict itself."""
    return array("l", (i * 7 % 1000 for i in range(65536))), {i: i for i in range(16384)}


def timed_reference(scale=1.0):
    """Thread CPU seconds the full reference loop takes, measured at *scale*."""
    table, lookup = _reference_data()
    t0 = time.thread_time()
    reference_loop(table, lookup, scale)
    return (time.thread_time() - t0) / scale


def gauged_run_cell(spec):
    """The executor's default cell, after a quarter-length reference loop.

    The payload carries the loop's CPU time (the speed this worker saw)
    and the wall time the gauge took, first-call data build included,
    which the benchmark takes out of the cell's time.
    """
    t0 = time.perf_counter()
    reference = timed_reference(WORKER_REF_SCALE)
    gauge_wall = time.perf_counter() - t0
    payload = default_run_cell(spec)
    payload["reference_s"] = reference
    payload["gauge_wall_s"] = gauge_wall
    return payload


@dataclass
class CellRecord:
    """One timed cell, as the benchmark saw it."""

    key: str
    ok: bool
    seconds: float  # host latency of the cell
    instructions: int  # committed simulated instructions (0 unless ok)
    worker: object
    started: float  # wall clock at cell start
    finished: float  # wall clock at cell end
    delivered: Optional[float] = None  # wall clock the result reached us
    attempts: int = 1
    error: Optional[str] = None
    summary: Optional[dict] = None  # simulated statistics, as checked
    factor: float = 1.0  # speed scale for the cell's host time


@dataclass
class PassResult:
    """One pass over a workload's grid."""

    seconds: float  # timed wall time of the pass
    wall_start: float
    factor: float = 1.0  # speed scale for the pass's host times
    records: List[CellRecord] = field(default_factory=list)
    executions: Optional[int] = None  # queue-dir result-stream records
    reclaims: int = 0
    sims: list = field(default_factory=list)  # simulators of a traced in-process pass


def load_expected(name) -> Dict[str, dict]:
    with open(EXPECTED_DIR / ("%s.json" % name)) as fh:
        return json.load(fh)["cells"]


def _maybe_span(spans, name, parent, fn, *args):
    if spans is None:
        return fn(*args)
    with spans.span(name, parent):
        return fn(*args)


def simulate(trace, stages, policy_name, telemetry=None):
    """One cell: ``make_policy``, ``MultiscalarSimulator(...)`` and ``run()``.

    Returns the simulator (its ``stats`` hold the result) and the four
    ``time.perf_counter()`` marks around those three calls.
    """
    t0 = time.perf_counter()
    policy = make_policy(policy_name)
    t1 = time.perf_counter()
    sim = MultiscalarSimulator(trace, MultiscalarConfig(stages=stages), policy, telemetry=telemetry)
    t2 = time.perf_counter()
    sim.run()
    t3 = time.perf_counter()
    return sim, (t0, t1, t2, t3)


def add_cell_spans(spans, kind, marks, parent, key, policy, stats):
    """Spans of one ``simulate`` call: the cell and its three layer calls."""
    t0, t1, t2, t3 = map(spans.wall, marks)
    cid = spans.add(kind, t0, t3, parent, key)
    spans.add("multiscalar.policy", t0, t1, cid, key)
    spans.add("multiscalar.init", t1, t2, cid, key)
    spans.add(
        "multiscalar.run", t2, t3, cid, key, policy=policy,
        committed=stats.committed_instructions, squashed=stats.squashed_instructions,
    )
    return cid


class InProcessWorkload:
    """A figure grid run cell after cell in this process, at scale test.

    Set-up builds, interprets, indexes and columns every program, as
    every ``repro experiment`` run does; a cell is ``simulate``.
    """

    scale = "test"
    in_process = True

    def __init__(self, name, suites, stage_counts, policies, expected):
        self.name = name
        self.expected_name = expected
        self.members = [w for s in suites for w in suite(s)]
        self.cells = [
            ("%s/%d/%s" % (w.name, stages, policy), w.name, stages, policy)
            for w in self.members
            for stages in stage_counts
            for policy in policies
        ]
        self.expected = None

    def load(self):
        self.expected = load_expected(self.expected_name)

    def setup(self, workdir, spans=None, parent=None):
        clear_memory_cache()
        traces = {}
        for workload in self.members:
            build = workload.program
            program = _maybe_span(spans, "workloads.build", parent, build, self.scale)
            trace = _maybe_span(spans, "frontend.interpret", parent, cached_run_program, program)
            _maybe_span(spans, "frontend.index", parent, trace.index)
            _maybe_span(spans, "frontend.columns", parent, trace.columns)
            traces[workload.name] = trace
        return traces

    def run_cell(self, traces, cell, telemetry=None):
        """Run and check one cell; returns (record, simulator, marks)."""
        key, wname, stages, policy_name = cell
        started = time.time()
        t0 = time.perf_counter()
        try:
            sim, marks = simulate(traces[wname], stages, policy_name, telemetry)
        except Exception as exc:  # a raising cell counts as failed, the run goes on
            seconds = time.perf_counter() - t0
            record = CellRecord(
                key, False, seconds, 0, "self", started, started + seconds,
                error="%s: %s" % (type(exc).__name__, exc),
            )
            record.delivered = time.time()
            return record, None, None
        seconds = marks[3] - marks[0]
        summary = sim.stats.summary()
        ok = summary == self.expected.get(key)
        record = CellRecord(
            key,
            ok,
            seconds,
            summary["instructions"] if ok else 0,
            "self",
            started,
            started + seconds,
            error=None if ok else "statistics differ from the expected values",
            summary=summary,
        )
        record.delivered = time.time()
        return record, sim, marks

    def run_pass(self, state, order, spans=None, telemetry=None):
        traces = state
        result = PassResult(0.0, time.time())
        parent = None
        if spans is not None:
            parent = spans.add("pass", result.wall_start, None)
        references = [timed_reference()]
        gauge_wall = 0.0
        t0 = time.perf_counter()
        for cell in order:
            record, sim, marks = self.run_cell(traces, cell, telemetry)
            g0 = time.perf_counter()
            references.append(timed_reference())
            gauge_wall += time.perf_counter() - g0
            result.records.append(record)
            if spans is not None and marks is not None:
                result.sims.append(sim)
                add_cell_spans(spans, "cell", marks, parent, record.key, cell[3], sim.stats)
        # the timed phase is the cells back to back, without the gauge
        result.seconds = time.perf_counter() - t0 - gauge_wall
        # each cell is scaled by the two samples on either side of it
        for i, record in enumerate(result.records):
            record.factor = REF_NOMINAL_S / statistics.mean(references[i : i + 2])
        busy = sum(r.seconds for r in result.records)
        result.factor = sum(r.seconds * r.factor for r in result.records) / busy
        if spans is not None:
            spans.spans[parent]["end"] = time.time()
        return result


#: the statistics a sweep cell's payload carries, checked against expected
CHECKED = ("cycles", "ipc", "mis_speculations")


class SweepWorkload:
    """The ``repro sweep`` grid at scale tiny through the executor.

    All registered workloads x stages {4, 8} x {always, esync}, run by
    ``Executor(jobs=2)``.  Every pass starts with an empty result cache.
    The cold sweep also starts with empty trace caches (on disk and in
    memory) and runs on the local process pool.  The warm sweep keeps
    the on-disk trace cache that set-up filled and runs on the
    queue-dir backend with two spawned workers.
    """

    scale = "tiny"
    in_process = False

    def __init__(self, name, warm):
        self.name = name
        self.warm = warm
        self.expected_name = "sweep-tiny"
        self.members = all_workloads()
        self.cells = []
        for cell in sweep_cells(
            [w.name for w in self.members],
            policies=("always", "esync"),
            overrides={"stages": (4, 8)},
            scale=self.scale,
        ):
            self.cells.append((self.cell_key(cell), cell))
        self.expected = None
        self._passes = 0

    @staticmethod
    def cell_key(cell):
        stages = dict(cell.param("overrides"))["stages"]
        return "%s/%d/%s" % (cell.param("workload"), stages, cell.param("policy"))

    def load(self):
        self.expected = load_expected(self.expected_name)

    def setup(self, workdir, spans=None, parent=None):
        root = workdir / self.name
        if root.exists():
            shutil.rmtree(root)
        cache = root / "cache"
        (cache / "traces").mkdir(parents=True)
        clear_memory_cache()
        programs = [
            _maybe_span(spans, "workloads.build", parent, w.program, self.scale)
            for w in self.members
        ]
        if self.warm:
            # the trace cache co-located with the result cache, as the
            # executor configures it; a later edit invalidates results only
            configure_trace_cache(cache / "traces")
            for program in programs:
                _maybe_span(
                    spans, "frontend.trace_cache.fill", parent, cached_run_program, program
                )
            clear_memory_cache()
        return cache

    def check(self, key, payload):
        expected = self.expected.get(key)
        return expected is not None and all(
            payload.get(name) == expected[name] for name in CHECKED
        )

    def run_pass(self, state, order, spans=None):
        cache = state
        for child in cache.iterdir():
            if child.name != "traces":
                shutil.rmtree(child)
        if not self.warm:
            shutil.rmtree(cache / "traces")
            (cache / "traces").mkdir()
        clear_memory_cache()
        source_fingerprint.cache_clear()
        self._passes += 1
        queue_dir = cache.parent / ("queue%d" % self._passes)
        backend = QueueDirBackend(queue_dir, workers=SWEEP_JOBS) if self.warm else None

        delivered = {}

        def progress(event):
            if event.get("event") == "cell":
                mark = (event["label"], event["seconds"])
                delivered.setdefault(mark, []).append(time.time())

        executor = Executor(
            jobs=SWEEP_JOBS,
            cache=cache,
            run_cell=gauged_run_cell,
            backend=backend,
            progress=progress if spans is not None else None,
        )
        result = PassResult(0.0, time.time())
        t0 = time.perf_counter()
        report = executor.run([cell for _, cell in order])
        elapsed = time.perf_counter() - t0
        done = [r.payload for r in report.results if r.ok]
        # the workers' gauges ran side by side: take them out
        result.seconds = elapsed - sum(p["gauge_wall_s"] for p in done) / SWEEP_JOBS
        if done:  # the median: one slow loop need not mean a slow pass
            result.factor = REF_NOMINAL_S / statistics.median(p["reference_s"] for p in done)
        for (key, _), r in zip(order, report.results):
            ok = r.ok and self.check(key, r.payload)
            error = r.error
            if r.ok and not ok:
                error = "statistics differ from the expected values"
            gauge = r.payload["gauge_wall_s"] if r.ok else 0.0
            record = CellRecord(
                key,
                ok,
                r.seconds - gauge,
                round(r.payload["ipc"] * r.payload["cycles"]) if ok else 0,
                r.worker,
                r.started + gauge,  # the cell began after the gauge
                r.started + r.seconds,
                attempts=r.attempts,
                error=error,
                summary={name: r.payload[name] for name in CHECKED} if r.ok else None,
                factor=result.factor,
            )
            marks = delivered.get((r.cell.label, round(r.seconds, 6)))
            if marks:
                record.delivered = marks.pop(0)
            result.records.append(record)
        if self.warm:
            result.executions = sum(
                len(stream.read_bytes().splitlines())
                for stream in (queue_dir / "results").glob("*.jsonl")
            )
            result.reclaims = sum(1 for _ in (queue_dir / "leases").glob("*.stale.*"))
        if spans is not None:
            self._trace_pass(spans, result, queue_dir)
        return result

    def _trace_pass(self, spans, result, queue_dir):
        """Executor spans, reconstructed from outside the workers."""
        run_id = spans.add(
            "experiments.executor.run", result.wall_start, result.wall_start + result.seconds
        )
        for record in result.records:
            cid = spans.add(
                "experiments.cell", record.started, record.finished, run_id, record.key,
                worker=record.worker, attempts=record.attempts,
            )
            if record.delivered is not None:
                spans.add("experiments.deliver", record.finished, record.delivered, cid, record.key)
        if self.warm:
            for stream in sorted((queue_dir / "results").glob("*.jsonl")):
                for line in stream.read_bytes().splitlines():
                    entry = json.loads(line)
                    outcome = entry["outcome"]
                    spans.add(
                        "experiments.queuedir.execution", outcome["started"], outcome["finished"],
                        run_id, entry["key"], worker=stream.stem, task=entry["task"],
                    )


def make_workloads():
    """The four named workloads, in the order BENCHMARK.json lists them."""
    return {
        w.name: w
        for w in (
            InProcessWorkload(
                "fig5-stateless", ("specint92",), (4, 8),
                ("never", "always", "wait", "psync"), "fig5-stateless",
            ),
            InProcessWorkload(
                "mech-spec95", ("specint95", "specfp95"), (8,),
                ("esync", "storeset", "sync_slice_warmed"), "mech-spec95",
            ),
            SweepWorkload("sweep-cold", warm=False),
            SweepWorkload("sweep-warm-queuedir", warm=True),
        )
    }


def shuffled(cells, rng):
    """A pass's submission order under the seed: the programs in shuffled
    order, each program's cells together and shuffled among themselves,
    as ``repro sweep`` submits a program's cells together."""
    groups = {}
    for cell in cells:
        groups.setdefault(cell[0].split("/")[0], []).append(cell)
    order = list(groups.values())
    rng.shuffle(order)
    for group in order:
        rng.shuffle(group)
    return [cell for group in order for cell in group]


def closed_loop(workload, state, rng, seconds):
    """Whole passes until *seconds* of them have been timed.

    Returns the passes and the peak RSS (MB) read after the first one:
    the same work in every run, however many passes its speed allows.
    Later passes only add allocator fragmentation (15 to 25 MB a pass
    on fig5-stateless, with no Python objects left behind).
    """
    passes = []
    timed = 0.0
    first_rss = None
    while timed < seconds:
        result = workload.run_pass(state, shuffled(workload.cells, rng))
        passes.append(result)
        timed += result.seconds
        if first_rss is None:
            first_rss = peak_rss_mb()
    return passes, first_rss


def peak_rss_mb():
    """The larger ru_maxrss (KiB on Linux) of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
