"""Layered host-time benchmark of the repro simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig5-stateless --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one client; the seed only shuffles the order in
which programs, and each program's cells, are submitted):

* ``fig5-stateless``: Figure 5's grid in-process at scale test.
* ``mech-spec95``: Figure 7's machine with the MDPT/MDST mechanism,
  store sets and slice warming, in-process at scale test.
* ``sweep-cold``: a first ``repro sweep --jobs 2`` at scale tiny, on
  the local process pool, with empty result and trace caches.
* ``sweep-warm-queuedir``: the same sweep after a source edit, on the
  queue-dir backend, reading traces back from the on-disk cache.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s``,
``sim_kips``, ``cell_ms_p50``, ``cell_ms_p90`` (in-process cell
times at the reference speed of ``harness.py``), ``peak_rss_mb``, and
the error rate.  With ``--trace 1`` it
runs the workload traced and prints the per-layer metrics, next to the
end-to-end metric each should move; the spans go to
``.perfbench/spans-<workload>-seed<seed>.json``.  The last
line of the output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json``.

Every cell's simulated statistics are checked against the values in
``perfbench/expected/``.  All ``REPRO_*`` variables are dropped first,
so the shipped defaults are measured.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODEL_NOTE = (
    "model: the modelled caches and MDPT/MDST start empty in every cell. "
    "The model is unvalidated against hardware, so no accuracy figure is "
    "given; the repo checks only the paper's orderings (EXPERIMENTS.md)."
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stats_digest(records):
    """SHA-256 over every cell's simulated statistics: equal across seeds."""
    by_key = {r.key: r.summary for r in records}
    blob = json.dumps(by_key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cold_setup(workload, workdir, index):
    """Seconds from a fresh interpreter's spawn to the end of its set-up."""
    target = workdir / ("setup-%d" % index)
    target.mkdir()
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), workload.name, str(target)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    shutil.rmtree(target)
    return float(done.stdout.split()[-1]) - t0


def end_to_end(harness, workload, workdir, args):
    """SETUP_REPEATS cold set-ups, this process's set-up, then the closed loop.

    Each cold set-up runs in a fresh interpreter (``setup_once.py``);
    ``setup_s`` is their median.  This process then sets up the state
    its timed cells use.
    """
    setups = [cold_setup(workload, workdir, i) for i in range(harness.SETUP_REPEATS)]
    state = workload.setup(workdir)
    passes, rss = harness.closed_loop(workload, state, random.Random(args.seed), args.seconds)
    records = [r for p in passes for r in p.records]
    timed = sum(p.seconds * p.factor for p in passes)
    latencies = [1000.0 * r.seconds * r.factor for r in records]
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_kips": sum(r.instructions for r in records) / timed / 1000.0,
        "cell_ms_p50": statistics.median(latencies),
        "cell_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "peak_rss_mb": rss,
    }
    failed = sum(not r.ok for r in records)
    print(
        "cells: %d timed in %d passes of %d (%.2f s raw), %d failed"
        % (len(records), len(passes), len(workload.cells), sum(p.seconds for p in passes), failed)
    )
    for i, p in enumerate(passes):
        kips = sum(r.instructions for r in p.records) / p.seconds / 1000.0
        print(
            "  pass %d: %.3f s raw, %.2f kinstr/s raw, speed factor %.4f"
            % (i, p.seconds, kips, p.factor)
        )
    print("cold set-ups (s): %s" % ", ".join("%.4f" % s for s in setups))
    out = {}
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        extra = " (n=%d)" % len(records) if name.startswith("cell_ms") else ""
        if name == "peak_rss_mb":
            extra = " (after set-up and the first pass)"
        print("  %-14s %14.4f %s%s" % (name, metrics[name], unit, extra))
        out[name] = {"value": metrics[name], "unit": unit}
    print(
        "  %-14s %14.4f (%d of %d cells failed)"
        % ("error_rate", failed / len(records), failed, len(records))
    )
    return out, records


def per_layer(harness, workload, workdir, args):
    import layers
    from spans import SpanLog

    spans = SpanLog()
    metrics, records = layers.traced_run(workload, workdir, random.Random(args.seed), spans)
    path = ROOT / ".perfbench" / ("spans-%s-seed%d.json" % (workload.name, args.seed))
    spans.write(path, workload=workload.name, seed=args.seed, metrics=metrics)
    print("spans: %d written to %s" % (len(spans.spans), path.relative_to(ROOT)))
    print("self time by span name (s):")
    for name, agg in sorted(spans.self_times().items()):
        print(
            "  %-34s n=%-5d total %9.4f self %9.4f"
            % (name, agg["count"], agg["total_s"], agg["self_s"])
        )
    print("per-layer metrics (-> the end-to-end metric each should move here):")
    out = {}
    for metric in SPEC["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        print(
            "  %-40s %14.4f %-9s %s"
            % (name, metrics[name], unit, layers.expectation(name, workload.name))
        )
        out[name] = {"value": metrics[name], "unit": unit}
    return out, records


def main(argv=None):
    args = parse_args(argv)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # measure the shipped defaults
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("error: %s holds no repro package to benchmark" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".perfbench" / ("run-%d" % os.getpid())
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")  # executor workers inherit it
    tempfile.tempdir = None
    try:
        import harness
        from repro.frontend import columns
        from repro.multiscalar import active_kernel

        workload = harness.make_workloads()[args.workload]
        workload.load()
        print(
            "perfbench %s seed=%d seconds=%g trace=%d"
            % (workload.name, args.seed, args.seconds, args.trace)
        )
        print(
            "environment: kernel=%s columns=%s python=%s nproc=%d"
            " (REPRO_* dropped: shipped defaults)"
            % (
                active_kernel(),
                "numpy" if columns.HAVE_NUMPY else "array",
                platform.python_version(),
                len(os.sched_getaffinity(0)),
            )
        )
        print(MODEL_NOTE)
        if args.trace:
            metrics, records = per_layer(harness, workload, workdir, args)
        else:
            metrics, records = end_to_end(harness, workload, workdir, args)
        print("stats_digest: %s" % stats_digest(records))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [r for r in records if not r.ok]
    for r in failures[:10]:
        print("FAILED %s: %s" % (r.key, r.error))
    failed = len(failures)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed}
    print(json.dumps(dict(result, metrics=metrics)))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
