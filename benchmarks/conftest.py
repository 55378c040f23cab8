"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints the reproduced rows (run ``pytest benchmarks/ --benchmark-only -s``
to see them).  Experiments are expensive, so each runs exactly once per
benchmark via ``run_once``.

Besides timing through pytest-benchmark, ``run_once`` records each
benchmark's wall time and the key values of the table it produced;
``pytest_sessionfinish`` writes the collection to ``BENCH_results.json``
at the repository root (CI uploads it as a build artifact), giving a
machine-readable history of both performance and reproduced numbers.

The harness opts into the executor's content-addressed result cache
(``repro.experiments.executor.ResultCache``): re-running the suite with
unchanged sources serves every table from ``.repro-bench-cache/`` in
milliseconds, and each BENCH_results.json record carries ``"cached"``
so cached timings are never mistaken for simulation timings.  Disable
with ``REPRO_BENCH_CACHE=0`` (or point it at another directory).
"""

import json
import os
import time
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _bench_cache():
    setting = os.environ.get("REPRO_BENCH_CACHE", "")
    if setting in ("0", "off", "no"):
        return None
    from repro.experiments.executor import ResultCache

    return ResultCache(setting or str(_REPO_ROOT / ".repro-bench-cache"))

#: scale used by the benchmark harness; "test" keeps a full table under
#: a couple of minutes while preserving every reported shape
BENCH_SCALE = "test"

#: records accumulated by ``run_once`` over the session
_RESULTS = []


def _table_summary(result):
    """Key values of an :class:`ExperimentTable`-shaped result (duck
    typed so the harness works for any future result container)."""
    if not hasattr(result, "rows"):
        return {"repr": repr(result)[:200]}
    summary = {
        "experiment": getattr(result, "experiment", None),
        "title": getattr(result, "title", None),
        "columns": list(getattr(result, "columns", [])),
        "row_count": len(result.rows),
    }
    if result.rows:
        summary["first_row"] = list(result.rows[0])
        summary["last_row"] = list(result.rows[-1])
    profile = getattr(result, "profile", None)
    if profile:
        summary["profile"] = profile
    return summary


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark *fn* with a single round (experiments are deterministic
    and expensive; statistical repetition adds nothing).

    Table-shaped results are served from / written to the executor's
    result cache keyed on (runner, arguments, source fingerprint), so a
    rerun with unchanged sources measures the cache fetch instead of
    re-simulating."""
    from repro.experiments.executor import Cell
    from repro.experiments.results import ExperimentTable

    cache = _bench_cache()
    cell = Cell.make(
        "bench",
        fn.__name__,
        args=[repr(a) for a in args],
        kwargs={k: repr(v) for k, v in sorted(kwargs.items())},
    )
    key = cell.key() if cache is not None else None
    record = cache.get(key) if cache is not None else None

    timing = {}

    def timed(*a, **kw):
        start = time.perf_counter()
        if record is not None:
            out = ExperimentTable.from_json(record["payload"])
        else:
            out = fn(*a, **kw)
        timing["seconds"] = time.perf_counter() - start
        return out

    result = benchmark.pedantic(timed, args=args, kwargs=kwargs, rounds=1, iterations=1)
    if cache is not None and record is None and hasattr(result, "to_json"):
        payload = result.to_json()
        payload["profile"] = {}  # wall time is not part of the result
        cache.put(key, cell, payload)
    test_id = os.environ.get("PYTEST_CURRENT_TEST", "").split(" ")[0]
    _RESULTS.append(
        {
            "test": test_id,
            "seconds": round(timing.get("seconds", 0.0), 6),
            "cached": record is not None,
            "table": _table_summary(result),
        }
    )
    print()
    print(result.to_text())
    return result


@pytest.fixture
def bench_record():
    """Append a custom record to the session's BENCH_results.json.

    For benchmarks that measure something other than one table-producing
    experiment (e.g. the hot-path A/B legs), where ``run_once`` does not
    fit.  The current test id and wall seconds are mandatory-shaped like
    ``run_once`` records; anything else rides along verbatim.
    """

    def record(seconds, **extra):
        test_id = os.environ.get("PYTEST_CURRENT_TEST", "").split(" ")[0]
        _RESULTS.append(
            {"test": test_id, "seconds": round(seconds, 6), **extra}
        )

    return record


def _git_sha():
    """Short HEAD sha for history records; None outside a checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def pytest_sessionfinish(session, exitstatus):
    """Persist the session's benchmark records.

    ``BENCH_results.json`` holds the latest session (overwritten each
    run, uploaded by CI); ``BENCH_history.jsonl`` accumulates one line
    per session keyed by git sha and timestamp, so ``repro
    bench-report`` can plot the performance trajectory across commits.
    """
    if not _RESULTS:
        return
    root = Path(__file__).resolve().parent.parent
    payload = {"scale": BENCH_SCALE, "results": _RESULTS}
    (root / "BENCH_results.json").write_text(json.dumps(payload, indent=2) + "\n")
    entry = {
        "git_sha": _git_sha(),
        "time": round(time.time(), 3),
        "scale": BENCH_SCALE,
        "results": _RESULTS,
    }
    with open(root / "BENCH_history.jsonl", "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


@pytest.fixture(scope="session", autouse=True)
def warm_trace_cache():
    """Interpret every workload once up front so per-benchmark timings
    measure the experiment, not trace generation."""
    from repro.experiments import load_traces

    for suite_name in ("specint92", "specint95", "specfp95"):
        load_traces(suite_name, BENCH_SCALE)
    yield
