"""Golden-result regression tests.

One checked-in JSON table per experiment at the ``tiny`` scale pins the
exact reproduced numbers, and a point list per sweep grid pins every
simulated (workload, config, policy) result at full precision.  Every
simulator or workload change that shifts a value shows up as a readable
JSON diff.

Intentional rebaselines: run

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py --update-golden

review the diff under ``tests/experiments/golden/``, and commit it.
The tables come from one ``run_all(scale="tiny")``, so simulations that
several tables share run once; their payloads are normalized exactly
like the executor's cache payloads (wall-clock ``profile`` cleared), so
the same fixtures also pin the parallel/cached result format.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS, run_all, sweep

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_EXPERIMENTS = tuple(sorted(ALL_EXPERIMENTS))
SCALE = "tiny"

#: sweep grids pinned point by point (full-precision ipc included)
GOLDEN_SWEEPS = {
    "sweep-sc-xlisp": dict(
        workloads=["sc", "xlisp"],
        policies=("always", "esync"),
        overrides={"stages": (2, 4)},
    ),
    "sweep-sc-xlisp-four-policies": dict(
        workloads=["sc", "xlisp"],
        policies=("always", "esync", "psync", "sync"),
        overrides={"stages": (4, 8)},
    ),
    "sweep-recurrence-penalty": dict(
        workloads=["micro-recurrence-d1"],
        policies=("always", "psync"),
        overrides={"stages": (2, 4), "squash_penalty": (2, 8)},
    ),
}

_tables = None


def canonical(table) -> str:
    payload = table.to_json()
    payload["profile"] = {}  # wall time is nondeterministic by design
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def rendered(key) -> str:
    """*key*'s table from one shared ``run_all`` of every experiment."""
    global _tables
    if _tables is None:
        tables, report = run_all(scale=SCALE)
        assert not report.failed
        _tables = {k: canonical(table) for k, table in tables.items()}
    return _tables[key]


def rendered_points(result) -> str:
    return json.dumps([asdict(p) for p in result.points], indent=2, sort_keys=True) + "\n"


def golden_table(key) -> str:
    return (GOLDEN_DIR / ("%s.json" % key)).read_text()


def golden_points(name) -> str:
    return (GOLDEN_DIR / ("%s.json" % name)).read_text()


def _check(request, name, text):
    path = GOLDEN_DIR / ("%s.json" % name)
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip("rebaselined %s" % path.name)
    assert path.exists(), (
        "missing golden fixture %s — generate it with "
        "`pytest tests/experiments/test_golden.py --update-golden`" % path
    )
    assert text == path.read_text(), (
        "%s drifted from its golden fixture; if the change is intentional, "
        "rerun with --update-golden and commit the diff" % name
    )


@pytest.mark.parametrize("key", GOLDEN_EXPERIMENTS)
def test_golden(key, request):
    _check(request, key, rendered(key))


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_golden_sweep(name, request):
    grid = dict(GOLDEN_SWEEPS[name])
    result = sweep(grid.pop("workloads"), scale=SCALE, **grid)
    _check(request, name, rendered_points(result))
