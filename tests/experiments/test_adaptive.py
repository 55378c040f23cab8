"""Successive-halving sweep driver: algorithm, units, and determinism.

The hypothesis suite pins the PR's core claim: same grid + same
sources ⇒ bit-identical rung membership and final table, regardless of
backend or worker count.  The evaluator below makes ties common, so
the full-scale-key tie-break (not luck) is what the property exercises.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.adaptive import (
    METRICS,
    AdaptiveResult,
    adaptive_sweep,
    default_rungs,
)
from repro.experiments.backends import QueueDirBackend
from repro.experiments.executor import Executor, ResultCache, source_fingerprint
from repro.experiments.sweeps import SweepResult, make_sweep_cell


def fake_sweep_cell(spec):
    """Deterministic stand-in for a simulation: the metrics are a pure
    hash of the configuration (scale-independent), coarse enough that
    distinct configs frequently tie."""
    params = dict(spec["params"])
    identity = json.dumps(
        [
            params.get("workload"),
            params.get("policy"),
            params.get("overrides"),
            params.get("policy_overrides", []),
        ],
        sort_keys=True,
    )
    h = int(hashlib.sha256(identity.encode()).hexdigest()[:8], 16)
    return {
        "workload": params.get("workload"),
        "policy": params.get("policy"),
        "overrides": params.get("overrides", []),
        "policy_overrides": params.get("policy_overrides", []),
        "cycles": 100 + h % 4,  # ties on purpose
        "ipc": round(1.0 + (h >> 4) % 4 / 10.0, 2),
        "mis_speculations": (h >> 8) % 3,
    }


def fake_executor(**options):
    """An executor running :func:`fake_sweep_cell`."""
    return Executor(run_cell=fake_sweep_cell, **options)


def failing_for_policy(spec):
    params = dict(spec["params"])
    if params.get("policy") == "bad":
        raise RuntimeError("injected failure")
    return fake_sweep_cell(spec)


def render(adaptive):
    return adaptive.to_table().to_text()


# -- the halving schedule ----------------------------------------------------

def test_default_rungs_covers_the_grid():
    assert default_rungs(1, 3) == 1
    assert default_rungs(3, 3) == 1
    assert default_rungs(4, 3) == 2
    assert default_rungs(9, 3) == 2
    assert default_rungs(16, 3) == 3
    assert default_rungs(16, 2) == 4


def test_rejects_bad_arguments():
    with pytest.raises(ValueError, match="metric"):
        adaptive_sweep(["sc"], metric="bogus", executor=fake_executor())
    with pytest.raises(ValueError, match="eta"):
        adaptive_sweep(["sc"], eta=1, executor=fake_executor())
    with pytest.raises(ValueError, match="workload"):
        adaptive_sweep([], executor=fake_executor())
    with pytest.raises(ValueError, match="rungs"):
        adaptive_sweep(["sc"], rungs=0, executor=fake_executor())
    with pytest.raises(ValueError, match="override axis 'window' has no values"):
        adaptive_sweep(["sc"], overrides={"stages": [4, 8], "window": []},
                       executor=fake_executor())
    with pytest.raises(ValueError, match="policy override axis 'capacity' has no values"):
        adaptive_sweep(["sc"], policy_overrides={"capacity": []}, executor=fake_executor())


def test_rung_schedule_and_unit_accounting():
    # 9 configs, eta=3: rung 1 runs all 9 at 1/3 scale (3 units), rung 2
    # runs the surviving 3 at full scale (3 units) -> 6 vs 9 exhaustive
    adaptive = adaptive_sweep(
        ["w"],
        policies=("a", "b", "c"),
        overrides={"stages": [1, 2, 3]},
        scale="tiny",
        eta=3,
        executor=fake_executor(),
    )
    assert [r["cells"] for r in adaptive.rungs] == [9, 3]
    assert adaptive.result.report.counters()["cells_total"] == 3  # the final rung's run
    assert [r["multiplier"] for r in adaptive.rungs] == [pytest.approx(1 / 3), 1.0]
    assert adaptive.rungs[-1]["scale"] == "tiny"  # the requested scale, verbatim
    assert adaptive.adaptive_units == pytest.approx(6.0)
    assert adaptive.exhaustive_units == 9.0
    assert adaptive.savings == pytest.approx(1 / 3)


def test_winner_matches_exhaustive_best():
    grid = dict(
        policies=("a", "b", "c", "d"),
        overrides={"stages": [1, 2]},
        scale="tiny",
    )
    adaptive = adaptive_sweep(["w1", "w2"], eta=2, executor=fake_executor(), **grid)
    # the evaluator is scale-independent, so halving can never eliminate
    # the true winner: top-1 must equal the exhaustive argmin
    for workload in ("w1", "w2"):
        values = {}
        for policy in grid["policies"]:
            for stages in grid["overrides"]["stages"]:
                cell = make_sweep_cell(
                    workload, policy, "tiny", overrides=[("stages", stages)]
                )
                payload = fake_sweep_cell(cell.spec())
                values[(policy, stages)] = (
                    payload["cycles"],
                    cell.key(source_fingerprint()),
                )
        best_policy, best_stages = min(values, key=values.get)
        winner = adaptive.winners[workload]
        assert (winner.policy, winner.override("stages")) == (best_policy, best_stages)


def test_failed_configs_rank_last_and_surface_in_failed():
    adaptive = adaptive_sweep(
        ["w"],
        policies=("good", "bad"),
        scale="tiny",
        eta=2,
        executor=Executor(run_cell=failing_for_policy, retries=0),
    )
    assert adaptive.winners["w"].policy == "good"
    assert any("bad" in label for label, _ in adaptive.result.failed)


def test_final_rung_is_cache_compatible_with_exhaustive(tmp_path):
    """The last rung runs at the requested scale verbatim, so an
    exhaustive sweep over the same grid reuses the winners' cells."""
    cache = tmp_path / "cache"
    adaptive = adaptive_sweep(
        ["w"],
        policies=("a", "b", "c", "d"),
        scale="tiny",
        eta=2,
        executor=fake_executor(cache=cache),
    )
    winner = adaptive.winners["w"]
    cell = make_sweep_cell("w", winner.policy, "tiny")
    assert ResultCache(cache).get(cell.key(source_fingerprint())) is not None


def test_rung_progress_events():
    events = []
    adaptive_sweep(
        ["w"],
        policies=("a", "b", "c", "d"),
        scale="tiny",
        eta=2,
        executor=fake_executor(progress=events.append),
    )
    rungs = [e for e in events if e.get("event") == "rung"]
    assert [r["rung"] for r in rungs] == [1, 2]
    assert all(r["best"] and r["best"][0][0] == "w" for r in rungs)
    # rung events ride the same stream as executor cell events
    assert any(e.get("event") == "cell" for e in events)


def test_ledger_rung_record_shape():
    adaptive = adaptive_sweep(
        ["w"], policies=("a", "b"), scale="tiny", eta=2, executor=fake_executor()
    )
    for record in adaptive.rungs:
        assert set(record) == {
            "rung", "rungs", "scale", "multiplier", "cells",
            "cached", "failed", "kept", "units",
        }
        json.dumps(record)  # ledger-safe


def test_savings_property_handles_empty():
    empty = AdaptiveResult(result=SweepResult(), winners={})
    assert empty.savings == 0.0


def test_queue_dir_workers_outlive_the_rungs(tmp_path):
    """The rungs share one executor whose backend stays open between
    them: the queue-dir workers are forked once, not once per rung."""
    backend = QueueDirBackend(tmp_path / "q", workers=2, poll_interval=0.005)
    started = []
    start_worker = backend._start_worker

    def counted_start(queue):
        started.append(queue)
        start_worker(queue)

    backend._start_worker = counted_start
    adaptive = adaptive_sweep(
        ["w"],
        policies=("a", "b", "c", "d"),
        scale="tiny",
        eta=2,
        executor=fake_executor(jobs=2, backend=backend),
    )
    assert len(adaptive.rungs) == 2
    assert len(started) == 2


# -- determinism across backends and worker counts ---------------------------

WORKLOAD_NAMES = st.lists(
    st.sampled_from(["wa", "wb", "wc"]), min_size=1, max_size=2, unique=True
)
POLICY_NAMES = st.lists(
    st.sampled_from(["p0", "p1", "p2", "p3", "p4"]),
    min_size=2,
    max_size=4,
    unique=True,
)
OVERRIDES = st.dictionaries(
    st.sampled_from(["stages", "window"]),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3,
             unique=True),
    max_size=2,
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    workloads=WORKLOAD_NAMES,
    policies=POLICY_NAMES,
    overrides=OVERRIDES,
    eta=st.integers(min_value=2, max_value=3),
    metric=st.sampled_from(sorted(METRICS)),
    queue_workers=st.integers(min_value=1, max_value=3),
)
def test_adaptive_is_backend_invariant(
    tmp_path_factory, workloads, policies, overrides, eta, metric, queue_workers
):
    """Same grid + same sources ⇒ identical rung membership, winners,
    and rendered table — serial, repeated, or work-stealing with any
    worker count."""
    grid = dict(
        policies=tuple(policies),
        overrides=overrides,
        scale="tiny",
        eta=eta,
        metric=metric,
    )
    serial = adaptive_sweep(list(workloads), executor=fake_executor(), **grid)
    again = adaptive_sweep(list(workloads), executor=fake_executor(), **grid)
    queue_root = tmp_path_factory.mktemp("queue")
    stolen = adaptive_sweep(
        list(workloads),
        executor=fake_executor(
            jobs=queue_workers,
            backend=QueueDirBackend(queue_root, workers=queue_workers, poll_interval=0.005),
        ),
        **grid,
    )
    for other in (again, stolen):
        assert other.rungs == serial.rungs
        assert render(other) == render(serial)
        assert {w: p.policy for w, p in other.winners.items()} == {
            w: p.policy for w, p in serial.winners.items()
        }
        assert other.adaptive_units == serial.adaptive_units
