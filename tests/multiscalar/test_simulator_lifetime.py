"""A finished simulator is freed by reference counting alone.

The policy, the squash ledger and the sanitizer all point back at the
simulator while it runs.  When ``run()`` returns they keep only a weak
proxy, so dropping the last outside reference frees the simulator and
its per-run lists at once, with the cyclic collector disabled.  What
callers read after a run stays readable.
"""

import gc
import weakref

import pytest

from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator, make_policy
from repro.multiscalar.explain import SquashLedger
from repro.multiscalar.policies import POLICY_ALIASES, available_policies
from repro.multiscalar.sanitizer import TaintSanitizer
from repro.telemetry import MetricRegistry, Telemetry, TraceEventSink
from repro.workloads import get_workload

POLICIES = available_policies() + tuple(POLICY_ALIASES)


@pytest.fixture(scope="module")
def trace():
    return get_workload("compress").trace("tiny")


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("ledger", [False, True], ids=["no-ledger", "ledger"])
@pytest.mark.parametrize("sanitizer", [False, True], ids=["no-sanitizer", "sanitizer"])
def test_finished_simulator_is_freed_without_the_collector(
    trace, collector_off, policy_name, ledger, sanitizer
):
    policy = make_policy(policy_name)
    squash_ledger = SquashLedger() if ledger else None
    taint = TaintSanitizer(trace) if sanitizer else None
    sim = MultiscalarSimulator(
        trace,
        MultiscalarConfig(stages=4),
        policy,
        observers=[o for o in (taint, squash_ledger) if o is not None],
    )
    stats = sim.run()
    # while the simulator lives, its helpers still reach it
    assert policy.sim.trace is trace
    alive = weakref.ref(sim)
    del sim
    assert alive() is None
    # and what a caller reads after a run is intact
    assert stats.committed_instructions == len(trace)
    if squash_ledger is not None:
        assert squash_ledger.violations == stats.mis_speculations
        squash_ledger.aggregated()
    if taint is not None:
        assert taint.summary()["violations"] == stats.mis_speculations
    engine = getattr(policy, "engine", None)
    if engine is not None:
        assert engine.mdpt is not None


def test_telemetry_does_not_keep_the_simulator(trace, collector_off):
    metrics = MetricRegistry()
    telemetry = Telemetry(metrics=metrics, trace=TraceEventSink())
    sim = MultiscalarSimulator(
        trace, MultiscalarConfig(stages=4), make_policy("esync"), telemetry=telemetry
    )
    sim.run()
    alive = weakref.ref(sim)
    del sim
    assert alive() is None
    assert metrics.to_dict()["counters"]
