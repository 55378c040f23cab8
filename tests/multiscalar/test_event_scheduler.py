"""The event-driven issue loop vs the exhaustive per-cycle scan.

The simulator's loop rescans a stage only when something that could
change its issue decisions happened, and parks denied entries on their
wake conditions.  That is a pure performance optimization: for every
(workload, config, policy) cell it must produce *exactly* the cycle
count, statistics and squash causes of the per-cycle scan in
``reference.py``.  These tests pin that equivalence over the
micro-benchmark kernels — chosen because they exercise mis-speculation,
squash, synchronization, and multi-producer dataflow, the paths where a
missed wake-up would show up as a divergent cycle count.
"""

import pytest

from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator
from repro.multiscalar.policies import POLICY_ALIASES, POLICY_FACTORIES, make_policy
from repro.telemetry import make_telemetry
from repro.workloads import get_workload
from tests.multiscalar.reference import assert_matches_reference, run_reference

ALL_POLICIES = tuple(POLICY_FACTORIES) + tuple(POLICY_ALIASES)

#: Micro kernels with distinct dependence signatures (violations,
#: pointer chasing, multiple producers, late store addresses).
KERNELS = (
    "micro-recurrence-d2",
    "micro-pointer-chase",
    "micro-multi-producer",
    "micro-late-address",
)


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_policy_matches_cycle_scheduler(kernel, policy):
    trace = get_workload(kernel).trace(scale="tiny")
    assert_matches_reference(trace, policy, stages=4)


@pytest.mark.parametrize("policy", ("never", "always", "sync", "storeset"))
def test_wider_window_matches(policy):
    trace = get_workload("micro-recurrence-d1").trace(scale="tiny")
    assert_matches_reference(trace, policy, stages=8, fetch_width=4)


@pytest.mark.parametrize(
    "register_speculation", ("conservative", "always", "predict")
)
def test_non_oracle_register_modes_match(register_speculation):
    # register denials are never parked: their stage is rescanned every
    # cycle, exactly like the per-cycle scan
    trace = get_workload("micro-conditional-reg").trace(scale="tiny")
    assert_matches_reference(
        trace, "sync", stages=4, register_speculation=register_speculation
    )


def test_icache_model_matches():
    trace = get_workload("micro-independent").trace(scale="tiny")
    assert_matches_reference(trace, "esync", stages=4, model_icache=True)


def test_telemetry_observes_identical_cycles():
    trace = get_workload("micro-recurrence-d2").trace(scale="tiny")
    stats = {}
    for reference in (False, True):
        sim = MultiscalarSimulator(
            trace,
            MultiscalarConfig(stages=4),
            make_policy("sync"),
            telemetry=make_telemetry(),
        )
        stats[reference] = run_reference(sim) if reference else sim.run()
    assert stats[False].summary() == stats[True].summary()


def test_simulator_reruns_are_deterministic():
    trace = get_workload("micro-path-dependent").trace(scale="tiny")
    config = MultiscalarConfig(stages=4)
    first = MultiscalarSimulator(trace, config, make_policy("storeset")).run()
    second = MultiscalarSimulator(trace, config, make_policy("storeset")).run()
    assert first.summary() == second.summary()
