"""Unit tests for the speculation policies (gating logic in isolation)."""

import pytest

from repro.frontend import run_program
from repro.isa import Assembler
from repro.multiscalar import (
    MechanismPolicy,
    MultiscalarConfig,
    MultiscalarSimulator,
    make_policy,
)
from repro.multiscalar.policies import (
    AlwaysPolicy,
    NeverPolicy,
    PerfectSyncPolicy,
    WaitPolicy,
)
from repro.workloads.random_gen import RandomProgramConfig, generate_trace
from tests.multiscalar.test_kernel_differential import DENSE


def test_factory_names():
    assert isinstance(make_policy("never"), NeverPolicy)
    assert isinstance(make_policy("ALWAYS"), AlwaysPolicy)
    assert isinstance(make_policy("wait"), WaitPolicy)
    assert isinstance(make_policy("psync"), PerfectSyncPolicy)
    assert isinstance(make_policy("sync"), MechanismPolicy)
    assert isinstance(make_policy("esync"), MechanismPolicy)
    assert isinstance(make_policy("always-sync"), MechanismPolicy)


def test_factory_rejects_unknown():
    with pytest.raises(ValueError):
        make_policy("oracle")


def test_mechanism_option_validation():
    with pytest.raises(ValueError):
        MechanismPolicy(structure="ring")
    with pytest.raises(ValueError):
        MechanismPolicy(tagging="pc")


def test_policy_display_names():
    assert make_policy("sync").name == "SYNC"
    assert make_policy("esync").name == "ESYNC"
    assert make_policy("never").name == "NEVER"


class _StubSim:
    """Minimal simulator facade for exercising gate logic directly."""

    def __init__(self):
        self.issued_ok = True
        self.producer = None
        self.producer_is_pending = False
        self.producers = {}
        self.task_of = {}
        self.head_task = 0

    def all_prior_stores_issued(self, seq):
        return self.issued_ok

    def producer_pending(self, seq):
        return self.producer_is_pending


def test_always_gate_is_unconditional():
    policy = AlwaysPolicy()
    policy.bind(_StubSim())
    assert policy.may_issue_load(0, 0) is True


def test_never_gate_requires_both_conditions():
    policy = NeverPolicy()
    sim = _StubSim()
    policy.bind(sim)
    sim.issued_ok, sim.producer_is_pending = True, False
    assert policy.may_issue_load(0, 0)
    sim.issued_ok = False
    assert not policy.may_issue_load(0, 0)
    sim.issued_ok, sim.producer_is_pending = True, True
    assert not policy.may_issue_load(0, 0)


def test_psync_gate_only_checks_producer():
    policy = PerfectSyncPolicy()
    sim = _StubSim()
    policy.bind(sim)
    sim.issued_ok = False  # irrelevant to PSYNC
    sim.producer_is_pending = False
    assert policy.may_issue_load(0, 0)
    sim.producer_is_pending = True
    assert not policy.may_issue_load(0, 0)


def test_wait_gate_depends_on_window_membership():
    policy = WaitPolicy()
    sim = _StubSim()
    policy.bind(sim)
    # load with no producer: free
    sim.producers = {5: None}
    assert policy.may_issue_load(5, 0)
    # producer committed before the window: free
    sim.producers = {5: 2}
    sim.task_of = {2: 0}
    sim.head_task = 3
    assert policy.may_issue_load(5, 0)
    # producer inside the window: full NEVER-style gate applies even if
    # the producer itself already issued
    sim.head_task = 0
    sim.issued_ok = False
    sim.producer_is_pending = False
    assert not policy.may_issue_load(5, 0)
    sim.issued_ok = True
    assert policy.may_issue_load(5, 0)


def _tiny_trace():
    a = Assembler("t")
    a.li("s1", 0x100)
    a.li("s3", 0)
    a.li("s4", 6)
    a.label("l")
    a.task_begin()
    a.addi("s3", "s3", 1)
    a.lw("t0", "s1", 0)
    a.addi("t0", "t0", 1)
    a.sw("t0", "s1", 0)
    a.blt("s3", "s4", "l")
    a.halt()
    return run_program(a.assemble())


def test_mechanism_variants_all_run():
    trace = _tiny_trace()
    cfg = MultiscalarConfig(stages=2)
    for kwargs in (
        {"structure": "split"},
        {"tagging": "address"},
        {"predictor": "esync", "structure": "split", "tagging": "address"},
        {"capacity": 2},
        {"structure": "split", "mdst_capacity": 3},
    ):
        policy = MechanismPolicy(**kwargs)
        stats = MultiscalarSimulator(trace, cfg, policy).run()
        assert stats.committed_instructions == len(trace)


def test_address_tagging_synchronizes_constant_address_recurrence():
    """A scalar-global recurrence has a constant address: address tags
    hit every instance, so the mechanism still avoids mis-speculation."""
    trace = _tiny_trace()
    cfg = MultiscalarConfig(stages=2)
    addr = MechanismPolicy(tagging="address")
    stats = MultiscalarSimulator(trace, cfg, addr).run()
    assert stats.mis_speculations <= 1


@pytest.mark.parametrize("name", ("always", "never", "wait", "psync"))
def test_loop_consults_every_policy_through_its_interface(name):
    """The issue loop decides through the policy object: every load
    decision calls ``may_issue_load`` and every denial parks on
    ``deny_hints``, so call counters wrapped around both see the calls
    and change no statistic."""
    trace = generate_trace(RandomProgramConfig(seed=7, **DENSE))
    config = MultiscalarConfig(stages=4)
    plain = MultiscalarSimulator(trace, config, make_policy(name)).run()

    policy = make_policy(name)
    calls = {"may_issue_load": 0, "deny_hints": 0}
    for method in calls:
        inner = getattr(policy, method)

        def counted(seq, now, inner=inner, method=method):
            calls[method] += 1
            return inner(seq, now)

        setattr(policy, method, counted)
    wrapped = MultiscalarSimulator(trace, config, policy).run()

    assert wrapped.summary() == plain.summary()
    assert calls["may_issue_load"] > 0
    # ALWAYS never denies, so it is never asked why
    assert (calls["deny_hints"] > 0) == (name != "always")
