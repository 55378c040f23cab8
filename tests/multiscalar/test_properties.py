"""Property-based tests: simulator invariants over random workloads.

These are the strongest checks in the suite: for arbitrary generated
programs, every policy must preserve architectural work, PSYNC must
never mis-speculate, the mechanism must pay at most one cold-start
squash per static pair beyond blind speculation, and the timing model
must be deterministic.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.multiscalar import MultiscalarConfig, simulate, make_policy
from repro.multiscalar.explain import SquashLedger
from repro.multiscalar.processor import MultiscalarSimulator
from repro.workloads import RandomProgramConfig, generate_trace

small_configs = st.builds(
    RandomProgramConfig,
    tasks=st.integers(min_value=2, max_value=16),
    body_ops=st.integers(min_value=1, max_value=6),
    loads_per_task=st.integers(min_value=1, max_value=3),
    stores_per_task=st.integers(min_value=1, max_value=3),
    shared_words=st.integers(min_value=1, max_value=8),
    branch_probability=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
)

stage_counts = st.sampled_from((2, 4, 8))


def run(trace, stages, policy_name):
    return simulate(trace, MultiscalarConfig(stages=stages), make_policy(policy_name))


@settings(max_examples=25, deadline=None)
@given(small_configs, stage_counts)
def test_all_policies_commit_all_work(config, stages):
    trace = generate_trace(config)
    expected = len(trace)
    for policy_name in ("never", "always", "wait", "psync", "sync", "esync"):
        stats = run(trace, stages, policy_name)
        assert stats.committed_instructions == expected, policy_name
        assert stats.tasks_committed == trace.count_tasks(), policy_name


@settings(max_examples=25, deadline=None)
@given(small_configs, stage_counts)
def test_non_speculative_policies_never_mis_speculate(config, stages):
    trace = generate_trace(config)
    for policy_name in ("never", "wait", "psync"):
        stats = run(trace, stages, policy_name)
        assert stats.mis_speculations == 0, policy_name
        assert stats.squashed_instructions == 0, policy_name


@settings(max_examples=20, deadline=None)
@given(small_configs, stage_counts)
@example(
    # one store PC feeding three load PCs: SYNC pays three cold starts
    # while ALWAYS's timing happens to expose only one of the pairs, so
    # an aggregate sync <= always + 1 bound is falsified here
    RandomProgramConfig(
        tasks=14,
        body_ops=2,
        loads_per_task=3,
        stores_per_task=1,
        shared_words=1,
        branch_probability=0.5,
        seed=5962,
    ),
    4,
)
def test_mechanism_pays_at_most_one_cold_start_per_pair(config, stages):
    # The totals are not comparable: synchronizing one pair re-paces
    # the pipeline, which can surface squashes on static pairs blind
    # speculation dodges by timing luck.  The paper's invariant is per
    # static (store PC, load PC) pair — the MDPT learns it by paying
    # exactly one cold-start mis-speculation.
    trace = generate_trace(config)
    counts = {}
    for policy_name in ("always", "sync"):
        ledger = SquashLedger()
        sim = MultiscalarSimulator(
            trace,
            MultiscalarConfig(stages=stages),
            make_policy(policy_name),
            observers=[ledger],
        )
        sim.run()
        counts[policy_name] = ledger.pair_counts()
    for pair, squashes in counts["sync"].items():
        assert squashes <= counts["always"].get(pair, 0) + 1, pair


@settings(max_examples=20, deadline=None)
@given(small_configs, stage_counts)
def test_simulation_is_deterministic(config, stages):
    trace = generate_trace(config)
    a = run(trace, stages, "esync")
    b = run(trace, stages, "esync")
    assert a.cycles == b.cycles
    assert a.mis_speculations == b.mis_speculations
    assert a.squashed_instructions == b.squashed_instructions


@settings(max_examples=20, deadline=None)
@given(small_configs)
@example(
    # found by hypothesis: psync trails never by 10 cycles on 182 (zero
    # mis-speculations on both sides — pure bank/issue-slot arbitration)
    RandomProgramConfig(
        tasks=16,
        body_ops=3,
        loads_per_task=3,
        stores_per_task=1,
        shared_words=3,
        branch_probability=0.5,
        seed=37743,
    ),
)
def test_psync_is_a_lower_bound_among_oracle_policies(config):
    """PSYNC (wait exactly for the producer) is essentially never slower
    than NEVER or WAIT, which wait for strictly more events.

    The bound is not exact: releasing a load earlier changes issue-slot
    and cache-bank arbitration, so a policy that delays loads can dodge
    a structural conflict by luck.  We allow a few cycles of slack.
    """
    trace = generate_trace(config)
    cfg = MultiscalarConfig(stages=4)
    psync = simulate(trace, cfg, make_policy("psync"))
    never = simulate(trace, cfg, make_policy("never"))
    wait = simulate(trace, cfg, make_policy("wait"))
    slack = max(12, never.cycles // 16)
    assert psync.cycles <= never.cycles + slack
    assert psync.cycles <= wait.cycles + slack


@settings(max_examples=15, deadline=None)
@given(small_configs)
def test_cycles_positive_and_bounded(config):
    """Sanity bounds: a run takes at least one cycle per serial-chain
    element and fewer cycles than a fully serialized machine."""
    trace = generate_trace(config)
    stats = run(trace, 4, "always")
    assert stats.cycles >= 1
    # extremely loose upper bound: every instruction fully serialized at
    # worst-case memory latency plus per-violation penalties
    upper = len(trace) * 40 + stats.mis_speculations * 200 + 1000
    assert stats.cycles < upper


@settings(max_examples=15, deadline=None)
@given(small_configs, st.integers(min_value=1, max_value=3))
def test_breakdown_totals_consistent(config, _round):
    trace = generate_trace(config)
    stats = run(trace, 4, "esync")
    b = stats.breakdown
    assert b.total == stats.committed_loads + stats.mis_speculations
    assert min(b.nn, b.ny, b.yn, b.yy) >= 0
