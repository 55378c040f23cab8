"""Differential harness: the simulator's issue loop vs the per-cycle scan.

The simulator runs every cell on one event-driven columnar loop
(:mod:`repro.multiscalar.batched`).  The per-cycle scan in
``reference.py`` is its specification: it parks nothing and re-derives
every decision each cycle.  Every cell — randomized programs x all
registered policies x register models x machine shapes — must produce
*bit-identical* ``SpeculationStats`` summaries AND bit-identical squash
ledgers (every violation's structured cause, including the policy's
predictor-state explanation, in order).  Checking the ledger catches a
whole class of bugs the end-of-run stats can mask: two loops can reach
the same cycle count through differently-ordered violations.

``REGRESSION_CASES`` pins (seed, config, policy) triples aimed at the
trickiest corners of the loop; any cell that ever diverges gets added
there so the exact failure stays in the suite forever.
"""

import pytest

from repro.multiscalar.policies import POLICY_ALIASES, POLICY_FACTORIES
from repro.telemetry import make_telemetry
from repro.workloads import get_workload
from repro.workloads.random_gen import RandomProgramConfig, generate_trace
from tests.multiscalar.reference import assert_matches_reference, run_cell

ALL_POLICIES = tuple(POLICY_FACTORIES) + tuple(POLICY_ALIASES)

#: Dense cross-task dependences: a small shared region makes most loads
#: hit a recent store from another task, stressing violations, squash,
#: and synchronization on every policy.
DENSE = dict(tasks=24, shared_words=4, loads_per_task=3, stores_per_task=2)

#: (name, seed, generator overrides, config overrides, policy) cells
#: pinned against the trickiest corners of the loop.  The harness runs
#: them first — they are the cheapest early warning.
REGRESSION_CASES = (
    # mid-scan squash: VSYNC's on_store_issued squashes while the issue
    # scan is iterating the pre-squash unissued list
    ("vsync-midscan", 7, dict(DENSE), dict(stages=4), "vsync"),
    # WAIT's commit-wake hint plus a park that fails with registrations
    # already made
    ("wait-commit-wake", 11, dict(DENSE, tasks=40), dict(stages=8), "wait"),
    # compaction threshold: tasks long enough for the 64-entry dead
    # prefix compaction to trigger under a narrow window
    ("compaction", 3, dict(DENSE, body_ops=24, tasks=12), dict(rs_window=8), "never"),
    # sequencer mispredictions gate dispatch; the loop uses the
    # precomputed correct/mispredict stream, the reference the predictor
    ("mispredict-stream", 5, dict(DENSE, branch_probability=0.8), dict(stages=8), "sync"),
)

#: The register models whose consumers may issue on stale values.
NON_ORACLE_MODELS = ("conservative", "always", "predict")


def _trace(seed, **overrides):
    return generate_trace(RandomProgramConfig(seed=seed, **overrides))


@pytest.mark.parametrize("case", REGRESSION_CASES, ids=lambda c: c[0])
def test_pinned_regressions(case):
    _name, seed, gen_overrides, config_overrides, policy = case
    trace = _trace(seed, **gen_overrides)
    assert_matches_reference(trace, policy, **config_overrides)


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("seed", (7, 11))  # both seeds produce real violations
def test_every_policy_random_program(policy, seed):
    trace = _trace(seed, **DENSE)
    summary = assert_matches_reference(trace, policy, stages=4)
    assert summary["tasks_committed"] == trace.count_tasks()


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("model", NON_ORACLE_MODELS)
def test_non_oracle_register_models_every_policy(model, policy):
    """Register denials never park: the stage is rescanned next cycle,
    and register violations squash from the completion events."""
    for seed in (7, 11):
        summary = assert_matches_reference(
            _trace(seed, **DENSE), policy, stages=4, register_speculation=model
        )
        if model != "conservative":
            assert summary["register_mis_speculations"] > 0


@pytest.mark.parametrize(
    "policy", ("never", "always", "wait", "psync", "sync", "esync", "storeset")
)
def test_config_matrix(policy):
    """Shape variations: wide machine, narrow window, modeled i-cache,
    and the long-scan shapes (many stages, a window wider than the
    default with a wider issue)."""
    trace = _trace(4, **DENSE)
    assert_matches_reference(trace, policy, stages=8, fetch_width=4)
    assert_matches_reference(trace, policy, stages=4, rs_window=8)
    assert_matches_reference(trace, policy, stages=4, model_icache=True)
    assert_matches_reference(trace, policy, stages=16)
    assert_matches_reference(trace, policy, stages=8, rs_window=128, issue_width=4)


@pytest.mark.parametrize(
    "kernel",
    (
        "micro-recurrence-d2",
        "micro-pointer-chase",
        "micro-multi-producer",
        "micro-late-address",
    ),
)
def test_micro_kernels(kernel):
    """The A/B micro kernels, one dependence phenomenon each."""
    trace = get_workload(kernel).trace(scale="tiny")
    for policy in ("never", "always", "wait", "psync", "sync", "esync", "storeset"):
        assert_matches_reference(trace, policy, stages=4)


def _telemetry_outcome(trace, policy_name, reference, **config_kwargs):
    telemetry = make_telemetry()
    summary, causes = run_cell(
        trace, policy_name, reference=reference, telemetry=telemetry, **config_kwargs
    )
    metrics = telemetry.metrics.to_dict()
    # counts policy calls: the loop skips repeat calls by design
    metrics["counters"].pop("policy.load_denials", None)
    return summary, causes, metrics, telemetry.trace.events


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("model", ("oracle", "predict"))
def test_telemetry_matches_reference(model, policy):
    """Instrumented runs take the same loop: every metric and every
    trace event equals the reference's, but ``policy.load_denials``."""
    for trace in (_trace(7, **DENSE), get_workload("micro-recurrence-d2").trace(scale="tiny")):
        kwargs = dict(stages=4, register_speculation=model)
        got = _telemetry_outcome(trace, policy, False, **kwargs)
        want = _telemetry_outcome(trace, policy, True, **kwargs)
        assert got[:2] == want[:2]
        assert got[2] == want[2]
        assert got[3] == want[3]
        assert got[3], "no trace events: the comparison is vacuous"
