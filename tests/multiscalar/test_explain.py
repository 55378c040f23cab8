"""Tests for squash explainability: the ledger, the report, the A/B gate."""

import json

from repro.frontend.trace_cache import cached_run_program
from repro.multiscalar import (
    MultiscalarConfig,
    MultiscalarSimulator,
    SquashLedger,
    explain_program,
    make_policy,
)
from repro.workloads import get_workload


def run_with_ledger(workload="compress", policy="always", stages=8):
    program = get_workload(workload).program("tiny")
    trace = cached_run_program(program)
    ledger = SquashLedger()
    sim = MultiscalarSimulator(
        trace,
        MultiscalarConfig(stages=stages),
        make_policy(policy),
        observers=[ledger],
    )
    stats = sim.run()
    return stats, ledger


def test_ledger_records_one_cause_per_squash():
    stats, ledger = run_with_ledger(policy="always")
    assert stats.mis_speculations > 0
    assert ledger.violations == stats.mis_speculations
    cause = ledger.causes[0]
    assert set(cause) >= {
        "store_pc",
        "load_pc",
        "store_task",
        "load_task",
        "distance",
        "time",
        "policy",
        "decision",
    }
    assert cause["policy"] == "ALWAYS"
    assert cause["distance"] == cause["load_task"] - cause["store_task"]
    assert cause["decision"]["decision"] == "speculated"


class ViolationRecorder:
    """A minimal violation observer: what it saw, and whether the load
    was still issued (the squash had not run yet)."""

    def __init__(self):
        self.seen = []

    def bind(self, sim):
        self.sim = sim

    def on_violation(self, store_seq, load_seq, time):
        c_pc = self.sim._c_pc
        self.seen.append((c_pc[store_seq], c_pc[load_seq], time, self.sim.issued[load_seq]))


def test_every_observer_sees_every_violation_in_detection_order():
    trace = cached_run_program(get_workload("compress").program("tiny"))
    first, second, ledger = ViolationRecorder(), ViolationRecorder(), SquashLedger()
    stats = MultiscalarSimulator(
        trace, MultiscalarConfig(stages=8), make_policy("always"),
        observers=[first, ledger, second],
    ).run()
    assert stats.mis_speculations > 1
    assert first.seen == second.seen
    assert len(first.seen) == stats.mis_speculations
    assert [seen[:3] for seen in first.seen] == [
        (c["store_pc"], c["load_pc"], c["time"]) for c in ledger.causes
    ]
    times = [seen[2] for seen in first.seen]
    assert times == sorted(times)
    assert all(issued for *_, issued in first.seen)


def test_mechanism_policy_reports_mdpt_state():
    stats, ledger = run_with_ledger(policy="esync")
    assert ledger.violations == stats.mis_speculations > 0
    # the first squash on a pair allocates the entry, so by the time
    # the ledger looks, every violation has squash-time MDPT state
    states = [c["decision"]["pair_state"] for c in ledger.causes]
    assert all(isinstance(s, dict) for s in states)
    for state in states:
        assert set(state) == {"distance", "counter", "predicts_dependence"}
        assert state["counter"] >= 1
    assert all("mdst_waiting_loads" in c["decision"] for c in ledger.causes)


def test_aggregation_groups_by_pair_hottest_first():
    _, ledger = run_with_ledger(policy="always")
    rows = ledger.aggregated()
    assert sum(r["squashes"] for r in rows) == ledger.violations
    counts = [r["squashes"] for r in rows]
    assert counts == sorted(counts, reverse=True)
    for row in rows:
        assert sum(row["distances"].values()) == row["squashes"]
        assert str(row["modal_distance"]) in row["distances"]
        assert row["first_time"] <= row["last_time"]


def test_ledger_is_pure_observation():
    """Attaching a squash ledger never changes simulated results —
    the same bit-identity contract as the telemetry A/B test, checked
    over a figure-5-shaped grid (policies x stages)."""
    program = get_workload("compress").program("tiny")
    trace = cached_run_program(program)
    for stages in (4, 8):
        for policy in ("never", "always", "wait", "psync", "esync"):
            config = MultiscalarConfig(stages=stages)
            plain = MultiscalarSimulator(trace, config, make_policy(policy)).run()
            observed = MultiscalarSimulator(
                trace, config, make_policy(policy), observers=[SquashLedger()]
            ).run()
            assert plain.summary() == observed.summary(), (policy, stages)


def test_explain_program_cross_references_verdicts():
    program = get_workload("compress").program("tiny")
    report = explain_program(program, policy="always", stages=8)
    assert report.program == "compress"
    assert report.policy == "always"
    assert report.rows, "blind speculation on compress must squash"
    for row in report.rows:
        assert row["verdict"] in ("must", "may", "no", "unseen")
    assert sum(report.verdict_counts.values()) == len(report.rows)
    # compress's recurrences are affine: the analysis proves them MUST,
    # so no squash can land on a proven-NO pair
    assert not report.contradictions


def test_explain_report_top_k_and_json():
    program = get_workload("compress").program("tiny")
    report = explain_program(program, policy="always", stages=8)
    assert len(report.top(1)) == 1
    assert report.top(0) == []
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["program"] == "compress"
    assert payload["contradictions"] == 0
    assert len(payload["pairs"]) == len(report.rows)
    assert payload["stats"]["mis_speculations"] == sum(
        r["squashes"] for r in report.rows
    )


def test_explain_quiet_program_has_no_rows():
    program = get_workload("micro-independent").program("tiny")
    report = explain_program(program, policy="esync", stages=8)
    assert report.rows == []
    assert report.contradictions == []
    assert report.verdict_counts == {}
