"""A/B determinism of the hot-path optimizations.

The trace cache, the shared columnar index and the event-driven issue
loop are only admissible if they are invisible in the numbers.  These
tests compare the optimized path against the unoptimized one end to end:

* a trace that went through the binary cache round trip must simulate
  bit-identically to a freshly interpreted one, under every policy;
* the figure-5 experiment table must be bit-identical between the
  simulator's event-driven loop and the per-cycle reference scan.
"""

import pytest

from repro.frontend import run_program
from repro.frontend import trace_cache as tc
from repro.frontend.trace_cache import TraceCache, clear_memory_cache
from repro.multiscalar import MultiscalarConfig, MultiscalarSimulator
from repro.multiscalar.policies import POLICY_ALIASES, POLICY_FACTORIES, make_policy
from repro.workloads import get_workload
from tests.multiscalar.reference import run_reference

ALL_POLICIES = tuple(POLICY_FACTORIES) + tuple(POLICY_ALIASES)


@pytest.fixture(autouse=True)
def isolated_global_cache():
    saved_global = tc._GLOBAL
    saved_memory = dict(tc._MEMORY)
    yield
    tc._GLOBAL = saved_global
    tc._MEMORY.clear()
    tc._MEMORY.update(saved_memory)


def cached_round_trip_trace(workload_name, tmp_path):
    """A trace that was serialized to disk and read back cold."""
    program = get_workload(workload_name).program(scale="tiny")
    clear_memory_cache()  # force an interpret + disk write
    warm = TraceCache(tmp_path)
    warm.get_or_run(program)
    clear_memory_cache()
    cold = TraceCache(tmp_path)
    trace = cold.get_or_run(program)
    assert cold.disk_hits == 1, "round trip did not come from disk"
    return trace


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_cached_trace_simulates_identically(policy, tmp_path):
    fresh = run_program(get_workload("micro-recurrence-d2").program(scale="tiny"))
    cached = cached_round_trip_trace("micro-recurrence-d2", tmp_path)
    results = []
    for trace in (fresh, cached):
        sim = MultiscalarSimulator(
            trace, MultiscalarConfig(stages=4), make_policy(policy)
        )
        results.append(sim.run())
    assert results[0].summary() == results[1].summary()


@pytest.mark.parametrize("workload", ("micro-late-address", "micro-multi-producer"))
def test_cached_trace_identity_across_kernels(workload, tmp_path):
    fresh = run_program(get_workload(workload).program(scale="tiny"))
    cached = cached_round_trip_trace(workload, tmp_path)
    for policy in ("always", "esync"):
        a = MultiscalarSimulator(
            fresh, MultiscalarConfig(stages=8), make_policy(policy)
        ).run()
        b = MultiscalarSimulator(
            cached, MultiscalarConfig(stages=8), make_policy(policy)
        ).run()
        assert a.summary() == b.summary()


def test_figure5_table_identical_across_schedulers(monkeypatch):
    from repro.experiments.figures import figure5_policy_speedups

    tables = {}
    for scheduler in ("event", "cycle"):
        if scheduler == "cycle":
            monkeypatch.setattr(MultiscalarSimulator, "run", run_reference)
        table = figure5_policy_speedups(scale="tiny", stage_counts=(4,))
        tables[scheduler] = (table.columns, table.rows)
    assert tables["event"] == tables["cycle"]
