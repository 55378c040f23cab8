"""Differential test: the slice-warming replay against the slice executor.

``sync_slice_warmed`` pre-executes the union of its warmable predictor
slices by replaying the trace
(:func:`repro.multiscalar.policies.replay_slice`).  The code it
replaced executed those instructions on a register file and memory
image of its own, and is kept as
:class:`tests.frontend.reference.SliceExecutor`.  For every input
below, both are driven with one random budget schedule (1-64 slice
instructions per call), watching each warmable pair's store and load.
Every call must return the same ``(pc, task, address)`` events and the
same executed count, and both must finish on the same call.

The inputs are every registered workload at ``tiny``, the example
programs that run, the ``slice-warming`` experiment's two adversarial
legs, and random programs drawn like ``test_slice_property.py``'s.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.slicewarm import _extra_traces
from repro.frontend import InterpreterError, run_program
from repro.isa.parser import parse_file
from repro.multiscalar.policies import replay_slice
from repro.staticdep import WARMABLE, build_pdg, extract_predictor_slices
from repro.workloads import all_workloads
from repro.workloads.random_gen import generate_program
from tests.frontend.reference import SliceExecutor
from tests.staticdep.test_slice_property import configs

EXAMPLES = sorted(Path("examples/programs").glob("*.s"))


def warmable_union(program):
    """The union of every warmable predictor slice, and the store and
    load of each warmable pair."""
    union, watch = set(), set()
    for s in extract_predictor_slices(build_pdg(program)):
        if s.status == WARMABLE:
            union |= s.pcs
            watch.update(s.pair)
    return frozenset(union), frozenset(watch)


def assert_replay_matches_executor(trace, seed):
    """Drive both on *trace* until they finish; return the number of
    calls (0 when the program has no warmable slice)."""
    union, watch = warmable_union(trace.program)
    if not union:
        return 0
    index = trace.index()
    executor = SliceExecutor(trace.program, union, watch_pcs=watch)
    rng = random.Random(seed)
    cursor = 0
    calls = 0
    while True:
        budget = rng.randint(1, 64)
        executed_before = executor.executed
        want = [(ev.pc, ev.task_id, ev.addr) for ev in executor.run(budget)]
        got, cursor, executed = replay_slice(
            index.pc, index.task_of, index.addr, cursor, budget, union, watch
        )
        calls += 1
        assert got == want, "call %d" % calls
        assert executed == executor.executed - executed_before, "call %d" % calls
        assert (cursor == len(trace)) == executor.finished, "call %d" % calls
        if executor.finished:
            return calls


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_workload_replay_matches_executor(workload):
    assert_replay_matches_executor(workload.trace("tiny"), seed=workload.name)


def test_example_replay_matches_executor():
    warmed = []
    for path in EXAMPLES:
        try:
            trace = run_program(parse_file(str(path)))
        except InterpreterError:
            continue  # the program faults: there is no trace to warm from
        if assert_replay_matches_executor(trace, seed=path.stem):
            warmed.append(path.stem)
    assert len(warmed) >= 3, warmed


@pytest.mark.parametrize("leg", ["table-walk", "random-adv"])
def test_slice_warming_leg_replay_matches_executor(leg):
    assert_replay_matches_executor(_extra_traces("test")[leg], seed=leg)


def test_most_workloads_have_a_warmable_slice():
    # a program with nothing to warm passes the comparison trivially
    warmed = [w.name for w in all_workloads() if warmable_union(w.program("tiny"))[0]]
    assert len(warmed) >= 20, warmed


@settings(max_examples=30, deadline=None)
@given(config=configs, seed=st.integers(min_value=0, max_value=2**32))
def test_random_program_replay_matches_executor(config, seed):
    assert_replay_matches_executor(run_program(generate_program(config)), seed)
