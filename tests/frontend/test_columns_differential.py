"""Differential tests: the columnar trace against the entry-object path.

``reference.py`` keeps the code the column layout replaced: an
interpreter that builds one :class:`TraceEntry` per committed
instruction, the format-1 cache codec over entries, and the index
derived from entry objects.  These tests hold the two equal, field by
field:

* every entry of the trace view (commit-order iteration and random
  access), on the interpreted trace and on its cache round trip;
* every field of the index, including the lazily built register
  operand maps, the loop's register-producer columns and the per-task
  aggregates.

Inputs: every registered workload at ``tiny``, the example programs,
random ``random_gen`` programs with task entries toggled (so tasks
start in the middle of basic blocks), and a hand-made program with
float, big-int and ``None`` values and a taken branch to its own
fall-through.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import InterpreterError, deserialize_trace, run_program, serialize_trace
from repro.isa import Assembler
from repro.isa.parser import parse_file
from repro.workloads import all_workloads
from repro.workloads.random_gen import RandomProgramConfig, generate_program
from tests.frontend import reference

EXAMPLES = sorted(Path("examples/programs").glob("*.s"))

ENTRY_FIELDS = ("seq", "addr", "value", "taken", "next_pc", "task_id", "task_pc")

configs = st.builds(
    RandomProgramConfig,
    tasks=st.integers(min_value=1, max_value=10),
    body_ops=st.integers(min_value=0, max_value=6),
    loads_per_task=st.integers(min_value=0, max_value=3),
    stores_per_task=st.integers(min_value=0, max_value=3),
    shared_words=st.integers(min_value=1, max_value=8),
    branch_probability=st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=10_000),
)


@st.composite
def random_programs(draw):
    program = generate_program(draw(configs))
    for pc in draw(st.sets(st.integers(0, len(program) - 1), max_size=4)):
        program[pc].task_entry = not program[pc].task_entry
    return program


def exotic_program():
    """Float, big-int, negative and ``None`` values, a task entry in the
    middle of a basic block, and both outcomes of a conditional branch
    whose target is its own fall-through."""
    a = Assembler("exotic")
    a.li("a0", 128)
    a.li("t0", 2)
    a.li("t1", 1)
    a.fdiv_d("t2", "t1", "t0")      # 0.5
    a.sw("t2", "a0", 0)
    a.li("t3", 1)
    a.sll("t3", "t3", 31)
    a.mul("t3", "t3", "t3")
    a.mul("t3", "t3", "t3")         # 2**124
    a.task_begin()                  # mid-block task entry
    a.sw("t3", "a0", 4)
    a.li("t4", -5)
    a.sw("t4", "a0", 8)
    a.lw("t5", "a0", 0)
    a.lw("t6", "a0", 4)
    a.beq("t0", "t0", "here")       # taken, to its own fall-through
    a.label("here")
    a.bne("t0", "t0", "there")      # not taken, same shape
    a.label("there")
    a.lw("t7", "a0", 12)            # initial memory: no producer
    a.li("s0", 0)
    a.label("loop")
    a.task_begin()
    a.addi("s0", "s0", 1)
    a.sw("s0", "a0", 16)
    a.lw("s1", "a0", 16)
    a.slti("s2", "s0", 3)
    a.bne("s2", "zero", "loop")
    a.halt()
    return a.assemble()


def assert_view_matches(trace, entries):
    assert len(trace) == len(entries) == len(trace.entries)
    for got, want in zip(trace, entries):
        assert got.inst is want.inst
        for field in ENTRY_FIELDS:
            assert getattr(got, field) == getattr(want, field), (want.seq, field)
            assert type(getattr(got, field)) is type(getattr(want, field)), (want.seq, field)
    step = max(1, len(entries) // 97)
    for want in entries[::step] + entries[-1:]:
        got = trace[want.seq]
        assert got.inst is want.inst
        for field in ENTRY_FIELDS:
            assert getattr(got, field) == getattr(want, field), (want.seq, field)
    last = trace.entries[-1]
    assert last.seq == entries[-1].seq and last.next_pc == entries[-1].next_pc


def assert_index_matches(index, ref):
    assert index.n == ref.n
    assert list(index.pc) == list(ref.pc)
    assert index.addr == ref.addr
    for name in ("is_load", "is_store", "is_memory", "fu_code"):
        assert bytes(getattr(index, name)) == bytes(getattr(ref, name)), name
    assert list(index.rd) == list(ref.rd)
    assert index.task_of == ref.task_of == list(ref.task_id)
    assert index.index_in_task == ref.index_in_task
    assert [list(seqs) for seqs in index.tasks] == ref.tasks
    assert index.n_tasks == ref.n_tasks
    assert index.task_pcs == ref.task_pcs
    assert index.load_seqs == ref.load_seqs
    assert index.all_store_seqs == ref.all_store_seqs
    for name in ("producers", "dependents", "prior_task_stores", "addr_producer"):
        got, want = getattr(index, name), getattr(ref, name)
        assert list(got.items()) == list(want.items()), name
    assert (index.src_p1, index.src_p2) == reference.reference_src_pair(ref)
    assert index.src_operands == ref.src_operands
    assert list(index.reg_dependents.items()) == list(ref.reg_dependents.items())
    assert index.task_writesets == ref.task_writesets
    cols = index.columns()
    assert (
        cols.task_n_instr,
        cols.task_n_loads,
        cols.task_n_stores,
        cols.task_load_seqs,
    ) == reference.reference_task_aggregates(ref)


def check_program(program):
    try:
        entries = reference.EntryInterpreter(program).run()
    except InterpreterError as exc:
        # a faulting program faults the same way on both paths
        with pytest.raises(InterpreterError, match=re.escape(str(exc))):
            run_program(program)
        return None
    # the reference codec round-trips its own entries
    decoded_entries = reference.decode_entries(reference.encode_entries(entries), program)
    assert [(e.seq, e.addr, e.value, e.next_pc, e.task_id) for e in decoded_entries] == [
        (e.seq, e.addr, e.value, e.next_pc, e.task_id) for e in entries
    ]
    ref = reference.ReferenceIndex(entries)
    trace = run_program(program)
    assert_view_matches(trace, entries)
    assert_index_matches(trace.index(), ref)
    assert trace.load_producers() == reference.load_producers(entries)
    assert [[e.seq for e in s] for s in trace.task_slices()] == [
        [e.seq for e in s] for s in reference.task_slices(entries)
    ]
    decoded = deserialize_trace(serialize_trace(trace), program)
    assert_view_matches(decoded, entries)
    assert_index_matches(decoded.index(), ref)
    return trace


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_workload_traces_match_the_entry_path(workload):
    check_program(workload.program("tiny"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_traces_match_the_entry_path(path):
    check_program(parse_file(path))


@settings(max_examples=40, deadline=None)
@given(random_programs())
def test_random_traces_match_the_entry_path(program):
    check_program(program)


def test_exotic_values_and_in_place_branches_match_the_entry_path():
    trace = check_program(exotic_program())
    values = [e.value for e in trace if e.is_memory]
    assert any(isinstance(v, float) for v in values)
    assert any(isinstance(v, int) and v >= 2**63 for v in values)
    branches = [e for e in trace if e.inst.is_branch and e.inst.target == e.inst.pc + 1]
    assert sorted(e.taken for e in branches) == [False, True]
    assert trace.taken_in_place
    # a task begins in the middle of the straight-line prologue
    assert trace.index().task_pcs[1] == trace[trace.index().tasks[1][0]].pc
