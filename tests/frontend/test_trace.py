"""Tests for Trace utilities and the true-dependence oracle."""

import pickle
from array import array

from repro.frontend import run_program
from repro.frontend.trace import Trace, TraceEntry
from repro.isa import Assembler


def make_store_load_chain():
    """store to A; load A; store to A; load A -> two true edges."""
    a = Assembler("chain")
    a.li("a0", 16)
    a.li("t0", 1)
    a.sw("t0", "a0", 0)     # seq 2: store #1
    a.lw("t1", "a0", 0)     # seq 3: load #1  <- store #1
    a.addi("t1", "t1", 1)
    a.sw("t1", "a0", 0)     # seq 5: store #2
    a.lw("t2", "a0", 0)     # seq 6: load #2  <- store #2
    a.halt()
    return run_program(a.assemble())


def test_load_producers_exact_edges():
    trace = make_store_load_chain()
    producers = trace.load_producers()
    assert producers == {3: 2, 6: 5}


def test_load_from_initial_memory_has_no_producer():
    a = Assembler()
    a.word(8, 5)
    a.li("a0", 8)
    a.lw("t0", "a0", 0)
    a.halt()
    trace = run_program(a.assemble())
    (load,) = trace.loads()
    assert trace.load_producers()[load.seq] is None


def test_intervening_store_to_other_address_ignored():
    a = Assembler()
    a.li("a0", 16)
    a.li("a1", 32)
    a.li("t0", 7)
    a.sw("t0", "a0", 0)     # store to 16 (seq 3)
    a.sw("t0", "a1", 0)     # store to 32 (seq 4)
    a.lw("t1", "a0", 0)     # load 16 <- seq 3, not 4
    a.halt()
    trace = run_program(a.assemble())
    (load,) = trace.loads()
    assert trace.load_producers()[load.seq] == 3


def test_counts_are_consistent():
    trace = make_store_load_chain()
    assert trace.count_loads() == 2
    assert trace.count_stores() == 2
    summary = trace.summary()
    assert summary["loads"] == 2
    assert summary["stores"] == 2
    assert summary["instructions"] == len(trace)


def test_task_slices_cover_whole_trace():
    a = Assembler()
    a.li("t0", 0)
    a.label("loop")
    a.task_begin()
    a.addi("t0", "t0", 1)
    a.slti("t1", "t0", 3)
    a.bne("t1", "zero", "loop")
    a.halt()
    trace = run_program(a.assemble())
    slices = trace.task_slices()
    assert sum(len(s) for s in slices) == len(trace)
    # entries within a slice all share the task id
    for task_id, entries in enumerate(slices):
        assert all(e.task_id == task_id for e in entries)
    # sequence numbers are globally increasing in commit order
    seqs = [e.seq for s in slices for e in s]
    assert seqs == sorted(seqs)


def test_producers_cached_and_stable():
    trace = make_store_load_chain()
    first = trace.load_producers()
    second = trace.load_producers()
    assert first is second


def test_trace_and_entries_use_slots():
    trace = make_store_load_chain()
    assert not hasattr(trace, "__dict__")
    assert not hasattr(trace[0], "__dict__")
    assert Trace.__slots__ and TraceEntry.__slots__
    # the trace holds columns, not entry objects: the view builds a
    # fresh entry per access
    assert isinstance(trace.pc, array)
    assert trace[3] is not trace[3]
    assert not any(
        isinstance(getattr(trace, slot), TraceEntry)
        or (
            isinstance(getattr(trace, slot), list)
            and any(isinstance(x, TraceEntry) for x in getattr(trace, slot))
        )
        for slot in Trace.__slots__
    )


def test_pickle_round_trip_preserves_entries_and_drops_memos():
    trace = make_store_load_chain()
    # populate the memoized index before pickling
    trace.index()
    trace.columns()
    clone = pickle.loads(pickle.dumps(trace))
    # memos are rebuilt lazily, not shipped
    assert clone._index is None
    assert len(clone) == len(trace)
    assert list(clone.pc) == list(trace.pc)
    assert clone.mem_addr == trace.mem_addr and clone.mem_value == trace.mem_value
    assert clone.end_pc == trace.end_pc
    for original, copied in zip(trace, clone):
        for slot in TraceEntry.__slots__:
            if slot == "inst":
                assert copied.inst.pc == original.inst.pc
                assert copied.inst.op == original.inst.op
            else:
                assert getattr(copied, slot) == getattr(original, slot)
    assert clone.load_producers() == trace.load_producers()
    assert clone.index().producers == trace.index().producers
    # the pickle carries the instructions the columns index, so a trace
    # whose program was dropped still round-trips and indexes
    trace.program = None
    orphan = pickle.loads(pickle.dumps(trace))
    assert orphan.program is None
    assert orphan.index().producers == trace.index().producers
    assert orphan[3].inst.pc == trace[3].inst.pc


def test_trace_indexing_and_repr():
    trace = make_store_load_chain()
    entry = trace[3]
    assert entry.seq == 3
    assert entry.is_load
    assert "pc=" in repr(entry)
