"""Tests for the trace analyzer."""

import pytest

from repro.frontend import analyze_trace, run_program
from repro.isa import Assembler
from repro.isa.opcodes import FUClass
from repro.workloads import get_workload


def analysis_of(builder):
    return analyze_trace(run_program(builder.assemble()))


def test_instruction_mix_counts():
    a = Assembler("mix")
    a.li("t0", 4)
    a.mul("t1", "t0", "t0")
    a.fadd_s("f0", "t0", "t1")
    a.lw("t2", "zero", 16)
    a.sw("t2", "zero", 20)
    a.halt()
    analysis = analysis_of(a)
    assert analysis.instructions == 6
    assert analysis.mix[FUClass.SIMPLE_INT] == 1   # li
    assert analysis.mix[FUClass.COMPLEX_INT] == 1
    assert analysis.mix[FUClass.FP_ADD_SP] == 1
    assert analysis.mix[FUClass.MEMORY] == 2
    assert analysis.mix[FUClass.BRANCH] == 1       # halt
    assert analysis.loads == 1 and analysis.stores == 1
    assert analysis.memory_ratio == pytest.approx(2 / 6)


def test_branch_statistics():
    a = Assembler()
    a.li("t0", 0)
    a.label("loop")
    a.addi("t0", "t0", 1)
    a.slti("t1", "t0", 4)
    a.bne("t1", "zero", "loop")
    a.halt()
    analysis = analysis_of(a)
    assert analysis.branches == 4
    assert analysis.taken_branches == 3
    assert analysis.branch_taken_rate == pytest.approx(0.75)


def test_task_sizes():
    a = Assembler()
    a.li("t0", 0)
    a.label("loop")
    a.task_begin()
    a.addi("t0", "t0", 1)
    a.slti("t1", "t0", 3)
    a.bne("t1", "zero", "loop")
    a.halt()
    analysis = analysis_of(a)
    assert len(analysis.task_sizes) == 4  # preamble + 3 iterations
    assert analysis.task_sizes[0] == 1
    assert analysis.mean_task_size > 1


def test_memory_footprint_and_read_only():
    a = Assembler()
    a.word(100, 1)
    a.li("a0", 100)
    a.lw("t0", "a0", 0)     # read-only word at 100
    a.sw("t0", "a0", 8)     # written word at 108
    a.lw("t1", "a0", 8)     # also read
    a.halt()
    analysis = analysis_of(a)
    assert analysis.footprint_words == 2
    assert analysis.read_only_words == 1


def test_basic_block_sizes_split_at_control():
    a = Assembler()
    a.nop()
    a.nop()
    a.j("next")
    a.label("next")
    a.nop()
    a.halt()
    analysis = analysis_of(a)
    # blocks: [nop nop j], [nop halt]
    assert analysis.basic_block_sizes == [3, 2]
    assert analysis.mean_basic_block_size == pytest.approx(2.5)


def test_mix_percentages_sum_to_100():
    trace = get_workload("compress").trace("tiny")
    analysis = analyze_trace(trace)
    assert sum(analysis.mix_percentages().values()) == pytest.approx(100.0)


def test_summary_keys():
    trace = get_workload("sc").trace("tiny")
    summary = analyze_trace(trace).summary()
    for key in (
        "instructions",
        "memory_ratio",
        "branch_taken_rate",
        "mean_task_size",
        "footprint_words",
        "static_instructions",
    ):
        assert key in summary


def test_static_instruction_count_bounded_by_program():
    trace = get_workload("xlisp").trace("tiny")
    analysis = analyze_trace(trace)
    assert analysis.static_instructions_touched <= len(trace.program)
