"""Tests for opcode classification."""

from repro.isa.opcodes import (
    OPCODE_CLASS,
    FUClass,
    Opcode,
    is_conditional_branch,
    is_control,
    is_load,
    is_store,
)


def test_every_opcode_has_a_class():
    for op in Opcode:
        assert op in OPCODE_CLASS, "missing FU class for %s" % op


def test_load_store_classification():
    assert is_load(Opcode.LW)
    assert not is_load(Opcode.SW)
    assert is_store(Opcode.SW)
    assert not is_store(Opcode.LW)


def test_memory_opcodes_use_memory_unit():
    assert OPCODE_CLASS[Opcode.LW] is FUClass.MEMORY
    assert OPCODE_CLASS[Opcode.SW] is FUClass.MEMORY


def test_control_opcodes():
    for op in (Opcode.BEQ, Opcode.BNE, Opcode.J, Opcode.JAL, Opcode.JR, Opcode.HALT):
        assert is_control(op)
    assert not is_control(Opcode.ADD)
    assert not is_control(Opcode.LW)


def test_conditional_branch_subset_of_control():
    for op in Opcode:
        if is_conditional_branch(op):
            assert is_control(op)
    assert is_conditional_branch(Opcode.BLT)
    assert not is_conditional_branch(Opcode.J)
    assert not is_conditional_branch(Opcode.HALT)


def test_fp_opcodes_have_fp_classes():
    assert OPCODE_CLASS[Opcode.FADD_S] is FUClass.FP_ADD_SP
    assert OPCODE_CLASS[Opcode.FADD_D] is FUClass.FP_ADD_DP
    assert OPCODE_CLASS[Opcode.FMUL_D] is FUClass.FP_MUL_DP
    assert OPCODE_CLASS[Opcode.FDIV_S] is FUClass.FP_DIV_SP
    assert OPCODE_CLASS[Opcode.FSQRT_D] is FUClass.FP_SQRT_DP


def test_simple_vs_complex_integer_split():
    assert OPCODE_CLASS[Opcode.ADD] is FUClass.SIMPLE_INT
    assert OPCODE_CLASS[Opcode.MUL] is FUClass.COMPLEX_INT
    assert OPCODE_CLASS[Opcode.DIV] is FUClass.COMPLEX_INT
    assert OPCODE_CLASS[Opcode.REM] is FUClass.COMPLEX_INT
