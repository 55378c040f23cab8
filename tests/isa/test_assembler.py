"""Tests for the assembler DSL and program validation."""

import pytest

from repro.isa import Assembler, Opcode, Program, ProgramError
from repro.isa.instructions import Instruction


def build_minimal():
    a = Assembler("minimal")
    a.li("t0", 1)
    a.halt()
    return a.assemble()


def test_assemble_minimal_program():
    program = build_minimal()
    assert len(program) == 2
    assert program[0].op is Opcode.LI
    assert program[1].op is Opcode.HALT
    assert program.entry == 0


def test_labels_resolve_to_targets():
    a = Assembler()
    a.label("start")
    a.addi("t0", "t0", 1)
    a.bne("t0", "zero", "start")
    a.halt()
    program = a.assemble()
    assert program.pc_of("start") == 0
    assert program[1].target == 0


def test_forward_label_resolution():
    a = Assembler()
    a.j("end")
    a.addi("t0", "t0", 1)
    a.label("end")
    a.halt()
    program = a.assemble()
    assert program[0].target == 2


def test_duplicate_label_rejected():
    a = Assembler()
    a.label("x")
    a.nop()
    with pytest.raises(ProgramError):
        a.label("x")


def test_undefined_label_rejected_at_assemble():
    a = Assembler()
    a.j("nowhere")
    a.halt()
    with pytest.raises(ProgramError):
        a.assemble()


def test_trailing_label_rejected():
    a = Assembler()
    a.halt()
    a.label("dangling")
    with pytest.raises(ProgramError):
        a.assemble()


def test_program_without_exit_rejected():
    a = Assembler()
    a.nop()
    with pytest.raises(ProgramError):
        a.assemble()


def test_entry_by_label():
    a = Assembler()
    a.nop()
    a.label("main")
    a.halt()
    program = a.assemble(entry="main")
    assert program.entry == 1


def test_unknown_entry_label_rejected():
    a = Assembler()
    a.halt()
    with pytest.raises(ProgramError):
        a.assemble(entry="missing")


def test_task_begin_marks_next_instruction():
    a = Assembler()
    a.li("t0", 0)
    a.task_begin()
    a.addi("t0", "t0", 1)
    a.halt()
    program = a.assemble()
    assert not program[0].task_entry
    assert program[1].task_entry
    assert program.task_entries() == [1]


def test_memory_layout_helpers():
    a = Assembler()
    a.word(0, 42)
    a.data(8, [1, 2, 3])
    a.halt()
    program = a.assemble()
    assert program.initial_memory == {0: 42, 8: 1, 12: 2, 16: 3}


def test_unaligned_word_rejected():
    a = Assembler()
    with pytest.raises(ProgramError):
        a.word(2, 5)


def test_memory_instruction_fields():
    a = Assembler()
    a.lw("t0", "a0", 8)
    a.sw("t1", "a0", 12)
    a.halt()
    program = a.assemble()
    load, store = program[0], program[1]
    assert load.is_load and not load.is_store
    assert load.rd == 8 and load.rs1 == 4 and load.imm == 8
    assert store.is_store and not store.is_load
    assert store.rs2 == 9 and store.rs1 == 4 and store.imm == 12


def test_static_loads_and_stores():
    a = Assembler()
    a.lw("t0", "a0", 0)
    a.sw("t0", "a1", 0)
    a.lw("t1", "a2", 0)
    a.halt()
    program = a.assemble()
    assert program.static_loads() == [0, 2]
    assert program.static_stores() == [1]


def test_here_reports_next_pc():
    a = Assembler()
    assert a.here() == 0
    a.nop()
    assert a.here() == 1


def test_jal_links_ra():
    a = Assembler()
    a.jal("fn")
    a.halt()
    a.label("fn")
    a.jr("ra")
    program = a.assemble()
    assert program[0].op is Opcode.JAL
    assert program[0].rd == 31
    assert program[0].target == 2


def test_move_is_add_with_zero():
    a = Assembler()
    a.move("t0", "t1")
    a.halt()
    program = a.assemble()
    assert program[0].op is Opcode.ADD
    assert program[0].rs2 == 0


def test_validate_rejects_bad_register_index():
    inst = Instruction(Opcode.ADD, rd=99, rs1=1, rs2=2)
    halt = Instruction(Opcode.HALT)
    with pytest.raises(ProgramError):
        Program("bad", [inst, halt]).validate()


def test_validate_rejects_out_of_range_target():
    branch = Instruction(Opcode.J, target=100)
    halt = Instruction(Opcode.HALT)
    with pytest.raises(ProgramError):
        Program("bad", [branch, halt]).validate()


def test_validate_rejects_empty_program():
    with pytest.raises(ProgramError):
        Program("empty", []).validate()


def test_instruction_sources_and_destination():
    a = Assembler()
    a.add("t0", "t1", "t2")
    a.halt()
    program = a.assemble()
    assert program[0].sources() == (9, 10)
    assert program[0].rd == 8


def test_str_rendering_smoke():
    a = Assembler()
    a.addi("t0", "t0", 5)
    a.lw("t1", "a0", 4)
    a.sw("t1", "a0", 8)
    a.beq("t0", "zero", "end")
    a.label("end")
    a.halt()
    program = a.assemble()
    rendered = [str(inst) for inst in program]
    assert "addi" in rendered[0]
    assert "4(a0)" in rendered[1]
    assert "8(a0)" in rendered[2]


def test_assembler_secret_ranges_on_program():
    a = Assembler("s")
    a.secret(0x2000, 0x201C)
    a.li("s1", 0x2000)
    a.halt()
    program = a.assemble()
    assert program.secret_ranges == [(0x2000, 0x201C)]
    # programs without the directive default to no secret memory
    b = Assembler("p")
    b.halt()
    assert b.assemble().secret_ranges == []
