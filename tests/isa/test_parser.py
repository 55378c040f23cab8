"""Tests for the text assembly parser."""

import dataclasses

import pytest

from repro.frontend import run_program
from repro.isa import Assembler, ParseError, parse_assembly, parse_file
from repro.isa.opcodes import Opcode

COUNTER = """
# a counted memory recurrence
.name counter
.word 0x100 0
    li   s1, 0x100
    li   s3, 0
    li   s4, 10
loop:
    .task
    addi s3, s3, 1
    lw   t0, 0(s1)
    addi t0, t0, 1
    sw   t0, 0(s1)
    blt  s3, s4, loop
    halt
"""


def test_parse_and_run_counter():
    program = parse_assembly(COUNTER)
    assert program.name == "counter"
    trace = run_program(program)
    assert trace.count_tasks() == 11  # preamble + 10 iterations
    # the memory cell ends at 10
    final_store = [e for e in trace if e.is_store][-1]
    assert final_store.value == 10


def test_comments_and_blank_lines_ignored():
    program = parse_assembly("""
    ; semicolon comment
    li t0, 1   # trailing comment
    halt
    """)
    assert len(program) == 2


def test_memory_operand_forms():
    program = parse_assembly("""
    lw t0, -8(sp)
    sw t0, 0x10(a0)
    halt
    """)
    assert program[0].imm == -8
    assert program[1].imm == 0x10


def test_branch_and_jump_forms():
    program = parse_assembly("""
    j end
    beq t0, t1, end
    jal end
    jr ra
    end:
    halt
    """)
    assert program[0].op is Opcode.J
    assert program[0].target == 4
    assert program[1].target == 4
    assert program[3].op is Opcode.JR


def test_and_or_mnemonics():
    program = parse_assembly("""
    and t0, t1, t2
    or  t3, t4, t5
    xor t6, t7, t8
    halt
    """)
    assert program[0].op is Opcode.AND
    assert program[1].op is Opcode.OR


def test_fp_mnemonics():
    program = parse_assembly("""
    fadd.s f0, f1, f2
    fdiv.d f3, f4, f5
    fsqrt.s f6, f7
    halt
    """)
    assert program[0].op is Opcode.FADD_S
    assert program[1].op is Opcode.FDIV_D
    assert program[2].op is Opcode.FSQRT_S


def test_entry_directive_by_label_and_pc():
    by_label = parse_assembly("""
    .entry main
    nop
    main:
    halt
    """)
    assert by_label.entry == 1
    by_pc = parse_assembly("""
    .entry 1
    nop
    halt
    """)
    assert by_pc.entry == 1


def test_word_directive_multiple_values():
    program = parse_assembly("""
    .word 8 1 2 3
    halt
    """)
    assert program.initial_memory == {8: 1, 12: 2, 16: 3}


def test_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_assembly("nop\nbogus t0, t1\nhalt")
    assert err.value.lineno == 2

    with pytest.raises(ParseError) as err:
        parse_assembly("lw t0, t1\nhalt")
    assert "offset(base)" in str(err.value)

    with pytest.raises(ParseError):
        parse_assembly(".word 8\nhalt")

    with pytest.raises(ParseError):
        parse_assembly(".bogus\nhalt")

    with pytest.raises(ParseError):
        parse_assembly("addi t0, t9, nine\nhalt")  # bad register name


def test_unknown_label_reported():
    with pytest.raises(Exception):
        parse_assembly("j nowhere\nhalt")


def test_parse_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(COUNTER)
    program = parse_file(path)
    assert program.name == "counter"


def test_secret_directive_carried_on_program():
    program = parse_assembly("""
    .secret 0x2000 0x201c
    .secret 0x3000 0x3000
    li s1, 0x2000
    halt
    """)
    assert program.secret_ranges == [(0x2000, 0x201C), (0x3000, 0x3000)]


def test_secret_directive_needs_two_addresses():
    with pytest.raises(ParseError):
        parse_assembly(".secret 0x2000\nhalt")


def test_instructions_carry_source_lines():
    program = parse_assembly(COUNTER)
    # every parsed instruction knows the 1-based source line it came from
    assert all(inst.line is not None for inst in program.instructions)
    lines = [inst.line for inst in program.instructions]
    assert lines == sorted(lines)
    # the first li sits on the line after .name/.word/comment preamble
    source_lines = COUNTER.splitlines()
    first = program.instructions[0]
    assert "li   s1" in source_lines[first.line - 1]


#: every opcode's text form, with the Assembler call that builds the same
#: instruction; branch and jump targets name the label ``end``
OPCODE_TEXT = {
    Opcode.ADD: ("add t0, t1, t2", "add", ("t0", "t1", "t2")),
    Opcode.SUB: ("sub s0, s1, s2", "sub", ("s0", "s1", "s2")),
    Opcode.AND: ("and t3, t4, t5", "and_", ("t3", "t4", "t5")),
    Opcode.OR: ("or t6, t7, t8", "or_", ("t6", "t7", "t8")),
    Opcode.XOR: ("xor a0, a1, a2", "xor", ("a0", "a1", "a2")),
    Opcode.NOR: ("nor v0, v1, a3", "nor", ("v0", "v1", "a3")),
    Opcode.SLT: ("slt t9, s3, s4", "slt", ("t9", "s3", "s4")),
    Opcode.SLL: ("sll t0, t1, 3", "sll", ("t0", "t1", 3)),
    Opcode.SRL: ("srl t0, t1, 31", "srl", ("t0", "t1", 31)),
    Opcode.SRA: ("sra t0, t1, 0x4", "sra", ("t0", "t1", 4)),
    Opcode.ADDI: ("addi t0, t1, -5", "addi", ("t0", "t1", -5)),
    Opcode.ANDI: ("andi t0, t1, 0xff", "andi", ("t0", "t1", 255)),
    Opcode.ORI: ("ori s5, s6, 16", "ori", ("s5", "s6", 16)),
    Opcode.XORI: ("xori s7, gp, -1", "xori", ("s7", "gp", -1)),
    Opcode.SLTI: ("slti k0, k1, 100", "slti", ("k0", "k1", 100)),
    Opcode.LUI: ("lui t0, 0x12", "lui", ("t0", 18)),
    Opcode.LI: ("li a0, -7", "li", ("a0", -7)),
    Opcode.MUL: ("mul t0, t1, t2", "mul", ("t0", "t1", "t2")),
    Opcode.DIV: ("div t3, t4, t5", "div", ("t3", "t4", "t5")),
    Opcode.REM: ("rem t6, t7, t8", "rem", ("t6", "t7", "t8")),
    Opcode.LW: ("lw t0, -8(sp)", "lw", ("t0", "sp", -8)),
    Opcode.SW: ("sw t1, 0x10(a0)", "sw", ("t1", "a0", 16)),
    Opcode.BEQ: ("beq t0, t1, end", "beq", ("t0", "t1", "end")),
    Opcode.BNE: ("bne t0, zero, end", "bne", ("t0", "zero", "end")),
    Opcode.BLT: ("blt s3, s4, end", "blt", ("s3", "s4", "end")),
    Opcode.BGE: ("bge s4, s3, end", "bge", ("s4", "s3", "end")),
    Opcode.BLE: ("ble a0, a1, end", "ble", ("a0", "a1", "end")),
    Opcode.BGT: ("bgt a1, a0, end", "bgt", ("a1", "a0", "end")),
    Opcode.J: ("j end", "j", ("end",)),
    Opcode.JAL: ("jal end", "jal", ("end",)),
    Opcode.JR: ("jr ra", "jr", ("ra",)),
    Opcode.HALT: ("halt", "halt", ()),
    Opcode.NOP: ("nop", "nop", ()),
    Opcode.FADD_S: ("fadd.s f0, f1, f2", "fadd_s", ("f0", "f1", "f2")),
    Opcode.FSUB_S: ("fsub.s f3, f4, f5", "fsub_s", ("f3", "f4", "f5")),
    Opcode.FMUL_S: ("fmul.s f6, f7, f8", "fmul_s", ("f6", "f7", "f8")),
    Opcode.FDIV_S: ("fdiv.s f9, f10, f11", "fdiv_s", ("f9", "f10", "f11")),
    Opcode.FSQRT_S: ("fsqrt.s f12, f13", "fsqrt_s", ("f12", "f13")),
    Opcode.FADD_D: ("fadd.d f14, f15, f16", "fadd_d", ("f14", "f15", "f16")),
    Opcode.FSUB_D: ("fsub.d f17, f18, f19", "fsub_d", ("f17", "f18", "f19")),
    Opcode.FMUL_D: ("fmul.d f20, f21, f22", "fmul_d", ("f20", "f21", "f22")),
    Opcode.FDIV_D: ("fdiv.d f23, f24, f25", "fdiv_d", ("f23", "f24", "f25")),
    Opcode.FSQRT_D: ("fsqrt.d f31, f30", "fsqrt_d", ("f31", "f30")),
}


def _without_line(inst):
    """The parser records each instruction's source line; the DSL does not."""
    return dataclasses.replace(inst, line=None)


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
def test_opcode_parses_to_the_assembled_instruction(op):
    text, method, args = OPCODE_TEXT[op]
    parsed = parse_assembly("%s\nend:\nhalt\n" % text)
    asm = Assembler()
    getattr(asm, method)(*args)
    asm.label("end")
    asm.halt()
    built = asm.assemble()
    assert parsed[0].op is op
    assert _without_line(parsed[0]) == built[0]


def test_directives_parse_to_the_assembled_program():
    """Data words, task-entry marks and a non-zero entry label."""
    program = parse_assembly("""
    .name marks
    .entry main
    .word 0x100 7 9
    nop
    main:
    .task
    li s1, 0x100
    lw t0, 4(s1)
    .task
    sw t0, 0(s1)
    halt
    """)
    asm = Assembler("marks")
    asm.data(0x100, [7, 9])
    asm.nop()
    asm.label("main")
    asm.task_begin()
    asm.li("s1", 0x100)
    asm.lw("t0", "s1", 4)
    asm.task_begin()
    asm.sw("t0", "s1", 0)
    asm.halt()
    built = asm.assemble(entry="main")
    assert program.name == built.name == "marks"
    assert program.entry == built.entry == 1
    assert program.initial_memory == built.initial_memory == {0x100: 7, 0x104: 9}
    assert program.labels == built.labels
    assert [inst.task_entry for inst in program] == [False, True, False, True, False]
    assert [_without_line(inst) for inst in program] == list(built)
