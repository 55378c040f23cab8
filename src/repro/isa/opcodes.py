"""Opcode and functional-unit-class definitions for the repro RISC ISA.

The ISA is a small MIPS-flavoured load/store architecture.  Each opcode
belongs to exactly one :class:`FUClass`, which determines the functional
unit it executes on and its latency in the Multiscalar timing model
(paper Table 2).
"""

from __future__ import annotations

import enum


class FUClass(enum.Enum):
    """Functional-unit classes, mirroring the paper's Table 2 categories."""

    SIMPLE_INT = "simple-int"
    COMPLEX_INT = "complex-int"
    BRANCH = "branch"
    MEMORY = "memory"
    FP_ADD_SP = "fp-add-sp"
    FP_ADD_DP = "fp-add-dp"
    FP_MUL_SP = "fp-mul-sp"
    FP_MUL_DP = "fp-mul-dp"
    FP_DIV_SP = "fp-div-sp"
    FP_DIV_DP = "fp-div-dp"
    FP_SQRT_SP = "fp-sqrt-sp"
    FP_SQRT_DP = "fp-sqrt-dp"


class Opcode(enum.Enum):
    """All opcodes of the ISA.

    Values are the assembly mnemonics.  ``imm``-form arithmetic opcodes
    take ``(rd, rs1, imm)``; register-form take ``(rd, rs1, rs2)``.
    Memory opcodes address memory as ``base + offset`` with word (4-byte)
    granularity.  Branch opcodes compare two registers and jump to a
    label.
    """

    # --- simple integer ------------------------------------------------
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLT = "slt"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    LUI = "lui"
    LI = "li"

    # --- complex integer ----------------------------------------------
    MUL = "mul"
    DIV = "div"
    REM = "rem"

    # --- memory ---------------------------------------------------------
    LW = "lw"
    SW = "sw"

    # --- control --------------------------------------------------------
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLE = "ble"
    BGT = "bgt"
    J = "j"
    JAL = "jal"
    JR = "jr"
    HALT = "halt"
    NOP = "nop"

    # --- floating point (single / double precision) ---------------------
    FADD_S = "fadd.s"
    FSUB_S = "fsub.s"
    FMUL_S = "fmul.s"
    FDIV_S = "fdiv.s"
    FSQRT_S = "fsqrt.s"
    FADD_D = "fadd.d"
    FSUB_D = "fsub.d"
    FMUL_D = "fmul.d"
    FDIV_D = "fdiv.d"
    FSQRT_D = "fsqrt.d"


#: Opcode -> functional-unit class.
OPCODE_CLASS = {
    Opcode.ADD: FUClass.SIMPLE_INT,
    Opcode.SUB: FUClass.SIMPLE_INT,
    Opcode.AND: FUClass.SIMPLE_INT,
    Opcode.OR: FUClass.SIMPLE_INT,
    Opcode.XOR: FUClass.SIMPLE_INT,
    Opcode.NOR: FUClass.SIMPLE_INT,
    Opcode.SLT: FUClass.SIMPLE_INT,
    Opcode.SLL: FUClass.SIMPLE_INT,
    Opcode.SRL: FUClass.SIMPLE_INT,
    Opcode.SRA: FUClass.SIMPLE_INT,
    Opcode.ADDI: FUClass.SIMPLE_INT,
    Opcode.ANDI: FUClass.SIMPLE_INT,
    Opcode.ORI: FUClass.SIMPLE_INT,
    Opcode.XORI: FUClass.SIMPLE_INT,
    Opcode.SLTI: FUClass.SIMPLE_INT,
    Opcode.LUI: FUClass.SIMPLE_INT,
    Opcode.LI: FUClass.SIMPLE_INT,
    Opcode.MUL: FUClass.COMPLEX_INT,
    Opcode.DIV: FUClass.COMPLEX_INT,
    Opcode.REM: FUClass.COMPLEX_INT,
    Opcode.LW: FUClass.MEMORY,
    Opcode.SW: FUClass.MEMORY,
    Opcode.BEQ: FUClass.BRANCH,
    Opcode.BNE: FUClass.BRANCH,
    Opcode.BLT: FUClass.BRANCH,
    Opcode.BGE: FUClass.BRANCH,
    Opcode.BLE: FUClass.BRANCH,
    Opcode.BGT: FUClass.BRANCH,
    Opcode.J: FUClass.BRANCH,
    Opcode.JAL: FUClass.BRANCH,
    Opcode.JR: FUClass.BRANCH,
    Opcode.HALT: FUClass.BRANCH,
    Opcode.NOP: FUClass.SIMPLE_INT,
    Opcode.FADD_S: FUClass.FP_ADD_SP,
    Opcode.FSUB_S: FUClass.FP_ADD_SP,
    Opcode.FMUL_S: FUClass.FP_MUL_SP,
    Opcode.FDIV_S: FUClass.FP_DIV_SP,
    Opcode.FSQRT_S: FUClass.FP_SQRT_SP,
    Opcode.FADD_D: FUClass.FP_ADD_DP,
    Opcode.FSUB_D: FUClass.FP_ADD_DP,
    Opcode.FMUL_D: FUClass.FP_MUL_DP,
    Opcode.FDIV_D: FUClass.FP_DIV_DP,
    Opcode.FSQRT_D: FUClass.FP_SQRT_DP,
}

#: Opcodes that read memory.
LOAD_OPCODES = frozenset({Opcode.LW})
#: Opcodes that write memory.
STORE_OPCODES = frozenset({Opcode.SW})
#: Opcodes that end a basic block.
CONTROL_OPCODES = frozenset(
    {
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLT,
        Opcode.BGE,
        Opcode.BLE,
        Opcode.BGT,
        Opcode.J,
        Opcode.JAL,
        Opcode.JR,
        Opcode.HALT,
    }
)
#: Conditional branches (two register sources, taken/not-taken outcome).
BRANCH_OPCODES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLE, Opcode.BGT}
)


def is_load(opcode):
    """Return True if *opcode* reads memory."""
    return opcode in LOAD_OPCODES


def is_store(opcode):
    """Return True if *opcode* writes memory."""
    return opcode in STORE_OPCODES


def is_control(opcode):
    """Return True if *opcode* may redirect control flow."""
    return opcode in CONTROL_OPCODES


def is_conditional_branch(opcode):
    """Return True if *opcode* is a conditional two-source branch."""
    return opcode in BRANCH_OPCODES
