"""The repro RISC ISA: registers, opcodes, instructions, programs, assembler."""

from repro.isa.assembler import Assembler
from repro.isa.instructions import Instruction
from repro.isa.parser import ParseError, parse_assembly, parse_file
from repro.isa.opcodes import FUClass, Opcode
from repro.isa.program import Program, ProgramError
from repro.isa.registers import (
    NUM_FP_REGS,
    NUM_INT_REGS,
    NUM_REGS,
    ZERO,
    parse_register,
    register_name,
)

__all__ = [
    "Assembler",
    "FUClass",
    "Instruction",
    "ParseError",
    "parse_assembly",
    "parse_file",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "NUM_REGS",
    "Opcode",
    "Program",
    "ProgramError",
    "ZERO",
    "parse_register",
    "register_name",
]
