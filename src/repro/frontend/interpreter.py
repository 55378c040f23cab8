"""Functional interpreter for repro RISC programs.

The interpreter executes a program architecturally (no timing) and
records the committed dynamic instruction stream as a
:class:`~repro.frontend.trace.Trace`.  All downstream models — the
unrealistic OoO window model of Section 5 and the Multiscalar timing
simulator — are driven from that trace.
"""

from __future__ import annotations

import math
from array import array
from typing import List

from repro.frontend.trace import Trace, int_column
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_REGS, ZERO
from repro.telemetry.profiler import PROFILER


class InterpreterError(Exception):
    """Raised on a runtime fault (bad address, division by zero, ...)."""


class TraceLimitExceeded(InterpreterError):
    """Raised when a run exceeds the configured instruction budget."""


def _sdiv(a, b):
    """C-style integer division truncated toward zero."""
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _srem(a, b):
    """C-style remainder: a - trunc(a/b)*b."""
    return a - _sdiv(a, b) * b


def _check_addr(addr):
    if addr % 4 != 0:
        raise InterpreterError("unaligned memory address: %d" % addr)
    if addr < 0:
        raise InterpreterError("negative memory address: %d" % addr)
    return addr


class Interpreter:
    """Executes a program and produces its committed trace.

    Args:
        program: a validated :class:`~repro.isa.program.Program`.
        max_instructions: abort (raising :class:`TraceLimitExceeded`)
            if the dynamic instruction count exceeds this budget.
    """

    def __init__(self, program, max_instructions=5_000_000):
        self.program = program
        self.max_instructions = max_instructions
        self.registers = [0] * NUM_REGS
        self.memory = dict(program.initial_memory)

    def run(self) -> Trace:
        """Execute the program to completion and return its trace."""
        program = self.program
        instructions = program.instructions
        regs = self.registers
        memory = self.memory
        limit = self.max_instructions

        # the trace's columns: the pc of every committed instruction,
        # the address and value of every memory access; the next pc,
        # task and branch outcome of an entry follow from them (see
        # repro.frontend.trace)
        pcs: List[int] = []
        mem_addr: List[int] = []
        mem_value: List[object] = []
        taken_in_place: List[int] = []
        pc_append = pcs.append
        addr_append = mem_addr.append
        value_append = mem_value.append

        pc = program.entry
        seq = 0
        # hot-loop local bindings: one committed instruction per
        # iteration makes global and attribute lookups measurable, an
        # Enum member's most of all
        O = Opcode
        LW, SW, ADD, ADDI, SUB = O.LW, O.SW, O.ADD, O.ADDI, O.SUB
        AND, ANDI, OR, ORI, XOR, XORI, NOR = O.AND, O.ANDI, O.OR, O.ORI, O.XOR, O.XORI, O.NOR
        SLT, SLTI, SLL, SRL, SRA, LUI, LI = O.SLT, O.SLTI, O.SLL, O.SRL, O.SRA, O.LUI, O.LI
        MUL, DIV, REM = O.MUL, O.DIV, O.REM
        BEQ, BNE, BLT, BGE, BLE, BGT = O.BEQ, O.BNE, O.BLT, O.BGE, O.BLE, O.BGT
        J, JAL, JR, HALT, NOP = O.J, O.JAL, O.JR, O.HALT, O.NOP
        FADD_S, FADD_D, FSUB_S, FSUB_D = O.FADD_S, O.FADD_D, O.FSUB_S, O.FSUB_D
        FMUL_S, FMUL_D, FDIV_S, FDIV_D = O.FMUL_S, O.FMUL_D, O.FDIV_S, O.FDIV_D
        FSQRT_S, FSQRT_D = O.FSQRT_S, O.FSQRT_D

        while True:
            if seq >= limit:
                raise TraceLimitExceeded(
                    "%s: exceeded %d instructions" % (program.name, limit)
                )
            inst = instructions[pc]
            op = inst.op
            taken = False
            next_pc = pc + 1

            if op is LW:
                addr = _check_addr(regs[inst.rs1] + inst.imm)
                value = memory.get(addr, 0)
                if inst.rd != ZERO:
                    regs[inst.rd] = value
                addr_append(addr)
                value_append(value)
            elif op is SW:
                addr = _check_addr(regs[inst.rs1] + inst.imm)
                value = regs[inst.rs2]
                memory[addr] = value
                addr_append(addr)
                value_append(value)
            elif op is ADD:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2]
            elif op is ADDI:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] + inst.imm
            elif op is SUB:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2]
            elif op is AND:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2]
            elif op is ANDI:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] & inst.imm
            elif op is OR:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2]
            elif op is ORI:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] | inst.imm
            elif op is XOR:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] ^ regs[inst.rs2]
            elif op is XORI:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] ^ inst.imm
            elif op is NOR:
                if inst.rd != ZERO:
                    regs[inst.rd] = ~(regs[inst.rs1] | regs[inst.rs2])
            elif op is SLT:
                if inst.rd != ZERO:
                    regs[inst.rd] = 1 if regs[inst.rs1] < regs[inst.rs2] else 0
            elif op is SLTI:
                if inst.rd != ZERO:
                    regs[inst.rd] = 1 if regs[inst.rs1] < inst.imm else 0
            elif op is SLL:
                if inst.rd != ZERO:
                    shifted = (regs[inst.rs1] << (inst.imm & 31)) & 0xFFFFFFFF
                    if shifted >= 0x80000000:
                        shifted -= 0x100000000
                    regs[inst.rd] = shifted
            elif op is SRL:
                if inst.rd != ZERO:
                    regs[inst.rd] = (regs[inst.rs1] & 0xFFFFFFFF) >> (inst.imm & 31)
            elif op is SRA:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] >> (inst.imm & 31)
            elif op is LUI:
                if inst.rd != ZERO:
                    regs[inst.rd] = inst.imm << 16
            elif op is LI:
                if inst.rd != ZERO:
                    regs[inst.rd] = inst.imm
            elif op is MUL:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2]
            elif op is DIV:
                if inst.rd != ZERO:
                    regs[inst.rd] = _sdiv(regs[inst.rs1], regs[inst.rs2])
            elif op is REM:
                if inst.rd != ZERO:
                    regs[inst.rd] = _srem(regs[inst.rs1], regs[inst.rs2])
            elif op is BEQ:
                taken = regs[inst.rs1] == regs[inst.rs2]
            elif op is BNE:
                taken = regs[inst.rs1] != regs[inst.rs2]
            elif op is BLT:
                taken = regs[inst.rs1] < regs[inst.rs2]
            elif op is BGE:
                taken = regs[inst.rs1] >= regs[inst.rs2]
            elif op is BLE:
                taken = regs[inst.rs1] <= regs[inst.rs2]
            elif op is BGT:
                taken = regs[inst.rs1] > regs[inst.rs2]
            elif op is J:
                next_pc = inst.target
            elif op is JAL:
                regs[inst.rd] = pc + 1
                next_pc = inst.target
            elif op is JR:
                next_pc = regs[inst.rs1]
            elif op is HALT:
                next_pc = -1
            elif op is NOP:
                pass
            elif op is FADD_S or op is FADD_D:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2]
            elif op is FSUB_S or op is FSUB_D:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2]
            elif op is FMUL_S or op is FMUL_D:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2]
            elif op is FDIV_S or op is FDIV_D:
                divisor = regs[inst.rs2]
                if divisor == 0:
                    raise InterpreterError("floating-point division by zero")
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] / divisor
            elif op is FSQRT_S or op is FSQRT_D:
                operand = regs[inst.rs1]
                if operand < 0:
                    raise InterpreterError("square root of a negative value")
                if inst.rd != ZERO:
                    regs[inst.rd] = math.sqrt(operand)
            else:  # pragma: no cover - all opcodes handled above
                raise InterpreterError("unimplemented opcode: %s" % op)

            if taken:
                # a taken branch to its own fall-through is the one
                # outcome the pc column cannot show
                if inst.target == next_pc:
                    taken_in_place.append(seq)
                next_pc = inst.target
            pc_append(pc)
            seq += 1
            if next_pc < 0:
                break
            if not 0 <= next_pc < len(instructions):
                raise InterpreterError(
                    "control transfer out of program: pc=%d -> %d" % (pc, next_pc)
                )
            pc = next_pc

        return Trace(
            program,
            array("i", pcs),
            int_column(mem_addr),
            int_column(mem_value),
            next_pc,
            taken_in_place,
        )


def run_program(program, max_instructions=5_000_000) -> Trace:
    """Convenience wrapper: interpret *program* and return its trace
    (profiled as ``frontend.interpret``)."""
    with PROFILER.scope("frontend.interpret"):
        return Interpreter(program, max_instructions=max_instructions).run()
