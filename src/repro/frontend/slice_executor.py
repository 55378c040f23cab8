"""Budgeted pre-execution of backward slices.

The :class:`SliceExecutor` replays a program's PC walk but *executes*
only the instructions of an executable backward slice
(:mod:`repro.staticdep.pdg`), treating every other PC as a no-op
fall-through.  Because executable slices always contain the full
control skeleton (every branch/jump plus its data closure) and the
memory closure of their loads, the sliced walk follows exactly the PC
and task-boundary sequence of the full run while touching only the
state the slice needs — a Prophet-style pre-computation slice.

The executor is resumable and budgeted: each :meth:`run` call grants a
number of *executed slice instructions* (skipped PCs are free — they
model instructions absent from the extracted slice), so a speculation
policy can advance the pre-execution by a bounded amount per task
spawn and stay ahead of the main sequencer without unbounded work.
Watched PCs report :class:`SliceEvent` records (address and value for
memory instructions) from which the ``sync_slice_warmed`` policy
resolves store->load distances ahead of need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from repro.frontend.interpreter import (
    InterpreterError,
    TraceLimitExceeded,
    _check_addr,
    _sdiv,
    _srem,
)
from repro.isa.opcodes import Opcode, is_control
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, ZERO


class SliceError(InterpreterError):
    """Raised when the PC walk reaches a control instruction that is
    not part of the slice — the slice cannot steer the walk and any
    further pre-execution would diverge from the real run."""


@dataclass(frozen=True)
class SliceEvent:
    """One watched instruction instance observed during pre-execution."""

    pc: int
    task_id: int
    addr: Optional[int]
    value: Optional[int]
    step: int


class SliceExecutor:
    """Replay *program* executing only *slice_pcs*.

    Args:
        program: the full program (the slice references its PCs).
        slice_pcs: the executable slice (must contain every reachable
            control instruction; :class:`SliceError` is raised if the
            walk proves otherwise).
        watch_pcs: PCs whose dynamic instances are reported as
            :class:`SliceEvent` records from :meth:`run`.
        walk_limit: hard cap on total walk steps (executed + skipped),
            a safety net against runaway programs.
    """

    def __init__(
        self,
        program: Program,
        slice_pcs: Iterable[int],
        watch_pcs: Iterable[int] = (),
        walk_limit: int = 1_000_000,
    ):
        self.program = program
        self.slice_pcs: FrozenSet[int] = frozenset(slice_pcs)
        self.watch_pcs: FrozenSet[int] = frozenset(watch_pcs)
        self.walk_limit = walk_limit
        self.registers = [0] * NUM_REGS
        self.memory = dict(program.initial_memory)
        self.pc = program.entry
        self.task_id = 0
        self.steps = 0  # total walk steps (mirrors the full run's seq)
        self.executed = 0  # slice instructions actually executed
        self.finished = False

    def run(self, max_instructions: Optional[int] = None) -> List[SliceEvent]:
        """Advance the pre-execution by up to *max_instructions*
        executed slice instructions (None: run to completion) and
        return the watched events observed along the way."""
        program = self.program
        instructions = program.instructions
        regs = self.registers
        memory = self.memory
        events: List[SliceEvent] = []
        used = 0
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

        while not self.finished:
            if max_instructions is not None and used >= max_instructions:
                break
            if self.steps >= self.walk_limit:
                raise TraceLimitExceeded(
                    "%s: slice walk exceeded %d steps"
                    % (program.name, self.walk_limit)
                )
            pc = self.pc
            inst = instructions[pc]
            if inst.task_entry and self.steps > 0:
                self.task_id += 1

            if pc not in self.slice_pcs:
                if is_control(inst.op):
                    raise SliceError(
                        "control instruction at pc %d is outside the slice" % pc
                    )
                self.steps += 1
                self.pc = pc + 1
                continue

            op = inst.op
            addr = None
            value = None
            next_pc = pc + 1

            if op is LW:
                addr = _check_addr(regs[inst.rs1] + inst.imm)
                value = memory.get(addr, 0)
                if inst.rd != ZERO:
                    regs[inst.rd] = value
            elif op is SW:
                addr = _check_addr(regs[inst.rs1] + inst.imm)
                value = regs[inst.rs2]
                memory[addr] = value
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
                if regs[inst.rs1] == regs[inst.rs2]:
                    next_pc = inst.target
            elif op is BNE:
                if regs[inst.rs1] != regs[inst.rs2]:
                    next_pc = inst.target
            elif op is BLT:
                if regs[inst.rs1] < regs[inst.rs2]:
                    next_pc = inst.target
            elif op is BGE:
                if regs[inst.rs1] >= regs[inst.rs2]:
                    next_pc = inst.target
            elif op is BLE:
                if regs[inst.rs1] <= regs[inst.rs2]:
                    next_pc = inst.target
            elif op is BGT:
                if regs[inst.rs1] > regs[inst.rs2]:
                    next_pc = inst.target
            elif op is J:
                next_pc = inst.target
            elif op is JAL:
                if inst.rd != ZERO:
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

            if pc in self.watch_pcs:
                if not inst.is_memory:
                    value = regs[inst.rd] if inst.rd is not None else None
                events.append(
                    SliceEvent(
                        pc=pc,
                        task_id=self.task_id,
                        addr=addr,
                        value=value,
                        step=self.steps,
                    )
                )

            self.steps += 1
            self.executed += 1
            used += 1
            if next_pc < 0:
                self.finished = True
                break
            if not 0 <= next_pc < len(instructions):
                raise InterpreterError(
                    "control transfer out of program: pc=%d -> %d" % (pc, next_pc)
                )
            self.pc = next_pc

        return events
