"""Static instruction representation.

A :class:`Instruction` is one static instruction of a
:class:`~repro.isa.program.Program`.  Program counters are instruction
indices (the ISA has a fixed 1-word encoding, so index and word address
differ only by a constant factor that nothing in the reproduction
depends on).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.opcodes import (
    OPCODE_CLASS,
    Opcode,
    is_conditional_branch,
    is_load,
    is_store,
)
from repro.isa.registers import ZERO, register_name


@dataclass
class Instruction:
    """One static instruction.

    Attributes:
        op: the :class:`~repro.isa.opcodes.Opcode`.
        rd: destination register index, or None.
        rs1: first source register index, or None.  For memory opcodes this
            is the base-address register.
        rs2: second source register index, or None.  For ``SW`` this is the
            register holding the value to store.
        imm: immediate operand (also the byte offset for memory opcodes).
        target: resolved branch/jump target PC, or None.
        label: unresolved symbolic target, kept for diagnostics.
        task_entry: True if a new Multiscalar task begins at this
            instruction (set by the assembler's ``task_begin`` marker).
        pc: index of this instruction within its program.
        line: 1-based source line this instruction came from, or None
            for programs built directly through the Assembler DSL.
    """

    op: Opcode
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[int] = None
    label: Optional[str] = None
    task_entry: bool = False
    pc: int = field(default=-1)
    line: Optional[int] = None

    @property
    def fu_class(self):
        """Functional-unit class of this instruction."""
        return OPCODE_CLASS[self.op]

    @property
    def is_load(self) -> bool:
        return is_load(self.op)

    @property
    def is_store(self) -> bool:
        return is_store(self.op)

    @property
    def is_memory(self) -> bool:
        return is_load(self.op) or is_store(self.op)

    @property
    def is_branch(self) -> bool:
        return is_conditional_branch(self.op)

    def sources(self):
        """Return the tuple of source register indices this instruction reads."""
        srcs = []
        if self.rs1 is not None:
            srcs.append(self.rs1)
        if self.rs2 is not None:
            srcs.append(self.rs2)
        return tuple(srcs)

    def written_register(self) -> Optional[int]:
        """Return the register index this instruction writes, or None.

        Stores write no register, and a write to the hard-wired ``zero``
        register is discarded, so neither defines a register value.
        """
        if self.op is Opcode.SW or self.rd is None or self.rd == ZERO:
            return None
        return self.rd

    def __str__(self):
        parts = [self.op.value]
        operands = []
        if self.rd is not None:
            operands.append(register_name(self.rd))
        if self.rs1 is not None:
            if self.is_memory:
                operands.append("%d(%s)" % (self.imm, register_name(self.rs1)))
            else:
                operands.append(register_name(self.rs1))
        if self.rs2 is not None and not self.is_memory:
            operands.append(register_name(self.rs2))
        if self.rs2 is not None and self.op is Opcode.SW:
            # SW prints as: sw value, offset(base)
            operands = [
                register_name(self.rs2),
                "%d(%s)" % (self.imm, register_name(self.rs1)),
            ]
        if not self.is_memory and self.rs2 is None and self.rd is not None:
            if self.op not in (Opcode.JAL,):
                if self.imm or self.op in (
                    Opcode.ADDI,
                    Opcode.ANDI,
                    Opcode.ORI,
                    Opcode.XORI,
                    Opcode.SLTI,
                    Opcode.LUI,
                    Opcode.LI,
                    Opcode.SLL,
                    Opcode.SRL,
                    Opcode.SRA,
                ):
                    operands.append(str(self.imm))
        if self.label is not None:
            operands.append(self.label)
        elif self.target is not None:
            operands.append("@%d" % self.target)
        if operands:
            parts.append(", ".join(operands))
        text = " ".join(parts)
        if self.task_entry:
            text = "[task] " + text
        return text
