"""Program container for the repro RISC ISA."""

from __future__ import annotations

from typing import Dict, List

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode, is_control
from repro.isa.registers import NUM_REGS


class ProgramError(Exception):
    """Raised when a program fails validation."""


class Program:
    """An assembled program: instructions, labels, and initial memory.

    Attributes:
        name: human-readable program name (used in reports).
        instructions: list of :class:`Instruction`, index == PC.
        labels: mapping from label name to PC.
        initial_memory: mapping from byte address to initial word value.
        entry: PC of the first instruction to execute.
        secret_ranges: inclusive ``(lo, hi)`` word-address ranges tagged
            secret by ``.secret`` directives (consumed by the
            speculative-leak analysis; empty for ordinary programs).
    """

    def __init__(
        self,
        name,
        instructions,
        labels=None,
        initial_memory=None,
        entry=0,
        secret_ranges=None,
    ):
        self.name = name
        self.instructions: List[Instruction] = list(instructions)
        self.labels: Dict[str, int] = dict(labels or {})
        self.initial_memory: Dict[int, object] = dict(initial_memory or {})
        self.entry = entry
        self.secret_ranges: List[tuple] = [
            (int(lo), int(hi)) for lo, hi in (secret_ranges or [])
        ]
        for pc, inst in enumerate(self.instructions):
            inst.pc = pc

    def __len__(self):
        return len(self.instructions)

    def __getitem__(self, pc) -> Instruction:
        return self.instructions[pc]

    def __iter__(self):
        return iter(self.instructions)

    def pc_of(self, label) -> int:
        """Return the PC a label refers to."""
        try:
            return self.labels[label]
        except KeyError:
            raise ProgramError("unknown label: %r" % (label,)) from None

    def validate(self):
        """Check structural well-formedness.  Raises ProgramError on failure.

        Checks performed:
        * at least one instruction, entry PC in range;
        * every control instruction with a symbolic target resolved;
        * all branch/jump targets within the program;
        * all register indices in range;
        * the program can terminate (contains a HALT or a JR, the latter
          assumed to eventually return past the program end);
        * initial memory addresses are word-aligned.
        """
        if not self.instructions:
            raise ProgramError("empty program")
        if not 0 <= self.entry < len(self.instructions):
            raise ProgramError("entry PC out of range: %d" % self.entry)
        has_exit = False
        for pc, inst in enumerate(self.instructions):
            if inst.pc != pc:
                raise ProgramError("instruction %d has stale pc %d" % (pc, inst.pc))
            for reg in (inst.rd, inst.rs1, inst.rs2):
                if reg is not None and not 0 <= reg < NUM_REGS:
                    raise ProgramError(
                        "instruction %d (%s): register index %d out of range"
                        % (pc, inst.op.value, reg)
                    )
            if is_control(inst.op):
                if inst.op in (Opcode.HALT, Opcode.JR):
                    has_exit = True
                elif inst.target is None:
                    raise ProgramError(
                        "instruction %d (%s): unresolved target %r"
                        % (pc, inst, inst.label)
                    )
                elif not 0 <= inst.target < len(self.instructions):
                    raise ProgramError(
                        "instruction %d (%s): target %d out of range"
                        % (pc, inst, inst.target)
                    )
        if not has_exit:
            raise ProgramError("program has no HALT or JR instruction")
        for addr in self.initial_memory:
            if addr % 4 != 0:
                raise ProgramError("initial memory address %d not word-aligned" % addr)
        return self

    def static_loads(self):
        """Return the PCs of all static load instructions."""
        return [inst.pc for inst in self.instructions if inst.is_load]

    def static_stores(self):
        """Return the PCs of all static store instructions."""
        return [inst.pc for inst in self.instructions if inst.is_store]

    def task_entries(self):
        """Return the PCs of all static task-entry points."""
        return [inst.pc for inst in self.instructions if inst.task_entry]

    def __repr__(self):
        return "Program(name=%r, %d instructions, %d labels)" % (
            self.name,
            len(self.instructions),
            len(self.labels),
        )
