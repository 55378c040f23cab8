"""Test-only references: the entry-object trace path and the slice
executor.

The frontend stores a trace as columns and builds its index from them
in one pass (:mod:`repro.frontend.trace`,
:mod:`repro.frontend.static_index`).  This module keeps the code it
replaced, which built one :class:`TraceEntry` per committed instruction
and took each apart again:

* :class:`EntryInterpreter` interprets a program into a list of
  entries;
* :func:`encode_entries` / :func:`decode_entries` are the format-1
  trace-cache codec, one field column per entry attribute;
* :class:`ReferenceIndex` derives every index field from the entries
  through ``Instruction`` properties, and :func:`reference_src_pair`
  and :func:`reference_task_aggregates` the issue loop's register
  producer columns and per-task aggregates.

``test_columns_differential.py`` holds the trace view, the codec and
the index equal to these, field by field.

It also keeps :class:`SliceExecutor`, which executed only an
executable slice's PCs on a register file and memory image of its own,
a budget of slice instructions per call.  ``sync_slice_warmed`` now
replays the trace instead (:func:`repro.multiscalar.policies.replay_slice`).
``tests/staticdep/test_slice_property.py`` holds the executor to the
full run, and ``tests/multiscalar/test_slice_replay_differential.py``
holds the replay to the executor, call by call.
"""

from __future__ import annotations

import math
import pickle
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.frontend.interpreter import InterpreterError, TraceLimitExceeded
from repro.frontend.static_index import _FU_CODE
from repro.frontend.trace import TraceEntry
from repro.frontend.trace_cache import TraceFormatError
from repro.isa.opcodes import Opcode, is_control
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, ZERO


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



class EntryInterpreter:
    """The entry-building interpreter: every committed instruction
    becomes one :class:`TraceEntry`.

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

    def run(self) -> List[TraceEntry]:
        """Execute the program to completion and return its entries."""
        program = self.program
        instructions = program.instructions
        regs = self.registers
        memory = self.memory
        entries = []
        limit = self.max_instructions

        pc = program.entry
        task_id = 0
        task_pc = pc
        seq = 0
        O = Opcode
        # hot-loop local bindings: one committed instruction per
        # iteration makes global/attribute lookups measurable
        make_entry = TraceEntry
        append = entries.append

        while True:
            if seq >= limit:
                raise TraceLimitExceeded(
                    "%s: exceeded %d instructions" % (program.name, limit)
                )
            inst = instructions[pc]
            if inst.task_entry and seq > 0:
                task_id += 1
                task_pc = pc
            op = inst.op
            addr = None
            value = None
            taken = None
            next_pc = pc + 1

            if op is O.LW:
                addr = _check_addr(regs[inst.rs1] + inst.imm)
                value = memory.get(addr, 0)
                if inst.rd != ZERO:
                    regs[inst.rd] = value
            elif op is O.SW:
                addr = _check_addr(regs[inst.rs1] + inst.imm)
                value = regs[inst.rs2]
                memory[addr] = value
            elif op is O.ADD:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2]
            elif op is O.ADDI:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] + inst.imm
            elif op is O.SUB:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2]
            elif op is O.AND:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] & regs[inst.rs2]
            elif op is O.ANDI:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] & inst.imm
            elif op is O.OR:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] | regs[inst.rs2]
            elif op is O.ORI:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] | inst.imm
            elif op is O.XOR:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] ^ regs[inst.rs2]
            elif op is O.XORI:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] ^ inst.imm
            elif op is O.NOR:
                if inst.rd != ZERO:
                    regs[inst.rd] = ~(regs[inst.rs1] | regs[inst.rs2])
            elif op is O.SLT:
                if inst.rd != ZERO:
                    regs[inst.rd] = 1 if regs[inst.rs1] < regs[inst.rs2] else 0
            elif op is O.SLTI:
                if inst.rd != ZERO:
                    regs[inst.rd] = 1 if regs[inst.rs1] < inst.imm else 0
            elif op is O.SLL:
                if inst.rd != ZERO:
                    shifted = (regs[inst.rs1] << (inst.imm & 31)) & 0xFFFFFFFF
                    if shifted >= 0x80000000:
                        shifted -= 0x100000000
                    regs[inst.rd] = shifted
            elif op is O.SRL:
                if inst.rd != ZERO:
                    regs[inst.rd] = (regs[inst.rs1] & 0xFFFFFFFF) >> (inst.imm & 31)
            elif op is O.SRA:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] >> (inst.imm & 31)
            elif op is O.LUI:
                if inst.rd != ZERO:
                    regs[inst.rd] = inst.imm << 16
            elif op is O.LI:
                if inst.rd != ZERO:
                    regs[inst.rd] = inst.imm
            elif op is O.MUL:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2]
            elif op is O.DIV:
                if inst.rd != ZERO:
                    regs[inst.rd] = _sdiv(regs[inst.rs1], regs[inst.rs2])
            elif op is O.REM:
                if inst.rd != ZERO:
                    regs[inst.rd] = _srem(regs[inst.rs1], regs[inst.rs2])
            elif op is O.BEQ:
                taken = regs[inst.rs1] == regs[inst.rs2]
                if taken:
                    next_pc = inst.target
            elif op is O.BNE:
                taken = regs[inst.rs1] != regs[inst.rs2]
                if taken:
                    next_pc = inst.target
            elif op is O.BLT:
                taken = regs[inst.rs1] < regs[inst.rs2]
                if taken:
                    next_pc = inst.target
            elif op is O.BGE:
                taken = regs[inst.rs1] >= regs[inst.rs2]
                if taken:
                    next_pc = inst.target
            elif op is O.BLE:
                taken = regs[inst.rs1] <= regs[inst.rs2]
                if taken:
                    next_pc = inst.target
            elif op is O.BGT:
                taken = regs[inst.rs1] > regs[inst.rs2]
                if taken:
                    next_pc = inst.target
            elif op is O.J:
                next_pc = inst.target
            elif op is O.JAL:
                regs[inst.rd] = pc + 1
                next_pc = inst.target
            elif op is O.JR:
                next_pc = regs[inst.rs1]
            elif op is O.HALT:
                next_pc = -1
            elif op is O.NOP:
                pass
            elif op is O.FADD_S or op is O.FADD_D:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] + regs[inst.rs2]
            elif op is O.FSUB_S or op is O.FSUB_D:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] - regs[inst.rs2]
            elif op is O.FMUL_S or op is O.FMUL_D:
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] * regs[inst.rs2]
            elif op is O.FDIV_S or op is O.FDIV_D:
                divisor = regs[inst.rs2]
                if divisor == 0:
                    raise InterpreterError("floating-point division by zero")
                if inst.rd != ZERO:
                    regs[inst.rd] = regs[inst.rs1] / divisor
            elif op is O.FSQRT_S or op is O.FSQRT_D:
                operand = regs[inst.rs1]
                if operand < 0:
                    raise InterpreterError("square root of a negative value")
                if inst.rd != ZERO:
                    regs[inst.rd] = math.sqrt(operand)
            else:  # pragma: no cover - all opcodes handled above
                raise InterpreterError("unimplemented opcode: %s" % op)

            append(make_entry(seq, inst, addr, value, taken, next_pc, task_id, task_pc))
            seq += 1
            if next_pc < 0:
                break
            if not 0 <= next_pc < len(instructions):
                raise InterpreterError(
                    "control transfer out of program: pc=%d -> %d" % (pc, next_pc)
                )
            pc = next_pc

        return entries


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


def task_slices(entries) -> List[List[TraceEntry]]:
    """Split *entries* into per-task lists, in task order."""
    tasks: List[List[TraceEntry]] = []
    for entry in entries:
        if entry.task_id == len(tasks):
            tasks.append([])
        tasks[entry.task_id].append(entry)
    return tasks


def load_producers(entries) -> Dict[int, Optional[int]]:
    """Each load's producing store: the latest earlier store to its address."""
    producers: Dict[int, Optional[int]] = {}
    last_store_to: Dict[int, int] = {}
    for entry in entries:
        if entry.is_store:
            last_store_to[entry.addr] = entry.seq
        elif entry.is_load:
            producers[entry.seq] = last_store_to.get(entry.addr)
    return producers


FORMAT_VERSION = 1

_MAGIC = b"RTRC"

_LITTLE = 1 if sys.byteorder == "little" else 0

_TYPECODES = ("i", "i", "i", "i", "q", "b", "b", "q")


def encode_entries(entries, fingerprint="") -> bytes:
    """Encode *entries* as compact binary columns (format version 1).

    Layout: magic, format version, byte order, entry count, the
    64-hex-char fingerprint, then one length-prefixed array per column.
    Values get a per-entry tag column (none / int64 / float64 /
    pickled overflow) because trace values are Python ints of arbitrary
    width or floats from the FP opcodes.
    """
    n = len(entries)
    pc = array("i", bytes(4 * n))
    next_pc = array("i", bytes(4 * n))
    task_id = array("i", bytes(4 * n))
    task_pc = array("i", bytes(4 * n))
    addr = array("q", bytes(8 * n))
    taken = array("b", bytes(n))
    vtag = array("b", bytes(n))
    vnum = array("q", bytes(8 * n))
    overflow: Dict[int, object] = {}
    pack = struct.pack
    unpack = struct.unpack
    for i, e in enumerate(entries):
        pc[i] = e.inst.pc
        next_pc[i] = e.next_pc
        task_id[i] = e.task_id
        task_pc[i] = e.task_pc
        a = e.addr
        addr[i] = -1 if a is None else a
        t = e.taken
        taken[i] = -1 if t is None else (1 if t else 0)
        v = e.value
        if v is None:
            continue
        if isinstance(v, float):
            vtag[i] = 2
            vnum[i] = unpack("<q", pack("<d", v))[0]
        elif isinstance(v, int) and -(2**63) <= v < 2**63:
            vtag[i] = 1
            vnum[i] = v
        else:
            vtag[i] = 3
            overflow[i] = v
    fp = fingerprint.encode("ascii")[:64].ljust(64, b"\0")
    parts = [_MAGIC, pack("<HBxQ", FORMAT_VERSION, _LITTLE, n), fp]
    for column, typecode in zip(
        (pc, next_pc, task_id, task_pc, addr, taken, vtag, vnum), _TYPECODES
    ):
        blob = column.tobytes()
        parts.append(pack("<cBQ", typecode.encode(), column.itemsize, len(blob)))
        parts.append(blob)
    blob = pickle.dumps(overflow, protocol=2)
    parts.append(pack("<Q", len(blob)))
    parts.append(blob)
    return b"".join(parts)


def decode_entries(data, program, fingerprint=None) -> List[TraceEntry]:
    """Decode :func:`encode_entries` bytes back into entries.

    *program* supplies the static instructions the entries point at.
    When *fingerprint* is given it must match the stored one — the
    caller's way of asserting the bytes belong to this exact program.
    Raises :class:`TraceFormatError` on any mismatch or corruption.
    """
    try:
        if data[:4] != _MAGIC:
            raise TraceFormatError("bad magic")
        version, little, n = struct.unpack_from("<HBxQ", data, 4)
        if version != FORMAT_VERSION:
            raise TraceFormatError("format version %d != %d" % (version, FORMAT_VERSION))
        if little != _LITTLE:
            raise TraceFormatError("byte-order mismatch")
        stored_fp = data[16:80].rstrip(b"\0").decode("ascii")
        if fingerprint is not None and stored_fp != fingerprint:
            raise TraceFormatError("fingerprint mismatch")
        offset = 80
        columns = []
        for typecode in _TYPECODES:
            code, itemsize, length = struct.unpack_from("<cBQ", data, offset)
            offset += 10
            column = array(typecode)
            if code != typecode.encode() or itemsize != column.itemsize:
                raise TraceFormatError("column layout mismatch")
            if length != column.itemsize * n:
                raise TraceFormatError("column length mismatch")
            column.frombytes(data[offset : offset + length])
            offset += length
            columns.append(column)
        (length,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        overflow = pickle.loads(data[offset : offset + length])
    except TraceFormatError:
        raise
    except Exception as exc:
        raise TraceFormatError("truncated or corrupt trace: %s" % (exc,)) from exc

    pc, next_pc, task_id, task_pc, addr, taken, vtag, vnum = columns
    instructions = program.instructions
    unpack = struct.unpack
    pack = struct.pack
    entries = []
    append = entries.append
    for i in range(n):
        a = addr[i]
        t = taken[i]
        tag = vtag[i]
        if tag == 0:
            v = None
        elif tag == 1:
            v = vnum[i]
        elif tag == 2:
            v = unpack("<d", pack("<q", vnum[i]))[0]
        else:
            v = overflow[i]
        append(
            TraceEntry(
                i,
                instructions[pc[i]],
                None if a < 0 else a,
                v,
                None if t < 0 else bool(t),
                next_pc[i],
                task_id[i],
                task_pc[i],
            )
        )
    return entries


class ReferenceIndex:
    """Every :class:`~repro.frontend.static_index.TraceIndex` field,
    derived from entry objects."""

    def __init__(self, entries):
        n = len(entries)
        self.n = n

        # -- columns --------------------------------------------------
        self.pc = array("i", bytes(4 * n))
        self.task_id = array("i", bytes(4 * n))
        self.addr: List[Optional[int]] = [None] * n
        self.is_load = bytearray(n)
        self.is_store = bytearray(n)
        self.is_memory = bytearray(n)
        self.fu_code = bytearray(n)
        self.rd = array("i", bytes(4 * n))
        load_seqs: List[int] = []
        fu_of = _FU_CODE
        for seq, entry in enumerate(entries):
            inst = entry.inst
            self.pc[seq] = inst.pc
            self.task_id[seq] = entry.task_id
            self.addr[seq] = entry.addr
            if inst.is_load:
                self.is_load[seq] = 1
                self.is_memory[seq] = 1
                load_seqs.append(seq)
            elif inst.is_store:
                self.is_store[seq] = 1
                self.is_memory[seq] = 1
            self.fu_code[seq] = fu_of[inst.fu_class]
            rd = inst.rd
            self.rd[seq] = -1 if rd is None else rd
        self.load_seqs = load_seqs

        # -- task structure -------------------------------------------
        self.tasks: List[List[int]] = [
            [e.seq for e in slice_] for slice_ in task_slices(entries)
        ]
        self.n_tasks = len(self.tasks)
        self.task_of = [0] * n
        self.index_in_task = [0] * n
        self.task_pcs = [0] * self.n_tasks
        for t, seqs in enumerate(self.tasks):
            self.task_pcs[t] = entries[seqs[0]].task_pc
            for idx, seq in enumerate(seqs):
                self.task_of[seq] = t
                self.index_in_task[seq] = idx

        # -- register dataflow ----------------------------------------
        # per source operand: (register, producer seq or None,
        # penultimate-writer seq or None).  reg_dependents (producer ->
        # consumers) and per-task-entry static write-sets are only read
        # by the non-oracle register models, but they are functions of
        # the trace alone, so the index builds them unconditionally.
        last_writer: Dict[int, int] = {}
        prev_writer: Dict[int, Optional[int]] = {}
        self.src_operands: List[tuple] = [()] * n
        self.src_producers: List[tuple] = [()] * n
        self.reg_dependents: Dict[int, List[int]] = {}
        for entry in entries:
            inst = entry.inst
            operands = []
            for reg in inst.sources():
                if reg == 0:
                    continue
                producer = last_writer.get(reg)
                operands.append((reg, producer, prev_writer.get(reg)))
                if producer is not None:
                    self.reg_dependents.setdefault(producer, []).append(entry.seq)
            self.src_operands[entry.seq] = tuple(operands)
            self.src_producers[entry.seq] = tuple(
                producer for _, producer, _ in operands if producer is not None
            )
            rd = inst.rd
            if rd is not None and rd != 0:
                prev_writer[rd] = last_writer.get(rd)
                last_writer[rd] = entry.seq

        # static write-set per task entry PC: the registers any dynamic
        # instance of that task writes
        draft: Dict[int, set] = {}
        for task_id, seqs in enumerate(self.tasks):
            regs = draft.setdefault(self.task_pcs[task_id], set())
            for seq in seqs:
                rd = self.rd[seq]
                if rd > 0:
                    regs.add(rd)
        self.task_writesets: Dict[int, frozenset] = {
            pc: frozenset(regs) for pc, regs in draft.items()
        }

        # -- memory dependence oracle ---------------------------------
        self.producers = load_producers(entries)
        self.dependents: Dict[int, List[int]] = {}
        for load_seq, store_seq in self.producers.items():
            if store_seq is not None:
                self.dependents.setdefault(store_seq, []).append(load_seq)
        for lst in self.dependents.values():
            lst.sort()

        # per-load list of earlier same-task stores (intra-task gating)
        self.prior_task_stores: Dict[int, List[int]] = {}
        is_load = self.is_load
        is_store = self.is_store
        for seqs in self.tasks:
            stores_so_far: List[int] = []
            for seq in seqs:
                if is_load[seq] and stores_so_far:
                    self.prior_task_stores[seq] = list(stores_so_far)
                if is_store[seq]:
                    stores_so_far.append(seq)

        self.all_store_seqs = [seq for seq in range(n) if is_store[seq]]

        # address-generation dataflow for stores: the base register only
        # (a store's address resolves before its data arrives)
        last_writer.clear()
        self.addr_producer: Dict[int, Optional[int]] = {}
        for entry in entries:
            inst = entry.inst
            if is_store[entry.seq]:
                base = inst.rs1
                self.addr_producer[entry.seq] = (
                    last_writer.get(base) if base != 0 else None
                )
            rd = inst.rd
            if rd is not None and rd != 0:
                last_writer[rd] = entry.seq


def reference_src_pair(index):
    """The issue loop's two register-producer columns (-1 = none)."""
    n = index.n
    p1 = [-1] * n
    p2 = [-1] * n
    for s, prods in enumerate(index.src_producers):
        if prods:
            p1[s] = prods[0]
            if len(prods) > 1:
                p2[s] = prods[1]
    return p1, p2


def reference_task_aggregates(index):
    """``(task_n_instr, task_n_loads, task_n_stores, task_load_seqs)``."""
    n_tasks = index.n_tasks
    task_n_instr = [0] * n_tasks
    task_n_loads = [0] * n_tasks
    task_n_stores = [0] * n_tasks
    task_load_seqs: List[List[int]] = [[] for _ in range(n_tasks)]
    is_load = index.is_load
    is_store = index.is_store
    for t, seqs in enumerate(index.tasks):
        task_n_instr[t] = len(seqs)
        loads = task_load_seqs[t]
        n_stores = 0
        for seq in seqs:
            if is_load[seq]:
                loads.append(seq)
            elif is_store[seq]:
                n_stores += 1
        task_n_loads[t] = len(loads)
        task_n_stores[t] = n_stores
    return task_n_instr, task_n_loads, task_n_stores, task_load_seqs
