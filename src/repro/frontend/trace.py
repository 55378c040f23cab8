"""Dynamic execution traces.

The functional interpreter (:mod:`repro.frontend.interpreter`) produces a
:class:`Trace`: the committed dynamic instruction stream of a program.
Both the unrealistic OoO window model and the Multiscalar timing
simulator are trace-driven, which is what makes the reproduction
tractable in Python — the *values* are always architecturally correct,
and the models account for the *timing* of speculation, squash, and
re-execution.

A trace is stored as columns, not as one object per entry: the pc of
every committed instruction (an ``array('i')``), and the effective
address and the value of every memory access, in commit order.
Everything else an entry carries follows from those and the program's
per-PC :class:`~repro.frontend.static_index.StaticTable`: which entries
access memory, the next pc (the next entry's pc), the task (one begins
at every task-entry PC), and a conditional branch's outcome (taken
when control did not fall through).  The one outcome the columns
cannot show — a taken branch whose target is its own fall-through — is
kept as a set of seqs.  :class:`TraceEntry` objects are built on
demand, for the readers that want one entry at a time.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence

from repro.frontend.static_index import StaticTable, TraceIndex
from repro.telemetry.profiler import PROFILER


def int_column(values):
    """*values* as a compact ``array('q')`` when every one is an int
    that fits 64 bits, else as the list itself (floats, big ints)."""
    try:
        return array("q", values)
    except (TypeError, OverflowError):
        return values


class TraceEntry:
    """One committed dynamic instruction.

    Attributes:
        seq: dynamic sequence number in commit (program) order, from 0.
        inst: the static :class:`~repro.isa.instructions.Instruction`.
        addr: effective byte address for loads/stores, else None.
        value: the value loaded or stored, else None.
        taken: branch outcome for conditional branches, else None.
        next_pc: PC of the dynamically next instruction (-1 after HALT).
        task_id: dynamic task sequence number (tasks are numbered from 0
            in the order the sequencer would dispatch them).
        task_pc: PC of the entry instruction of this entry's task.  This
            is the "task PC" consulted by the ESYNC predictor.
    """

    __slots__ = ("seq", "inst", "addr", "value", "taken", "next_pc", "task_id", "task_pc")

    def __init__(self, seq, inst, addr, value, taken, next_pc, task_id, task_pc):
        self.seq = seq
        self.inst = inst
        self.addr = addr
        self.value = value
        self.taken = taken
        self.next_pc = next_pc
        self.task_id = task_id
        self.task_pc = task_pc

    @property
    def pc(self):
        return self.inst.pc

    @property
    def is_load(self):
        return self.inst.is_load

    @property
    def is_store(self):
        return self.inst.is_store

    @property
    def is_memory(self):
        return self.inst.is_memory

    def __repr__(self):
        extra = ""
        if self.addr is not None:
            extra = " addr=%d" % self.addr
        return "<TraceEntry #%d pc=%d task=%d %s%s>" % (
            self.seq,
            self.inst.pc,
            self.task_id,
            self.inst.op.value,
            extra,
        )


class Trace:
    """The committed dynamic instruction stream of one program run.

    Args:
        program: the :class:`~repro.isa.program.Program` that ran.
        pc: per-entry pc column (``array('i')``).
        mem_addr: effective address of every memory entry, in order
            (see :func:`int_column`).
        mem_value: loaded or stored value of every memory entry.
        end_pc: the last entry's next pc (``-1`` after HALT).
        taken_in_place: seqs of taken conditional branches whose target
            is their fall-through.
    """

    __slots__ = (
        "program",
        "pc",
        "mem_addr",
        "mem_value",
        "end_pc",
        "taken_in_place",
        "_instructions",
        "_static",
        "_index",
    )

    def __init__(self, program, pc, mem_addr, mem_value, end_pc, taken_in_place=()):
        self.program = program
        self.pc: array = pc
        self.mem_addr: Sequence[int] = mem_addr
        self.mem_value: Sequence[object] = mem_value
        self.end_pc = end_pc
        self.taken_in_place = frozenset(taken_in_place)
        self._instructions = program.instructions
        self._static: Optional[StaticTable] = None
        self._index = None

    def __getstate__(self):
        # the static table and the memoized index are cheap to rebuild
        # and heavy to ship; pickles (executor workers, caches) carry
        # only the columns and the instructions they index (the same
        # list as the program's, which pickle stores once)
        return (
            self.program,
            self._instructions,
            self.pc,
            self.mem_addr,
            self.mem_value,
            self.end_pc,
            self.taken_in_place,
        )

    def __setstate__(self, state):
        (
            self.program,
            self._instructions,
            self.pc,
            self.mem_addr,
            self.mem_value,
            self.end_pc,
            taken,
        ) = state
        self.taken_in_place = frozenset(taken)
        self._static = None
        self._index = None

    def __len__(self):
        return len(self.pc)

    @property
    def static(self) -> StaticTable:
        """The program's per-PC :class:`StaticTable`, built on first use
        from the instructions the trace was recorded against."""
        if self._static is None:
            self._static = StaticTable(self._instructions)
        return self._static

    @property
    def entries(self) -> "Trace":
        """The entries as a sequence of :class:`TraceEntry` objects built
        on demand: the trace itself, which indexes and iterates so."""
        return self

    def __getitem__(self, seq) -> TraceEntry:
        return self.entry(seq)

    def __iter__(self) -> Iterator[TraceEntry]:
        return map(self.entry, range(len(self.pc)))

    def entry(self, seq) -> TraceEntry:
        """The :class:`TraceEntry` at *seq* (negative counts from the end)."""
        n = len(self.pc)
        if seq < 0:
            seq += n
        if not 0 <= seq < n:
            raise IndexError("trace index out of range")
        index = self.index()
        pc = self.pc[seq]
        task_id = index.task_of[seq]
        next_pc = self.pc[seq + 1] if seq + 1 < n else self.end_pc
        return TraceEntry(
            seq,
            self.static.inst[pc],
            index.addr[seq],
            index.value[seq],
            self._taken(seq, pc, next_pc),
            next_pc,
            task_id,
            index.task_pcs[task_id],
        )

    def _taken(self, seq, pc, next_pc) -> Optional[bool]:
        if not self.static.cond_branch[pc]:
            return None
        return next_pc != pc + 1 or seq in self.taken_in_place

    @property
    def name(self):
        return self.program.name

    def loads(self):
        """Iterate over the dynamic load entries."""
        return (self.entry(seq) for seq in self.index().load_seqs)

    def stores(self):
        """Iterate over the dynamic store entries."""
        return (self.entry(seq) for seq in self.index().all_store_seqs)

    def count_loads(self):
        return len(self.index().load_seqs)

    def count_stores(self):
        return len(self.index().all_store_seqs)

    def count_tasks(self):
        return self.index().n_tasks

    def load_producers(self) -> Dict[int, Optional[int]]:
        """Map each dynamic load seq to the seq of its producing store.

        The producing store of a load is the latest earlier store to the
        same address; loads whose value comes from initial memory map to
        None.  The result is the *true dependence oracle* used by the
        PSYNC and WAIT policies and by prediction-accuracy accounting.
        """
        return self.index().producers

    def index(self):
        """The trace's shared static index (columns + derived maps).

        Built lazily on first use (profiled as ``frontend.index``) and
        memoized: every simulator run over this trace aliases one
        :class:`~repro.frontend.static_index.TraceIndex` instead of
        re-deriving task slices, register dataflow, and the dependence
        oracle per run.  The index is immutable; consumers must never
        mutate it.
        """
        if self._index is None:
            with PROFILER.scope("frontend.index"):
                self._index = TraceIndex(self)
        return self._index

    def columns(self):
        """The trace's shared per-task aggregates and derivation memo.

        Memoized on the shared index (one build per decoded trace); see
        :class:`~repro.frontend.columns.TraceColumns`.  Like the index,
        they are immutable and shared between concurrent runs.
        """
        return self.index().columns()

    def task_slices(self) -> List[List[TraceEntry]]:
        """Split the trace into per-task lists of entries, in task order."""
        return [list(map(self.entry, seqs)) for seqs in self.index().tasks]

    def summary(self):
        """Return a dict of basic dynamic statistics."""
        return {
            "name": self.name,
            "instructions": len(self),
            "loads": self.count_loads(),
            "stores": self.count_stores(),
            "tasks": self.count_tasks(),
        }
