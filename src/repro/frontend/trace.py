"""Dynamic execution traces.

The functional interpreter (:mod:`repro.frontend.interpreter`) produces a
:class:`Trace`: the committed dynamic instruction stream of a program.
Both the unrealistic OoO window model and the Multiscalar timing
simulator are trace-driven, which is what makes the reproduction
tractable in Python — the *values* are always architecturally correct,
and the models account for the *timing* of speculation, squash, and
re-execution.
"""

from __future__ import annotations

from typing import Dict, List, Optional


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
    """The committed dynamic instruction stream of one program run."""

    __slots__ = ("program", "entries", "_load_producers", "_index")

    def __init__(self, program, entries):
        self.program = program
        self.entries: List[TraceEntry] = entries
        self._load_producers: Optional[Dict[int, Optional[int]]] = None
        self._index = None

    def __getstate__(self):
        # memoized derivations (index, columns) are cheap to rebuild and
        # heavy to ship; pickles (executor workers, caches) carry only
        # the substance
        return (self.program, self.entries)

    def __setstate__(self, state):
        self.program, self.entries = state
        self._load_producers = None
        self._index = None

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, seq) -> TraceEntry:
        return self.entries[seq]

    def __iter__(self):
        return iter(self.entries)

    @property
    def name(self):
        return self.program.name

    def loads(self):
        """Iterate over the dynamic load entries."""
        return (e for e in self.entries if e.is_load)

    def stores(self):
        """Iterate over the dynamic store entries."""
        return (e for e in self.entries if e.is_store)

    def count_loads(self):
        return sum(1 for e in self.entries if e.is_load)

    def count_stores(self):
        return sum(1 for e in self.entries if e.is_store)

    def count_tasks(self):
        if not self.entries:
            return 0
        return self.entries[-1].task_id + 1

    def load_producers(self) -> Dict[int, Optional[int]]:
        """Map each dynamic load seq to the seq of its producing store.

        The producing store of a load is the latest earlier store to the
        same address; loads whose value comes from initial memory map to
        None.  The result is the *true dependence oracle* used by the
        PSYNC and WAIT policies and by prediction-accuracy accounting.
        """
        if self._load_producers is None:
            producers: Dict[int, Optional[int]] = {}
            last_store_to: Dict[int, int] = {}
            for entry in self.entries:
                if entry.is_store:
                    last_store_to[entry.addr] = entry.seq
                elif entry.is_load:
                    producers[entry.seq] = last_store_to.get(entry.addr)
            self._load_producers = producers
        return self._load_producers

    def index(self):
        """The trace's shared static index (columns + derived maps).

        Built lazily on first use and memoized: every simulator run over
        this trace aliases one :class:`~repro.frontend.static_index.
        TraceIndex` instead of re-deriving task slices, register
        dataflow, and the dependence oracle per run.  The index is
        immutable; consumers must never mutate it.
        """
        if self._index is None:
            from repro.frontend.static_index import TraceIndex

            self._index = TraceIndex(self)
        return self._index

    def columns(self):
        """The trace's shared per-task aggregates and derivation memo.

        Memoized on the shared index (one build per decoded trace); see
        :class:`~repro.frontend.columns.TraceColumns`.  Like the index,
        they are immutable and shared between concurrent runs.
        """
        return self.index().columns()

    def dependence_edges(self):
        """Iterate over true dependence edges as (store_entry, load_entry)."""
        producers = self.load_producers()
        for load_seq, store_seq in producers.items():
            if store_seq is not None:
                yield self.entries[store_seq], self.entries[load_seq]

    def task_slices(self):
        """Split the trace into per-task lists of entries, in task order."""
        tasks: List[List[TraceEntry]] = []
        for entry in self.entries:
            if entry.task_id == len(tasks):
                tasks.append([])
            tasks[entry.task_id].append(entry)
        return tasks

    def summary(self):
        """Return a dict of basic dynamic statistics."""
        return {
            "name": self.name,
            "instructions": len(self.entries),
            "loads": self.count_loads(),
            "stores": self.count_stores(),
            "tasks": self.count_tasks(),
        }
