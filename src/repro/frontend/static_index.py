"""Columnar representation and shared static index of a trace.

Every :class:`~repro.multiscalar.processor.MultiscalarSimulator` used to
rebuild the same derived structures — task slices, register dataflow,
the memory dependence oracle, address-generation producers — in its
``_prepare_static`` for every ``(config, policy)`` cell, even though all
of them are functions of the trace alone.  A :class:`TraceIndex` hoists
that work onto the :class:`~repro.frontend.trace.Trace` (built lazily,
once) so repeated simulations of one trace share a single index.

The index also carries the trace as parallel *columns* (``array`` /
``bytearray`` / plain lists of ints): hot loops index
``idx.is_load[seq]`` or ``idx.addr[seq]`` instead of chasing
``TraceEntry -> Instruction`` attribute and property chains, which is
2-3x cheaper per access in CPython.

Everything in an index is immutable after construction and shared
between concurrently-running simulators; nothing in here may be
mutated by a consumer.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.isa.opcodes import FUClass

#: Fixed enumeration order of the functional-unit classes.  Columnar
#: consumers use the *position* in this tuple (``fu_code``) instead of
#: the enum member, turning per-issue dict lookups keyed on enum members
#: into list indexing.
FU_ORDER: Tuple[FUClass, ...] = tuple(FUClass)

_FU_CODE: Dict[FUClass, int] = {cls: i for i, cls in enumerate(FU_ORDER)}

NUM_FU_CLASSES = len(FU_ORDER)


class TraceIndex:
    """Columns plus static per-task / dataflow maps of one trace.

    Attributes mirror what ``MultiscalarSimulator._prepare_static``
    historically derived; the simulator now aliases them.
    """

    __slots__ = (
        "n",
        # columns
        "pc",
        "addr",
        "task_id",
        "is_load",
        "is_store",
        "is_memory",
        "fu_code",
        "rd",
        "load_seqs",
        # task structure
        "tasks",
        "n_tasks",
        "task_of",
        "index_in_task",
        "task_pcs",
        # register dataflow
        "src_operands",
        "src_producers",
        "reg_dependents",
        "task_writesets",
        # memory dependence oracle
        "producers",
        "dependents",
        "prior_task_stores",
        "all_store_seqs",
        "addr_producer",
        # memoized per-task aggregates (repro.frontend.columns)
        "_columns",
    )

    def __init__(self, trace):
        entries = trace.entries
        n = len(entries)
        self.n = n
        self._columns = None

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
            [e.seq for e in slice_] for slice_ in trace.task_slices()
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
        self.producers = trace.load_producers()
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

    def columns(self):
        """The per-task aggregates and derivation memo of this trace,
        memoized on this index (see
        :class:`~repro.frontend.columns.TraceColumns`)."""
        if self._columns is None:
            from repro.frontend.columns import TraceColumns

            self._columns = TraceColumns(self)
        return self._columns
