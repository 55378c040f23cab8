"""Per-PC static tables and the shared index of a trace.

Everything a simulator needs about a trace, beyond the issue loop's
own run state, is a function of the trace alone.  A :class:`TraceIndex`
derives it once per trace (memoized by :meth:`Trace.index
<repro.frontend.trace.Trace.index>`), so every ``(config, policy)`` cell
over one trace shares a single copy.

The derivation reads no per-entry objects.  What is fixed per static
instruction — load and store flags, functional-unit code, destination
and source registers, task-entry flag — lives in one
:class:`StaticTable` per program.  The index looks each entry's pc up
there once, as a *kind* byte that ``bytes.translate`` expands into
each flag column; beyond that, only the register last-writer walk and
the walk over the memory entries run a Python loop.

The columns are ``array`` / ``bytearray`` / plain lists: hot loops
index ``idx.is_load[seq]`` or ``idx.addr[seq]`` directly.  What only
the speculative register models, VSYNC and the sanitizer read — the
destination and value columns, the register operands and dependents,
the per-task write-sets — is built on first access.

Everything in an index is immutable after construction and shared
between concurrently-running simulators; nothing in here may be
mutated by a consumer.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import chain, compress
from typing import Dict, List, Optional, Tuple

from repro.frontend.columns import TraceColumns
from repro.isa.opcodes import OPCODE_CLASS, FUClass, Opcode, is_conditional_branch
from repro.isa.registers import NUM_REGS

#: Fixed enumeration order of the functional-unit classes.  Columnar
#: consumers use the *position* in this tuple (``fu_code``) instead of
#: the enum member, turning per-issue dict lookups keyed on enum members
#: into list indexing.
FU_ORDER: Tuple[FUClass, ...] = tuple(FUClass)

_FU_CODE: Dict[FUClass, int] = {cls: i for i, cls in enumerate(FU_ORDER)}

NUM_FU_CLASSES = len(FU_ORDER)


# An instruction's *kind* packs its per-entry flags into one byte: the
# functional-unit code in the low four bits, then the load, store and
# task-entry flags.  The index expands a trace's pc column into one kind
# byte per entry and derives each flag column with ``bytes.translate``.
assert NUM_FU_CLASSES <= 16
_LOAD_BIT, _STORE_BIT, _TASK_BIT = 16, 32, 64
_FU_OF_KIND = bytes(k & 15 for k in range(256))
_LOAD_OF_KIND = bytes(1 if k & _LOAD_BIT else 0 for k in range(256))
_STORE_OF_KIND = bytes(1 if k & _STORE_BIT else 0 for k in range(256))
_MEMORY_OF_KIND = bytes(1 if k & (_LOAD_BIT | _STORE_BIT) else 0 for k in range(256))
_TASK_OF_KIND = bytes(1 if k & _TASK_BIT else 0 for k in range(256))

#: Per opcode: the kind bits without the task-entry flag, and whether it
#: is a conditional branch.  Keyed by mnemonic and read through the
#: member's plain ``_value_`` attribute: an Enum member's ``__hash__``
#: and its ``value`` property are Python calls, about five times the
#: cost of a string-keyed lookup.
_OPCODE_ROW = {
    op.value: (
        _FU_CODE[OPCODE_CLASS[op]]
        | (_LOAD_BIT if op is Opcode.LW else 0)
        | (_STORE_BIT if op is Opcode.SW else 0),
        1 if is_conditional_branch(op) else 0,
    )
    for op in Opcode
}


class StaticTable:
    """What every dynamic instance of a static instruction shares.

    One row per PC of a program: ``inst[pc]`` is the
    :class:`~repro.isa.instructions.Instruction`, ``kind[pc]`` its
    functional-unit code and load, store and task-entry flags packed in
    one byte, ``cond_branch[pc]`` whether it is a conditional branch,
    and ``rd[pc]`` its destination register (``-1`` for none).
    ``regs[pc]`` is the ``(src1, src2, dest)`` triple the register
    dataflow walk reads: the sources with ``0`` for an absent or zero
    register (register 0 never has a producer), and ``dest`` the written
    register, ``0`` for none and ``-1`` for a store.  ``sources[pc]``
    lists the non-zero source registers in operand order, repeats
    included.
    """

    __slots__ = ("inst", "kind", "cond_branch", "rd", "regs", "sources", "n_regs")

    def __init__(self, instructions):
        self.inst = list(instructions)
        self.kind: List[int] = []
        self.rd: List[int] = []
        self.regs: List[Tuple[int, int, int]] = []
        self.sources: List[Tuple[int, ...]] = []
        cond_branch = []
        n_regs = NUM_REGS
        for inst in self.inst:
            kind, branch = _OPCODE_ROW[inst.op._value_]
            if inst.task_entry:
                kind |= _TASK_BIT
            self.kind.append(kind)
            cond_branch.append(branch)
            rd = inst.rd
            self.rd.append(-1 if rd is None else rd)
            src1 = inst.rs1 or 0
            src2 = inst.rs2 or 0
            dest = -1 if kind & _STORE_BIT else (rd or 0)
            self.regs.append((src1, src2, dest))
            self.sources.append(tuple(r for r in (src1, src2) if r))
            n_regs = max(n_regs, src1 + 1, src2 + 1, dest + 1)
        self.cond_branch = bytes(cond_branch)
        self.n_regs = n_regs


class TraceIndex:
    """Per-entry columns plus the static per-task / dataflow maps of one
    trace.

    Attributes mirror what ``MultiscalarSimulator._prepare_static``
    historically derived; the simulator now aliases them.  ``addr``
    holds every entry's address (``None`` off memory), ``tasks`` each
    task's seqs as a ``range`` (tasks are contiguous in commit order),
    ``src_p1``/``src_p2`` the issue loop's register producers (``-1``
    for none; the second is set only when the first is), and
    ``task_load_seqs``/``task_n_stores`` the per-task aggregates
    :class:`~repro.frontend.columns.TraceColumns` serves.
    """

    def __init__(self, trace):
        static = trace.static
        pcs = trace.pc
        mem_addr = trace.mem_addr
        n = len(pcs)
        self.n = n
        self._static = static
        self._mem_value = trace.mem_value
        self._columns = None

        # -- per-entry flag columns: one kind byte per entry, translated
        pc_list = pcs.tolist()
        kind_of = static.kind
        kinds = bytes([kind_of[pc] for pc in pc_list])
        self.pc = pcs
        self.is_load = is_load = bytearray(kinds.translate(_LOAD_OF_KIND))
        self.is_store = bytearray(kinds.translate(_STORE_OF_KIND))
        self.is_memory = is_memory = bytearray(kinds.translate(_MEMORY_OF_KIND))
        self.fu_code = bytearray(kinds.translate(_FU_OF_KIND))
        if is_memory.count(1) != len(mem_addr) or len(trace.mem_value) != len(mem_addr):
            raise ValueError("%s: memory columns do not match the pc column" % trace.name)

        # -- task structure: a task starts at seq 0 and at every later
        #    entry of a task-entry PC, and spans a contiguous seq range
        starts = [0] if n else []
        starts.extend(compress(range(1, n), kinds.translate(_TASK_OF_KIND)[1:]))
        ends = starts[1:]
        ends.append(n)
        self.tasks = tasks = list(map(range, starts, ends))
        self.n_tasks = n_tasks = len(tasks)
        self.task_pcs = [pc_list[s] for s in starts]
        sizes = list(map(len, tasks))
        self.task_of = task_of = list(chain.from_iterable([t] * k for t, k in enumerate(sizes)))
        self.index_in_task = list(chain.from_iterable(map(range, sizes)))

        # -- register producers, unrolled into two columns ------------
        # last[reg] is the seq of the register's latest writer (-1 for
        # none; register 0 is never written).  A store's address
        # producer is its base register's writer (a store's address
        # resolves before its data arrives).
        regs = static.regs
        last = [-1] * static.n_regs
        src_p1 = [-1] * n
        src_p2 = [-1] * n
        addr_producer: Dict[int, Optional[int]] = {}
        for seq, pc in enumerate(pc_list):
            src1, src2, dest = regs[pc]
            first = last[src1]
            if first < 0:
                src_p1[seq] = last[src2]
            else:
                src_p1[seq] = first
                src_p2[seq] = last[src2]
            if dest > 0:
                last[dest] = seq
            elif dest:
                addr_producer[seq] = first if first >= 0 else None
        self.src_p1 = src_p1
        self.src_p2 = src_p2
        self.addr_producer = addr_producer

        # -- addresses and the memory dependence oracle, over memory
        #    entries only ---------------------------------------------
        # a load's producer is the latest earlier store to its address;
        # loads are visited in order, so dependents lists come sorted.
        # prior_task_stores maps a load to its task's earlier stores;
        # loads with no store between them share one list.
        addr: List[Optional[int]] = [None] * n
        load_seqs: List[int] = []
        store_seqs: List[int] = []
        producers: Dict[int, Optional[int]] = {}
        dependents: Dict[int, List[int]] = {}
        prior: Dict[int, List[int]] = {}
        task_load_seqs: List[List[int]] = [[] for _ in range(n_tasks)]
        task_n_stores = [0] * n_tasks
        last_store_to: Dict[int, int] = {}
        current = -1
        stores_so_far: List[int] = []
        shared: Optional[List[int]] = None
        for seq, a, load, t in zip(
            compress(range(n), is_memory),
            mem_addr,
            compress(is_load, is_memory),
            compress(task_of, is_memory),
        ):
            addr[seq] = a
            if t != current:
                current = t
                stores_so_far = []
                shared = None
            if load:
                load_seqs.append(seq)
                task_load_seqs[t].append(seq)
                producer = last_store_to.get(a)
                producers[seq] = producer
                if producer is not None:
                    dependents.setdefault(producer, []).append(seq)
                if stores_so_far:
                    if shared is None:
                        shared = list(stores_so_far)
                    prior[seq] = shared
            else:
                store_seqs.append(seq)
                task_n_stores[t] += 1
                last_store_to[a] = seq
                stores_so_far.append(seq)
                shared = None
        self.addr = addr
        self.load_seqs = load_seqs
        self.all_store_seqs = store_seqs
        self.producers = producers
        self.dependents = dependents
        self.prior_task_stores = prior
        self.task_load_seqs = task_load_seqs
        self.task_n_stores = task_n_stores

    # -- built on first read ---------------------------------------------

    @cached_property
    def rd(self) -> array:
        """Every entry's destination register (``-1`` for none).  Read by
        the speculative register models' register-violation check and
        the ``conservative`` model's write-sets."""
        rd_of = self._static.rd
        return array("i", [rd_of[pc] for pc in self.pc.tolist()])

    @cached_property
    def value(self) -> list:
        """Every entry's loaded or stored value (``None`` off memory).
        Read by VSYNC's value check and the trace's entry view."""
        value: list = [None] * self.n
        for seq, v in zip(compress(range(self.n), self.is_memory), self._mem_value):
            value[seq] = v
        return value

    @property
    def src_operands(self) -> List[tuple]:
        """Per entry, one ``(register, producer seq or None,
        penultimate-writer seq or None)`` tuple per non-zero source
        operand.  Read by the speculative register models and the
        sanitizer."""
        return self._register_operands[0]

    @property
    def reg_dependents(self) -> Dict[int, List[int]]:
        """Producer seq -> the seqs that read its register value, one
        entry per operand, in order."""
        return self._register_operands[1]

    @cached_property
    def task_writesets(self) -> Dict[int, frozenset]:
        """Static write-set per task entry PC: the registers any dynamic
        instance of that task writes (read by the ``conservative``
        register model)."""
        draft: Dict[int, set] = {}
        rd = self.rd
        for task_pc, seqs in zip(self.task_pcs, self.tasks):
            written = draft.setdefault(task_pc, set())
            for seq in seqs:
                if rd[seq] > 0:
                    written.add(rd[seq])
        return {pc: frozenset(r) for pc, r in draft.items()}

    @cached_property
    def _register_operands(self):
        sources = self._static.sources
        dests = self._static.regs
        last_writer: Dict[int, int] = {}
        prev_writer: Dict[int, Optional[int]] = {}
        operands_of: List[tuple] = [()] * self.n
        reg_dependents: Dict[int, List[int]] = {}
        for seq, pc in enumerate(self.pc):
            srcs = sources[pc]
            if srcs:
                operands = []
                for reg in srcs:
                    producer = last_writer.get(reg)
                    operands.append((reg, producer, prev_writer.get(reg)))
                    if producer is not None:
                        reg_dependents.setdefault(producer, []).append(seq)
                operands_of[seq] = tuple(operands)
            dest = dests[pc][2]
            if dest > 0:
                prev_writer[dest] = last_writer.get(dest)
                last_writer[dest] = seq
        return operands_of, reg_dependents

    def columns(self):
        """The per-task aggregates and derivation memo of this trace,
        memoized on this index (see
        :class:`~repro.frontend.columns.TraceColumns`)."""
        if self._columns is None:
            self._columns = TraceColumns(self)
        return self._columns
