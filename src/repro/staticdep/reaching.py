"""Reaching-stores dataflow over ``(base register, offset)`` access
expressions.

The analysis answers, for every static load, *which static stores may
have produced the value it reads* — without executing the program.  The
result is the static candidate set of (store PC, load PC) dependence
pairs, the compile-time counterpart of the dynamic sets the paper's
Table 4 measures.

Soundness contract (checked by the cross-checker and the property
tests): the static pair set is a conservative over-approximation — every
dependence the oracle observes dynamically lies inside it (recall 1.0).
Precision is whatever the may-alias lattice can prove.

Machinery:

* An access expression is the syntactic address ``offset(base)`` of a
  memory instruction.
* A dataflow fact is a :class:`StoreFact`: "store S may be the latest
  write to its address on some path to here", carrying one lattice bit,
  ``base_intact`` — True while no instruction on any such path has
  redefined S's base register since S executed.
* Transfer: a store *kills* a reaching fact only when it must-alias it
  (same base register, same offset, base intact — provably the same
  address); a register write demotes ``base_intact`` of facts based on
  that register.  Merge is set union with AND on ``base_intact``.
* A load records a pair with every reaching fact it *may* alias.  The
  only non-alias proof the lattice supports: same base register, base
  intact, different offsets — the same base value displaced by unequal
  constants cannot collide.  Everything else may alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import ZERO
from repro.staticdep.cfg import ControlFlowGraph, TaskDistances, build_cfg


@dataclass(frozen=True)
class AccessExpr:
    """The syntactic address of a memory instruction: ``offset(base)``."""

    base: int
    offset: int

    def __str__(self) -> str:
        return "%d(r%d)" % (self.offset, self.base)


def access_expr(inst: Instruction) -> AccessExpr:
    """The access expression of a memory instruction."""
    if not inst.is_memory:
        raise ValueError("not a memory instruction: %s" % (inst,))
    return AccessExpr(inst.rs1 if inst.rs1 is not None else ZERO, inst.imm)


@dataclass(frozen=True)
class StoreFact:
    """One reaching-store dataflow fact."""

    store_pc: int
    expr: AccessExpr
    base_intact: bool

    def demoted(self) -> "StoreFact":
        return StoreFact(self.store_pc, self.expr, False)


def may_alias(fact: StoreFact, load_expr: AccessExpr) -> bool:
    """Conservative may-alias between a reaching store and a load.

    Returns False only when the addresses provably differ: both accesses
    use the same base register, that register still holds the value it
    had when the store executed (``base_intact``), and the constant
    offsets differ.
    """
    if (
        fact.expr.base == load_expr.base
        and fact.base_intact
        and fact.expr.offset != load_expr.offset
    ):
        return False
    return True


def _must_alias(fact: StoreFact, store_expr: AccessExpr) -> bool:
    """True when a new store provably overwrites the fact's address."""
    return (
        fact.expr.base == store_expr.base
        and fact.base_intact
        and fact.expr.offset == store_expr.offset
    )


def _written_register(inst: Instruction) -> Optional[int]:
    """The register *inst* writes, or None (writes to ``zero`` discarded)."""
    if inst.op is Opcode.SW:
        return None
    if inst.rd is not None and inst.rd != ZERO:
        return inst.rd
    return None


# A dataflow state maps store PC -> StoreFact.  Keeping one fact per
# store PC (rather than a set) is sound because the only varying field,
# base_intact, merges with AND.
State = Dict[int, StoreFact]


def _transfer(inst: Instruction, state: State) -> None:
    """Apply one instruction's effect to *state* in place."""
    written = _written_register(inst)
    if written is not None:
        for pc, fact in list(state.items()):
            if fact.base_intact and fact.expr.base == written:
                state[pc] = fact.demoted()
    if inst.is_store:
        expr = access_expr(inst)
        for pc, fact in list(state.items()):
            if _must_alias(fact, expr):
                del state[pc]
        state[inst.pc] = StoreFact(inst.pc, expr, True)


def _merge(into: State, other: State) -> bool:
    """Union-merge *other* into *into*; True when *into* changed."""
    changed = False
    for pc, fact in other.items():
        mine = into.get(pc)
        if mine is None:
            into[pc] = fact
            changed = True
        elif mine.base_intact and not fact.base_intact:
            into[pc] = mine.demoted()
            changed = True
    return changed


@dataclass(frozen=True)
class StaticPair:
    """One candidate static dependence: a store a load may observe."""

    store_pc: int
    load_pc: int
    store_expr: AccessExpr
    load_expr: AccessExpr
    min_task_distance: Optional[int]

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.store_pc, self.load_pc)

    @property
    def same_base(self) -> bool:
        """Both accesses name the same base register (a strong hint the
        pair is a real recurrence rather than an alias artifact)."""
        return self.store_expr.base == self.load_expr.base


class ReachingStores:
    """Fixpoint solution of the reaching-stores problem for one program."""

    def __init__(self, program: Program, cfg: Optional[ControlFlowGraph] = None):
        self.program = program
        self.cfg = cfg if cfg is not None else build_cfg(program)
        self._block_in: Dict[int, State] = {}
        self._block_out: Dict[int, State] = {}
        self._pairs: Optional[List[StaticPair]] = None
        self._solve()

    def _solve(self) -> None:
        cfg = self.cfg
        for block in cfg.blocks:
            self._block_in[block.index] = {}
            self._block_out[block.index] = {}
        worklist = list(cfg.reachable_blocks())
        queued = set(worklist)
        while worklist:
            index = worklist.pop(0)
            queued.discard(index)
            block = cfg.blocks[index]
            state = dict(self._block_in[index])
            for pc in block.pcs():
                _transfer(self.program[pc], state)
            if state != self._block_out[index]:
                self._block_out[index] = state
                for succ in block.successors:
                    if _merge(self._block_in[succ], state) and succ not in queued:
                        worklist.append(succ)
                        queued.add(succ)

    def state_before(self, pc: int) -> State:
        """The reaching-store facts immediately before instruction *pc*."""
        block = self.cfg.block_at(pc)
        state = dict(self._block_in[block.index])
        for earlier in range(block.start, pc):
            _transfer(self.program[earlier], state)
        return state

    def reaching_at(self, load_pc: int) -> List[StoreFact]:
        """Facts that may alias the load at *load_pc*, by store PC."""
        inst = self.program[load_pc]
        expr = access_expr(inst)
        state = self.state_before(load_pc)
        return sorted(
            (f for f in state.values() if may_alias(f, expr)),
            key=lambda f: f.store_pc,
        )

    def candidate_pairs(self) -> List[StaticPair]:
        """All static (store, load) pairs, with static task distances."""
        if self._pairs is not None:
            return self._pairs
        pairs: List[StaticPair] = []
        reachable = set(self.cfg.reachable_blocks())
        distances: Dict[int, TaskDistances] = {}
        for load_pc in self.program.static_loads():
            if self.cfg.block_at(load_pc).index not in reachable:
                continue
            load_expr = access_expr(self.program[load_pc])
            for fact in self.reaching_at(load_pc):
                from_store = distances.get(fact.store_pc)
                if from_store is None:
                    from_store = distances[fact.store_pc] = TaskDistances(
                        self.cfg, fact.store_pc
                    )
                pairs.append(
                    StaticPair(
                        store_pc=fact.store_pc,
                        load_pc=load_pc,
                        store_expr=fact.expr,
                        load_expr=load_expr,
                        min_task_distance=from_store.to(load_pc),
                    )
                )
        self._pairs = pairs
        return pairs

    def observed_stores(self) -> List[int]:
        """Store PCs that reach at least one may-aliasing load."""
        observed = set()
        for pair in self.candidate_pairs():
            observed.add(pair.store_pc)
        return sorted(observed)

    def dead_stores(self) -> List[int]:
        """Reachable stores no load can ever observe (provably dead).

        Because the alias lattice over-approximates, absence from every
        candidate pair is a *proof* of deadness, not a guess.
        """
        reachable = set(self.cfg.reachable_blocks())
        observed = set(self.observed_stores())
        return [
            pc
            for pc in self.program.static_stores()
            if pc not in observed and self.cfg.block_at(pc).index in reachable
        ]
