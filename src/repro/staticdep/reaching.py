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
  that register.  Merge is set union with AND on ``base_intact``; the
  fixpoint is :func:`~repro.staticdep.cfg.solve_forward` from the entry.
* A load records a pair with every reaching fact it *may* alias.  The
  only non-alias proof the lattice supports: same base register, base
  intact, different offsets — the same base value displaced by unequal
  constants cannot collide.  Everything else may alias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.isa.registers import ZERO
from repro.staticdep.cfg import ControlFlowGraph, TaskDistances, build_cfg, solve_forward, state_at


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


# A dataflow state maps store PC -> StoreFact.  Keeping one fact per
# store PC (rather than a set) is sound because the only varying field,
# base_intact, merges with AND.
State = Dict[int, StoreFact]


def _transfer(inst: Instruction, state: State) -> State:
    """One instruction's effect: a new state when it changes *state*,
    *state* itself otherwise."""
    written = inst.written_register()
    if written is not None and any(
        f.base_intact and f.expr.base == written for f in state.values()
    ):
        state = {
            pc: fact.demoted() if fact.base_intact and fact.expr.base == written else fact
            for pc, fact in state.items()
        }
    if inst.is_store:
        expr = access_expr(inst)
        state = {pc: fact for pc, fact in state.items() if not _must_alias(fact, expr)}
        state[inst.pc] = StoreFact(inst.pc, expr, True)
    return state


def _join(a: State, b: State) -> State:
    """Union of two states, AND on ``base_intact``."""
    merged = dict(a)
    for pc, fact in b.items():
        mine = merged.get(pc)
        if mine is None or (mine.base_intact and not fact.base_intact):
            merged[pc] = fact
    return merged


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
        self._pairs: Optional[List[StaticPair]] = None
        self._block_in: Dict[int, State] = self._solve()

    def _solve(self) -> Dict[int, State]:
        """Block entry states, from an empty state at the entry block."""
        return solve_forward(self.cfg, {self.cfg.entry_block.index: {}}, _transfer, _join)

    def state_before(self, pc: int) -> State:
        """The reaching-store facts immediately before instruction *pc*
        (shared with the solution: do not mutate)."""
        return state_at(self.cfg, self._block_in, pc, _transfer, {})

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
