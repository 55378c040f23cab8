"""Symbolic affine alias analysis over the ISA control-flow graph.

This module replaces the one-bit ``base_intact`` lattice of
:mod:`repro.staticdep.reaching` with an abstract interpreter that
tracks, for every register at every program point, a *symbolic affine
value*: a base symbol (the register's unknown initial value, if it
still depends on one), a constant part, a per-loop-iteration stride,
an interval, and — for ``rem``/mask-indexed addresses — a periodic
(modular) index.  Address expressions evaluated in this domain support
a three-way MUST / MAY / NO alias verdict per static (store, load)
pair, and for MUST pairs an *iteration lag* that converts to the
static dependence distance the MDPT's DIST field learns dynamically.

Abstract domain
---------------

A :class:`SymValue` denotes a set of integers.  With ``i`` ranging
over the iteration count of the loop named by ``loop`` (the loop-head
block index; ``i`` counts completed visits to that head):

* exact, ``mod is None``:   ``v(i) = sym? + base + stride * i``
* exact, ``mod = m``:       ``v(i) = sym? + base + stride * ((pbase + pstep * i) % m)``
* inexact:                  ``v in sym? + { base + k * stride } ∩ [lo, hi]``

``sym`` is the id of a register's unknown program-entry value (or
``None`` when the value is fully concrete).  Inexact values are
congruence classes: ``stride >= 1`` and ``0 <= base < stride``; TOP is
the inexact value ``0 + 1*Z`` with unbounded interval.  Exactness is
what licenses MUST verdicts and lag inference; inexact values still
refute aliasing through disjoint intervals or congruences.

Soundness contract (checked by the cross-checker and property tests):
a NO verdict proves the two accesses never touch the same address in
any execution, so dropping NO pairs from the reaching candidate set
preserves recall 1.0 against the dynamic oracle.

Widening at loop heads recognizes induction: a register that enters a
loop holding constant ``c`` and returns over the back edge holding
``c + d`` is widened to the exact linear value ``c + d*i``; the next
fixpoint round either confirms the hypothesis (the back edge yields
``c + d + d*i``) or demotes the value to a gcd congruence class whose
modulus only ever shrinks — which, with intervals that widen straight
to infinity, bounds every chain and guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, ZERO
from repro.staticdep.cfg import ControlFlowGraph, build_cfg, dominator_sets, solve_forward, state_at

#: 32-bit signed bounds: ``sll`` is the only wrapping ALU op in the
#: interpreter, so scaling by a shift is modelled only when the operand
#: interval proves the shift cannot wrap.
_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1

#: Alias verdicts.
MUST = "must"
MAY = "may"
NO = "no"


@dataclass(frozen=True)
class SymValue:
    """One abstract register value (see the module docstring)."""

    sym: Optional[int]
    base: int
    stride: int
    loop: Optional[int]
    exact: bool
    lo: Optional[int]
    hi: Optional[int]
    mod: Optional[int] = None
    pbase: int = 0
    pstep: int = 0

    @property
    def is_const(self) -> bool:
        """A single fully-determined offset (``sym`` may still apply)."""
        return self.exact and self.stride == 0 and self.mod is None

    @property
    def is_concrete_const(self) -> bool:
        """A single known integer, no symbolic part."""
        return self.is_const and self.sym is None

    @property
    def is_top(self) -> bool:
        return (
            not self.exact
            and self.sym is None
            and self.stride == 1
            and self.lo is None
            and self.hi is None
        )

    def __str__(self) -> str:
        prefix = "" if self.sym is None else "r%d+" % self.sym
        if self.is_const:
            return "%s%d" % (prefix, self.base)
        if self.exact and self.mod is None:
            return "%s%d+%d*i@L%s" % (prefix, self.base, self.stride, self.loop)
        if self.exact:
            return "%s%d+%d*((%d+%d*i)%%%d)@L%s" % (
                prefix, self.base, self.stride, self.pbase, self.pstep,
                self.mod, self.loop,
            )
        return "%s%d+%d*Z in [%s, %s]" % (
            prefix, self.base, self.stride,
            "-inf" if self.lo is None else self.lo,
            "+inf" if self.hi is None else self.hi,
        )


def make_const(value: int, sym: Optional[int] = None) -> SymValue:
    return SymValue(
        sym=sym, base=value, stride=0, loop=None, exact=True, lo=value, hi=value
    )


def make_linear(base: int, stride: int, loop: int, sym: Optional[int] = None) -> SymValue:
    if stride == 0:
        return make_const(base, sym)
    lo: Optional[int] = base if stride > 0 else None
    hi: Optional[int] = base if stride < 0 else None
    return SymValue(
        sym=sym, base=base, stride=stride, loop=loop, exact=True, lo=lo, hi=hi
    )


def make_periodic(
    base: int,
    stride: int,
    mod: int,
    pbase: int,
    pstep: int,
    loop: int,
    sym: Optional[int] = None,
) -> SymValue:
    mod = abs(mod)
    if mod <= 1 or stride == 0:
        inner = pbase % mod if mod else pbase
        return make_const(base + stride * inner, sym)
    pbase %= mod
    pstep %= mod
    if pstep == 0:
        return make_const(base + stride * pbase, sym)
    span = stride * (mod - 1)
    lo = base + min(0, span)
    hi = base + max(0, span)
    return SymValue(
        sym=sym, base=base, stride=stride, loop=loop, exact=True,
        lo=lo, hi=hi, mod=mod, pbase=pbase, pstep=pstep,
    )


def make_range(
    base: int,
    stride: int,
    lo: Optional[int],
    hi: Optional[int],
    sym: Optional[int] = None,
) -> SymValue:
    """An inexact congruence class intersected with an interval."""
    stride = abs(stride)
    if stride == 0:
        return make_const(base, sym)
    base %= stride
    if lo is not None and hi is not None:
        if hi < lo:
            # empty sets cannot arise on feasible paths; keep a singleton
            return make_const(lo, sym)
        if hi - lo < stride:
            # at most one representative in the window
            rep = lo + ((base - lo) % stride)
            if rep <= hi:
                return make_const(rep, sym)
            return make_const(lo, sym)
    return SymValue(
        sym=sym, base=base, stride=stride, loop=None, exact=False, lo=lo, hi=hi
    )


#: The unknown value: every integer.
TOP = SymValue(
    sym=None, base=0, stride=1, loop=None, exact=False, lo=None, hi=None
)


def collapse(value: SymValue) -> SymValue:
    """Forget exactness: the value as a congruence class + interval."""
    if not value.exact:
        return value
    if value.is_const:
        return value
    return make_range(value.base, value.stride, value.lo, value.hi, value.sym)


def _gcd3(a: int, b: int, c: int) -> int:
    return gcd(gcd(abs(a), abs(b)), abs(c))


def _min_opt(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return min(a, b)


def _max_opt(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return max(a, b)


def join(a: SymValue, b: SymValue) -> SymValue:
    """Least upper bound (plain merge at forward CFG joins)."""
    if a == b:
        return a
    if a.sym != b.sym:
        return TOP
    ca, cb = collapse(a), collapse(b)
    if ca.is_const and cb.is_const:
        diff = abs(ca.base - cb.base)
        return make_range(
            min(ca.base, cb.base), diff,
            min(ca.base, cb.base), max(ca.base, cb.base), a.sym,
        )
    ga = ca.stride if not ca.is_const else 0
    gb = cb.stride if not cb.is_const else 0
    g = _gcd3(ga, gb, ca.base - cb.base)
    return make_range(
        ca.base, g, _min_opt(ca.lo, cb.lo), _max_opt(ca.hi, cb.hi), a.sym
    )


def widen(current: SymValue, incoming: SymValue, loop: int) -> SymValue:
    """Back-edge merge at the head of *loop*: detect induction or widen.

    ``current`` is the head's in-state so far (entry edges already
    joined); ``incoming`` arrives over a back edge, i.e. it is the
    value after one more iteration of the loop body.
    """
    if current == incoming:
        return current
    if current.sym != incoming.sym:
        return TOP
    if (
        current.exact
        and incoming.exact
        and current.mod is None
        and incoming.mod is None
        and incoming.stride == current.stride
        and current.loop in (None, loop)
        and incoming.loop in (None, loop)
    ):
        delta = incoming.base - current.base
        if delta == current.stride and current.loop == loop:
            return current  # induction hypothesis confirmed
        if current.stride == 0 and delta != 0:
            # first round: value entered at `base`, body added `delta`
            return make_linear(current.base, delta, loop, current.sym)
    ca, cb = collapse(current), collapse(incoming)
    ga = ca.stride if not ca.is_const else 0
    gb = cb.stride if not cb.is_const else 0
    g = _gcd3(ga, gb, ca.base - cb.base)
    lo = ca.lo if (ca.lo is not None and cb.lo is not None and cb.lo >= ca.lo) else None
    hi = ca.hi if (ca.hi is not None and cb.hi is not None and cb.hi <= ca.hi) else None
    if g == 0:
        return make_range(ca.base, 0, lo, hi, current.sym)
    return make_range(ca.base, g, lo, hi, current.sym)


# ---------------------------------------------------------------------------
# transfer functions
# ---------------------------------------------------------------------------


def add_values(a: SymValue, b: SymValue) -> SymValue:
    if b.is_concrete_const:
        a, b = b, a
    if a.is_concrete_const:
        c = a.base
        if b.exact and b.mod is None:
            if b.is_const:
                return make_const(b.base + c, b.sym)
            assert b.loop is not None
            return make_linear(b.base + c, b.stride, b.loop, b.sym)
        if b.exact:
            assert b.mod is not None and b.loop is not None
            return make_periodic(
                b.base + c, b.stride, b.mod, b.pbase, b.pstep, b.loop, b.sym
            )
        return make_range(
            b.base + c, b.stride,
            None if b.lo is None else b.lo + c,
            None if b.hi is None else b.hi + c,
            b.sym,
        )
    if a.sym is not None and b.sym is not None:
        return TOP
    sym = a.sym if a.sym is not None else b.sym
    if (
        a.exact and b.exact and a.mod is None and b.mod is None
        and (a.loop == b.loop or a.loop is None or b.loop is None)
    ):
        loop = a.loop if a.loop is not None else b.loop
        stride = a.stride + b.stride
        if stride == 0 or loop is None:
            return make_const(a.base + b.base, sym)
        return make_linear(a.base + b.base, stride, loop, sym)
    ca, cb = collapse(a), collapse(b)
    ga = ca.stride if not ca.is_const else 0
    gb = cb.stride if not cb.is_const else 0
    g = gcd(ga, gb)
    lo = None if (ca.lo is None or cb.lo is None) else ca.lo + cb.lo
    hi = None if (ca.hi is None or cb.hi is None) else ca.hi + cb.hi
    return make_range(ca.base + cb.base, g, lo, hi, sym)


def negate(a: SymValue) -> SymValue:
    if a.sym is not None:
        return TOP
    if a.exact and a.mod is None:
        if a.is_const:
            return make_const(-a.base)
        assert a.loop is not None
        return make_linear(-a.base, -a.stride, a.loop)
    if a.exact:
        assert a.mod is not None and a.loop is not None
        return make_periodic(-a.base, -a.stride, a.mod, a.pbase, a.pstep, a.loop)
    return make_range(
        -a.base, a.stride,
        None if a.hi is None else -a.hi,
        None if a.lo is None else -a.lo,
    )


def scale(a: SymValue, factor: int) -> SymValue:
    """Multiply by a known constant (exact arithmetic, no wrapping)."""
    if factor == 0:
        return make_const(0)
    if a.sym is not None:
        return TOP
    if a.exact and a.mod is None:
        if a.is_const:
            return make_const(a.base * factor)
        assert a.loop is not None
        return make_linear(a.base * factor, a.stride * factor, a.loop)
    if a.exact:
        assert a.mod is not None and a.loop is not None
        return make_periodic(
            a.base * factor, a.stride * factor, a.mod, a.pbase, a.pstep, a.loop
        )
    lo = None if a.lo is None else a.lo * factor
    hi = None if a.hi is None else a.hi * factor
    if factor < 0:
        lo, hi = hi, lo
    return make_range(a.base * factor, a.stride * factor, lo, hi)


def shift_left(a: SymValue, shamt: int) -> SymValue:
    """``sll`` wraps at 32 bits: scale only when provably wrap-free."""
    shamt &= 31
    if a.sym is not None:
        return TOP
    if a.lo is None or a.hi is None:
        return TOP
    if (a.hi << shamt) > _INT32_MAX or (a.lo << shamt) < _INT32_MIN:
        return TOP
    return scale(a, 1 << shamt)


def mask(a: SymValue, imm: int) -> SymValue:
    """``andi``: a bit mask bounds the result; power-of-two-minus-one
    masks of provably non-negative exact values are a modulus."""
    if imm < 0:
        return TOP
    if a.is_concrete_const:
        return make_const(a.base & imm)
    nonneg = a.lo is not None and a.lo >= 0 and a.sym is None
    if (
        nonneg
        and a.exact
        and a.mod is None
        and a.loop is not None
        and imm & (imm + 1) == 0  # imm == 2**k - 1
    ):
        return make_periodic(0, 1, imm + 1, a.base, a.stride, a.loop)
    return make_range(0, 1, 0, imm)


def remainder(a: SymValue, m: int) -> SymValue:
    """``rem`` by a known non-zero constant (C-style, trunc toward 0)."""
    m = abs(m)
    if m == 0:
        return TOP
    if a.is_concrete_const:
        q = abs(a.base) // m
        return make_const(a.base - (q if a.base >= 0 else -q) * m)
    nonneg = a.lo is not None and a.lo >= 0 and a.sym is None
    if nonneg and a.exact and a.mod is None and a.loop is not None:
        return make_periodic(0, 1, m, a.base, a.stride, a.loop)
    if nonneg:
        g = gcd(a.stride if not a.exact else abs(a.stride), m)
        return make_range(a.base % g if g else a.base, g, 0, m - 1)
    return make_range(0, 1, -(m - 1), m - 1)


def divide(a: SymValue, m: int) -> SymValue:
    """``div`` by a known positive constant, non-negative operand."""
    if m <= 0 or a.sym is not None:
        return TOP
    if a.is_concrete_const:
        return make_const(abs(a.base) // m if a.base >= 0 else -(abs(a.base) // m))
    if a.lo is not None and a.lo >= 0:
        hi = None if a.hi is None else a.hi // m
        return make_range(0, 1, a.lo // m, hi)
    return TOP


def _bitop_bound(a: SymValue, b: SymValue) -> SymValue:
    """``or``/``xor`` of two non-negative bounded values stays below the
    next power of two; anything else is unknown."""
    if (
        a.sym is None and b.sym is None
        and a.lo is not None and a.lo >= 0 and a.hi is not None
        and b.lo is not None and b.lo >= 0 and b.hi is not None
    ):
        bits = max(a.hi.bit_length(), b.hi.bit_length())
        return make_range(0, 1, 0, (1 << bits) - 1)
    return TOP


# ---------------------------------------------------------------------------
# the abstract interpreter
# ---------------------------------------------------------------------------

State = Tuple[SymValue, ...]


def _entry_state() -> State:
    values = [
        make_const(0) if r == ZERO else make_const(0, sym=r) for r in range(NUM_REGS)
    ]
    return tuple(values)


def _top_state() -> State:
    return tuple(make_const(0) if r == ZERO else TOP for r in range(NUM_REGS))


def _join_states(a: State, b: State) -> State:
    return tuple(join(va, vb) for va, vb in zip(a, b))


def _widen_states(current: State, incoming: State, loop: int) -> State:
    return tuple(widen(va, vb, loop) for va, vb in zip(current, incoming))


def transfer(inst: Instruction, state: State) -> State:
    """Abstractly execute one instruction."""
    rd = inst.written_register()
    if rd is None:
        return state
    op = inst.op

    def get(reg: Optional[int]) -> SymValue:
        return state[reg] if reg is not None else TOP

    a = get(inst.rs1)
    b = get(inst.rs2)
    imm = inst.imm if inst.imm is not None else 0
    result: SymValue
    if op is Opcode.LI:
        result = make_const(imm)
    elif op is Opcode.LUI:
        result = make_const(imm << 16)
    elif op is Opcode.ADD:
        result = add_values(a, b)
    elif op is Opcode.ADDI:
        result = add_values(a, make_const(imm))
    elif op is Opcode.SUB:
        result = add_values(a, negate(b))
    elif op is Opcode.SLL:
        result = shift_left(a, imm)
    elif op is Opcode.ANDI:
        result = mask(a, imm)
    elif op is Opcode.MUL:
        if a.is_concrete_const:
            result = scale(b, a.base)
        elif b.is_concrete_const:
            result = scale(a, b.base)
        else:
            result = TOP
    elif op is Opcode.REM:
        result = remainder(a, b.base) if b.is_concrete_const else TOP
    elif op is Opcode.DIV:
        result = divide(a, b.base) if b.is_concrete_const else TOP
    elif op in (Opcode.SLT, Opcode.SLTI):
        result = make_range(0, 1, 0, 1)
    elif op in (Opcode.OR, Opcode.XOR):
        result = _bitop_bound(a, b)
    elif op in (Opcode.ORI, Opcode.XORI):
        result = _bitop_bound(a, make_const(imm)) if imm >= 0 else TOP
    elif op is Opcode.AND:
        if (
            a.sym is None and b.sym is None
            and a.lo is not None and a.lo >= 0
            and b.lo is not None and b.lo >= 0
        ):
            result = make_range(0, 1, 0, _min_opt(a.hi, b.hi))
        else:
            result = TOP
    elif op is Opcode.SRA or op is Opcode.SRL:
        shamt = imm & 31
        if a.is_concrete_const and op is Opcode.SRA:
            result = make_const(a.base >> shamt)
        elif a.is_concrete_const:
            result = make_const((a.base & 0xFFFFFFFF) >> shamt)
        elif (
            a.sym is None and a.lo is not None and a.lo >= 0
            and (a.hi is None or a.hi <= _INT32_MAX)
        ):
            hi = None if a.hi is None else a.hi >> shamt
            result = make_range(0, 1, a.lo >> shamt, hi)
        else:
            result = TOP
    elif op is Opcode.JAL:
        result = make_const(inst.pc + 1)
    else:
        # loads, nor, floating point, anything unmodelled
        result = TOP

    values = list(state)
    values[rd] = result
    return tuple(values)


class SymbolicSolution:
    """Fixpoint register states for one program, plus loop structure."""

    def __init__(self, program: Program, cfg: Optional[ControlFlowGraph] = None):
        self.program = program
        self.cfg = cfg if cfg is not None else build_cfg(program)
        #: back edges as (tail block, head block) pairs
        self.back_edges: FrozenSet[Tuple[int, int]] = self._find_back_edges()
        #: loop head block -> blocks in the natural loop body
        self.loops: Dict[int, Set[int]] = self._natural_loops()
        #: block -> bitset of the blocks reachable from its end
        self._forward_reach: List[int] = self._forward_reach_sets()
        self._dominators: Optional[Dict[int, Set[int]]] = None
        #: block -> register state on entry
        self._block_in: Dict[int, State] = self._solve()

    # -- structure ---------------------------------------------------------

    def _find_back_edges(self) -> FrozenSet[Tuple[int, int]]:
        edges = set()
        for block in self.cfg.blocks:
            for succ in block.successors:
                if succ <= block.index:
                    edges.add((block.index, succ))
        return frozenset(edges)

    def _forward_reach_sets(self) -> List[int]:
        """Per block, the blocks a path from its end reaches over
        forward edges only.  Every back edge goes to a block of equal or
        lower index, so the forward edges form a DAG in block order and
        one reverse pass settles every set."""
        blocks = self.cfg.blocks
        reach = [0] * len(blocks)
        for block in reversed(blocks):
            bits = 0
            for succ in block.successors:
                if succ > block.index:
                    bits |= reach[succ] | (1 << succ)
            reach[block.index] = bits
        return reach

    def _natural_loops(self) -> Dict[int, Set[int]]:
        loops: Dict[int, Set[int]] = {}
        for tail, head in self.back_edges:
            body = loops.setdefault(head, {head})
            stack = [tail]
            while stack:
                index = stack.pop()
                if index in body:
                    continue
                body.add(index)
                stack.extend(self.cfg.blocks[index].predecessors)
        return loops

    def loop_of(self, pc: int) -> Optional[int]:
        """The innermost loop head whose body contains *pc* (or None)."""
        index = self.cfg.block_at(pc).index
        best: Optional[int] = None
        best_size = 0
        for head, body in self.loops.items():
            if index in body and (best is None or len(body) < best_size):
                best, best_size = head, len(body)
        return best

    def dominators(self) -> Dict[int, Set[int]]:
        """Block -> blocks dominating it."""
        if self._dominators is None:
            cfg = self.cfg
            reachable = cfg.reachable_blocks()
            preds = {index: cfg.blocks[index].predecessors for index in reachable}
            self._dominators = dominator_sets(reachable, preds, cfg.entry_block.index)
        return self._dominators

    def executes_every_iteration(self, pc: int) -> bool:
        """Does *pc* run on every iteration of its innermost loop?

        True when the instruction's block dominates every back-edge
        tail of the loop: no path from the loop head back to itself can
        avoid it.  This is what makes a statically-proven dependence
        safe to pre-synchronize — a producer on a data-dependent path
        (the paper's compress idiom) would penalize the predictor on
        every iteration its path is not taken.
        """
        head = self.loop_of(pc)
        if head is None:
            return False
        index = self.cfg.block_at(pc).index
        dom = self.dominators()
        tails = [t for (t, h) in self.back_edges if h == head]
        return all(index in dom.get(tail, set()) for tail in tails)

    # -- fixpoint ----------------------------------------------------------

    def _solve(self) -> Dict[int, State]:
        """Block entry states from the entry block, widened on back edges
        (the result depends on :func:`solve_forward`'s fixed order)."""
        seeds = {self.cfg.entry_block.index: _entry_state()}
        return solve_forward(self.cfg, seeds, transfer, _join_states, _widen_states)

    # -- queries -----------------------------------------------------------

    def state_before(self, pc: int) -> State:
        return state_at(self.cfg, self._block_in, pc, transfer, _top_state())

    def address_value(self, pc: int) -> SymValue:
        """The symbolic address of the memory instruction at *pc*."""
        inst = self.program[pc]
        if not inst.is_memory:
            raise ValueError("not a memory instruction: %s" % (inst,))
        state = self.state_before(pc)
        base = state[inst.rs1] if inst.rs1 is not None else make_const(0)
        return add_values(base, make_const(inst.imm if inst.imm is not None else 0))

    def reaches_without_back_edge(self, src_pc: int, dst_pc: int) -> bool:
        """Is there a path from after *src_pc* to *dst_pc* that stays
        within the current iteration (crosses no back edge)?"""
        block_at = self.cfg.block_at
        src, dst = block_at(src_pc).index, block_at(dst_pc).index
        if src == dst and dst_pc > src_pc:
            return True
        return bool(self._forward_reach[src] >> dst & 1)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Alias verdict for one (store, load) address pair."""

    verdict: str
    lag: Optional[int] = None


def classify_addresses(
    store_val: SymValue,
    load_val: SymValue,
    intra_path: bool,
) -> Classification:
    """MUST / MAY / NO for a store and load address value.

    *intra_path* tells whether the store can reach the load without
    crossing a loop back edge (needed to decide whether a lag-0
    solution is a real flow dependence).
    """
    if store_val.sym != load_val.sym:
        return Classification(MAY)
    cs, cl = collapse(store_val), collapse(load_val)
    # interval separation
    if cs.hi is not None and cl.lo is not None and cs.hi < cl.lo:
        return Classification(NO)
    if cl.hi is not None and cs.lo is not None and cl.hi < cs.lo:
        return Classification(NO)
    # congruence separation
    gs = cs.stride if not cs.is_const else 0
    gl = cl.stride if not cl.is_const else 0
    g = gcd(gs, gl)
    if g > 0 and (cs.base - cl.base) % g != 0:
        return Classification(NO)
    if g == 0 and cs.base != cl.base:
        return Classification(NO)

    if not (store_val.exact and load_val.exact):
        return Classification(MAY)

    # both loop-invariant: a single shared address
    if store_val.is_const and load_val.is_const:
        if store_val.base != load_val.base:
            return Classification(NO)
        return Classification(MUST, lag=0 if intra_path else 1)

    # both linear in the same loop with the same stride: a unique lag
    if (
        store_val.mod is None and load_val.mod is None
        and store_val.loop == load_val.loop
        and store_val.loop is not None
        and store_val.stride == load_val.stride
        and store_val.stride != 0
    ):
        diff = store_val.base - load_val.base
        if diff % store_val.stride != 0:
            return Classification(NO)
        lag = diff // store_val.stride
        if lag < 0 or (lag == 0 and not intra_path):
            return Classification(NO)  # store never precedes the load
        return Classification(MUST, lag=lag)

    # both periodic with identical shape: lags recur every mod/gcd steps
    if (
        store_val.mod is not None
        and store_val.mod == load_val.mod
        and store_val.loop == load_val.loop
        and store_val.stride == load_val.stride
        and store_val.pstep == load_val.pstep
        and store_val.base == load_val.base
    ):
        m, p = store_val.mod, store_val.pstep
        g = gcd(p, m)
        d = store_val.pbase - load_val.pbase
        if d % g != 0:
            return Classification(NO)
        # solve p*k ≡ d (mod m) for the smallest usable lag k
        period = m // g
        p_, d_, m_ = p // g, (d // g) % period, period
        k = (d_ * pow(p_, -1, m_)) % m_ if m_ > 1 else 0
        if k == 0 and not intra_path:
            k = period
        return Classification(MUST, lag=k)

    return Classification(MAY)
