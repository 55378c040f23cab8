"""Speculative-leak analysis: a taint lattice over the symbolic domain.

The paper's premise is that a mis-speculated load transiently observes
*stale* memory — the value a logically earlier store is about to
overwrite — until the violation is detected and squashed.  When some
memory is confidential, that transient window is an information-flow
channel: the stale value can feed an address- or branch-forming
computation before the squash, leaving a microarchitecturally visible
trace (the Spectre family of leaks).  Following the
weakest-precondition formulation of speculative leakage (Smith, see
PAPERS.md), this module decides that property statically.

Three layers:

* A three-point **taint lattice** ``PUBLIC`` / ``SECRET`` /
  ``TAINT_TOP`` (may-be-secret), with *union* (what a location may
  hold) and *combine* (what a computed value derives from) operators.
  Secret memory is declared as inclusive word-address ranges via the
  ``.secret lo hi`` assembler directive (or ``--secret-range`` on the
  CLI) and carried on the :class:`~repro.isa.program.Program`.
* An **architectural taint fixpoint** (:class:`TaintSolution`) layered
  on the symbolic affine interpreter: register taints flow through the
  CFG; a load's taint unions the taint of the initial-memory region its
  symbolic address may touch with the data taints of every store that
  may reach it; store data taints feed back until fixpoint (the
  lattice is finite, all transfers are monotone).
* A **per-pair leak classification** (:func:`analyze_spec_leaks`).
  For every reaching candidate pair the verdict states whether a
  mis-speculated execution of the pair can leak, as the validity of a
  weakest-precondition claim: *"whenever the load issues before the
  store performs, the stale value it observes is public, or no
  transmitter is reachable"*.

  - ``LEAK`` — the stale value may be secret-tagged and a forward
    slice from the load reaches a transmitter (a memory address or a
    branch/jump condition) — no policy in the repertoire provably
    closes the window.
  - ``GATED`` — a leak is possible under blind speculation, but the
    pair is in the statically primable set: ``sync_static_primed``
    pre-installs it in the MDPT, so every dynamic instance
    synchronizes and the mis-speculation window is provably zero
    (plain ``sync`` converges to the same state after the first
    squash).
  - ``NO_LEAK`` — proven closed under *every* policy, with a
    machine-readable reason: the pair cannot alias
    (``no-alias``), the program has no tasks so nothing speculates
    (``window-zero``), the stale value is provably public
    (``stale-public``), or no transmitter is reachable from the load
    (``no-transmitter``).

The dynamic counterpart — an exact two-point taint replay of a
committed trace (:func:`taint_replay`) — feeds the runtime sanitizer in
:mod:`repro.multiscalar.sanitizer`, which observes actual
mis-speculation windows and cross-checks them against these verdicts:
a ``NO_LEAK`` verdict contradicted at runtime is a soundness bug and a
hard test failure (mirroring the reaching-stores recall contract in
:mod:`repro.staticdep.checker`).

This module is fully typed and checked under ``mypy --strict`` (see
pyproject), like :mod:`repro.staticdep.symbolic` beneath it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, ZERO
from repro.staticdep.analysis import (
    SymbolicDependenceAnalysis,
    analyze_program_symbolic,
)
from repro.staticdep.cfg import ControlFlowGraph, solve_forward, state_at
from repro.staticdep.reaching import ReachingStores, access_expr, may_alias
from repro.staticdep.symbolic import (
    NO,
    SymbolicSolution,
    SymValue,
    classify_addresses,
    collapse,
)

# ---------------------------------------------------------------------------
# the taint lattice
# ---------------------------------------------------------------------------

#: Provably not derived from secret-tagged memory.
PUBLIC = "public"
#: Provably derived from secret-tagged memory.
SECRET = "secret"
#: The lattice top: may be either (PUBLIC ⊔ SECRET).
TAINT_TOP = "maybe-secret"

#: Leak verdicts.
LEAK = "leak"
GATED = "gated"
NO_LEAK = "no-leak"

#: NO_LEAK / GATED reason codes (stable, used by the cross-checker).
R_NO_ALIAS = "no-alias"
R_WINDOW_ZERO = "window-zero"
R_STALE_PUBLIC = "stale-public"
R_NO_TRANSMITTER = "no-transmitter"
R_PRIMABLE = "primable-sync"
R_OPEN = "open-window"

SecretRange = Tuple[int, int]


def taint_union(a: str, b: str) -> str:
    """Least upper bound: what a location may hold, given two sources."""
    return a if a == b else TAINT_TOP


def taint_combine(a: str, b: str) -> str:
    """Taint of a value computed from both operands: derivation from a
    definite secret stays definite (the dependence is real either way)."""
    if SECRET in (a, b):
        return SECRET
    if TAINT_TOP in (a, b):
        return TAINT_TOP
    return PUBLIC


def may_secret(taint: str) -> bool:
    """Can a value of this taint carry secret-derived data?"""
    return taint != PUBLIC


# ---------------------------------------------------------------------------
# secret regions
# ---------------------------------------------------------------------------


def valid_ranges(ranges: Iterable[SecretRange]) -> List[SecretRange]:
    """The well-formed declared ranges: non-negative, word-aligned,
    non-inverted.  Malformed ranges are dropped here and reported by the
    linter's ``secret-range-invalid`` rule instead."""
    return sorted(
        (lo, hi)
        for lo, hi in ranges
        if lo >= 0 and hi >= lo and lo % 4 == 0 and hi % 4 == 0
    )


def address_in_ranges(addr: int, ranges: Sequence[SecretRange]) -> bool:
    """Is the concrete word address *addr* secret-tagged?"""
    return any(lo <= addr <= hi for lo, hi in ranges)


def _overlaps_interval(value: SymValue, lo: int, hi: int) -> bool:
    """May the concretization of *value* intersect ``[lo, hi]``?

    Uses the same interval + congruence separation arguments as the
    alias classifier: a disjoint interval or an empty congruence-class
    window is a proof of non-overlap; everything else may overlap.
    """
    v = collapse(value)
    if v.sym is not None:
        return True  # unknown symbolic base: could point anywhere
    wlo = lo if v.lo is None else max(v.lo, lo)
    whi = hi if v.hi is None else min(v.hi, hi)
    if wlo > whi:
        return False
    if v.is_const:
        return True  # the singleton lies inside the window
    first = wlo + ((v.base - wlo) % v.stride)
    return first <= whi


def region_taint(value: SymValue, ranges: Sequence[SecretRange]) -> str:
    """Taint of the *initial* memory content an access at symbolic
    address *value* may touch: SECRET when provably contained in one
    secret range, PUBLIC when provably disjoint from all of them."""
    overlapping = [(lo, hi) for lo, hi in ranges if _overlaps_interval(value, lo, hi)]
    if not overlapping:
        return PUBLIC
    v = collapse(value)
    if v.sym is None and v.lo is not None and v.hi is not None:
        for lo, hi in overlapping:
            if lo <= v.lo and v.hi <= hi:
                return SECRET
    return TAINT_TOP


# ---------------------------------------------------------------------------
# the architectural taint fixpoint
# ---------------------------------------------------------------------------

TaintState = Tuple[str, ...]


def _entry_taints() -> TaintState:
    return (PUBLIC,) * NUM_REGS


def _join_taints(a: TaintState, b: TaintState) -> TaintState:
    return tuple(taint_union(x, y) for x, y in zip(a, b))


def transfer_taint(
    inst: Instruction, state: TaintState, load_taints: Dict[int, str]
) -> TaintState:
    """One instruction's register-taint transfer.  Loads consume their
    current per-load taint assumption; immediates are public; every
    other value-producing op combines its source taints."""
    rd = inst.written_register()
    if rd is None:
        return state
    if inst.is_load:
        result = load_taints.get(inst.pc, TAINT_TOP)
    elif inst.op in (Opcode.LI, Opcode.LUI, Opcode.JAL):
        result = PUBLIC
    else:
        result = PUBLIC
        if inst.rs1 is not None:
            result = taint_combine(result, state[inst.rs1])
        if inst.rs2 is not None:
            result = taint_combine(result, state[inst.rs2])
    if state[rd] == result:
        return state
    out = list(state)
    out[rd] = result
    return tuple(out)


class TaintSolution:
    """The coupled register/memory taint fixpoint of one program.

    Register taints are a forward dataflow over the CFG; memory is
    summarized per static load as the union of (a) the region taint of
    its symbolic address and (b) the data taints of every store fact
    that may reach it (the same may-alias filter the candidate-pair
    analysis uses).  Loads and stores feed each other, so the outer
    loop iterates both to a joint fixpoint — which exists because the
    lattice is finite, every taint only moves up the order
    (``PUBLIC``/``SECRET`` below ``TAINT_TOP``), and union/combine are
    monotone.
    """

    def __init__(
        self,
        program: Program,
        cfg: ControlFlowGraph,
        solution: SymbolicSolution,
        reaching: ReachingStores,
        ranges: Sequence[SecretRange],
    ) -> None:
        self.program = program
        self.cfg = cfg
        self.solution = solution
        self.reaching = reaching
        self.ranges: List[SecretRange] = list(ranges)
        self._loads: List[int] = [i.pc for i in program.instructions if i.is_load]
        self._stores: List[int] = [i.pc for i in program.instructions if i.is_store]
        self.address_values: Dict[int, SymValue] = {
            pc: solution.address_value(pc) for pc in self._loads + self._stores
        }
        self._block_in: Dict[int, TaintState] = {}
        self.load_taints: Dict[int, str] = {}
        self.store_data_taints: Dict[int, str] = {}
        self._solve()

    def _run_register_flow(self, load_taints: Dict[int, str]) -> None:
        seeds = {self.cfg.entry_block.index: _entry_taints()}
        step = partial(transfer_taint, load_taints=load_taints)
        self._block_in = solve_forward(self.cfg, seeds, step, _join_taints)

    def _state_before(self, pc: int, load_taints: Dict[int, str]) -> TaintState:
        step = partial(transfer_taint, load_taints=load_taints)
        return state_at(self.cfg, self._block_in, pc, step, _entry_taints())

    def _store_data(self, load_taints: Dict[int, str]) -> Dict[int, str]:
        out: Dict[int, str] = {}
        for pc in self._stores:
            inst = self.program[pc]
            state = self._state_before(pc, load_taints)
            out[pc] = state[inst.rs2] if inst.rs2 is not None else PUBLIC
        return out

    def _addresses_may_collide(self, store_pc: int, other_pc: int) -> bool:
        """False only when the symbolic values of the two accesses are
        provably disjoint (a NO verdict is a proof; anything else keeps
        the conservative may-alias answer)."""
        verdict = classify_addresses(
            self.address_values[store_pc], self.address_values[other_pc], True
        )
        return verdict.verdict != NO

    def _solve(self) -> None:
        load_taints = {
            pc: region_taint(self.address_values[pc], self.ranges)
            for pc in self._loads
        }
        store_data: Dict[int, str] = {}
        # each round can only move taints up the 3-point order, so the
        # bound is generous; equality is the actual exit condition
        for _ in range(2 * len(load_taints) + 2):
            self._run_register_flow(load_taints)
            store_data = self._store_data(load_taints)
            refreshed: Dict[int, str] = {}
            for pc in self._loads:
                taint = region_taint(self.address_values[pc], self.ranges)
                inst = self.program[pc]
                expr = access_expr(inst)
                for fact in self.reaching.reaching_at(pc):
                    if may_alias(fact, expr) and self._addresses_may_collide(
                        fact.store_pc, pc
                    ):
                        taint = taint_union(taint, store_data[fact.store_pc])
                refreshed[pc] = taint
            if refreshed == load_taints:
                break
            load_taints = refreshed
        self.load_taints = load_taints
        self.store_data_taints = store_data

    # -- queries the linter and the verdict pass consume ----------------

    def taint_before(self, pc: int) -> TaintState:
        """Register taints just before instruction *pc* executes."""
        return self._state_before(pc, self.load_taints)

    def address_taint(self, pc: int) -> str:
        """Taint of the base-address register of the memory op at *pc*."""
        inst = self.program[pc]
        if not inst.is_memory:
            raise ValueError("not a memory instruction: %s" % (inst,))
        if inst.rs1 is None or inst.rs1 == ZERO:
            return PUBLIC
        return self.taint_before(pc)[inst.rs1]

    def branch_taint(self, pc: int) -> str:
        """Combined source taint of the branch/jump-register at *pc*."""
        inst = self.program[pc]
        state = self.taint_before(pc)
        taint = PUBLIC
        if inst.rs1 is not None:
            taint = taint_combine(taint, state[inst.rs1])
        if inst.rs2 is not None:
            taint = taint_combine(taint, state[inst.rs2])
        return taint

    def stale_taint(self, store_pc: int) -> str:
        """Taint of the stale value a mis-speculated consumer of the
        store at *store_pc* can transiently observe.

        The stale value is the memory content at the pair's address
        *before* this store's data lands: either initial memory (the
        region taint of the store's own symbolic address — the load
        must alias it dynamically for a violation to exist) or the
        data of some earlier store still reaching that program point.
        Note the reaching state *before* the store is what matters:
        the store itself kills prior must-alias facts, yet those are
        exactly the versions the transient load reads.
        """
        inst = self.program[store_pc]
        taint = region_taint(self.address_values[store_pc], self.ranges)
        expr = access_expr(inst)
        for fact in self.reaching.state_before(store_pc).values():
            if may_alias(fact, expr) and self._addresses_may_collide(
                fact.store_pc, store_pc
            ):
                taint = taint_union(
                    taint, self.store_data_taints.get(fact.store_pc, TAINT_TOP)
                )
        return taint


# ---------------------------------------------------------------------------
# the transmitter slice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transmitter:
    """A reachable sink that makes a transient value architecturally
    observable: an address-forming use or a control-flow decision."""

    pc: int
    kind: str  # "address" | "branch"

    def to_dict(self) -> Dict[str, object]:
        return {"pc": self.pc, "kind": self.kind}


#: Transmitter-slice state: (carrier registers, carrier store PCs).
Carriers = Tuple[FrozenSet[int], FrozenSet[int]]


def _join_carriers(a: Carriers, b: Carriers) -> Carriers:
    return (a[0] | b[0], a[1] | b[1])


class _TransmitterSlice:
    """Forward taint slice from one load's destination register.

    The state per program point is (carrier registers, carrier store
    PCs): registers holding a value derived from the transient load,
    and stores whose *data* is carried — their paired loads re-taint
    on store→load forwarding.  Writes from non-carrier sources kill a
    register (standard strongest-postcondition flow); the join is
    componentwise union, so the fixpoint over-approximates every path,
    including paths around back edges — a superset of any finite
    speculation window.  The transmitters are the sinks the carriers
    reach at that fixpoint.
    """

    def __init__(
        self,
        program: Program,
        cfg: ControlFlowGraph,
        pair_set: FrozenSet[Tuple[int, int]],
    ) -> None:
        self.program = program
        self.cfg = cfg
        self.pair_set = pair_set

    def _transfer(self, inst: Instruction, state: Carriers) -> Carriers:
        regs, mem = state
        if inst.is_store:
            if inst.rs2 in regs:
                return regs, mem | {inst.pc}
            return state
        rd = inst.written_register()
        if rd is None or inst.is_branch or inst.op is Opcode.JR:
            return state
        if inst.is_load:
            carries = any((s, inst.pc) in self.pair_set for s in mem)
        else:
            carries = inst.op not in (Opcode.LI, Opcode.LUI, Opcode.JAL) and (
                inst.rs1 in regs or inst.rs2 in regs
            )
        return (regs | {rd} if carries else regs - {rd}), mem

    @staticmethod
    def _sink(inst: Instruction, regs: FrozenSet[int]) -> Optional[Transmitter]:
        """The transmitter *inst* is when *regs* carry the transient value:
        a memory access through a carrier, or a branch or ``jr`` reading one."""
        if inst.is_memory:
            return Transmitter(inst.pc, "address") if inst.rs1 in regs else None
        if (inst.is_branch or inst.op is Opcode.JR) and (
            inst.rs1 in regs or inst.rs2 in regs
        ):
            return Transmitter(inst.pc, "branch")
        return None

    def transmitters(self, load_pc: int) -> Tuple[Transmitter, ...]:
        rd = self.program[load_pc].written_register()
        if rd is None:
            return ()
        sinks: Set[Transmitter] = set()

        def scan(pcs: range, state: Carriers) -> Carriers:
            for pc in pcs:
                inst = self.program[pc]
                sink = self._sink(inst, state[0])
                if sink is not None:
                    sinks.add(sink)
                state = self._transfer(inst, state)
            return state

        block = self.cfg.block_at(load_pc)
        leave = scan(range(load_pc + 1, block.end), (frozenset((rd,)), frozenset()))
        seeds = {succ: leave for succ in block.successors}
        block_in = solve_forward(self.cfg, seeds, self._transfer, _join_carriers)
        for index, state in block_in.items():
            scan(self.cfg.blocks[index].pcs(), state)
        return tuple(sorted(sinks, key=lambda t: (t.pc, t.kind)))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeakVerdict:
    """The leak classification of one static store→load pair."""

    store_pc: int
    load_pc: int
    verdict: str
    reason: str
    stale_taint: str
    transmitters: Tuple[Transmitter, ...]

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.store_pc, self.load_pc)

    def to_dict(self) -> Dict[str, object]:
        return {
            "store_pc": self.store_pc,
            "load_pc": self.load_pc,
            "verdict": self.verdict,
            "reason": self.reason,
            "stale_taint": self.stale_taint,
            "transmitters": [t.to_dict() for t in self.transmitters],
        }


@dataclass
class SpecTaintAnalysis:
    """The full speculative-leak analysis of one program."""

    program: Program
    symbolic: SymbolicDependenceAnalysis
    taint: TaintSolution
    secret_ranges: List[SecretRange]
    verdicts: List[LeakVerdict]

    def verdict_counts(self) -> Dict[str, int]:
        counts = {LEAK: 0, GATED: 0, NO_LEAK: 0}
        for verdict in self.verdicts:
            counts[verdict.verdict] += 1
        return counts

    def leaks(self) -> List[LeakVerdict]:
        return [v for v in self.verdicts if v.verdict == LEAK]

    def gated(self) -> List[LeakVerdict]:
        return [v for v in self.verdicts if v.verdict == GATED]

    def verdict_for(self, store_pc: int, load_pc: int) -> Optional[LeakVerdict]:
        for verdict in self.verdicts:
            if verdict.store_pc == store_pc and verdict.load_pc == load_pc:
                return verdict
        return None

    def summary(self) -> Dict[str, object]:
        counts = self.verdict_counts()
        return {
            "program": self.program.name,
            "secret_ranges": [[lo, hi] for lo, hi in self.secret_ranges],
            "pairs": len(self.verdicts),
            "leak": counts[LEAK],
            "gated": counts[GATED],
            "no_leak": counts[NO_LEAK],
        }


def analyze_spec_leaks(
    program: Program,
    secret_ranges: Optional[Sequence[SecretRange]] = None,
    symbolic: Optional[SymbolicDependenceAnalysis] = None,
) -> SpecTaintAnalysis:
    """Classify every static store→load pair of *program* as LEAK,
    GATED, or NO_LEAK against its declared (or overridden) secret
    ranges.  See the module docstring for the verdict semantics."""
    declared = program.secret_ranges if secret_ranges is None else list(secret_ranges)
    ranges = valid_ranges(declared)
    if symbolic is None:
        symbolic = analyze_program_symbolic(program)
    solution = symbolic.solution
    assert solution is not None  # analyze_program_symbolic always sets it
    taint = TaintSolution(program, symbolic.cfg, solution, symbolic.reaching, ranges)
    has_tasks = any(inst.task_entry for inst in program.instructions)
    primable = {(s, l) for s, l, _ in symbolic.primable()}
    pair_set = frozenset((p.store_pc, p.load_pc) for p in symbolic.pairs)
    slicer = _TransmitterSlice(program, symbolic.cfg, pair_set)
    transmitter_cache: Dict[int, Tuple[Transmitter, ...]] = {}
    verdicts: List[LeakVerdict] = []
    for cls in symbolic.classified:
        if cls.verdict == NO:
            # proven non-aliasing: the violation precondition is false
            verdicts.append(
                LeakVerdict(cls.store_pc, cls.load_pc, NO_LEAK, R_NO_ALIAS, PUBLIC, ())
            )
            continue
        stale = taint.stale_taint(cls.store_pc)
        if not has_tasks:
            verdicts.append(
                LeakVerdict(
                    cls.store_pc, cls.load_pc, NO_LEAK, R_WINDOW_ZERO, stale, ()
                )
            )
            continue
        if not may_secret(stale):
            verdicts.append(
                LeakVerdict(
                    cls.store_pc, cls.load_pc, NO_LEAK, R_STALE_PUBLIC, stale, ()
                )
            )
            continue
        if cls.load_pc not in transmitter_cache:
            transmitter_cache[cls.load_pc] = slicer.transmitters(cls.load_pc)
        sinks = transmitter_cache[cls.load_pc]
        if not sinks:
            verdicts.append(
                LeakVerdict(
                    cls.store_pc, cls.load_pc, NO_LEAK, R_NO_TRANSMITTER, stale, ()
                )
            )
            continue
        if (cls.store_pc, cls.load_pc) in primable:
            verdicts.append(
                LeakVerdict(cls.store_pc, cls.load_pc, GATED, R_PRIMABLE, stale, sinks)
            )
            continue
        verdicts.append(
            LeakVerdict(cls.store_pc, cls.load_pc, LEAK, R_OPEN, stale, sinks)
        )
    return SpecTaintAnalysis(
        program=program,
        symbolic=symbolic,
        taint=taint,
        secret_ranges=ranges,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# the dynamic (exact, two-point) taint replay
# ---------------------------------------------------------------------------


@dataclass
class TaintReplay:
    """Exact secret/public taint of one committed execution.

    Every field is keyed by dynamic sequence number.  This is the
    two-point concretization the static lattice over-approximates:
    a True here with a PUBLIC static counterpart is a soundness bug.
    """

    stale_before_store: Dict[int, bool]
    store_secret: Dict[int, bool]
    load_secret: Dict[int, bool]


def taint_replay(trace: Any, ranges: Sequence[SecretRange]) -> TaintReplay:
    """Replay a committed trace with exact taints: registers start
    public, memory is secret exactly inside the declared ranges, loads
    take the tagged content, stores record the pre-store content (the
    stale value a mis-speculated consumer would observe) and overwrite
    it with their data's taint."""
    checked = valid_ranges(ranges)
    regs: List[bool] = [False] * NUM_REGS
    mem: Dict[int, bool] = {}
    stale: Dict[int, bool] = {}
    stored: Dict[int, bool] = {}
    loaded: Dict[int, bool] = {}
    for entry in trace.entries:
        inst = entry.inst
        rd = inst.written_register()
        if inst.is_load:
            taint = mem.get(entry.addr)
            if taint is None:
                taint = address_in_ranges(entry.addr, checked)
            loaded[entry.seq] = taint
            if rd is not None:
                regs[rd] = taint
        elif inst.is_store:
            old = mem.get(entry.addr)
            if old is None:
                old = address_in_ranges(entry.addr, checked)
            stale[entry.seq] = old
            taint = regs[inst.rs2] if inst.rs2 is not None else False
            stored[entry.seq] = taint
            mem[entry.addr] = taint
        elif rd is not None:
            if inst.op in (Opcode.LI, Opcode.LUI, Opcode.JAL):
                regs[rd] = False
            else:
                taint = False
                if inst.rs1 is not None:
                    taint = taint or regs[inst.rs1]
                if inst.rs2 is not None:
                    taint = taint or regs[inst.rs2]
                regs[rd] = taint
    return TaintReplay(stale_before_store=stale, store_secret=stored, load_secret=loaded)
