"""Whole-program program dependence graph and predictor slices.

The PDG layers three edge families over the ISA CFG:

* **register edges** — instruction-level def-use chains from a
  reaching-definitions fixpoint over the CFG,
* **control edges** — Ferrante/Ottenstein/Warren control dependences
  computed from post-dominators (with a virtual exit node), and
* **memory edges** — one edge per reaching store->load candidate pair,
  labeled with the symbolic MUST / MAY / NO verdict and, where the
  affine analysis proves one, the static dependence distance.

On top of the graph live *executable backward slices* in the style of
Prophet's pre-computation slices: the backward slice of an instruction
is the set of PCs that must execute so that replaying the program while
skipping every other instruction still reproduces the criterion's
behaviour (its address stream, for the ``address`` criterion).  A slice
therefore always contains the full control skeleton (every branch,
jump, and halt plus the data closure of their inputs) so the sliced
walk follows exactly the PC sequence of the full run, and the memory
closure of every load it contains (every store that may feed the load,
by the symbolic verdicts, is pulled in recursively).

:func:`extract_predictor_slices` applies this to every MAY/MUST
store->load pair, producing the minimal address-generation slice that
the ``sync_slice_warmed`` policy pre-executes to warm the MDPT, with a
cost model (slice length, loads touched) and a loop-carried cutoff:
when the address computation itself depends on a loop-carried memory
edge, the pre-execution cannot run ahead of the iteration that feeds
it, and the pair is left to the dynamic predictor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode, is_control
from repro.isa.program import Program
from repro.isa.registers import register_name
from repro.staticdep.analysis import SymbolicDependenceAnalysis, analyze_program_symbolic
from repro.staticdep.cfg import dominator_sets, solve_forward
from repro.staticdep.symbolic import NO
from repro.telemetry import PROFILER

#: Edge kinds.
REG_EDGE = "reg"
CTRL_EDGE = "ctrl"
MEM_EDGE = "mem"

#: Predictor-slice statuses.
WARMABLE = "warmable"
TOO_EXPENSIVE = "too-expensive"
LOOP_CARRIED_CUTOFF = "loop-carried-cutoff"

#: Criterion spellings accepted by :meth:`ProgramDependenceGraph.slice_backward`.
SLICE_CRITERIA = ("address", "value", "full")

_VIRTUAL_EXIT = -1


@dataclass(frozen=True)
class PDGEdge:
    """One dependence edge.  ``src`` produces, ``dst`` consumes.

    ``label`` carries the register name for register edges, ``"ctrl"``
    for control edges, and the MUST/MAY/NO verdict for memory edges;
    ``distance`` is the proven static task distance of a memory edge
    (None when the analysis cannot prove one).
    """

    kind: str
    src: int
    dst: int
    label: str
    distance: Optional[int] = None


@dataclass(frozen=True)
class SliceCost:
    """The cost model of one backward slice.

    ``length`` counts slice instructions, ``loads`` the loads among
    them (each load is a potential cache miss and a memory-closure
    amplifier), and ``ratio`` the slice length as a fraction of the
    reachable program — purely informational, budgets bound only the
    absolute numbers.
    """

    length: int
    loads: int
    ratio: float


@dataclass(frozen=True)
class SliceBudget:
    """Affordability thresholds for predictor slices."""

    max_length: int = 64
    max_loads: int = 8

    def allows(self, cost: SliceCost) -> bool:
        return cost.length <= self.max_length and cost.loads <= self.max_loads


DEFAULT_SLICE_BUDGET = SliceBudget()


@dataclass(frozen=True)
class BackwardSlice:
    """An executable backward slice of one instruction."""

    criterion_pc: int
    criterion: str
    pcs: FrozenSet[int]
    cost: SliceCost
    #: True when a load in the slice is fed by a loop-carried memory
    #: edge: the slice cannot run ahead of the iteration feeding it.
    loop_carried: bool


@dataclass(frozen=True)
class PredictorSlice:
    """The address-generation slice of one MAY/MUST store->load pair.

    The PC set is the union of the store's and the load's backward
    *address* slices: pre-executing it resolves both addresses, so a
    collision yields the pair's dynamic dependence distance before the
    consumer ever issues.
    """

    store_pc: int
    load_pc: int
    verdict: str
    static_distance: Optional[int]
    pcs: FrozenSet[int]
    cost: SliceCost
    status: str

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.store_pc, self.load_pc)


class _Closure:
    """The facts of one backward-slice closure, which only ever grow.

    ``chased`` holds the (pc, register) uses whose reaching definitions
    are in; ``demanded`` the loads whose *value* feeds the slice.  Only
    these need the memory closure; an address-criterion load executes
    with whatever value lies at its (exact) address, and nothing in the
    slice reads it.
    """

    __slots__ = ("included", "chased", "demanded", "loads_closed", "loop_carried")

    def __init__(self) -> None:
        self.included: Set[int] = set()
        self.chased: Set[Tuple[int, int]] = set()
        self.demanded: Set[int] = set()
        self.loads_closed: Set[int] = set()
        #: True when a demanded load is fed by a loop-carried memory edge
        self.loop_carried = False

    def copy(self) -> "_Closure":
        twin = _Closure()
        twin.included = set(self.included)
        twin.chased = set(self.chased)
        twin.demanded = set(self.demanded)
        twin.loads_closed = set(self.loads_closed)
        twin.loop_carried = self.loop_carried
        return twin

    def include(self, pc: int, regs: Sequence[int], worklist: deque) -> None:
        """Add *pc* and queue the uses of *regs* it has not chased yet."""
        self.included.add(pc)
        for reg in regs:
            if (pc, reg) not in self.chased:
                self.chased.add((pc, reg))
                worklist.append((pc, reg))


#: Reaching definitions at one point: register -> defining PCs.
Defs = Dict[int, FrozenSet[int]]


def _define(inst: Instruction, state: Defs) -> Defs:
    """Reaching-definitions transfer: the register *inst* writes, if
    any, now has *inst* as its one definition (in a new state)."""
    reg = inst.written_register()
    if reg is None:
        return state
    out = dict(state)
    out[reg] = frozenset((inst.pc,))
    return out


def _join_defs(a: Defs, b: Defs) -> Defs:
    merged = dict(a)
    for reg, defs in b.items():
        merged[reg] = merged.get(reg, frozenset()) | defs
    return merged


class ProgramDependenceGraph:
    """The program dependence graph of one program.

    Build via :func:`build_pdg`; pass a pre-computed
    :class:`SymbolicDependenceAnalysis` to share work with the linter
    or a policy.
    """

    def __init__(
        self,
        program: Program,
        analysis: Optional[SymbolicDependenceAnalysis] = None,
    ):
        self.program = program
        self.analysis = analysis if analysis is not None else analyze_program_symbolic(program)
        self.cfg = self.analysis.cfg
        self.solution = self.analysis.solution
        self._reachable_blocks = sorted(self.cfg.reachable_blocks())
        self._reachable_pcs: List[int] = []
        for index in self._reachable_blocks:
            self._reachable_pcs.extend(self.cfg.blocks[index].pcs())
        self._reachable_pcs.sort()
        self._use_defs = self._reaching_definitions()
        self.register_edges = self._build_register_edges()
        self.control_edges = self._build_control_edges()
        self.memory_edges = self._build_memory_edges()
        self._succs: Dict[int, List[PDGEdge]] = {pc: [] for pc in self._reachable_pcs}
        for edge in self.edges():
            self._succs[edge.src].append(edge)
        self._memory_by_load: Dict[int, List[PDGEdge]] = {}
        self._memory_by_store: Dict[int, List[PDGEdge]] = {}
        for edge in self.memory_edges:
            self._memory_by_load.setdefault(edge.dst, []).append(edge)
            self._memory_by_store.setdefault(edge.src, []).append(edge)
        self._load_pcs = frozenset(pc for pc in self._reachable_pcs if program[pc].is_load)
        #: the closure every slice starts from, and its PCs, built on
        #: the first slice
        self._skeleton: Optional[_Closure] = None
        self._skeleton_pcs: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    # construction

    def _reaching_definitions(self) -> Dict[int, Dict[int, FrozenSet[int]]]:
        """Per-use reaching definitions: pc -> reg -> defining PCs.

        Registers are implicitly zero at entry, so a use with no
        reaching definition simply has no incoming register edge."""
        program, cfg = self.program, self.cfg
        block_in = solve_forward(cfg, {cfg.entry_block.index: {}}, _define, _join_defs)
        use_defs: Dict[int, Dict[int, FrozenSet[int]]] = {}
        for index in self._reachable_blocks:
            state = block_in[index]
            for pc in cfg.blocks[index].pcs():
                inst = program[pc]
                use_defs[pc] = {
                    reg: state.get(reg, frozenset()) for reg in inst.sources()
                }
                state = _define(inst, state)
        return use_defs

    def _build_register_edges(self) -> List[PDGEdge]:
        edges = []
        for pc in self._reachable_pcs:
            for reg, defs in sorted(self._use_defs[pc].items()):
                for def_pc in sorted(defs):
                    edges.append(
                        PDGEdge(REG_EDGE, def_pc, pc, register_name(reg))
                    )
        return edges

    def _post_dominators(self) -> Dict[int, Set[int]]:
        """Block-level post-dominator sets: the dominators of the reversed
        graph, rooted at a virtual exit that every block without a
        successor flows to.  So does the latch of a loop that nothing
        leaves: a block that cannot reach the exit and has a successor
        at the same or a lower index.  Without that edge every block of
        such a loop would keep the maximal set and control nothing."""
        blocks = self.cfg.blocks
        reachable = set(self._reachable_blocks)
        succs = {index: list(blocks[index].successors) for index in reachable}
        reaches_exit = {index for index, out in succs.items() if not out}
        stack = list(reaches_exit)
        while stack:
            for pred in blocks[stack.pop()].predecessors:
                if pred in reachable and pred not in reaches_exit:
                    reaches_exit.add(pred)
                    stack.append(pred)
        for index, out in succs.items():
            if not out or (index not in reaches_exit and min(out) <= index):
                out.append(_VIRTUAL_EXIT)
        nodes = [_VIRTUAL_EXIT] + sorted(self._reachable_blocks, reverse=True)
        return dominator_sets(nodes, succs, _VIRTUAL_EXIT)

    def _build_control_edges(self) -> List[PDGEdge]:
        """Ferrante/Ottenstein/Warren: for each CFG edge A->B where B
        does not post-dominate A, every block from B up the
        post-dominator tree to (excluding) ipdom(A) is control
        dependent on A's terminator."""
        cfg = self.cfg
        reachable = set(self._reachable_blocks)
        pdom = self._post_dominators()

        def ipdom(index: int) -> int:
            candidates = pdom[index] - {index}
            for c in candidates:
                if all(d in pdom[c] for d in candidates if d != c):
                    return c
            return _VIRTUAL_EXIT

        dependent: Set[Tuple[int, int]] = set()  # (branch block, dependent block)
        for a in self._reachable_blocks:
            for b in cfg.blocks[a].successors:
                # B must not *strictly* post-dominate A; the b == a case
                # is the single-block loop whose body is control
                # dependent on its own latch branch.
                if b not in reachable or (b != a and b in pdom[a]):
                    continue
                stop = ipdom(a)
                runner = b
                seen: Set[int] = set()
                while runner != stop and runner != _VIRTUAL_EXIT and runner not in seen:
                    seen.add(runner)
                    dependent.add((a, runner))
                    runner = ipdom(runner)

        edges = []
        for a, d in sorted(dependent):
            term_pc = cfg.blocks[a].pcs()[-1]
            for pc in cfg.blocks[d].pcs():
                edges.append(PDGEdge(CTRL_EDGE, term_pc, pc, "ctrl"))
        return edges

    def _build_memory_edges(self) -> List[PDGEdge]:
        edges = []
        for pair in sorted(self.analysis.classified, key=lambda p: p.pair):
            edges.append(
                PDGEdge(
                    MEM_EDGE,
                    pair.store_pc,
                    pair.load_pc,
                    pair.verdict,
                    pair.static_distance,
                )
            )
        return edges

    # ------------------------------------------------------------------
    # queries

    def edges(self) -> List[PDGEdge]:
        return self.register_edges + self.control_edges + self.memory_edges

    def successors(self, pc: int) -> List[PDGEdge]:
        return list(self._succs.get(pc, ()))

    def memory_edges_for_store(self, store_pc: int) -> List[PDGEdge]:
        return list(self._memory_by_store.get(store_pc, ()))

    def reachable_pcs(self) -> List[int]:
        return list(self._reachable_pcs)

    def summary(self) -> Dict[str, object]:
        verdicts: Dict[str, int] = {}
        for edge in self.memory_edges:
            verdicts[edge.label] = verdicts.get(edge.label, 0) + 1
        return {
            "program": self.program.name,
            "nodes": len(self._reachable_pcs),
            "register_edges": len(self.register_edges),
            "control_edges": len(self.control_edges),
            "memory_edges": len(self.memory_edges),
            "memory_edges_by_verdict": dict(sorted(verdicts.items())),
        }

    # ------------------------------------------------------------------
    # slicing

    def _seed_registers(self, inst: Instruction, criterion: str) -> Tuple[int, ...]:
        if criterion == "address":
            if inst.is_memory and inst.rs1 is not None:
                return (inst.rs1,)
            return inst.sources()
        if criterion == "value":
            if inst.op is Opcode.SW and inst.rs2 is not None:
                return (inst.rs2,)
            return inst.sources()
        if criterion == "full":
            return inst.sources()
        raise ValueError(
            "unknown slice criterion %r (expected one of %s)"
            % (criterion, ", ".join(SLICE_CRITERIA))
        )

    def _close(self, closure: "_Closure", worklist: deque) -> None:
        """Grow *closure* to its least fixpoint: the data closure of every
        chased (pc, register) use on *worklist* and, recursively, the
        memory closure of every demanded load."""
        program, use_defs, closed = self.program, self._use_defs, closure.loads_closed
        while True:
            while worklist:
                use_pc, reg = worklist.popleft()
                for def_pc in use_defs[use_pc].get(reg, frozenset()):
                    if program[def_pc].is_load:
                        closure.demanded.add(def_pc)
                    closure.include(def_pc, program[def_pc].sources(), worklist)
            # Memory closure: every load whose value the slice consumes
            # pulls in its potentially-aliasing stores (non-NO memory
            # edges), value chains included.
            for load_pc in sorted(closure.demanded - closed):
                closed.add(load_pc)
                for edge in self._memory_by_load.get(load_pc, ()):
                    if edge.label == NO:
                        continue
                    if self.solution is not None and not self.solution.reaches_without_back_edge(
                        edge.src, load_pc
                    ):
                        closure.loop_carried = True
                    closure.include(edge.src, program[edge.src].sources(), worklist)
            if not worklist and not (closure.demanded - closed):
                return

    def _skeleton_closure(self) -> "_Closure":
        """The full control skeleton (every branch, jump and halt) and the
        closure of their inputs: the part every slice shares."""
        if self._skeleton is None:
            skeleton = _Closure()
            worklist: deque = deque()
            for pc in self._reachable_pcs:
                if is_control(self.program[pc].op):
                    skeleton.include(pc, self.program[pc].sources(), worklist)
            self._close(skeleton, worklist)
            self._skeleton = skeleton
            self._skeleton_pcs = frozenset(skeleton.included)
        return self._skeleton

    def _increment(self, pc: int, criterion: str) -> Tuple[FrozenSet[int], bool]:
        """What the slice of *pc* adds to the skeleton closure: the extra
        PCs, and whether the whole slice is loop-carried.

        The closure is a union-distributive least fixpoint and
        ``loop_carried`` an OR over the loads it demands, so closing
        the skeleton's fixpoint plus *pc*'s seeds equals closing
        everything from scratch."""
        if pc not in self._use_defs:
            raise ValueError("pc %d is not a reachable instruction" % pc)
        inst = self.program[pc]
        seeds = self._seed_registers(inst, criterion)
        skeleton = self._skeleton_closure()
        closure = skeleton.copy()
        worklist: deque = deque()
        closure.include(pc, seeds, worklist)
        if inst.is_load and criterion in ("value", "full"):
            closure.demanded.add(pc)
        self._close(closure, worklist)
        return frozenset(closure.included - skeleton.included), closure.loop_carried

    def slice_backward(self, pc: int, criterion: str = "address") -> BackwardSlice:
        """The executable backward slice of the instruction at *pc*.

        The slice contains *pc* itself, the data closure of the
        criterion registers, the full control skeleton (plus the data
        closures of every branch input), and, recursively, every store
        that may feed a load in the slice.  Replaying the program while
        executing only slice PCs (skipping the rest as no-ops)
        reproduces the criterion's address/value stream exactly.
        """
        extra, loop_carried = self._increment(pc, criterion)
        pcs = self._skeleton_pcs | extra
        return BackwardSlice(
            criterion_pc=pc,
            criterion=criterion,
            pcs=pcs,
            cost=self._cost(pcs),
            loop_carried=loop_carried,
        )

    def _cost(self, pcs: FrozenSet[int]) -> SliceCost:
        loads = len(pcs & self._load_pcs)
        total = max(1, len(self._reachable_pcs))
        return SliceCost(
            length=len(pcs), loads=loads, ratio=round(len(pcs) / total, 4)
        )

    # ------------------------------------------------------------------
    # export

    def to_dot(self) -> str:
        """Graphviz rendering: boxes per instruction, solid register
        edges, dashed control edges, bold memory edges labeled with
        their verdict (and distance when proven)."""
        lines = [
            "digraph pdg {",
            "  rankdir=TB;",
            '  node [shape=box, fontname="monospace", fontsize=10];',
        ]
        for pc in self._reachable_pcs:
            inst = self.program[pc]
            shape = []
            if inst.is_store:
                shape.append("style=filled, fillcolor=lightsalmon")
            elif inst.is_load:
                shape.append("style=filled, fillcolor=lightblue")
            elif is_control(inst.op):
                shape.append("style=filled, fillcolor=lightgrey")
            attrs = (", " + ", ".join(shape)) if shape else ""
            label = "%d: %s" % (pc, str(inst).replace('"', "'"))
            lines.append('  n%d [label="%s"%s];' % (pc, label, attrs))
        for edge in self.register_edges:
            lines.append(
                '  n%d -> n%d [label="%s", color=black];'
                % (edge.src, edge.dst, edge.label)
            )
        for edge in self.control_edges:
            lines.append(
                "  n%d -> n%d [style=dashed, color=grey];" % (edge.src, edge.dst)
            )
        for edge in self.memory_edges:
            label = edge.label
            if edge.distance is not None:
                label += " d=%d" % edge.distance
            color = {"must": "red", "may": "orange"}.get(edge.label, "green")
            lines.append(
                '  n%d -> n%d [label="%s", color=%s, penwidth=2];'
                % (edge.src, edge.dst, label, color)
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_pdg(
    program: Program,
    analysis: Optional[SymbolicDependenceAnalysis] = None,
) -> ProgramDependenceGraph:
    """Build the PDG of *program* (records a ``staticdep.pdg`` profiler
    scope); *analysis* shares a pre-computed symbolic analysis."""
    with PROFILER.scope("staticdep.pdg"):
        return ProgramDependenceGraph(program, analysis=analysis)


def extract_predictor_slices(
    pdg: ProgramDependenceGraph,
    budget: Optional[SliceBudget] = None,
) -> List[PredictorSlice]:
    """One address-generation slice per MAY/MUST store->load pair,
    sorted by (store PC, load PC) (records a ``staticdep.slices``
    profiler scope).  Each distinct PC's address slice is closed once
    and shared by every pair it ends."""
    budget = budget if budget is not None else DEFAULT_SLICE_BUDGET
    with PROFILER.scope("staticdep.slices"):
        increments: Dict[int, Tuple[FrozenSet[int], bool]] = {}
        slices = []
        for pair in sorted(pdg.analysis.classified, key=lambda p: p.pair):
            if pair.verdict == NO:
                continue
            for pc in pair.pair:
                if pc not in increments:
                    increments[pc] = pdg._increment(pc, "address")
            store_extra, store_carried = increments[pair.store_pc]
            load_extra, load_carried = increments[pair.load_pc]
            pcs = pdg._skeleton_pcs | store_extra | load_extra
            cost = pdg._cost(pcs)
            if store_carried or load_carried:
                status = LOOP_CARRIED_CUTOFF
            elif not budget.allows(cost):
                status = TOO_EXPENSIVE
            else:
                status = WARMABLE
            slices.append(
                PredictorSlice(
                    store_pc=pair.store_pc,
                    load_pc=pair.load_pc,
                    verdict=pair.verdict,
                    static_distance=pair.static_distance,
                    pcs=pcs,
                    cost=cost,
                    status=status,
                )
            )
        return slices


# ----------------------------------------------------------------------
# report payloads (shared by the CLI and the golden-fixture tests)


def _cost_payload(cost: SliceCost) -> Dict[str, object]:
    return {"length": cost.length, "loads": cost.loads, "ratio": cost.ratio}


def pdg_report(
    pdg: ProgramDependenceGraph,
    budget: Optional[SliceBudget] = None,
) -> Dict[str, object]:
    """The JSON payload of ``repro pdg`` for a graph from
    :func:`build_pdg`: graph statistics plus the per-pair
    predictor-slice listing."""
    slices = extract_predictor_slices(pdg, budget=budget)
    statuses: Dict[str, int] = {}
    for s in slices:
        statuses[s.status] = statuses.get(s.status, 0) + 1
    summary = pdg.summary()
    summary["predictor_slices"] = len(slices)
    summary["slices_by_status"] = dict(sorted(statuses.items()))
    return {
        "program": pdg.program.name,
        "summary": summary,
        "slices": [
            {
                "store_pc": s.store_pc,
                "load_pc": s.load_pc,
                "verdict": s.verdict,
                "static_distance": s.static_distance,
                "status": s.status,
                "cost": _cost_payload(s.cost),
                "pcs": sorted(s.pcs),
            }
            for s in slices
        ],
    }


def slice_report(
    program: Program, pc: int, criterion: str = "address"
) -> Dict[str, object]:
    """The JSON payload of ``repro slice``: one backward slice with its
    instruction listing."""
    pdg = build_pdg(program)
    sl = pdg.slice_backward(pc, criterion)
    return {
        "program": program.name,
        "criterion_pc": sl.criterion_pc,
        "criterion": sl.criterion,
        "cost": _cost_payload(sl.cost),
        "loop_carried": sl.loop_carried,
        "pcs": sorted(sl.pcs),
        "instructions": [
            "%d: %s" % (p, str(program[p])) for p in sorted(sl.pcs)
        ],
    }
