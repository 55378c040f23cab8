"""Plain static-analysis algorithms: test-only references.

The analyses in :mod:`repro.staticdep` answer their per-pair and per-PC
queries from structures built once per CFG or PDG: forward-reach sets
per block, one task-distance BFS per source over blocks, memory edges
indexed by PC, and one shared closure of the control skeleton that
every backward slice extends.  This module keeps the direct versions
they replace:

* :func:`reaches_without_back_edge` walks instructions from scratch;
* :func:`min_task_distance` runs one instruction-level 0-1 BFS per
  (source, destination) pair, and :func:`static_distance` runs two
  more per lagged pair;
* :func:`slice_backward` closes each slice from nothing, control
  skeleton included, scanning the whole memory-edge list per load.

``test_analysis_differential.py`` holds the two equal on random
programs, the example programs and every registered workload.

The dataflow analyses share three helpers in :mod:`repro.staticdep.cfg`
(``solve_forward``, ``state_at`` and ``dominator_sets``).  The
``Worklist*`` classes below put back the loops those helpers replaced,
each analysis with its own worklist, dominator loop and prefix replay,
copied verbatim as method overrides (a few annotations aside); a
``_solve`` that filled ``self._block_in`` in place now starts from an
empty one and returns it.  ``test_dataflow_differential.py`` holds them equal to the helpers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode, is_control
from repro.isa.program import Program
from repro.isa.registers import ZERO
from repro.staticdep.cfg import ControlFlowGraph
from repro.staticdep.pdg import (
    _VIRTUAL_EXIT,
    DEFAULT_SLICE_BUDGET,
    LOOP_CARRIED_CUTOFF,
    TOO_EXPENSIVE,
    WARMABLE,
    BackwardSlice,
    PDGEdge,
    PredictorSlice,
    ProgramDependenceGraph,
    SliceBudget,
    SliceCost,
)
from repro.staticdep.reaching import (
    ReachingStores,
    State,
    StoreFact,
    _must_alias,
    access_expr,
)
from repro.staticdep.spectaint import (
    TaintSolution,
    TaintState,
    Transmitter,
    _entry_taints,
    _join_taints,
    transfer_taint,
)
from repro.staticdep.symbolic import (
    NO,
    SymbolicSolution,
    _entry_state,
    _join_states,
    _top_state,
    _widen_states,
    transfer,
)


def reaches_without_back_edge(solution: SymbolicSolution, src_pc: int, dst_pc: int) -> bool:
    """Is there a path from after *src_pc* to *dst_pc* that stays
    within the current iteration (crosses no back edge)?"""
    seen: Set[int] = set()
    frontier = _forward_successors(solution, src_pc)
    while frontier:
        next_frontier: List[int] = []
        for pc in frontier:
            if pc in seen:
                continue
            seen.add(pc)
            if pc == dst_pc:
                return True
            next_frontier.extend(_forward_successors(solution, pc))
        frontier = next_frontier
    return False


def _forward_successors(solution: SymbolicSolution, pc: int) -> List[int]:
    cfg = solution.cfg
    block = cfg.block_at(pc)
    if pc + 1 < block.end:
        return [pc + 1]
    return [
        cfg.blocks[succ].start
        for succ in block.successors
        if (block.index, succ) not in solution.back_edges
    ]


def min_task_distance(cfg: ControlFlowGraph, src_pc: int, dst_pc: int) -> Optional[int]:
    """Minimum task-entry crossings on any path *after* ``src_pc`` to
    ``dst_pc``, or None when no path exists: 0-1 BFS over the
    instruction-level successor relation, where entering a
    ``task_begin`` instruction costs 1."""
    program = cfg.program
    best: Dict[int, int] = {}
    # deque-based 0-1 BFS; start from the successors of src so a
    # store reaching "itself" around a loop is a real cycle.
    queue: Deque[Tuple[int, int]] = deque()
    for succ in cfg.instruction_successors(src_pc):
        cost = 1 if program[succ].task_entry else 0
        if succ not in best or cost < best[succ]:
            best[succ] = cost
            if cost:
                queue.append((succ, cost))
            else:
                queue.appendleft((succ, cost))
    while queue:
        pc, cost = queue.popleft()
        if cost > best.get(pc, cost):
            continue
        if pc == dst_pc:
            return cost
        for succ in cfg.instruction_successors(pc):
            step = 1 if program[succ].task_entry else 0
            new_cost = cost + step
            if succ not in best or new_cost < best[succ]:
                best[succ] = new_cost
                if step:
                    queue.append((succ, new_cost))
                else:
                    queue.appendleft((succ, new_cost))
    return best.get(dst_pc)


def static_distance(
    solution: SymbolicSolution,
    store_pc: int,
    load_pc: int,
    lag: Optional[int],
) -> Optional[int]:
    """Task-boundary crossings from the producing store instance to the
    consuming load instance, *lag* loop iterations later."""
    cfg = solution.cfg
    if lag is None:
        return None
    direct = min_task_distance(cfg, store_pc, load_pc)
    if lag == 0 or direct is None:
        return direct
    wrap = min_task_distance(cfg, store_pc, store_pc)
    if wrap is None:
        return None
    if reaches_without_back_edge(solution, store_pc, load_pc):
        # `direct` follows the iteration-local path; add `lag` full trips
        return direct + lag * wrap
    # `direct` already wraps around the loop once
    return direct + (lag - 1) * wrap


def _memory_edges_for_load(pdg: ProgramDependenceGraph, load_pc: int) -> List[PDGEdge]:
    return [e for e in pdg.memory_edges if e.dst == load_pc]


def _cost(pdg: ProgramDependenceGraph, pcs: Set[int]) -> SliceCost:
    loads = sum(1 for p in pcs if pdg.program[p].is_load)
    total = max(1, len(pdg._reachable_pcs))
    return SliceCost(length=len(pcs), loads=loads, ratio=round(len(pcs) / total, 4))


def slice_backward(
    pdg: ProgramDependenceGraph, pc: int, criterion: str = "address"
) -> BackwardSlice:
    """The executable backward slice of the instruction at *pc*, closed
    from scratch."""
    if pc not in pdg._use_defs:
        raise ValueError("pc %d is not a reachable instruction" % pc)
    program = pdg.program
    use_defs = pdg._use_defs
    included: Set[int] = set()
    chased: Set[Tuple[int, int]] = set()
    #: Loads whose loaded *value* feeds the slice.  Only these need
    #: the memory closure; an address-criterion load executes with
    #: whatever value lies at its (exact) address, and nothing in
    #: the slice reads it.
    demanded: Set[int] = set()
    loads_closed: Set[int] = set()
    loop_carried = False
    worklist: deque = deque()

    def include(new_pc: int, regs: Optional[Sequence[int]] = None) -> None:
        if regs is None:
            regs = program[new_pc].sources()
        included.add(new_pc)
        for reg in regs:
            if (new_pc, reg) not in chased:
                chased.add((new_pc, reg))
                worklist.append((new_pc, reg))

    include(pc, pdg._seed_registers(program[pc], criterion))
    if program[pc].is_load and criterion in ("value", "full"):
        demanded.add(pc)
    skeleton = {p for p in pdg._reachable_pcs if is_control(program[p].op)}
    for ctrl_pc in sorted(skeleton):
        include(ctrl_pc)

    while True:
        while worklist:
            use_pc, reg = worklist.popleft()
            for def_pc in use_defs[use_pc].get(reg, frozenset()):
                if program[def_pc].is_load:
                    demanded.add(def_pc)
                include(def_pc)
        # Memory closure: every load whose value the slice consumes
        # pulls in its potentially-aliasing stores (non-NO memory
        # edges), value chains included.
        for load_pc in sorted(demanded - loads_closed):
            loads_closed.add(load_pc)
            for edge in _memory_edges_for_load(pdg, load_pc):
                if edge.label == NO:
                    continue
                if pdg.solution is not None and not reaches_without_back_edge(
                    pdg.solution, edge.src, load_pc
                ):
                    loop_carried = True
                include(edge.src)
        if not worklist and not (demanded - loads_closed):
            break

    return BackwardSlice(
        criterion_pc=pc,
        criterion=criterion,
        pcs=frozenset(included),
        cost=_cost(pdg, included),
        loop_carried=loop_carried,
    )


def predictor_slice(
    pdg: ProgramDependenceGraph, pair, budget: Optional[SliceBudget] = None
) -> PredictorSlice:
    """The address-generation slice warming one MAY/MUST pair."""
    budget = budget if budget is not None else DEFAULT_SLICE_BUDGET
    store_slice = slice_backward(pdg, pair.store_pc, "address")
    load_slice = slice_backward(pdg, pair.load_pc, "address")
    pcs = set(store_slice.pcs | load_slice.pcs)
    cost = _cost(pdg, pcs)
    if store_slice.loop_carried or load_slice.loop_carried:
        status = LOOP_CARRIED_CUTOFF
    elif not budget.allows(cost):
        status = TOO_EXPENSIVE
    else:
        status = WARMABLE
    return PredictorSlice(
        store_pc=pair.store_pc,
        load_pc=pair.load_pc,
        verdict=pair.verdict,
        static_distance=pair.static_distance,
        pcs=frozenset(pcs),
        cost=cost,
        status=status,
    )


def extract_predictor_slices(
    pdg: ProgramDependenceGraph, budget: Optional[SliceBudget] = None
) -> List[PredictorSlice]:
    """One address-generation slice per MAY/MUST store->load pair,
    sorted by (store PC, load PC), each closed from scratch."""
    slices = []
    for pair in sorted(pdg.analysis.classified, key=lambda p: p.pair):
        if pair.verdict == NO:
            continue
        slices.append(predictor_slice(pdg, pair, budget=budget))
    return slices


# ---------------------------------------------------------------------------
# the per-analysis dataflow loops


def _transfer(inst: Instruction, state: State) -> None:
    """Apply one instruction's effect to *state* in place."""
    written = inst.written_register()
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


class WorklistReachingStores(ReachingStores):
    """Reaching stores with every reachable block seeded, FIFO by
    ``list.pop(0)``, states updated in place."""

    def _solve(self):
        self._block_in, self._block_out = {}, {}
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
        return self._block_in

    def state_before(self, pc: int) -> State:
        """The reaching-store facts immediately before instruction *pc*."""
        block = self.cfg.block_at(pc)
        state = dict(self._block_in[block.index])
        for earlier in range(block.start, pc):
            _transfer(self.program[earlier], state)
        return state


class WorklistSymbolicSolution(SymbolicSolution):
    """The symbolic interpreter seeded at the entry, FIFO, widening on
    back edges; dominators by a round-robin loop of its own."""

    def dominators(self) -> Dict[int, Set[int]]:
        """Block -> blocks dominating it (iterative set dataflow)."""
        if self._dominators is not None:
            return self._dominators
        cfg = self.cfg
        reachable = cfg.reachable_blocks()
        all_blocks = set(reachable)
        entry = cfg.entry_block.index
        dom: Dict[int, Set[int]] = {
            index: {index} if index == entry else set(all_blocks)
            for index in reachable
        }
        changed = True
        while changed:
            changed = False
            for index in reachable:
                if index == entry:
                    continue
                preds = [
                    p for p in cfg.blocks[index].predecessors if p in all_blocks
                ]
                if preds:
                    new = set.intersection(*(dom[p] for p in preds))
                else:
                    new = set()
                new.add(index)
                if new != dom[index]:
                    dom[index] = new
                    changed = True
        self._dominators = dom
        return dom

    def _block_out(self, index: int, state):
        for pc in self.cfg.blocks[index].pcs():
            state = transfer(self.program[pc], state)
        return state

    def _solve(self):
        self._block_in = {}
        cfg = self.cfg
        reachable = cfg.reachable_blocks()
        entry = cfg.entry_block.index
        outs = {}
        self._block_in[entry] = _entry_state()
        worklist: List[int] = [entry]
        queued = {entry}
        while worklist:
            index = worklist.pop(0)
            queued.discard(index)
            in_state = self._block_in.get(index)
            if in_state is None:
                continue
            out = self._block_out(index, in_state)
            if outs.get(index) == out:
                continue
            outs[index] = out
            for succ in cfg.blocks[index].successors:
                is_back = (index, succ) in self.back_edges
                current = self._block_in.get(succ)
                if current is None:
                    new = out
                elif is_back:
                    new = _widen_states(current, out, succ)
                else:
                    new = _join_states(current, out)
                if new != current:
                    self._block_in[succ] = new
                    if succ not in queued:
                        worklist.append(succ)
                        queued.add(succ)
        for index in reachable:
            self._block_in.setdefault(index, _top_state())
        return self._block_in

    def state_before(self, pc: int):
        block = self.cfg.block_at(pc)
        state = self._block_in.get(block.index, _top_state())
        for earlier in range(block.start, pc):
            state = transfer(self.program[earlier], state)
        return state


class WorklistPDG(ProgramDependenceGraph):
    """Reaching definitions on a deque with an O(n) membership test;
    post-dominators by a round-robin loop of their own."""

    def _reaching_definitions(self) -> Dict[int, Dict[int, FrozenSet[int]]]:
        """Per-use reaching definitions: pc -> reg -> defining PCs.

        Registers are implicitly zero at entry, so a use with no
        reaching definition simply has no incoming register edge."""
        program, cfg = self.program, self.cfg
        reachable = set(self._reachable_blocks)
        Defs = Dict[int, FrozenSet[int]]
        block_in: Dict[int, Defs] = {index: {} for index in reachable}
        block_out: Dict[int, Defs] = {}

        def transfer(index: int, state: Defs) -> Defs:
            out = dict(state)
            for pc in cfg.blocks[index].pcs():
                reg = program[pc].written_register()
                if reg is not None:
                    out[reg] = frozenset((pc,))
            return out

        worklist = deque(self._reachable_blocks)
        while worklist:
            index = worklist.popleft()
            out = transfer(index, block_in[index])
            if block_out.get(index) == out:
                continue
            block_out[index] = out
            for succ in cfg.blocks[index].successors:
                if succ not in reachable:
                    continue
                merged = dict(block_in[succ])
                changed = False
                for reg, defs in out.items():
                    joined = merged.get(reg, frozenset()) | defs
                    if joined != merged.get(reg):
                        merged[reg] = joined
                        changed = True
                if changed or succ not in block_out:
                    block_in[succ] = merged
                    if succ not in worklist:
                        worklist.append(succ)

        use_defs: Dict[int, Dict[int, FrozenSet[int]]] = {}
        for index in self._reachable_blocks:
            state: Defs = dict(block_in[index])
            for pc in cfg.blocks[index].pcs():
                inst = program[pc]
                use_defs[pc] = {
                    reg: state.get(reg, frozenset()) for reg in inst.sources()
                }
                reg = inst.written_register()
                if reg is not None:
                    state[reg] = frozenset((pc,))
        return use_defs

    def _post_dominators(self) -> Dict[int, Set[int]]:
        """Block-level post-dominator sets over a virtual exit node."""
        cfg = self.cfg
        reachable = set(self._reachable_blocks)
        succs = {
            index: [s for s in cfg.blocks[index].successors if s in reachable]
            or [_VIRTUAL_EXIT]
            for index in reachable
        }
        universe = reachable | {_VIRTUAL_EXIT}
        pdom: Dict[int, Set[int]] = {index: set(universe) for index in reachable}
        pdom[_VIRTUAL_EXIT] = {_VIRTUAL_EXIT}
        changed = True
        while changed:
            changed = False
            for index in sorted(reachable, reverse=True):
                meet: Set[int] = set.intersection(*(pdom[s] for s in succs[index]))
                new = meet | {index}
                if new != pdom[index]:
                    pdom[index] = new
                    changed = True
        return pdom


class WorklistTaintSolution(TaintSolution):
    """Register taint on a LIFO stack with no queued set."""

    def _run_register_flow(self, load_taints: Dict[int, str]) -> None:
        self._block_in = {}
        entry = self.cfg.entry_block.index
        self._block_in[entry] = _entry_taints()
        worklist: List[int] = [entry]
        while worklist:
            index = worklist.pop()
            state = self._block_in[index]
            block = self.cfg.blocks[index]
            for pc in block.pcs():
                state = transfer_taint(self.program[pc], state, load_taints)
            for succ in block.successors:
                current = self._block_in.get(succ)
                merged = state if current is None else _join_taints(current, state)
                if merged != current:
                    self._block_in[succ] = merged
                    worklist.append(succ)

    def _state_before(self, pc: int, load_taints: Dict[int, str]) -> TaintState:
        block = self.cfg.block_at(pc)
        state = self._block_in.get(block.index, _entry_taints())
        for earlier in range(block.start, pc):
            state = transfer_taint(self.program[earlier], state, load_taints)
        return state


class WorklistTransmitterSlice:
    """The transmitter slice on a LIFO stack seeded from the load block's
    successors, collecting sinks as it visits."""

    def __init__(
        self,
        program: Program,
        cfg: ControlFlowGraph,
        pair_set: FrozenSet[Tuple[int, int]],
    ) -> None:
        self.program = program
        self.cfg = cfg
        self.pair_set = pair_set

    def _transfer(
        self,
        inst: Instruction,
        regs: FrozenSet[int],
        mem: FrozenSet[int],
        sinks: Set[Transmitter],
    ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        carries = (inst.rs1 is not None and inst.rs1 in regs) or (
            inst.rs2 is not None and inst.rs2 in regs
        )
        if inst.is_memory:
            if inst.rs1 is not None and inst.rs1 in regs:
                sinks.add(Transmitter(inst.pc, "address"))
            if inst.is_store:
                if inst.rs2 is not None and inst.rs2 in regs:
                    mem = mem | {inst.pc}
                return regs, mem
            forwarded = any((s, inst.pc) in self.pair_set for s in mem)
            if inst.rd is not None and inst.rd != ZERO:
                regs = regs | {inst.rd} if forwarded else regs - {inst.rd}
            return regs, mem
        if inst.is_branch or inst.op is Opcode.JR:
            if carries:
                sinks.add(Transmitter(inst.pc, "branch"))
            return regs, mem
        if inst.rd is None or inst.rd == ZERO:
            return regs, mem
        if inst.op in (Opcode.LI, Opcode.LUI, Opcode.JAL) or not carries:
            return regs - {inst.rd}, mem
        return regs | {inst.rd}, mem

    def transmitters(self, load_pc: int) -> Tuple[Transmitter, ...]:
        load = self.program[load_pc]
        if load.rd is None or load.rd == ZERO:
            return ()
        sinks: Set[Transmitter] = set()
        regs: FrozenSet[int] = frozenset((load.rd,))
        mem: FrozenSet[int] = frozenset()
        block = self.cfg.block_at(load_pc)
        for pc in range(load_pc + 1, block.end):
            regs, mem = self._transfer(self.program[pc], regs, mem, sinks)
        block_in: Dict[int, Tuple[FrozenSet[int], FrozenSet[int]]] = {}
        worklist: List[int] = []
        for succ in block.successors:
            block_in[succ] = (regs, mem)
            worklist.append(succ)
        while worklist:
            index = worklist.pop()
            regs, mem = block_in[index]
            if not regs and not mem:
                continue  # nothing carried; the transfer is the identity
            for pc in self.cfg.blocks[index].pcs():
                regs, mem = self._transfer(self.program[pc], regs, mem, sinks)
            for succ in self.cfg.blocks[index].successors:
                current = block_in.get(succ)
                if current is None:
                    merged = (regs, mem)
                else:
                    merged = (current[0] | regs, current[1] | mem)
                if merged != current:
                    block_in[succ] = merged
                    worklist.append(succ)
        return tuple(sorted(sinks, key=lambda t: (t.pc, t.kind)))
