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
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.isa.opcodes import is_control
from repro.staticdep.cfg import ControlFlowGraph
from repro.staticdep.pdg import (
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
from repro.staticdep.symbolic import NO, SymbolicSolution


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
