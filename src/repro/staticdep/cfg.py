"""Control-flow graph construction for assembled programs.

A :class:`ControlFlowGraph` partitions a
:class:`~repro.isa.program.Program` into maximal basic blocks and links
them with successor/predecessor edges derived from the ISA's
control-flow predicates (:mod:`repro.isa.opcodes`).  The graph is the
substrate for every static analysis in :mod:`repro.staticdep`: the
linter reports blocks it cannot reach, static dependence distances are
path lengths over it, and every dataflow analysis runs on the three
helpers at the end of this module — :func:`solve_forward` for block
entry states, :func:`state_at` for the state just before one
instruction, and :func:`dominator_sets` for (post-)dominators.

Edge policy per opcode class:

* conditional branches (``beq`` .. ``bgt``) — taken target plus
  fall-through;
* ``j``/``jal`` — the target only (``jal`` also records a *return
  site*, the instruction after the jump);
* ``jr`` — statically unknown.  When it jumps through ``ra`` and only
  ``jal`` ever writes ``ra``, the targets are the recorded return
  sites.  Otherwise it is a computed jump (e.g. through a jump table),
  and the conservative target set is every labeled instruction plus
  every return site — indirect branch targets are assumed to be label
  PCs, which is how the assembler and workloads materialize them;
* ``halt`` — no successors (program exit).

The conservative ``jr`` rule keeps the reaching-stores analysis sound
(no feasible path is missing from the graph) at the cost of spurious
edges between unrelated call sites.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Set, Tuple, TypeVar

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode, is_conditional_branch, is_control
from repro.isa.program import Program
from repro.isa.registers import parse_register


class BasicBlock:
    """A maximal straight-line instruction sequence.

    Attributes:
        index: position of this block in program order (block id).
        start: PC of the first instruction.
        end: PC one past the last instruction.
        successors: block ids control may flow to next.
        predecessors: block ids control may arrive from.
    """

    __slots__ = ("index", "start", "end", "successors", "predecessors")

    def __init__(self, index: int, start: int, end: int):
        self.index = index
        self.start = start
        self.end = end
        self.successors: List[int] = []
        self.predecessors: List[int] = []

    def __len__(self) -> int:
        return self.end - self.start

    def pcs(self) -> range:
        """PCs of the instructions in this block, in order."""
        return range(self.start, self.end)

    def __repr__(self) -> str:
        return "BasicBlock(#%d, pc %d..%d, succ=%r)" % (
            self.index,
            self.start,
            self.end - 1,
            self.successors,
        )


class ControlFlowGraph:
    """Basic blocks plus edges for one program."""

    def __init__(self, program: Program, blocks: List[BasicBlock]):
        self.program = program
        self.blocks = blocks
        self._block_of_pc: Dict[int, int] = {}
        #: task-entry instructions from the start of each PC's block up
        #: to and including the PC itself
        self._task_prefix: List[int] = [0] * len(program)
        for block in blocks:
            entries = 0
            for pc in block.pcs():
                self._block_of_pc[pc] = block.index
                entries += program[pc].task_entry
                self._task_prefix[pc] = entries

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def block_at(self, pc: int) -> BasicBlock:
        """The block containing instruction *pc*."""
        return self.blocks[self._block_of_pc[pc]]

    @property
    def entry_block(self) -> BasicBlock:
        return self.block_at(self.program.entry)

    def instruction_successors(self, pc: int) -> List[int]:
        """PCs execution may reach immediately after instruction *pc*."""
        block = self.block_at(pc)
        if pc + 1 < block.end:
            return [pc + 1]
        return [self.blocks[succ].start for succ in block.successors]

    def reachable_blocks(self) -> List[int]:
        """Block ids reachable from the program entry, in BFS order."""
        seen = {self.entry_block.index}
        order = [self.entry_block.index]
        frontier = [self.entry_block.index]
        while frontier:
            next_frontier = []
            for index in frontier:
                for succ in self.blocks[index].successors:
                    if succ not in seen:
                        seen.add(succ)
                        order.append(succ)
                        next_frontier.append(succ)
            frontier = next_frontier
        return order

    def unreachable_blocks(self) -> List[BasicBlock]:
        """Blocks no path from the entry reaches."""
        reachable = set(self.reachable_blocks())
        return [b for b in self.blocks if b.index not in reachable]

    def min_task_distance(self, src_pc: int, dst_pc: int) -> Optional[int]:
        """Minimum task-entry crossings on any path *after* ``src_pc`` to
        ``dst_pc``, or None when no path exists.

        This is the static analogue of the MDPT's DIST tag: the fewest
        Multiscalar task boundaries a value forwarded from the
        instruction at ``src_pc`` must cross before the instruction at
        ``dst_pc`` can consume it.  Entering a ``task_begin``
        instruction costs 1.  To ask about many destinations of one
        source, keep its :class:`TaskDistances` instead.
        """
        return TaskDistances(self, src_pc).to(dst_pc)


class TaskDistances:
    """Minimum task-entry crossings from one source instruction.

    One 0-1 BFS over blocks finds, per block, the fewest crossings on
    a path from after the source to the block's first instruction; a
    destination adds the task entries of its block up to itself.
    Staying inside the source's block, a later PC is reached directly.
    The BFS starts from the source's successors, so a store reaching
    "itself" around a loop is a real cycle.  Block edge weights are the
    task entries a block holds, normally 0 or 1; a heavier edge is
    appended like a weight-1 edge and a shorter path found later
    re-queues its block, so the labels are still exact.
    """

    __slots__ = ("cfg", "src_pc", "_arrive")

    def __init__(self, cfg: ControlFlowGraph, src_pc: int):
        self.cfg = cfg
        self.src_pc = src_pc
        blocks = cfg.blocks
        prefix = cfg._task_prefix
        arrive: List[Optional[int]] = [None] * len(blocks)
        queue: Deque[Tuple[int, int]] = deque()

        def relax(index: int, cost: int, step: int) -> None:
            best = arrive[index]
            if best is None or cost < best:
                arrive[index] = cost
                if step:
                    queue.append((index, cost))
                else:
                    queue.appendleft((index, cost))

        block = cfg.block_at(src_pc)
        leave = prefix[block.end - 1] - prefix[src_pc]
        for succ in block.successors:
            relax(succ, leave, leave)
        while queue:
            index, cost = queue.popleft()
            if cost != arrive[index]:
                continue
            block = blocks[index]
            step = prefix[block.end - 1]
            for succ in block.successors:
                relax(succ, cost + step, step)
        self._arrive = arrive

    def to(self, dst_pc: int) -> Optional[int]:
        """Crossings from the source to ``dst_pc``, or None if unreachable."""
        cfg = self.cfg
        index = cfg._block_of_pc[dst_pc]
        prefix = cfg._task_prefix
        arrive = self._arrive[index]
        best = None if arrive is None else arrive + prefix[dst_pc]
        src_pc = self.src_pc
        if src_pc < dst_pc and cfg._block_of_pc[src_pc] == index:
            direct = prefix[dst_pc] - prefix[src_pc]
            best = direct if best is None else min(best, direct)
        return best


def _leaders(program: Program) -> List[int]:
    leaders = {program.entry, 0}
    for pc, inst in enumerate(program):
        if is_control(inst.op):
            if inst.target is not None:
                leaders.add(inst.target)
            if pc + 1 < len(program):
                leaders.add(pc + 1)
    return sorted(leaders)


def build_cfg(program: Program) -> ControlFlowGraph:
    """Partition *program* into basic blocks and connect them."""
    leaders = _leaders(program)
    blocks: List[BasicBlock] = []
    for i, start in enumerate(leaders):
        end = leaders[i + 1] if i + 1 < len(leaders) else len(program)
        blocks.append(BasicBlock(len(blocks), start, end))

    block_of_pc: Dict[int, int] = {}
    for block in blocks:
        for pc in block.pcs():
            block_of_pc[pc] = block.index

    return_sites = [
        inst.pc + 1
        for inst in program
        if inst.op is Opcode.JAL and inst.pc + 1 < len(program)
    ]
    # Targets for computed jumps: every labeled instruction.  A `jr`
    # through a register other than a jal-maintained `ra` may go to any
    # of them.
    label_targets = sorted(set(program.labels.values()))
    ra = parse_register("ra")
    ra_is_pure_link = not any(
        inst.op is not Opcode.JAL and inst.written_register() == ra for inst in program
    )

    for block in blocks:
        last = program[block.end - 1]
        targets: List[int] = []
        if is_conditional_branch(last.op):
            if last.target is not None:
                targets.append(last.target)
            if block.end < len(program):
                targets.append(block.end)
        elif last.op in (Opcode.J, Opcode.JAL):
            if last.target is not None:
                targets.append(last.target)
        elif last.op is Opcode.JR:
            if last.rs1 == ra and ra_is_pure_link:
                targets.extend(return_sites)
            else:
                targets.extend(sorted(set(label_targets) | set(return_sites)))
        elif last.op is Opcode.HALT:
            pass
        else:
            # fall through into the next leader
            if block.end < len(program):
                targets.append(block.end)
        for target in targets:
            succ = block_of_pc[target]
            if succ not in block.successors:
                block.successors.append(succ)
                blocks[succ].predecessors.append(block.index)

    return ControlFlowGraph(program, blocks)


#: A dataflow state: each analysis picks its own.
S = TypeVar("S")


def solve_forward(
    cfg: ControlFlowGraph,
    seeds: Mapping[int, S],
    transfer: Callable[[Instruction, S], S],
    join: Callable[[S, S], S],
    widen: Optional[Callable[[S, S, int], S]] = None,
) -> Dict[int, S]:
    """Block id -> entry state of a forward dataflow problem on *cfg*.

    Blocks are visited first in, first out from *seeds* (block id ->
    entry state).  A block's exit state is its entry state put through
    ``transfer(inst, state)``, which returns a new state rather than
    change the one it is given.  A successor reached for the first time
    takes the exit state as it is; otherwise ``join(current, incoming)``
    merges it in, or ``widen(current, incoming, head)`` does on a back
    edge (into a block of equal or lower index) when *widen* is given.
    A block whose entry state changes is queued again; a block no seed
    reaches has no entry.  Only widening makes the result depend on
    this order: with a monotone transfer and a lattice join it is the
    least fixpoint.
    """
    program, blocks = cfg.program, cfg.blocks
    block_in: Dict[int, S] = dict(seeds)
    block_out: Dict[int, S] = {}
    worklist: Deque[int] = deque(block_in)
    queued = set(block_in)
    while worklist:
        index = worklist.popleft()
        queued.discard(index)
        block = blocks[index]
        state = block_in[index]
        for pc in block.pcs():
            state = transfer(program[pc], state)
        if index in block_out and block_out[index] == state:
            continue
        block_out[index] = state
        for succ in block.successors:
            new = state
            if succ in block_in:
                current = block_in[succ]
                if widen is not None and succ <= index:
                    new = widen(current, state, succ)
                else:
                    new = join(current, state)
                if new == current:
                    continue
            block_in[succ] = new
            if succ not in queued:
                worklist.append(succ)
                queued.add(succ)
    return block_in


def state_at(
    cfg: ControlFlowGraph,
    block_in: Mapping[int, S],
    pc: int,
    transfer: Callable[[Instruction, S], S],
    default: S,
) -> S:
    """The state just before instruction *pc*: its block's entry state
    from *block_in* (*default* for a block missing there) run through
    the block's instructions before *pc*."""
    block = cfg.block_at(pc)
    state = block_in.get(block.index, default)
    program = cfg.program
    for earlier in range(block.start, pc):
        state = transfer(program[earlier], state)
    return state


def dominator_sets(
    nodes: List[int], preds: Mapping[int, List[int]], root: int
) -> Dict[int, Set[int]]:
    """Node -> the nodes dominating it, itself included.

    Iterative set dataflow in the order of *nodes*: *root* dominates
    itself only; every other node starts from all *nodes* and shrinks to
    itself plus the intersection over its predecessors (those of
    ``preds[node]`` among *nodes*) until nothing changes.  Post-dominators
    are the dominators of the reversed graph: pass each node's
    successors as *preds* and the exit as *root*.
    """
    universe = set(nodes)
    dom: Dict[int, Set[int]] = {n: {n} if n == root else set(universe) for n in nodes}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if node == root:
                continue
            inputs = [dom[p] for p in preds[node] if p in universe]
            new: Set[int] = set.intersection(*inputs) if inputs else set()
            new.add(node)
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom
