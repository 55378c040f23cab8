"""CFG construction: block boundaries, edges, reachability, distances,
and the dataflow helpers every analysis runs on."""

from pathlib import Path

import pytest

from repro.isa.assembler import Assembler
from repro.isa.parser import parse_file
from repro.staticdep import build_cfg, build_pdg
from repro.staticdep.cfg import dominator_sets, solve_forward, state_at
from repro.staticdep.symbolic import SymbolicSolution

EXAMPLES = sorted(Path("examples/programs").glob("*.s"))


def straight_line():
    a = Assembler("straight")
    a.li("t0", 1)
    a.addi("t0", "t0", 1)
    a.halt()
    return a.assemble()


def loop_program():
    a = Assembler("loop")
    a.li("s3", 0)          # 0
    a.li("s4", 4)          # 1
    a.label("loop")
    a.task_begin()
    a.addi("s3", "s3", 1)  # 2
    a.blt("s3", "s4", "loop")  # 3
    a.halt()               # 4
    return a.assemble()


def diamond_program():
    a = Assembler("diamond")
    a.li("t0", 1)              # 0
    a.beq("t0", "zero", "else_")  # 1
    a.addi("t1", "t0", 1)      # 2 (then)
    a.j("join")                # 3
    a.label("else_")
    a.addi("t1", "t0", 2)      # 4
    a.label("join")
    a.halt()                   # 5
    return a.assemble()


def test_straight_line_is_one_block():
    cfg = build_cfg(straight_line())
    assert len(cfg) == 1
    assert cfg.blocks[0].start == 0 and cfg.blocks[0].end == 3
    assert cfg.blocks[0].successors == []


def test_loop_back_edge():
    cfg = build_cfg(loop_program())
    body = cfg.block_at(2)
    assert body.start == 2 and body.end == 4
    # conditional branch: taken target (itself) and fall-through (halt)
    assert set(body.successors) == {body.index, cfg.block_at(4).index}
    assert cfg.block_at(4).successors == []


def test_diamond_edges_and_block_count():
    cfg = build_cfg(diamond_program())
    entry = cfg.block_at(0)
    then = cfg.block_at(2)
    else_ = cfg.block_at(4)
    join = cfg.block_at(5)
    assert set(entry.successors) == {then.index, else_.index}
    assert then.successors == [join.index]
    assert else_.successors == [join.index]
    assert entry.index in then.predecessors


def test_all_blocks_reachable_in_diamond():
    cfg = build_cfg(diamond_program())
    assert cfg.unreachable_blocks() == []
    assert set(cfg.reachable_blocks()) == {b.index for b in cfg.blocks}


def test_unreachable_block_detected():
    a = Assembler("dead")
    a.li("t0", 1)
    a.j("end")
    a.label("orphan")
    a.addi("t0", "t0", 1)  # pc 2: unreachable
    a.label("end")
    a.halt()
    cfg = build_cfg(a.assemble())
    dead = cfg.unreachable_blocks()
    assert [b.start for b in dead] == [2]


def test_instruction_successors_within_and_across_blocks():
    cfg = build_cfg(loop_program())
    assert cfg.instruction_successors(0) == [1]
    assert cfg.instruction_successors(2) == [3]
    assert sorted(cfg.instruction_successors(3)) == [2, 4]


def test_min_task_distance_counts_task_crossings():
    program = loop_program()
    cfg = build_cfg(program)
    # from the add (pc 2) around the back edge to itself: one task entry
    assert cfg.min_task_distance(2, 2) == 1
    # forward within the same task: zero crossings
    assert cfg.min_task_distance(2, 3) == 0
    # no path from halt anywhere
    assert cfg.min_task_distance(4, 2) is None


def test_jr_through_ra_uses_return_sites():
    a = Assembler("call")
    a.jal("sub")          # 0
    a.halt()              # 1 (return site)
    a.label("sub")
    a.addi("t0", "zero", 1)  # 2
    a.jr("ra")            # 3
    cfg = build_cfg(a.assemble())
    ret_block = cfg.block_at(3)
    assert cfg.block_at(1).index in ret_block.successors
    assert cfg.unreachable_blocks() == []


def test_computed_jr_targets_all_labels():
    a = Assembler("jumptable")
    a.li("t1", 3)          # 0 (pretend: loaded from a jump table)
    a.jr("t1")             # 1
    a.label("site0")
    a.addi("t0", "zero", 1)  # 2
    a.halt()               # 3
    a.label("site1")
    a.addi("t0", "zero", 2)  # 4
    a.halt()               # 5
    cfg = build_cfg(a.assemble())
    jr_block = cfg.block_at(1)
    targets = {cfg.blocks[s].start for s in jr_block.successors}
    assert {2, 4} <= targets
    assert cfg.unreachable_blocks() == []


def loop_with_join():
    a = Assembler("loop_with_join")
    a.li("t0", 0)              # 0  block 0
    a.li("t1", 4)              # 1
    a.label("loop")
    a.beq("t0", "t2", "skip")  # 2  block 1
    a.addi("t2", "t2", 1)      # 3  block 2
    a.label("skip")
    a.addi("t0", "t0", 1)      # 4  block 3: joins blocks 1 and 2
    a.blt("t0", "t1", "loop")  # 5  back edge to block 1
    a.halt()                   # 6  block 4
    return a.assemble()


def executed(inst, state):
    """A transfer for the tests: the PCs run on some path to here."""
    return state | {inst.pc}


def test_solve_forward_widens_only_on_back_edges():
    program = loop_with_join()
    cfg = build_cfg(program)
    joins, heads, visits = [], [], []

    def step(inst, state):
        if inst.pc == cfg.block_at(inst.pc).start:
            visits.append(cfg.block_at(inst.pc).index)
        return executed(inst, state)

    def join(current, incoming):
        joins.append((current, incoming))
        return current | incoming

    def widen(current, incoming, head):
        heads.append(head)
        return current | incoming

    entry = cfg.entry_block.index
    block_in = solve_forward(cfg, {entry: frozenset()}, step, join, widen)
    # first in, first out: block 1 queues 3 before 2, so 3 runs first
    assert [b.successors for b in cfg.blocks] == [[1], [3, 2], [3], [1, 4], []]
    assert visits == [0, 1, 3, 2, 1, 4, 3, 2, 1, 4, 2]
    back_heads = {head for _, head in SymbolicSolution(program, cfg).back_edges}
    assert back_heads == {cfg.block_at(2).index}
    assert heads and set(heads) == back_heads
    assert joins  # the forward join into pc 4's block
    assert block_in[cfg.block_at(2).index] == frozenset(range(6))
    assert block_in[cfg.block_at(6).index] == frozenset(range(6))
    # without a widen, the back edge joins like any other edge
    assert solve_forward(cfg, {entry: frozenset()}, executed, join) == block_in


def test_solve_forward_leaves_out_blocks_no_seed_reaches():
    a = Assembler("dead")
    a.li("t0", 1)          # 0
    a.j("end")             # 1
    a.label("orphan")
    a.addi("t0", "t0", 1)  # 2: unreachable
    a.addi("t0", "t0", 1)  # 3
    a.label("end")
    a.halt()               # 4
    cfg = build_cfg(a.assemble())
    union = frozenset.union
    block_in = solve_forward(cfg, {cfg.entry_block.index: frozenset()}, executed, union)
    assert set(block_in) == set(cfg.reachable_blocks())
    assert cfg.block_at(2).index not in block_in
    assert block_in[cfg.block_at(4).index] == {0, 1}
    # seeded past the entry, the walk starts there
    assert solve_forward(cfg, {cfg.block_at(2).index: frozenset()}, executed, union) == {
        cfg.block_at(2).index: frozenset(),
        cfg.block_at(4).index: frozenset({2, 3}),
    }
    # state_at: the block's entry state (or the default) through the prefix
    assert state_at(cfg, block_in, 1, executed, None) == {0}
    assert state_at(cfg, block_in, 3, executed, frozenset({-1})) == {-1, 2}


def test_dominator_sets_on_the_graph_and_its_reverse():
    program = diamond_program()
    cfg = build_cfg(program)
    entry, then, else_, join = (cfg.block_at(pc).index for pc in (0, 2, 4, 5))
    nodes = cfg.reachable_blocks()
    preds = {index: cfg.blocks[index].predecessors for index in nodes}
    dom = dominator_sets(nodes, preds, entry)
    assert dom == {
        entry: {entry},
        then: {entry, then},
        else_: {entry, else_},
        join: {entry, join},
    }
    assert SymbolicSolution(program, cfg).dominators() == dom
    # post-dominators: the reversed graph, rooted at a virtual exit
    exit_ = -1
    succs = {index: cfg.blocks[index].successors or [exit_] for index in nodes}
    pdom = dominator_sets([exit_] + nodes, succs, exit_)
    assert pdom == {
        exit_: {exit_},
        entry: {entry, join, exit_},
        then: {then, join, exit_},
        else_: {else_, join, exit_},
        join: {join, exit_},
    }
    assert build_pdg(program)._post_dominators() == pdom


def cut_dominators(nodes, succs, root):
    """d dominates n when n is unreachable from *root* once d is removed
    (every node, vacuously, when n is unreachable anyway)."""

    def reach(without):
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if node == without or node in seen:
                continue
            seen.add(node)
            stack.extend(succs.get(node, ()))
        return seen

    return {n: {d for d in nodes if d == n or n not in reach(d)} for n in nodes}


@pytest.mark.parametrize("program_path", EXAMPLES, ids=lambda p: p.stem)
def test_dominator_sets_match_the_cut_definition(program_path):
    program = parse_file(str(program_path))
    cfg = build_cfg(program)
    nodes = cfg.reachable_blocks()
    succs = {index: cfg.blocks[index].successors for index in nodes}
    preds = {index: cfg.blocks[index].predecessors for index in nodes}
    entry = cfg.entry_block.index
    assert dominator_sets(nodes, preds, entry) == cut_dominators(nodes, succs, entry)
    exit_ = -1
    to_exit = {index: succs[index] or [exit_] for index in nodes}
    reversed_succs = {exit_: [index for index in nodes if not succs[index]]}
    for index in nodes:
        reversed_succs[index] = [p for p in preds[index] if p in to_exit]
    assert dominator_sets([exit_] + nodes, to_exit, exit_) == cut_dominators(
        [exit_] + nodes, reversed_succs, exit_
    )
