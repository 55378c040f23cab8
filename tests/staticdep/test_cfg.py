"""CFG construction: block boundaries, edges, reachability, distances."""

from repro.isa.assembler import Assembler
from repro.staticdep import build_cfg


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
