"""Unit tests for the program dependence graph and its slices.

The worked example throughout is ``examples/programs/prefix_sum.s``:

    pc  0  li   s1, 0x2000
    pc  1  li   s3, 0
    pc  2  li   s4, 16
    pc  3  lw   t0, 0(s1)     (task entry; NO-alias the sum store)
    pc  4  lw   t1, -4(s1)    (MUST-alias pc 6 at distance 1)
    pc  5  add  t1, t1, t0
    pc  6  sw   t1, 4(s1)
    pc  7  addi s1, s1, 8
    pc  8  addi s3, s3, 1
    pc  9  blt  s3, s4, loop
    pc 10  halt
"""

import pytest

from repro.isa.parser import parse_assembly, parse_file
from repro.staticdep import (
    CTRL_EDGE,
    LOOP_CARRIED_CUTOFF,
    MEM_EDGE,
    REG_EDGE,
    TOO_EXPENSIVE,
    WARMABLE,
    ProgramDependenceGraph,
    SliceBudget,
    build_pdg,
    extract_predictor_slices,
    pdg_report,
    slice_report,
)

PREFIX_SUM = "examples/programs/prefix_sum.s"
HISTOGRAM = "examples/programs/histogram.s"
TABLE_WALK = "examples/programs/table_walk.s"


@pytest.fixture(scope="module")
def prefix_pdg():
    return build_pdg(parse_file(PREFIX_SUM))


@pytest.fixture(scope="module")
def histogram_pdg():
    return build_pdg(parse_file(HISTOGRAM))


# -- graph construction ------------------------------------------------------


def test_nodes_are_reachable_instructions(prefix_pdg):
    assert prefix_pdg.reachable_pcs() == list(range(11))


def test_register_edges_are_def_use_chains(prefix_pdg):
    pairs = {(e.src, e.dst) for e in prefix_pdg.register_edges}
    # the add at pc 5 consumes both loads
    assert (3, 5) in pairs and (4, 5) in pairs
    # the store's value comes from the add, its address from the
    # induction update (loop) or the li (first iteration)
    assert (5, 6) in pairs and (7, 6) in pairs and (0, 6) in pairs
    # the latch branch reads both counters
    assert (8, 9) in pairs and (2, 9) in pairs
    for edge in prefix_pdg.register_edges:
        assert edge.kind == REG_EDGE


def test_register_edge_labels_are_register_names(prefix_pdg):
    labels = {
        (e.src, e.dst): e.label for e in prefix_pdg.register_edges
    }
    assert labels[(5, 6)] == "t1"
    assert labels[(3, 5)] == "t0"


def test_store_defines_no_register(prefix_pdg):
    # no register edge may originate at the store: SW writes memory only
    assert all(e.src != 6 for e in prefix_pdg.register_edges)


def test_single_block_loop_body_is_control_dependent_on_latch(prefix_pdg):
    ctrl = {(e.src, e.dst) for e in prefix_pdg.control_edges}
    # the whole loop body (pcs 3..9) re-executes only if the blt at
    # pc 9 is taken: reflexive post-dominance must not hide this
    for pc in range(3, 10):
        assert (9, pc) in ctrl
    # straight-line prologue and halt depend on nothing
    assert all(dst not in (0, 1, 2, 10) for _, dst in ctrl)
    for edge in prefix_pdg.control_edges:
        assert edge.kind == CTRL_EDGE


#: a loop that nothing leaves: the task loop at pc 4 only spins, and
#: only the bne at pc 3 reaches the halt
SPIN = """
        li   s0, 0x1000
        li   s1, 0
        lw   t1, 0(s0)
        bne  t1, zero, done
spin:
        .task
        lw   t0, 4(s0)
        beq  t0, zero, skip
        addi s1, s1, 1
skip:
        blt  s1, t0, other
        sw   s1, 4(s0)
other:
        addi s0, s0, 4
        j    spin
done:
        halt
"""


def test_branches_inside_a_loop_nothing_leaves_control_their_arms():
    # the loop's latch flows to the virtual exit, so its blocks get
    # real post-dominators instead of the maximal set
    ctrl = {(e.src, e.dst) for e in build_pdg(parse_assembly(SPIN)).control_edges}
    assert (5, 6) in ctrl  # the beq guards the addi
    assert (7, 8) in ctrl  # the blt guards the sw
    assert (3, 11) in ctrl  # the bne guards the halt


def test_memory_edges_carry_verdicts_and_distances(prefix_pdg):
    by_pair = {(e.src, e.dst): e for e in prefix_pdg.memory_edges}
    must = by_pair[(6, 4)]
    assert must.kind == MEM_EDGE
    assert must.label == "must"
    assert must.distance == 1
    assert by_pair[(6, 3)].label == "no"


def test_summary_counts_match_edge_lists(prefix_pdg):
    summary = prefix_pdg.summary()
    assert summary["nodes"] == 11
    assert summary["register_edges"] == len(prefix_pdg.register_edges)
    assert summary["control_edges"] == len(prefix_pdg.control_edges)
    assert summary["memory_edges"] == len(prefix_pdg.memory_edges)
    assert sum(summary["memory_edges_by_verdict"].values()) == len(
        prefix_pdg.memory_edges
    )


def test_build_pdg_accepts_shared_analysis():
    from repro.staticdep import analyze_program_symbolic

    program = parse_file(PREFIX_SUM)
    analysis = analyze_program_symbolic(program)
    pdg = build_pdg(program, analysis=analysis)
    assert pdg.analysis is analysis


# -- backward slices ---------------------------------------------------------


def test_address_slice_of_store_excludes_value_chain(prefix_pdg):
    sl = prefix_pdg.slice_backward(6, "address")
    # address chain: li + induction update, plus the control skeleton
    # and its inputs
    assert {0, 6, 7, 9, 10, 1, 2, 8} <= sl.pcs
    # the loads and the add feed only the stored *value*
    assert 3 not in sl.pcs and 4 not in sl.pcs and 5 not in sl.pcs
    assert not sl.loop_carried
    assert sl.cost.length == len(sl.pcs)
    assert sl.cost.loads == 0


def test_value_slice_of_store_pulls_value_chain_and_memory_closure(prefix_pdg):
    sl = prefix_pdg.slice_backward(6, "value")
    # the stored value needs both loads, and the MUST-aliased prior
    # store (pc 6 itself) via the memory closure of the demanded load
    assert {3, 4, 5, 6} <= sl.pcs
    assert sl.cost.loads == 2


def test_full_slice_contains_address_and_value_slices(prefix_pdg):
    addr = prefix_pdg.slice_backward(6, "address").pcs
    value = prefix_pdg.slice_backward(6, "value").pcs
    full = prefix_pdg.slice_backward(6, "full").pcs
    assert addr | value <= full


def test_slice_contains_control_skeleton(prefix_pdg):
    sl = prefix_pdg.slice_backward(4, "address")
    assert {9, 10} <= sl.pcs  # blt + halt


def test_slice_rejects_unreachable_pc(prefix_pdg):
    with pytest.raises(ValueError):
        prefix_pdg.slice_backward(99)


def test_slice_rejects_unknown_criterion(prefix_pdg):
    with pytest.raises(ValueError):
        prefix_pdg.slice_backward(6, "bogus")


def test_loop_carried_address_is_flagged(histogram_pdg):
    # histogram's bucket address comes from a loaded value whose load
    # MAY-alias the bucket store of a previous iteration: the address
    # slice cannot run ahead of the iteration that feeds it
    program = histogram_pdg.program
    flagged = [
        histogram_pdg.slice_backward(pc, "value").loop_carried
        for pc in histogram_pdg.reachable_pcs()
        if program[pc].is_store
    ]
    assert any(flagged)


# -- predictor slices --------------------------------------------------------


def test_prefix_sum_must_pair_is_warmable(prefix_pdg):
    slices = extract_predictor_slices(prefix_pdg)
    assert [s.pair for s in slices] == [(6, 4)]
    s = slices[0]
    assert s.status == WARMABLE
    assert s.verdict == "must"
    assert s.static_distance == 1
    # union of two address slices: the criterion load itself is the
    # only load — no value chains, so the NO-alias sample load stays out
    assert s.cost.loads == 1
    assert 3 not in s.pcs and 5 not in s.pcs
    assert 0 < s.cost.ratio <= 1.0


def test_histogram_pairs_hit_loop_carried_cutoff(histogram_pdg):
    slices = extract_predictor_slices(histogram_pdg)
    assert slices
    assert all(s.status == LOOP_CARRIED_CUTOFF for s in slices)


def test_table_walk_may_pair_is_warmable():
    pdg = build_pdg(parse_file(TABLE_WALK))
    slices = extract_predictor_slices(pdg)
    by_status = {s.status for s in slices}
    assert by_status == {WARMABLE}
    assert any(s.verdict == "may" for s in slices)


def test_tight_budget_marks_slices_too_expensive(prefix_pdg):
    slices = extract_predictor_slices(prefix_pdg, SliceBudget(max_length=1))
    assert all(s.status == TOO_EXPENSIVE for s in slices)


# -- exports -----------------------------------------------------------------


def test_dot_export_renders_all_edge_kinds(prefix_pdg):
    dot = prefix_pdg.to_dot()
    assert dot.startswith("digraph pdg {")
    assert dot.rstrip().endswith("}")
    for pc in prefix_pdg.reachable_pcs():
        assert "n%d [label=" % pc in dot
    assert 'label="must d=1"' in dot
    assert "style=dashed" in dot  # control edges
    assert 'label="t1"' in dot  # register edge


def test_pdg_report_payload_shape():
    report = pdg_report(build_pdg(parse_file(PREFIX_SUM)))
    assert report["program"] == "prefix-sum"
    assert report["summary"]["predictor_slices"] == len(report["slices"])
    assert report["summary"]["slices_by_status"] == {"warmable": 1}
    (entry,) = report["slices"]
    assert entry["store_pc"] == 6 and entry["load_pc"] == 4
    assert entry["pcs"] == sorted(entry["pcs"])
    assert entry["cost"]["length"] == len(entry["pcs"])


def test_slice_report_lists_instructions():
    report = slice_report(parse_file(PREFIX_SUM), 6, "address")
    assert report["criterion_pc"] == 6
    assert report["criterion"] == "address"
    assert len(report["instructions"]) == len(report["pcs"])
    assert report["instructions"][0].startswith("0: ")


def test_pdg_class_entry_point_matches_builder():
    program = parse_file(PREFIX_SUM)
    direct = ProgramDependenceGraph(program)
    built = build_pdg(program)
    assert direct.summary() == built.summary()
