"""Differential tests: the static analyses against plain references.

``reference.py`` keeps the direct algorithms the analyses replaced: an
instruction-level walk per reachability query, an instruction-level
0-1 BFS per task-distance query, and a backward slice closed from
scratch per call.  These tests hold the two equal:

* reachability without back edges and minimum task distance, for every
  pair of reachable PCs of a small program, and for every candidate
  (store, load) and (store, store) pair of a workload;
* every classified pair's static distance;
* the PCs, cost and loop-carried flag of every reachable PC's backward
  slice under each criterion;
* the whole :func:`extract_predictor_slices` list;
* the dataflow analyses against the per-analysis loops the shared
  helpers replaced: ``state_before`` of reaching stores, the symbolic
  interpreter and register taint at every PC (with the taint pass's
  load and store-data taints), the PDG's use-definitions, control edges
  and post-dominator sets, the symbolic dominator sets, and every
  load's transmitters.

Random programs come from ``random_gen`` (one loop with forward
branches), with a few task-entry marks toggled so blocks start tasks
mid-block or hold several task entries.  They yield no lagged MUST
pair, so strided loops, with one or two tasks per iteration, cover
the static distance of a dependence several iterations long.  Some
declare their first shared words secret, so the taint pass has a
secret range to propagate.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Assembler
from repro.isa.parser import parse_file
from repro.staticdep import analyze_program_symbolic, build_pdg, extract_predictor_slices
from repro.staticdep.cfg import TaskDistances
from repro.staticdep.pdg import SLICE_CRITERIA
from repro.staticdep.spectaint import TaintSolution, _TransmitterSlice, valid_ranges
from repro.workloads import all_workloads
from repro.workloads.random_gen import RandomProgramConfig, generate_program
from tests.staticdep import reference

EXAMPLES = sorted(Path("examples/programs").glob("*.s"))

configs = st.builds(
    RandomProgramConfig,
    tasks=st.integers(min_value=1, max_value=8),
    body_ops=st.integers(min_value=0, max_value=6),
    loads_per_task=st.integers(min_value=0, max_value=3),
    stores_per_task=st.integers(min_value=0, max_value=3),
    shared_words=st.integers(min_value=1, max_value=8),
    branch_probability=st.floats(min_value=0.0, max_value=0.8),
    secret_words=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)


@st.composite
def random_programs(draw):
    program = generate_program(draw(configs))
    for pc in draw(st.sets(st.integers(0, len(program) - 1), max_size=4)):
        program[pc].task_entry = not program[pc].task_entry
    return program


def assert_paths_match(analysis, pairs):
    """Reachability and task distance agree on every (src, dst) pair."""
    cfg, solution = analysis.cfg, analysis.solution
    by_source = {}
    for src, dst in pairs:
        if src not in by_source:
            by_source[src] = TaskDistances(cfg, src)
        assert solution.reaches_without_back_edge(
            src, dst
        ) == reference.reaches_without_back_edge(solution, src, dst), (src, dst)
        assert by_source[src].to(dst) == reference.min_task_distance(cfg, src, dst), (src, dst)


def assert_static_distances_match(analysis):
    for pair in analysis.classified:
        assert pair.static_distance == reference.static_distance(
            analysis.solution, pair.store_pc, pair.load_pc, pair.lag
        ), pair.pair


def assert_slices_match(pdg):
    for pc in pdg.reachable_pcs():
        for criterion in SLICE_CRITERIA:
            got = pdg.slice_backward(pc, criterion)
            want = reference.slice_backward(pdg, pc, criterion)
            assert (got.pcs, got.cost, got.loop_carried) == (
                want.pcs,
                want.cost,
                want.loop_carried,
            ), (pc, criterion)
    assert extract_predictor_slices(pdg) == reference.extract_predictor_slices(pdg)


def assert_dataflow_matches(program):
    """The shared solver gives what each analysis's own loop gave."""
    analysis = analyze_program_symbolic(program)
    cfg, reaching, solution = analysis.cfg, analysis.reaching, analysis.solution
    pcs = range(len(program))
    old_reaching = reference.WorklistReachingStores(program, cfg)
    for pc in pcs:
        assert reaching.state_before(pc) == old_reaching.state_before(pc), pc
    old_solution = reference.WorklistSymbolicSolution(program, cfg)
    for pc in pcs:
        assert solution.state_before(pc) == old_solution.state_before(pc), pc
    assert solution.dominators() == old_solution.dominators()

    pdg = build_pdg(program, analysis=analysis)
    old_pdg = reference.WorklistPDG(program, analysis=analysis)
    assert pdg._use_defs == old_pdg._use_defs
    assert pdg._post_dominators() == old_pdg._post_dominators()
    assert pdg.control_edges == old_pdg.control_edges

    ranges = valid_ranges(program.secret_ranges)
    taint = TaintSolution(program, cfg, solution, reaching, ranges)
    old_taint = reference.WorklistTaintSolution(program, cfg, solution, reaching, ranges)
    assert taint.load_taints == old_taint.load_taints
    assert taint.store_data_taints == old_taint.store_data_taints
    for pc in pcs:
        assert taint.taint_before(pc) == old_taint.taint_before(pc), pc

    pair_set = frozenset(analysis.pair_set)
    slicer = _TransmitterSlice(program, cfg, pair_set)
    old_slicer = reference.WorklistTransmitterSlice(program, cfg, pair_set)
    for pc in program.static_loads():
        assert slicer.transmitters(pc) == old_slicer.transmitters(pc), pc


def assert_all_pairs_match(program):
    analysis = analyze_program_symbolic(program)
    pcs = build_pdg(program, analysis=analysis).reachable_pcs()
    assert_paths_match(analysis, [(src, dst) for src in pcs for dst in pcs])
    assert_static_distances_match(analysis)


@settings(max_examples=40, deadline=None)
@given(program=random_programs())
def test_random_program_paths_match_reference(program):
    assert_all_pairs_match(program)


@settings(max_examples=40, deadline=None)
@given(program=random_programs())
def test_random_program_slices_match_reference(program):
    assert_slices_match(build_pdg(program))


@settings(max_examples=40, deadline=None)
@given(program=random_programs())
def test_random_program_dataflow_matches_reference(program):
    assert_dataflow_matches(program)


def strided_loop(load_back, tasks_per_iteration):
    """Each iteration loads the word stored *load_back* iterations
    earlier, then stores its own."""
    a = Assembler("strided")
    a.li("s1", 4096)
    a.li("t3", 0)
    a.li("t4", 32)
    a.label("loop")
    a.task_begin()
    a.lw("t0", "s1", -4 * load_back)
    if tasks_per_iteration == 2:
        a.task_begin()
    a.addi("t0", "t0", 1)
    a.sw("t0", "s1", 0)
    a.addi("s1", "s1", 4)
    a.addi("t3", "t3", 1)
    a.blt("t3", "t4", "loop")
    a.halt()
    return a.assemble()


@pytest.mark.parametrize("tasks_per_iteration", [1, 2])
@pytest.mark.parametrize("load_back", [1, 2, 3])
def test_strided_loop_matches_reference(load_back, tasks_per_iteration):
    program = strided_loop(load_back, tasks_per_iteration)
    assert [p.lag for p in analyze_program_symbolic(program).classified] == [load_back]
    assert_all_pairs_match(program)


@pytest.mark.parametrize("program_path", EXAMPLES, ids=lambda p: p.stem)
def test_example_program_matches_reference(program_path):
    program = parse_file(str(program_path))
    assert_all_pairs_match(program)
    assert_slices_match(build_pdg(program))
    assert_dataflow_matches(program)


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_workload_matches_reference(workload):
    program = workload.program("tiny")
    analysis = analyze_program_symbolic(program)
    pairs = set()
    for pair in analysis.classified:
        pairs.add((pair.store_pc, pair.load_pc))
        pairs.add((pair.store_pc, pair.store_pc))
    assert_paths_match(analysis, sorted(pairs))
    assert_static_distances_match(analysis)
    assert_slices_match(build_pdg(program, analysis=analysis))
    assert_dataflow_matches(program)
