"""Tests for the dependence profiler."""

import pytest

from repro.frontend import run_program
from repro.isa import Assembler
from repro.oracle import profile_dependences
from repro.workloads import get_workload


def simple_recurrence_trace(iterations=10):
    a = Assembler("prof")
    a.li("s1", 0x100)
    a.li("s3", 0)
    a.li("s4", iterations)
    a.label("loop")
    a.task_begin()
    a.addi("s3", "s3", 1)
    a.lw("t0", "s1", 0)
    a.addi("t0", "t0", 1)
    a.sw("t0", "s1", 0)
    a.blt("s3", "s4", "loop")
    a.halt()
    return run_program(a.assemble())


def test_single_pair_profile():
    trace = simple_recurrence_trace()
    profile = profile_dependences(trace)
    assert len(profile.pairs) == 1
    (pair,) = profile.pairs.values()
    assert pair.dynamic_count == 9  # first load reads initial memory
    assert pair.modal_task_distance == 1
    assert pair.distance_stability() == 1.0
    assert pair.address_invariant()


def test_counts_are_consistent():
    trace = simple_recurrence_trace()
    profile = profile_dependences(trace)
    assert profile.total_loads == 10
    assert profile.dependent_loads == 9
    assert profile.summary()["static_pairs"] == 1


def test_top_pairs_ordering():
    trace = get_workload("compress").trace("tiny")
    profile = profile_dependences(trace)
    top = profile.top_pairs(5)
    counts = [p.dynamic_count for p in top]
    assert counts == sorted(counts, reverse=True)
    assert top[0].dynamic_count >= 10


def test_pairs_for_coverage_bounds():
    trace = get_workload("compress").trace("tiny")
    profile = profile_dependences(trace)
    assert 1 <= profile.pairs_for_coverage(0.5) <= profile.pairs_for_coverage(0.999)
    assert profile.pairs_for_coverage(0.999) <= len(profile.pairs)
    with pytest.raises(ValueError):
        profile.pairs_for_coverage(0)


def test_empty_profile_for_streaming_kernel():
    trace = get_workload("swim").trace("tiny")
    profile = profile_dependences(trace)
    assert profile.dependent_loads == 0
    assert profile.pairs == {}
    assert profile.pairs_for_coverage() == 0


def test_unstable_pairs_flagged_for_gcc():
    """gcc's aux-revisit pair conflicts at distances 1..4 — exactly the
    DIST-tag-hostile behaviour the profiler should flag."""
    trace = get_workload("gcc").trace("test")
    profile = profile_dependences(trace)
    unstable = profile.unstable_pairs(threshold=0.9)
    assert unstable
    worst = min(unstable, key=lambda p: p.distance_stability())
    assert worst.distinct_task_distances >= 2


def test_stencil_pairs_are_perfectly_stable():
    trace = get_workload("tomcatv").trace("tiny")
    profile = profile_dependences(trace)
    for pair in profile.pairs.values():
        if pair.dynamic_count > 5:
            assert pair.distance_stability() > 0.95
