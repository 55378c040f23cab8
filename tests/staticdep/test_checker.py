"""Cross-checker: soundness (recall 1.0) of the static pair set.

The central property of repro.staticdep — every dependence the dynamic
oracle observes must lie inside the static candidate set — is asserted
here for every micro workload, for the SPECint92 suite, and for
arbitrary randomly generated programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import run_program
from repro.oracle import profile_dependences
from repro.staticdep import analyze_program, cross_check, cross_check_workload
from repro.workloads import RandomProgramConfig, generate_program, suite

MICRO = [w.name for w in suite("micro")]
INT92 = [w.name for w in suite("specint92")]


@pytest.mark.parametrize("name", MICRO)
def test_every_dynamic_dependence_statically_covered_micro(name):
    """The issue's acceptance property: recall 1.0 on all micros."""
    result = cross_check_workload(name, scale="tiny")
    assert result.sound, sorted(result.missed_pairs)
    assert result.recall == 1.0
    assert result.coverage == 1.0


@pytest.mark.parametrize("name", INT92)
def test_specint92_statically_covered(name):
    result = cross_check_workload(name, scale="tiny")
    assert result.sound, sorted(result.missed_pairs)
    assert result.recall == 1.0


def test_dynamic_pairs_match_profile():
    from repro.workloads import get_workload

    program = get_workload("micro-recurrence-d1").program("tiny")
    trace = run_program(program)
    result = cross_check(trace, analyze_program(program))
    assert result.dynamic_pairs == set(profile_dependences(trace).pairs)


def test_precision_and_recall_edge_cases():
    # a program with no memory traffic at all: vacuously perfect
    from repro.isa.assembler import Assembler

    a = Assembler("empty")
    a.li("t0", 1)
    a.halt()
    program = a.assemble()
    result = cross_check(run_program(program), analyze_program(program))
    assert result.precision == 1.0
    assert result.recall == 1.0
    assert result.coverage == 1.0
    assert result.sound


random_configs = st.builds(
    RandomProgramConfig,
    tasks=st.integers(min_value=2, max_value=12),
    body_ops=st.integers(min_value=1, max_value=5),
    loads_per_task=st.integers(min_value=1, max_value=3),
    stores_per_task=st.integers(min_value=1, max_value=3),
    shared_words=st.integers(min_value=1, max_value=6),
    branch_probability=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**16),
)


@settings(max_examples=25, deadline=None)
@given(config=random_configs)
def test_static_set_sound_on_random_programs(config):
    """Over-approximation holds for programs nobody hand-tuned."""
    program = generate_program(config)
    result = cross_check(run_program(program), analyze_program(program))
    assert result.sound, sorted(result.missed_pairs)
