"""Tests for the Multiscalar configuration (paper Table 2 / Section 5.2)."""

import pytest

from repro.isa.opcodes import FUClass, Opcode, OPCODE_CLASS
from repro.multiscalar import FU_COUNTS, FU_LATENCIES, MultiscalarConfig


def test_every_fu_class_has_latency_and_count():
    for cls in FUClass:
        assert cls in FU_LATENCIES
        assert cls in FU_COUNTS
        assert FU_LATENCIES[cls] >= 1
        assert FU_COUNTS[cls] >= 1


def test_every_opcode_class_covered():
    for op in Opcode:
        assert OPCODE_CLASS[op] in FU_LATENCIES


def test_table2_latency_relationships():
    """The paper's Table 2 orderings: simple < complex integer; SP FP
    divide < DP FP divide; sqrt slowest."""
    assert FU_LATENCIES[FUClass.SIMPLE_INT] < FU_LATENCIES[FUClass.COMPLEX_INT]
    assert FU_LATENCIES[FUClass.FP_ADD_SP] <= FU_LATENCIES[FUClass.FP_MUL_SP]
    assert FU_LATENCIES[FUClass.FP_MUL_SP] < FU_LATENCIES[FUClass.FP_DIV_SP]
    assert FU_LATENCIES[FUClass.FP_DIV_SP] < FU_LATENCIES[FUClass.FP_DIV_DP]
    assert FU_LATENCIES[FUClass.FP_SQRT_DP] >= FU_LATENCIES[FUClass.FP_DIV_DP]


def test_paper_fu_counts():
    """2 simple integer FUs, 1 of everything else (Section 5.2)."""
    assert FU_COUNTS[FUClass.SIMPLE_INT] == 2
    assert FU_COUNTS[FUClass.COMPLEX_INT] == 1
    assert FU_COUNTS[FUClass.BRANCH] == 1
    assert FU_COUNTS[FUClass.MEMORY] == 1


def test_standard_configurations():
    """The defaults are the paper's 4-stage, 2-wide configuration."""
    assert MultiscalarConfig().stages == 4
    assert MultiscalarConfig().issue_width == 2
    assert MultiscalarConfig(stages=8).issue_width == 2


def test_cache_config_banks_scale_with_stages():
    assert MultiscalarConfig(stages=4).make_cache_config().banks == 8
    assert MultiscalarConfig(stages=8).make_cache_config().banks == 16


def test_config_validation():
    with pytest.raises(ValueError):
        MultiscalarConfig(stages=0)
    with pytest.raises(ValueError):
        MultiscalarConfig(issue_width=0)
    with pytest.raises(ValueError):
        MultiscalarConfig(rs_window=0)


def test_config_is_mutable_per_instance():
    cfg = MultiscalarConfig()
    cfg.fu_latencies[FUClass.SIMPLE_INT] = 2
    assert FU_LATENCIES[FUClass.SIMPLE_INT] == 1  # global table untouched
