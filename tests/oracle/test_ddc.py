"""Tests for the Data Dependence Cache."""

import pytest

from repro.oracle import DataDependenceCache, simulate_ddc, simulate_ddc_sizes
from repro.oracle.window_model import analyze_window
from repro.workloads import get_workload


def test_first_access_is_a_miss_then_hit():
    ddc = DataDependenceCache(4)
    assert ddc.access((1, 2)) is False
    assert ddc.access((1, 2)) is True
    assert ddc.hits == 1 and ddc.misses == 1


def test_capacity_evicts_lru():
    ddc = DataDependenceCache(2)
    ddc.access((1, 1))
    ddc.access((2, 2))
    ddc.access((1, 1))          # refresh (1,1); (2,2) becomes LRU
    ddc.access((3, 3))          # evicts (2,2)
    assert (1, 1) in ddc
    assert (2, 2) not in ddc
    assert (3, 3) in ddc
    assert len(ddc) == 2


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        DataDependenceCache(0)


def test_simulate_ddc_counts():
    events = [(1, 2), (1, 2), (3, 4), (1, 2)]
    result = simulate_ddc(events, capacity=8)
    assert result.accesses == 4
    assert result.misses == 2
    assert result.miss_rate == 0.5
    assert result.miss_rate_percent == 50.0


def test_simulate_ddc_sizes_accepts_generator():
    events = ((i % 3, i % 3) for i in range(30))
    results = simulate_ddc_sizes(events, (1, 2, 4))
    assert set(results) == {1, 2, 4}
    # all sizes saw the same stream
    assert all(r.accesses == 30 for r in results.values())


def test_miss_rate_monotone_in_capacity():
    """Larger DDCs never miss more (LRU inclusion property)."""
    trace = get_workload("gcc").trace("tiny")
    events = analyze_window(trace, 128).events
    results = simulate_ddc_sizes(events, (2, 8, 32, 128, 512))
    rates = [results[c].miss_rate for c in (2, 8, 32, 128, 512)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_moderate_ddc_captures_most_dependences():
    """Paper Table 5/7 shape: moderate DDC sizes -> low miss rates."""
    for name in ("compress", "espresso", "sc", "xlisp"):
        trace = get_workload(name).trace("tiny")
        events = analyze_window(trace, 128).events
        if not events:
            continue
        result = simulate_ddc(events, 64)
        assert result.miss_rate < 0.10, name
