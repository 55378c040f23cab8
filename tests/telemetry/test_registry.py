"""Tests for metric instruments and the registry."""

import json

import pytest

from repro.telemetry import (
    NULL_METRICS,
    Histogram,
    MetricRegistry,
    NullMetricRegistry,
)


def test_counter_lazy_and_stable():
    reg = MetricRegistry()
    c = reg.counter("x")
    c.inc()
    c.inc(4)
    assert reg.counter("x") is c
    assert reg.to_dict()["counters"]["x"] == 5


def test_gauge_last_value_wins():
    reg = MetricRegistry()
    reg.gauge("g").set(1)
    reg.gauge("g").set(7)
    assert reg.to_dict()["gauges"]["g"] == 7


def test_kind_conflict_raises():
    reg = MetricRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")
    with pytest.raises(ValueError):
        reg.histogram("x")
    with pytest.raises(ValueError):
        reg.series("x")


def test_histogram_power_of_two_buckets():
    h = Histogram(max_exponent=4)
    for v in (0, 1, 2, 3, 4, 15):
        h.observe(v)
    d = h.to_dict()
    assert d["count"] == 6
    assert d["sum"] == 25
    assert d["min"] == 0
    assert d["max"] == 15
    # bucket le=0 holds the zero; le=1 holds 1; le=3 holds 2 and 3;
    # le=7 holds 4; le=15 holds 15
    by_le = {b["le"]: b["count"] for b in d["buckets"]}
    assert by_le == {0: 1, 1: 1, 3: 2, 7: 1, 15: 1}
    assert d["overflow"] == 0


def test_histogram_overflow_bucket():
    h = Histogram(max_exponent=2)
    h.observe(100)
    d = h.to_dict()
    assert d["overflow"] == 1
    assert d["max"] == 100


def test_histogram_mean_of_empty_is_zero():
    assert Histogram().mean == 0.0


def test_series_preserves_sample_order():
    reg = MetricRegistry()
    s = reg.series("occ")
    s.sample(0, 1)
    s.sample(5, 3)
    s.sample(9, 2)
    assert reg.to_dict()["series"]["occ"] == [[0, 1], [5, 3], [9, 2]]


def test_to_dict_is_json_serializable():
    reg = MetricRegistry()
    reg.counter("c").inc()
    reg.gauge("g").set(1.5)
    reg.histogram("h").observe(3)
    reg.series("s").sample(1, 2)
    payload = json.loads(json.dumps(reg.to_dict()))
    assert set(payload) == {"counters", "gauges", "histograms", "series"}


def test_null_registry_is_disabled_and_inert():
    assert NULL_METRICS.enabled is False
    assert MetricRegistry().enabled is True
    null = NullMetricRegistry()
    null.counter("a").inc(10)
    null.gauge("b").set(3)
    null.histogram("c").observe(4)
    null.series("d").sample(1, 2)
    d = null.to_dict()
    assert d == {"counters": {}, "gauges": {}, "histograms": {}, "series": {}}
    # shared instruments: no per-call allocation
    assert null.counter("a") is null.counter("zzz")


def test_histogram_to_dict_carries_max_exponent_and_overflow():
    h = Histogram(max_exponent=4)
    h.observe(3)
    h.observe(1000)  # overflow for a 4-exponent histogram
    payload = h.to_dict()
    assert payload["max_exponent"] == 4
    assert payload["overflow"] == 1
