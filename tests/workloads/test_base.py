"""Tests for workload infrastructure."""

import pytest

from repro.workloads import (
    MemoryLayout,
    WorkloadError,
    all_workloads,
    get_workload,
    resolve_scale,
    scaled,
    suite,
)


def test_resolve_named_scales():
    assert resolve_scale("ref") == 1.0
    assert resolve_scale("tiny") < resolve_scale("test") < resolve_scale("ref")
    assert resolve_scale("large") > 1.0


def test_resolve_numeric_scale():
    assert resolve_scale(2) == 2.0
    assert resolve_scale(0.5) == 0.5


def test_resolve_rejects_bad_scales():
    with pytest.raises(WorkloadError):
        resolve_scale("huge")
    with pytest.raises(WorkloadError):
        resolve_scale(0)
    with pytest.raises(WorkloadError):
        resolve_scale(-1)


def test_scaled_applies_minimum():
    assert scaled(100, "tiny") == 5
    assert scaled(4, "tiny", minimum=10) == 10


def test_get_workload_known_and_unknown():
    assert get_workload("compress").name == "compress"
    with pytest.raises(WorkloadError):
        get_workload("doom")


def test_suites_have_expected_members():
    int92 = {w.name for w in suite("specint92")}
    assert int92 == {"compress", "espresso", "gcc", "sc", "xlisp"}
    int95 = {w.name for w in suite("specint95")}
    assert int95 == {
        "go",
        "m88ksim",
        "gcc95",
        "compress95",
        "li",
        "ijpeg",
        "perl",
        "vortex",
    }
    fp95 = {w.name for w in suite("specfp95")}
    assert len(fp95) == 10
    assert {"tomcatv", "swim", "su2cor", "fpppp", "wave5"} <= fp95


def test_unknown_suite_rejected():
    with pytest.raises(WorkloadError):
        suite("specint2000")


def test_all_workloads_sorted_and_unique():
    names = [w.name for w in all_workloads()]
    assert names == sorted(names)
    assert len(names) == len(set(names)) == 32
    assert sum(1 for w in all_workloads() if w.suite == "micro") == 9


def test_memory_layout_regions_disjoint_and_aligned():
    layout = MemoryLayout(base=0x1000, align=64)
    a = layout.region("a", 3)
    b = layout.region("b", 100)
    c = layout.region("c", 1)
    spans = []
    for name, (base, words) in layout.regions.items():
        assert base % 4 == 0
        spans.append((base, base + 4 * words))
    spans.sort()
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2, "regions overlap"
    assert a == 0x1000
    assert b > a and c > b


def test_memory_layout_rejects_duplicates():
    layout = MemoryLayout()
    layout.region("x", 1)
    with pytest.raises(WorkloadError):
        layout.region("x", 1)
