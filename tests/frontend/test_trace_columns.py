"""Property tests for the columnar views of a trace.

The trace's columns are the source of truth; the per-entry columns of
:class:`~repro.frontend.static_index.TraceIndex` and the per-task
aggregates of :class:`~repro.frontend.columns.TraceColumns` are
derived, memoized projections that the simulator's issue loop trusts
blindly.  These properties pin them over generator-random traces: every
column equals the on-demand entry view (``rd`` uses the ``-1``
sentinel), the per-task aggregates match ``task_slices``,
serialization and pickling round-trip to identical columns, and a
``TRACE_FORMAT_VERSION`` bump invalidates both the fingerprint and any
previously serialized bytes.
"""

from pathlib import Path
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import trace_cache as tc
from repro.frontend.static_index import FU_ORDER
from repro.frontend.trace_cache import (
    TraceCache,
    TraceFormatError,
    deserialize_trace,
    program_fingerprint,
    serialize_trace,
)
from repro.workloads import RandomProgramConfig, generate_program, generate_trace

configs = st.builds(
    RandomProgramConfig,
    tasks=st.integers(min_value=1, max_value=12),
    body_ops=st.integers(min_value=0, max_value=6),
    loads_per_task=st.integers(min_value=0, max_value=3),
    stores_per_task=st.integers(min_value=0, max_value=3),
    shared_words=st.integers(min_value=1, max_value=8),
    branch_probability=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**16),
)


INDEX_COLUMNS = (
    "pc",
    "addr",
    "is_load",
    "is_store",
    "is_memory",
    "fu_code",
    "rd",
    "task_of",
    "index_in_task",
)

TASK_COLUMNS = ("task_n_instr", "task_n_loads", "task_n_stores", "task_load_seqs")


def column_lists(trace):
    """Every per-entry index column and per-task aggregate as a plain list."""
    index = trace.index()
    cols = trace.columns()
    out = {name: list(getattr(index, name)) for name in INDEX_COLUMNS}
    out.update((name, list(getattr(cols, name))) for name in TASK_COLUMNS)
    return out


@settings(max_examples=30, deadline=None)
@given(configs)
def test_columns_equal_entry_object_view(config):
    trace = generate_trace(config)
    assert trace.index().n == trace.columns().n == len(trace.entries)
    got = column_lists(trace)
    index_in_task = {}
    for entry in trace.entries:
        seq = entry.seq
        idx = index_in_task[entry.task_id] = index_in_task.get(entry.task_id, -1) + 1
        assert got["pc"][seq] == entry.pc
        assert got["addr"][seq] == entry.addr
        assert got["task_of"][seq] == entry.task_id
        assert got["is_load"][seq] == int(entry.is_load)
        assert got["is_store"][seq] == int(entry.is_store)
        assert got["is_memory"][seq] == int(entry.is_memory)
        assert got["fu_code"][seq] == FU_ORDER.index(entry.inst.fu_class)
        rd = entry.inst.rd
        assert got["rd"][seq] == (-1 if rd is None else rd)
        assert got["index_in_task"][seq] == idx


@settings(max_examples=30, deadline=None)
@given(configs)
def test_per_task_aggregates_match_task_slices(config):
    trace = generate_trace(config)
    cols = trace.columns()
    slices = trace.task_slices()
    assert cols.n_tasks == len(slices)
    for t, entries in enumerate(slices):
        assert cols.task_n_instr[t] == len(entries)
        assert cols.task_n_loads[t] == sum(1 for e in entries if e.is_load)
        assert cols.task_n_stores[t] == sum(1 for e in entries if e.is_store)
        assert cols.task_load_seqs[t] == [e.seq for e in entries if e.is_load]


@settings(max_examples=20, deadline=None)
@given(configs)
def test_columns_memoized_on_shared_index(config):
    trace = generate_trace(config)
    cols = trace.columns()
    assert trace.columns() is cols
    assert trace.index().columns() is cols
    calls = []

    def build():
        calls.append(1)
        return ("derived",)

    assert cols.derived("memo-probe", build) == ("derived",)
    assert cols.derived("memo-probe", build) == ("derived",)
    assert calls == [1]


@settings(max_examples=20, deadline=None)
@given(
    config=configs,
    banks=st.sampled_from((1, 2, 4, 8)),
    block_bytes=st.sampled_from((4, 8, 16)),
    sets_per_bank=st.sampled_from((1, 16, 64)),
)
def test_cache_geometry_matches_scalar_recompute(config, banks, block_bytes, sets_per_bank):
    trace = generate_trace(config)
    cols = trace.columns()
    bank_col, set_col, tag_col = cols.cache_geometry(banks, block_bytes, sets_per_bank)
    # memoized under the geometry key
    assert cols.cache_geometry(banks, block_bytes, sets_per_bank) == (
        bank_col, set_col, tag_col,
    )
    for entry in trace.entries:
        if entry.addr is None:
            continue
        block = entry.addr // block_bytes
        assert bank_col[entry.seq] == block % banks
        assert set_col[entry.seq] == (block // banks) % sets_per_bank
        assert tag_col[entry.seq] == block // banks // sets_per_bank


@settings(max_examples=15, deadline=None)
@given(configs)
def test_serialize_round_trip_rebuilds_identical_columns(config):
    program = generate_program(config)
    trace = generate_trace(config)
    reference = column_lists(trace)
    fingerprint = program_fingerprint(program)
    data = serialize_trace(trace, fingerprint)
    rebuilt = deserialize_trace(data, program, fingerprint)
    assert column_lists(rebuilt) == reference


@settings(max_examples=15, deadline=None)
@given(configs)
def test_pickle_strips_memos_and_rebuilds_identical_columns(config):
    trace = generate_trace(config)
    reference = column_lists(trace)
    clone = pickle.loads(pickle.dumps(trace))
    # the memoized index/columns never travel: workers rebuild them
    assert clone._index is None
    assert column_lists(clone) == reference


def test_format_version_bump_invalidates_cache(tmp_path, monkeypatch):
    program = generate_program(RandomProgramConfig(tasks=3, seed=5))
    cache = TraceCache(tmp_path)
    old_fp = program_fingerprint(program)
    old_bytes = serialize_trace(cache.get_or_run(program), old_fp)
    old_path = cache.path(old_fp)
    assert Path(old_path).exists()

    monkeypatch.setattr(tc, "TRACE_FORMAT_VERSION", tc.TRACE_FORMAT_VERSION + 1)
    new_fp = program_fingerprint(program)
    # the fingerprint (hence every on-disk artifact path and every
    # executor cache key, which folds the version in via
    # source_fingerprint) moves with the format version
    assert new_fp != old_fp
    assert cache.path(new_fp) != old_path
    # and bytes written under the old version refuse to decode
    with pytest.raises(TraceFormatError):
        deserialize_trace(old_bytes, program, new_fp)
