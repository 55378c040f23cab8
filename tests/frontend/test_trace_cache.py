"""Tests for the content-addressed trace cache and its binary format."""

import os
import pickle
import struct
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend import run_program
from repro.frontend import trace_cache as tc
from repro.frontend.trace_cache import (
    TRACE_FORMAT_VERSION,
    TraceCache,
    TraceFormatError,
    cached_run_program,
    clear_memory_cache,
    configure_trace_cache,
    deserialize_trace,
    global_trace_cache,
    program_fingerprint,
    serialize_trace,
)
from repro.isa import Assembler


@pytest.fixture(autouse=True)
def isolated_global_cache():
    """Snapshot and restore the process-global cache around each test."""
    saved_global = tc._GLOBAL
    saved_memory = dict(tc._MEMORY)
    tc._GLOBAL = None
    tc._MEMORY.clear()
    yield
    tc._GLOBAL = saved_global
    tc._MEMORY.clear()
    tc._MEMORY.update(saved_memory)


def make_program(name="cache-prog", iterations=3):
    a = Assembler(name)
    a.word(64, 7)
    a.li("a0", 64)
    a.li("t0", 0)
    a.label("loop")
    a.task_begin()
    a.lw("t1", "a0", 0)
    a.addi("t1", "t1", 1)
    a.sw("t1", "a0", 0)
    a.addi("t0", "t0", 1)
    a.slti("t2", "t0", iterations)
    a.bne("t2", "zero", "loop")
    a.halt()
    return a.assemble()


def make_exotic_values_program():
    """Stores exercising every value tag: int64, float, and bigint."""
    a = Assembler("exotic")
    a.li("a0", 128)
    a.li("t0", 2)
    a.li("t1", 1)
    a.fdiv_d("t2", "t1", "t0")      # 0.5 — a float value
    a.sw("t2", "a0", 0)
    a.li("t3", 1)
    a.sll("t3", "t3", 31)           # 2**31
    a.mul("t3", "t3", "t3")         # 2**62
    a.mul("t3", "t3", "t3")         # 2**124 — past int64
    a.sw("t3", "a0", 4)
    a.li("t4", -5)
    a.sw("t4", "a0", 8)             # plain negative int64
    a.lw("t5", "a0", 0)
    a.halt()
    return a.assemble()


def assert_traces_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.seq == b.seq
        assert a.inst is b.inst or a.inst.pc == b.inst.pc
        assert a.addr == b.addr
        assert a.value == b.value and type(a.value) is type(b.value)
        assert a.taken == b.taken
        assert a.next_pc == b.next_pc
        assert a.task_id == b.task_id
        assert a.task_pc == b.task_pc


# --- fingerprints -----------------------------------------------------------


def test_fingerprint_is_stable_and_hex():
    program = make_program()
    fp = program_fingerprint(program)
    assert fp == program_fingerprint(program)
    assert len(fp) == 64
    int(fp, 16)  # raises if not hex


def test_fingerprint_covers_program_and_budget():
    base = program_fingerprint(make_program())
    assert program_fingerprint(make_program(iterations=4)) != base
    assert program_fingerprint(make_program(name="other")) != base
    assert program_fingerprint(make_program(), max_instructions=100) != base


def test_fingerprint_covers_initial_memory():
    a = Assembler("mem")
    a.word(8, 1)
    a.halt()
    one = program_fingerprint(a.assemble())
    b = Assembler("mem")
    b.word(8, 2)
    b.halt()
    assert program_fingerprint(b.assemble()) != one


# --- binary round trip ------------------------------------------------------


def test_binary_round_trip_preserves_every_field():
    program = make_program()
    trace = run_program(program)
    clone = deserialize_trace(serialize_trace(trace), program)
    assert_traces_equal(trace, clone)


def test_binary_round_trip_float_bigint_and_none_values():
    program = make_exotic_values_program()
    trace = run_program(program)
    values = [e.value for e in trace if e.is_store]
    assert any(isinstance(v, float) for v in values)
    assert any(isinstance(v, int) and v >= 2**63 for v in values)
    clone = deserialize_trace(serialize_trace(trace), program)
    assert_traces_equal(trace, clone)


def test_deserialize_rejects_corruption():
    program = make_program()
    data = serialize_trace(run_program(program))
    with pytest.raises(TraceFormatError):
        deserialize_trace(b"XXXX" + data[4:], program)   # bad magic
    with pytest.raises(TraceFormatError):
        deserialize_trace(data[: len(data) // 2], program)  # truncated
    bad_version = data[:4] + bytes([TRACE_FORMAT_VERSION + 1]) + data[5:]
    with pytest.raises(TraceFormatError):
        deserialize_trace(bad_version, program)


def test_deserialize_checks_caller_fingerprint():
    program = make_program()
    fp = program_fingerprint(program)
    data = serialize_trace(run_program(program), fingerprint=fp)
    assert deserialize_trace(data, program, fingerprint=fp) is not None
    with pytest.raises(TraceFormatError):
        deserialize_trace(data, program, fingerprint="0" * 64)


# --- the two-layer cache ----------------------------------------------------


def test_memory_layer_returns_same_object():
    cache = TraceCache()
    program = make_program()
    first = cache.get_or_run(program)
    second = cache.get_or_run(program)
    assert first is second
    assert cache.misses == 1 and cache.memory_hits == 1


def test_disk_layer_survives_a_cold_process(tmp_path):
    program = make_program()
    warm = TraceCache(tmp_path)
    trace = warm.get_or_run(program)
    fp = program_fingerprint(program)
    stored = warm.path(fp)
    assert stored == tmp_path / fp[:2] / (fp + ".trace")
    assert stored.is_file()
    # simulate a fresh process: empty memory layer, same disk root
    clear_memory_cache()
    cold = TraceCache(tmp_path)
    reloaded = cold.get_or_run(program)
    assert cold.disk_hits == 1 and cold.misses == 0
    assert_traces_equal(trace, reloaded)


def test_corrupt_disk_entry_reads_as_miss(tmp_path):
    program = make_program()
    cache = TraceCache(tmp_path)
    cache.get_or_run(program)
    path = cache.path(program_fingerprint(program))
    path.write_bytes(b"garbage")
    clear_memory_cache()
    fresh = TraceCache(tmp_path)
    trace = fresh.get_or_run(program)
    assert fresh.misses == 1
    assert len(trace) > 0
    # and the miss rewrote a valid entry
    clear_memory_cache()
    again = TraceCache(tmp_path)
    again.get_or_run(program)
    assert again.disk_hits == 1


def _stored_bytes(program, root):
    clear_memory_cache()
    TraceCache(root).get_or_run(program)
    return TraceCache(root).path(program_fingerprint(program)).read_bytes()


def _assert_damaged_file_is_a_miss(program, root, damaged):
    path = TraceCache(root).path(program_fingerprint(program))
    path.write_bytes(damaged)
    clear_memory_cache()
    cache = TraceCache(root)
    trace = cache.get_or_run(program)
    assert (cache.misses, cache.disk_hits) == (1, 0)
    assert_traces_equal(trace, run_program(program))


@pytest.mark.parametrize("make", [make_program, make_exotic_values_program])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_truncated_or_bit_flipped_file_reads_as_miss(make, data):
    program = make()
    with tempfile.TemporaryDirectory() as root:
        stored = _stored_bytes(program, root)
        if data.draw(st.booleans(), label="truncate"):
            cut = data.draw(st.integers(0, len(stored) - 1), label="length")
            damaged = stored[:cut]
        else:
            offset = data.draw(st.integers(0, len(stored) - 1), label="offset")
            bit = data.draw(st.integers(0, 7), label="bit")
            damaged = bytearray(stored)
            damaged[offset] ^= 1 << bit
            damaged = bytes(damaged)
        _assert_damaged_file_is_a_miss(program, root, damaged)


def test_flipped_address_bit_reads_as_miss(tmp_path):
    # one flipped bit in a load's address, the corruption a header-only
    # check serves as a hit with a different producing store
    program = make_program()
    stored = _stored_bytes(program, tmp_path)
    trace = run_program(program)
    load = next(e for e in trace if e.is_load)
    needle = struct.pack("<q", load.addr)
    at = stored.index(needle)
    damaged = bytearray(stored)
    damaged[at] ^= 0x10
    _assert_damaged_file_is_a_miss(program, tmp_path, bytes(damaged))


def test_unwritable_disk_root_never_fails_a_run(tmp_path):
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("occupied")
    cache = TraceCache(blocked / "sub")
    trace = cache.get_or_run(make_program())
    assert len(trace) > 0


def test_cached_trace_pickles_for_executor_workers(tmp_path):
    cache = TraceCache(tmp_path)
    trace = cache.get_or_run(make_program())
    clone = pickle.loads(pickle.dumps(trace))
    assert_traces_equal(trace, clone)


# --- the process-global cache -----------------------------------------------


def test_global_cache_reads_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    assert global_trace_cache().root == tmp_path
    cached_run_program(make_program())
    fp = program_fingerprint(make_program())
    assert (tmp_path / fp[:2] / (fp + ".trace")).is_file()


@pytest.mark.parametrize("setting", ["", "0", "off", "no"])
def test_global_cache_env_off_values_mean_memory_only(setting, monkeypatch):
    if setting:
        monkeypatch.setenv("REPRO_TRACE_CACHE", setting)
    else:
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    assert global_trace_cache().root is None


def test_configure_trace_cache_keeps_memory_layer_warm(tmp_path):
    program = make_program()
    configure_trace_cache(None)
    cached_run_program(program)
    cache = configure_trace_cache(tmp_path)
    cached_run_program(program)
    assert cache.memory_hits == 1 and cache.misses == 0


def test_workload_trace_goes_through_global_cache():
    from repro.workloads import get_workload

    workload = get_workload("micro-independent")
    first = workload.trace(scale="tiny")
    second = workload.trace(scale="tiny")
    assert first is second
    assert global_trace_cache().memory_hits >= 1


# --- executor integration ---------------------------------------------------


def test_source_fingerprint_covers_trace_format_version(monkeypatch):
    from repro.experiments import executor

    executor.source_fingerprint.cache_clear()
    base = executor.source_fingerprint()
    monkeypatch.setattr(tc, "TRACE_FORMAT_VERSION", TRACE_FORMAT_VERSION + 1)
    executor.source_fingerprint.cache_clear()
    bumped = executor.source_fingerprint()
    executor.source_fingerprint.cache_clear()
    assert bumped != base


def test_executor_points_global_cache_at_result_cache(tmp_path):
    from repro.experiments.executor import Executor, ResultCache

    monkey_env = os.environ.pop("REPRO_TRACE_CACHE", None)
    try:
        executor = Executor(cache=ResultCache(tmp_path), jobs=1)
        executor.run([])
        assert global_trace_cache().root == tmp_path / "traces"
    finally:
        if monkey_env is not None:
            os.environ["REPRO_TRACE_CACHE"] = monkey_env
