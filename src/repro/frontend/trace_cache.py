"""Content-addressed trace cache (in-process + on-disk).

The paper's methodology — and every experiment grid in this repo —
evaluates *one* dynamic trace under many ``(config, policy)`` cells.
Interpreting the workload is pure: the trace is a function of the
program and the instruction budget alone.  This module exploits that:

* :func:`program_fingerprint` — SHA-256 over everything the interpreter
  can observe (instructions, initial memory, entry PC, the
  ``max_instructions`` budget) plus :data:`TRACE_FORMAT_VERSION`.  The
  fingerprint is the cache key *and* the invalidation rule: change a
  kernel and the old entry simply stops being addressed.
* :func:`serialize_trace` / :func:`deserialize_trace` — the binary
  form of a :class:`~repro.frontend.trace.Trace`'s own columns (the pc
  of every entry, the address and value of every memory entry), written
  and read with ``array.tobytes``/``frombytes``, used by the on-disk
  layer.  A CRC-32 over the header and the payload guards every byte.
* :class:`TraceCache` — two layers: a process-wide in-memory table
  (shared by every instance, so executor workers forked after a warm-up
  inherit it copy-on-write) and an optional on-disk store under
  ``<root>/<fp[:2]>/<fp>.trace`` with atomic writes.  Disk problems of
  any kind read as misses — an unreadable or truncated file, a foreign
  format version, and, through the checksum, a file whose bytes
  changed after it was written; the cache never turns an interpretable
  program into an error.

The process-global cache used by :meth:`Workload.trace
<repro.workloads.base.Workload.trace>` is configured from the
``REPRO_TRACE_CACHE`` environment variable (a directory path; unset or
``0``/``off``/``no`` keeps the cache memory-only) or programmatically
via :func:`configure_trace_cache`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Dict, Optional

from repro.fileio import write_atomic
from repro.frontend.interpreter import run_program
from repro.frontend.trace import Trace
from repro.telemetry.profiler import PROFILER

#: Version of the binary trace encoding.  Part of every fingerprint and
#: of every file header: bumping it makes all previously written traces
#: unreachable *and* unreadable, so a format change can never feed stale
#: bytes into an experiment.  Version 2 stores the trace's own columns
#: (pc, memory addresses and values) under a CRC-32 of the whole file.
TRACE_FORMAT_VERSION = 2

_MAGIC = b"RTRC"

_LITTLE = 1 if sys.byteorder == "little" else 0

#: magic, format version, byte order, entry count, fingerprint, end pc,
#: payload length; the CRC-32 of these bytes and the payload follows.
_HEADER = struct.Struct("<4sHBxQ64sqQ")
_CRC = struct.Struct("<I")
_PAYLOAD_AT = _HEADER.size + _CRC.size

#: column encodings: raw ``array`` bytes, or a pickle for a column of
#: values that do not all fit the array's type (floats, big ints)
_RAW, _PICKLED = 0, 1
_BLOB = struct.Struct("<BQ")


class TraceFormatError(Exception):
    """Raised when serialized trace bytes cannot be decoded."""


def program_fingerprint(program, max_instructions=5_000_000) -> str:
    """SHA-256 identity of ``run_program(program, max_instructions)``.

    Covers every input the interpreter reads — the instruction stream
    (opcode, registers, immediate, branch target, task boundaries),
    initial memory, the entry PC — plus the instruction budget and the
    trace format version.
    """
    digest = hashlib.sha256()
    digest.update(
        b"repro-trace:v%d:%d:" % (TRACE_FORMAT_VERSION, max_instructions)
    )
    digest.update(program.name.encode())
    digest.update(b":%d:" % program.entry)
    for inst in program.instructions:
        digest.update(
            repr(
                (
                    inst.op.value,
                    inst.rd,
                    inst.rs1,
                    inst.rs2,
                    inst.imm,
                    inst.target,
                    inst.task_entry,
                )
            ).encode()
        )
    for addr in sorted(program.initial_memory):
        digest.update(b"m%r=%r;" % (addr, program.initial_memory[addr]))
    return digest.hexdigest()


def _encode(column):
    """One column as ``(encoding, bytes)``: the raw bytes of an
    ``array('q')``, else a pickle of the list (exact for floats and big
    ints; see :func:`~repro.frontend.trace.int_column`)."""
    if isinstance(column, array):
        return _RAW, column.tobytes()
    return _PICKLED, pickle.dumps(column, protocol=4)


def _decode(encoding, blob):
    if encoding == _RAW:
        column = array("q")
        column.frombytes(blob)
        return column
    if encoding == _PICKLED:
        return pickle.loads(blob)
    raise TraceFormatError("unknown column encoding %d" % encoding)


def serialize_trace(trace, fingerprint="") -> bytes:
    """Encode *trace* as its binary columns.

    Layout: a header (magic, format version, byte order, entry count,
    the 64-hex-char fingerprint, the last entry's next pc, the payload
    length), the CRC-32 of the header and the payload, then the payload:
    four length-prefixed columns — every entry's pc, the address and
    the value of every memory entry, and the seqs of taken branches to
    their own fall-through.  Columns are written with
    ``array.tobytes``; a value or address column holding floats or ints
    beyond 64 bits is pickled instead.
    """
    parts = []
    for encoding, blob in (
        (_RAW, trace.pc.tobytes()),
        _encode(trace.mem_addr),
        _encode(trace.mem_value),
        _encode(array("q", sorted(trace.taken_in_place))),
    ):
        parts.append(_BLOB.pack(encoding, len(blob)))
        parts.append(blob)
    payload = b"".join(parts)
    fp = fingerprint.encode("ascii")[:64].ljust(64, b"\0")
    header = _HEADER.pack(
        _MAGIC, TRACE_FORMAT_VERSION, _LITTLE, len(trace.pc), fp, trace.end_pc, len(payload)
    )
    crc = zlib.crc32(payload, zlib.crc32(header))
    return b"".join((header, _CRC.pack(crc), payload))


def deserialize_trace(data, program, fingerprint=None) -> Trace:
    """Decode :func:`serialize_trace` bytes back into a :class:`Trace`.

    *program* supplies the static instructions the pc column indexes.
    When *fingerprint* is given it must match the stored one — the
    caller's way of asserting the bytes belong to this exact program.
    Raises :class:`TraceFormatError` on any mismatch or corruption,
    including a single flipped bit anywhere in the file.  Decoding
    reads each column with ``frombytes``; no Python loop runs per entry.
    """
    with PROFILER.scope("frontend.decode"):
        try:
            return _deserialize(data, program, fingerprint)
        except TraceFormatError:
            raise
        except Exception as exc:
            raise TraceFormatError("truncated or corrupt trace: %s" % (exc,)) from exc


def _deserialize(data, program, fingerprint) -> Trace:
    magic, version, little, n, fp, end_pc, length = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise TraceFormatError("bad magic")
    if version != TRACE_FORMAT_VERSION:
        raise TraceFormatError("format version %d != %d" % (version, TRACE_FORMAT_VERSION))
    if little != _LITTLE:
        raise TraceFormatError("byte-order mismatch")
    if len(data) != _PAYLOAD_AT + length:
        raise TraceFormatError("payload length mismatch")
    view = memoryview(data)
    (crc,) = _CRC.unpack_from(data, _HEADER.size)
    if crc != zlib.crc32(view[_PAYLOAD_AT:], zlib.crc32(view[: _HEADER.size])):
        raise TraceFormatError("checksum mismatch")
    if fingerprint is not None and fp.rstrip(b"\0").decode("ascii") != fingerprint:
        raise TraceFormatError("fingerprint mismatch")
    offset = _PAYLOAD_AT
    blobs = []
    for _ in range(4):
        encoding, size = _BLOB.unpack_from(data, offset)
        offset += _BLOB.size
        blobs.append((encoding, view[offset : offset + size]))
        offset += size
    if offset != len(data):
        raise TraceFormatError("column layout mismatch")
    (pc_encoding, pc_blob), addr_blob, value_blob, in_place_blob = blobs
    pcs = array("i")
    if pc_encoding != _RAW or len(pc_blob) != pcs.itemsize * n:
        raise TraceFormatError("pc column mismatch")
    pcs.frombytes(pc_blob)
    mem_addr = _decode(*addr_blob)
    mem_value = _decode(*value_blob)
    if len(mem_value) != len(mem_addr):
        raise TraceFormatError("memory column length mismatch")
    return Trace(program, pcs, mem_addr, mem_value, end_pc, _decode(*in_place_blob))


#: Process-wide in-memory layer, keyed by fingerprint.  Shared by every
#: :class:`TraceCache` instance so re-pointing the disk root never
#: forgets already-interpreted traces, and forked executor workers
#: inherit warm entries copy-on-write.
_MEMORY: Dict[str, Trace] = {}


class TraceCache:
    """Two-layer content-addressed trace store."""

    def __init__(self, root=None):
        self.root: Optional[Path] = Path(root).expanduser() if root else None
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def path(self, fingerprint) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / fingerprint[:2] / (fingerprint + ".trace")

    def get_or_run(self, program, max_instructions=5_000_000) -> Trace:
        """The cached trace of *program*, interpreting on a miss."""
        fingerprint = program_fingerprint(program, max_instructions)
        trace = _MEMORY.get(fingerprint)
        if trace is not None:
            self.memory_hits += 1
            return trace
        trace = self._read(fingerprint, program)
        if trace is not None:
            self.disk_hits += 1
        else:
            self.misses += 1
            trace = run_program(program, max_instructions=max_instructions)
            self._write(fingerprint, trace)
        _MEMORY[fingerprint] = trace
        return trace

    def _read(self, fingerprint, program) -> Optional[Trace]:
        path = self.path(fingerprint)
        if path is None:
            return None
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            return deserialize_trace(data, program, fingerprint=fingerprint)
        except TraceFormatError:
            return None

    def _write(self, fingerprint, trace) -> None:
        path = self.path(fingerprint)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, serialize_trace(trace, fingerprint=fingerprint))
        except OSError:
            pass  # a read-only or vanished cache dir must never fail a run


_GLOBAL: Optional[TraceCache] = None


def global_trace_cache() -> TraceCache:
    """The process-global cache, created on first use from
    ``REPRO_TRACE_CACHE`` (unset/``0``/``off``/``no`` = memory only)."""
    global _GLOBAL
    if _GLOBAL is None:
        setting = os.environ.get("REPRO_TRACE_CACHE", "")
        _GLOBAL = TraceCache(None if setting in ("", "0", "off", "no") else setting)
    return _GLOBAL


def configure_trace_cache(root) -> TraceCache:
    """Point the process-global cache's disk layer at *root* (None =
    memory only).  The in-memory layer is shared and stays warm."""
    global _GLOBAL
    _GLOBAL = TraceCache(root)
    return _GLOBAL


def clear_memory_cache() -> None:
    """Drop every in-memory trace (tests and cold-start benchmarks)."""
    _MEMORY.clear()


def cached_run_program(program, max_instructions=5_000_000) -> Trace:
    """Drop-in for :func:`repro.frontend.run_program` through the
    process-global :class:`TraceCache`."""
    return global_trace_cache().get_or_run(program, max_instructions=max_instructions)
