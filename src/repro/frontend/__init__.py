"""Functional frontend: interpreter, dynamic traces, trace analysis."""

from repro.frontend.analysis import TraceAnalysis, analyze_trace
from repro.frontend.interpreter import (
    Interpreter,
    InterpreterError,
    TraceLimitExceeded,
    run_program,
)
from repro.frontend.static_index import TraceIndex
from repro.frontend.trace import Trace, TraceEntry
from repro.frontend.trace_cache import (
    TRACE_FORMAT_VERSION,
    TraceCache,
    cached_run_program,
    configure_trace_cache,
    deserialize_trace,
    global_trace_cache,
    program_fingerprint,
    serialize_trace,
)

__all__ = [
    "Interpreter",
    "InterpreterError",
    "TRACE_FORMAT_VERSION",
    "Trace",
    "TraceAnalysis",
    "TraceCache",
    "TraceIndex",
    "analyze_trace",
    "TraceEntry",
    "TraceLimitExceeded",
    "cached_run_program",
    "configure_trace_cache",
    "deserialize_trace",
    "global_trace_cache",
    "program_fingerprint",
    "run_program",
    "serialize_trace",
]
