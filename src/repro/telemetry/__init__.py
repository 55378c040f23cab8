"""Zero-dependency instrumentation: metrics, trace events, profiling.

The subsystem has three legs, each with a disabled null default so that
instrumented code pays (almost) nothing when telemetry is off:

* :class:`MetricRegistry` — named counters, gauges, bucketed
  histograms, and time series the MDPT/MDST/engine/simulator publish
  into (``NULL_METRICS`` when off);
* :class:`TraceEventSink` — Chrome trace-event JSON collection, one
  track per Multiscalar stage (``NULL_TRACE`` when off);
* :class:`Profiler` / :class:`ProfileScope` — wall-clock scopes around
  the experiment pipeline's phases (always on; negligible cost).

:class:`Telemetry` bundles a registry and a sink; the simulator takes
one via its ``telemetry=`` parameter and defaults to
:data:`NULL_TELEMETRY`.  The contract — telemetry on or off, simulated
results are bit-identical — is asserted by ``tests/telemetry/test_ab.py``.

The run ledger and the Prometheus exporter load on first access of
their names (a PEP 562 module ``__getattr__``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro._lazy import lazy_names
from repro.telemetry.profiler import PROFILER, Profiler, ProfileRecord, ProfileScope
from repro.telemetry.registry import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullMetricRegistry,
    TimeSeries,
)
from repro.telemetry.trace_events import (
    NULL_TRACE,
    NullTraceSink,
    TraceEventSink,
    merged_trace,
)

if TYPE_CHECKING:
    from repro.telemetry.ledger import (
        DEFAULT_LEDGER,
        RunLedger,
        diff_records,
        make_record,
        resolve_ledger_path,
    )
    from repro.telemetry.prometheus import MetricsServer, serve_registry, to_prometheus

#: the names of the run ledger and the Prometheus exporter (which loads
#: ``http.server``) -> their module, imported on first access: every
#: simulation runs the three legs above, few record or serve runs
_LAZY = {
    "DEFAULT_LEDGER": "ledger",
    "RunLedger": "ledger",
    "diff_records": "ledger",
    "make_record": "ledger",
    "resolve_ledger_path": "ledger",
    "MetricsServer": "prometheus",
    "serve_registry": "prometheus",
    "to_prometheus": "prometheus",
}


@dataclass
class Telemetry:
    """One run's worth of instrumentation sinks."""

    metrics: MetricRegistry = field(default_factory=MetricRegistry)
    trace: TraceEventSink = field(default_factory=TraceEventSink)

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.trace.enabled


#: The default: both sinks disabled, hot paths skip instrumentation.
NULL_TELEMETRY = Telemetry(metrics=NULL_METRICS, trace=NULL_TRACE)


def make_telemetry(metrics=True, trace=True, pid=0) -> Telemetry:
    """A telemetry bundle with the requested legs enabled."""
    return Telemetry(
        metrics=MetricRegistry() if metrics else NULL_METRICS,
        trace=TraceEventSink(pid=pid) if trace else NULL_TRACE,
    )


__getattr__, __all__ = lazy_names(
    __name__,
    globals(),
    _LAZY,
    eager=(
        "Counter", "Gauge", "Histogram", "MetricRegistry", "NULL_METRICS", "NULL_TELEMETRY",
        "NULL_TRACE", "NullMetricRegistry", "NullTraceSink", "PROFILER", "ProfileRecord",
        "ProfileScope", "Profiler", "Telemetry", "TimeSeries", "TraceEventSink",
        "make_telemetry", "merged_trace",
    ),
)
