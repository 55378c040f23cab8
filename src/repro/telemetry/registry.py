"""Metric instruments and the registry the instrumented layers publish into.

Four instrument kinds cover everything the paper's evaluation measures
over time:

* :class:`Counter` — monotone event counts (signals delivered, loads
  parked, policy decisions);
* :class:`Gauge` — last-value observations (end-of-run table counters
  such as MDPT allocations/evictions);
* :class:`Histogram` — power-of-two bucketed distributions (load
  wait-cycles, squash depths);
* :class:`TimeSeries` — (time, value) samples (MDPT/MDST occupancy over
  the run, condition-variable pool pressure).

Instruments are created lazily by name through a
:class:`MetricRegistry`; ``registry.to_dict()`` renders the whole
catalogue as one JSON-serializable object.

The **null sink** (:data:`NULL_METRICS`) is the zero-overhead default:
every instrument it hands out is a shared no-op, and its ``enabled``
flag is False so hot paths can skip instrumentation entirely.  Code
under instrumentation must behave identically whether it publishes into
a real registry or the null one — `tests/telemetry/test_ab.py` asserts
bit-identical simulator results either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class Gauge:
    """A last-value observation."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Optional[float] = None

    def set(self, value):
        self.value = value


class Histogram:
    """A bucketed distribution with power-of-two bucket boundaries.

    Bucket *i* counts observations ``v`` with ``v <= 2**i - 1`` (bucket
    0 holds exact zeros); one overflow bucket catches the rest.  The
    geometric boundaries keep the structure tiny while resolving both
    the common short waits and the long squash-recovery tail.
    """

    __slots__ = ("max_exponent", "buckets", "overflow", "count", "total", "min", "max")

    def __init__(self, max_exponent=16):
        self.max_exponent = max_exponent
        self.buckets = [0] * (max_exponent + 1)
        self.overflow = 0
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value < 0:
            value = 0
        placed = False
        for exponent in range(self.max_exponent + 1):
            if value <= (1 << exponent) - 1:
                self.buckets[exponent] += 1
                placed = True
                break
        if not placed:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """Lossless snapshot: ``max_exponent`` alongside the sparse
        bucket list (zero-count buckets elided) and the overflow bucket."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 4),
            "max_exponent": self.max_exponent,
            "buckets": [
                {"le": (1 << exponent) - 1, "count": count}
                for exponent, count in enumerate(self.buckets)
                if count
            ],
            "overflow": self.overflow,
        }


class TimeSeries:
    """(time, value) samples — occupancy trajectories and the like."""

    __slots__ = ("samples",)

    def __init__(self):
        self.samples: List[Tuple[int, float]] = []

    def sample(self, time, value):
        self.samples.append((time, value))

    def to_list(self) -> List[List[float]]:
        return [[t, v] for t, v in self.samples]


class MetricRegistry:
    """Named instruments, created on first use.

    A name maps to exactly one instrument kind; asking for the same
    name with a different kind is a programming error and raises.
    """

    enabled = True

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def _check_unique(self, name, own):
        for kind in (self._counters, self._gauges, self._histograms, self._series):
            if kind is not own and name in kind:
                raise ValueError("metric %r already registered with another kind" % (name,))

    def counter(self, name) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_unique(name, self._counters)
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_unique(name, self._gauges)
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name, max_exponent=16) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_unique(name, self._histograms)
            instrument = self._histograms[name] = Histogram(max_exponent)
        return instrument

    def series(self, name) -> TimeSeries:
        instrument = self._series.get(name)
        if instrument is None:
            self._check_unique(name, self._series)
            instrument = self._series[name] = TimeSeries()
        return instrument

    def to_dict(self) -> dict:
        """The whole catalogue as one JSON-serializable object."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.to_dict() for k, h in sorted(self._histograms.items())},
            "series": {k: s.to_list() for k, s in sorted(self._series.items())},
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount=1):
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value):
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value):
        pass


class _NullTimeSeries(TimeSeries):
    __slots__ = ()

    def sample(self, time, value):
        pass


class NullMetricRegistry(MetricRegistry):
    """The zero-overhead default sink: shared no-op instruments.

    ``enabled`` is False so instrumented hot paths can skip publication
    altogether; code that publishes unconditionally still works because
    every instrument this registry hands out discards its input.
    """

    enabled = False

    def __init__(self):
        super().__init__()
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram(0)
        self._null_series = _NullTimeSeries()

    def counter(self, name) -> Counter:
        return self._null_counter

    def gauge(self, name) -> Gauge:
        return self._null_gauge

    def histogram(self, name, max_exponent=16) -> Histogram:
        return self._null_histogram

    def series(self, name) -> TimeSeries:
        return self._null_series


#: Shared process-wide null sink — the default everywhere.
NULL_METRICS = NullMetricRegistry()
