"""Data Dependence Cache (DDC) — paper Section 5.3.

A DDC of size *n* records the static dependences (store PC, load PC
pairs) that caused the *n* most recent mis-speculations.  On each
mis-speculation the DDC is searched with the offending pair: a hit
means the dependence was seen recently; a low miss rate demonstrates
the temporal locality of the dependences responsible for
mis-speculations — the empirical observation that justifies caching
dependence history in an MDPT of modest size.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Tuple


class DataDependenceCache:
    """An LRU cache of static dependence pairs with hit/miss counters."""

    def __init__(self, capacity):
        if capacity <= 0:
            raise ValueError("DDC capacity must be positive, got %r" % (capacity,))
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, pair):
        return pair in self._entries

    def access(self, pair) -> bool:
        """Record one mis-speculation of *pair*; return True on a hit.

        A hit refreshes the entry's recency; a miss inserts the pair,
        evicting the least recently used entry when full.
        """
        if pair in self._entries:
            self._entries.move_to_end(pair)
            self.hits += 1
            return True
        self.misses += 1
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[pair] = None
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass
class DDCResult:
    """Miss-rate of one DDC configuration over one event stream."""

    capacity: int
    accesses: int
    misses: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def miss_rate_percent(self) -> float:
        return 100.0 * self.miss_rate


def simulate_ddc(events: Iterable[Tuple[int, int]], capacity) -> DDCResult:
    """Replay a mis-speculation event stream through a DDC of *capacity*."""
    cache = DataDependenceCache(capacity)
    for pair in events:
        cache.access(pair)
    return DDCResult(capacity=capacity, accesses=cache.accesses, misses=cache.misses)


def simulate_ddc_sizes(events, capacities) -> dict:
    """Replay the same event stream through several DDC sizes.

    The event stream is materialized once so generators are accepted.
    """
    materialized = list(events)
    return {size: simulate_ddc(materialized, size) for size in capacities}


#: DDC sizes of the paper's Table 5 (unrealistic OoO model).
PAPER_DDC_SIZES_OOO = (32, 128, 512)
#: DDC sizes of the paper's Table 7 (8-stage Multiscalar).
PAPER_DDC_SIZES_MULTISCALAR = (16, 32, 64, 128, 256, 512, 1024)
