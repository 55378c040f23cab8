"""Banked data-cache timing model.

The paper's Multiscalar configuration interleaves twice as many data
banks as processing units; each bank is an 8 KB direct-mapped cache
with 64-byte blocks.  A bank access returns in 2 cycles on a hit and
pays a 10+3-cycle penalty on a miss.  This model reproduces those
latencies plus per-bank port contention: each bank accepts one access
per cycle, and simultaneous accesses to one bank queue behind each
other.

Only timing is modeled — data values always come from the
architecturally-correct trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class CacheConfig:
    """Geometry and latencies of the banked data cache."""

    banks: int = 8
    bank_bytes: int = 8 * 1024
    block_bytes: int = 64
    hit_latency: int = 2
    miss_penalty: int = 13  # 10 bus + 3 fill, paper Section 5.2

    @property
    def sets_per_bank(self) -> int:
        return self.bank_bytes // self.block_bytes

    def bank_of(self, addr) -> int:
        """Banks interleave at block granularity."""
        return (addr // self.block_bytes) % self.banks

    def set_of(self, addr) -> int:
        return (addr // self.block_bytes // self.banks) % self.sets_per_bank

    def tag_of(self, addr) -> int:
        return addr // self.block_bytes // self.banks // self.sets_per_bank


class BankedCache:
    """A direct-mapped, banked, non-blocking cache timing model.

    ``access(addr, now)`` returns the completion time of the access and
    updates tag state.  Loads and stores are treated alike (the paper's
    banks back an address resolution buffer, so stores also access a
    bank).
    """

    def __init__(self, config=None):
        self.config = config or CacheConfig()
        self._tags: List[Dict[int, int]] = [dict() for _ in range(self.config.banks)]
        self._bank_busy_until: List[int] = [0] * self.config.banks
        self.hits = 0
        self.misses = 0
        self.bank_conflict_cycles = 0

    def access(self, addr, now) -> int:
        """Perform one access at time *now*; return its completion time."""
        cfg = self.config
        bank = cfg.bank_of(addr)
        index = cfg.set_of(addr)
        tag = cfg.tag_of(addr)

        start = max(now, self._bank_busy_until[bank])
        self.bank_conflict_cycles += start - now
        self._bank_busy_until[bank] = start + 1  # one new access per cycle

        tags = self._tags[bank]
        if tags.get(index) == tag:
            self.hits += 1
            return start + cfg.hit_latency
        self.misses += 1
        tags[index] = tag
        return start + cfg.hit_latency + cfg.miss_penalty

    @property
    def accesses(self) -> int:
        return self.hits + self.misses
