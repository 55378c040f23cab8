"""Tests for the banked cache timing model."""

from repro.memsys import BankedCache, CacheConfig


def test_cold_miss_then_hit():
    cache = BankedCache(CacheConfig(hit_latency=2, miss_penalty=13))
    t1 = cache.access(0x1000, now=0)
    assert t1 == 0 + 2 + 13
    t2 = cache.access(0x1000, now=20)
    assert t2 == 20 + 2
    assert cache.hits == 1 and cache.misses == 1


def test_same_block_hits():
    cache = BankedCache()
    cache.access(0x1000, 0)
    cache.access(0x1000 + 60, 100)  # same 64-byte block
    assert cache.hits == 1


def test_different_blocks_map_to_banks_round_robin():
    cfg = CacheConfig(banks=4)
    assert cfg.bank_of(0) == 0
    assert cfg.bank_of(64) == 1
    assert cfg.bank_of(128) == 2
    assert cfg.bank_of(256) == 0


def test_direct_mapped_conflict_eviction():
    cfg = CacheConfig(banks=1, bank_bytes=128, block_bytes=64)  # 2 sets
    cache = BankedCache(cfg)
    cache.access(0, 0)       # set 0
    cache.access(128, 100)   # set 0, different tag -> evicts
    cache.access(0, 200)     # miss again
    assert cache.misses == 3
    assert cache.hits == 0


def test_bank_port_contention_queues():
    cfg = CacheConfig(banks=1)
    cache = BankedCache(cfg)
    cache.access(0, 0)
    t = cache.access(64, 0)  # same bank, same cycle -> starts at 1
    assert t == 1 + cfg.hit_latency + cfg.miss_penalty
    assert cache.bank_conflict_cycles == 1


def test_different_banks_no_contention():
    cfg = CacheConfig(banks=2)
    cache = BankedCache(cfg)
    cache.access(0, 0)
    cache.access(64, 0)  # other bank
    assert cache.bank_conflict_cycles == 0
