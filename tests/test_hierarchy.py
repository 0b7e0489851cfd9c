"""Tests for the memory hierarchy integration."""

import pytest

from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.slice_hash import SliceHash
from repro.sim.config import CacheConfig, DRAMConfig, SystemConfig
from repro.traces.trace import MemoryAccess


def make_hierarchy(num_cores=2, prefetcher="none", **overrides):
    cfg = SystemConfig(
        num_cores=num_cores,
        llc_sets_per_slice=32,
        l1=CacheConfig(sets=4, ways=2, latency=5),
        l2=CacheConfig(sets=8, ways=2, latency=15),
        prefetcher=prefetcher,
        **overrides)
    return MemoryHierarchy(cfg), cfg


def acc(address, pc=0x400, write=False, gap=1):
    return MemoryAccess(pc=pc, address=address, is_write=write,
                        instr_gap=gap)


class TestDemandPath:
    def test_cold_miss_costs_dram(self):
        h, cfg = make_hierarchy()
        latency = h.demand_access(0, acc(0x10000), cycle=0)
        assert latency > 100  # L1+L2+NoC+LLC+DRAM

    def test_l1_hit_after_fill(self):
        h, cfg = make_hierarchy()
        h.demand_access(0, acc(0x10000), cycle=0)
        latency = h.demand_access(0, acc(0x10000), cycle=1000)
        assert latency == pytest.approx(cfg.l1.latency)

    def test_l2_hit_cheaper_than_llc(self):
        h, cfg = make_hierarchy()
        h.demand_access(0, acc(0x10000), cycle=0)
        # Evict from tiny L1 with conflicting fills (same L1 set).
        for i in range(1, 4):
            h.demand_access(0, acc(0x10000 + i * 4 * 64), cycle=i * 1000)
        latency = h.demand_access(0, acc(0x10000), cycle=50_000)
        assert latency <= cfg.l1.latency + cfg.l2.latency + 1

    def test_counters(self):
        h, _ = make_hierarchy()
        h.demand_access(0, acc(0x10000), cycle=0)
        s = h.core_stats[0]
        assert s.l1_accesses == 1
        assert s.l1_misses == 1
        assert s.llc_misses == 1
        assert h.dram.stats.reads == 1

    def test_private_caches_are_private(self):
        h, _ = make_hierarchy()
        h.demand_access(0, acc(0x10000), cycle=0)
        assert not h.l1[1].contains(0x10000 // 64)

    def test_llc_shared_across_cores(self):
        h, _ = make_hierarchy()
        h.demand_access(0, acc(0x10000), cycle=0)
        # Core 1 misses its privates but hits the shared LLC: no second
        # DRAM read.
        reads = h.dram.stats.reads
        h.demand_access(1, acc(0x10000), cycle=100)
        assert h.dram.stats.reads == reads


class TestWritebacks:
    def test_dirty_line_reaches_dram(self):
        h, _ = make_hierarchy()
        # Write a line, then evict it down every level with conflicting
        # demand fills mapping to the same sets.
        h.demand_access(0, acc(0x10000, write=True), cycle=0)
        # Enough conflicting fills to push the dirty line out of L1, L2
        # and finally the LLC (non-inclusive: it parks there first).
        for i in range(1, 1500):
            h.demand_access(0, acc(0x10000 + i * 4 * 64), cycle=i * 500)
        assert h.dram.stats.writes > 0

    def test_writeback_marks_llc_dirty_when_present(self):
        h, _ = make_hierarchy()
        h.demand_access(0, acc(0x20000, write=True), cycle=0)
        block = 0x20000 // 64
        h._writeback_to_l2(0, block, cycle=10)
        h._writeback_to_llc(0, block, cycle=10)
        slice_id = h.llc.slice_of(block)
        sl = h.llc.slices[slice_id]
        way = sl.find_way(sl.set_index(block), block)
        assert way is not None
        assert sl.blocks_in_set(sl.set_index(block))[way].dirty


class TestPrefetchPath:
    def test_baseline_prefetcher_fills_ahead(self):
        h, _ = make_hierarchy(prefetcher="baseline")
        h.demand_access(0, acc(0x40000), cycle=0)
        nxt = 0x40000 // 64 + 1
        assert h.l1[0].contains(nxt) or h.l2[0].contains(nxt)

    def test_prefetch_counts_issued(self):
        h, _ = make_hierarchy(prefetcher="baseline")
        h.demand_access(0, acc(0x40000), cycle=0)
        l1_pf, _ = h.prefetchers[0]
        assert l1_pf.stats.issued >= 1

    def test_prefetched_block_wait_charged_if_late(self):
        h, cfg = make_hierarchy(prefetcher="baseline")
        h.demand_access(0, acc(0x40000), cycle=0)
        # Immediately demand the prefetched next block: the fill is still
        # in flight, so latency exceeds a pure L1 hit.
        latency = h.demand_access(0, acc(0x40000 + 64), cycle=1)
        assert latency > cfg.l1.latency

    def test_no_prefetcher_means_no_prefetch_fills(self):
        h, _ = make_hierarchy(prefetcher="none")
        h.demand_access(0, acc(0x40000), cycle=0)
        assert h.llc.aggregate_stats().prefetch_accesses == 0


class TestResetStats:
    def test_reset_zeroes_counters_keeps_contents(self):
        h, _ = make_hierarchy()
        h.demand_access(0, acc(0x10000), cycle=0)
        h.reset_stats()
        assert h.dram.stats.reads == 0
        assert h.core_stats[0].l1_accesses == 0
        # Contents preserved: re-access is a cheap hit.
        latency = h.demand_access(0, acc(0x10000), cycle=1000)
        assert latency < 20


class TestSliceHashedOncePerVisit:
    """Every LLC visit hashes its block to the home slice exactly once."""

    @staticmethod
    def spied_hierarchy(monkeypatch):
        hashed = []
        original = SliceHash.slice_of

        def spy(self, block):
            hashed.append(block)
            return original(self, block)

        monkeypatch.setattr(SliceHash, "slice_of", spy)
        h, _ = make_hierarchy(num_cores=16, prefetcher="baseline")
        return h, hashed

    def test_l2_miss_demand_access(self, monkeypatch):
        h, hashed = self.spied_hierarchy(monkeypatch)
        h.demand_access(0, acc(0x10000), cycle=0)
        assert h.core_stats[0].llc_accesses == 1
        assert hashed.count(0x10000 // 64) == 1
        # Its prefetches hash their own blocks, once each.
        assert len(hashed) == 1 + h.llc.aggregate_stats().prefetch_accesses

    def test_issued_prefetch(self, monkeypatch):
        h, hashed = self.spied_hierarchy(monkeypatch)
        _l1_pf, l2_pf = h.prefetchers[0]
        h._issue_prefetch(0, 0x400, 0x777, "l2", 0, l2_pf)
        assert l2_pf.stats.issued == 1
        assert hashed.count(0x777) == 1
        assert h.llc.aggregate_stats().prefetch_accesses == 1

    def test_writeback_into_the_llc(self, monkeypatch):
        h, hashed = self.spied_hierarchy(monkeypatch)
        h._writeback_to_llc(0, 0x999, cycle=10)
        assert h.llc.aggregate_stats().writeback_fills == 1
        assert hashed.count(0x999) == 1
