"""Tests for the generic set-associative cache."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import (DEMAND, INVALID_LINE, PREFETCH, WRITEBACK,
                               AccessContext, CacheBlock)
from repro.cache.cache import Cache
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.sampled_sets import ExplicitSampledSets
from repro.replacement.base import ReplacementPolicy
from repro.replacement.hawkeye import HawkeyePolicy
from repro.replacement.lru import LRUPolicy
from repro.replacement.mockingjay import MockingjayPolicy
from repro.replacement.rrip import SRRIPPolicy
from repro.sim.config import ScaleProfile, SystemConfig
from repro.sim.simulator import Simulator
from repro.traces.spec import make_spec_trace


def ctx(block, pc=0x400, core=0, write=False, kind=DEMAND, cycle=0):
    return AccessContext(pc=pc, block=block, core_id=core, is_write=write,
                         kind=kind, cycle=cycle)


def make_cache(sets=4, ways=2, **kw):
    return Cache("test", sets, ways, LRUPolicy(sets, ways), **kw)


class TestConstruction:
    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            make_cache(sets=3)

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            Cache("t", 4, 0, LRUPolicy(4, 1))

    def test_set_index_uses_low_bits(self):
        c = make_cache(sets=8)
        assert c.set_index(0) == 0
        assert c.set_index(9) == 1
        assert c.set_index(16) == 0


class TestAccessAndFill:
    def test_miss_then_fill_then_hit(self):
        c = make_cache()
        assert not c.access(ctx(5)).hit
        c.fill(ctx(5))
        assert c.access(ctx(5)).hit

    def test_fill_returns_no_eviction_when_invalid_ways(self):
        c = make_cache()
        evicted, extra = c.fill(ctx(0))
        assert evicted is None
        assert extra == 0

    def test_eviction_when_set_full(self):
        c = make_cache(sets=1, ways=2)
        c.fill(ctx(0))
        c.fill(ctx(1))
        evicted, _ = c.fill(ctx(2))
        assert evicted is not None
        assert evicted.block in (0, 1)

    def test_lru_eviction_order(self):
        c = make_cache(sets=1, ways=2)
        c.fill(ctx(0))
        c.fill(ctx(1))
        c.access(ctx(0))  # 0 is now MRU
        evicted, _ = c.fill(ctx(2))
        assert evicted.block == 1

    def test_dirty_tracking_via_write_access(self):
        c = make_cache(sets=1, ways=2)
        c.fill(ctx(0))
        c.access(ctx(0, write=True))
        c.fill(ctx(1))
        evicted, _ = c.fill(ctx(2))  # evicts 0 or 1; 1 is MRU so evicts 0
        assert evicted.block == 0
        assert evicted.dirty

    def test_writeback_fill_is_dirty(self):
        c = make_cache(sets=1, ways=1)
        c.fill(ctx(0, kind=WRITEBACK))
        evicted, _ = c.fill(ctx(1))
        assert evicted.dirty

    def test_refill_resident_block_refreshes(self):
        c = make_cache(sets=1, ways=2)
        c.fill(ctx(0))
        evicted, extra = c.fill(ctx(0, write=True))
        assert evicted is None
        blocks = c.blocks_in_set(0)
        way = c.find_way(0, 0)
        assert blocks[way].dirty

    def test_contains(self):
        c = make_cache()
        assert not c.contains(7)
        c.fill(ctx(7))
        assert c.contains(7)

    def test_invalidate(self):
        c = make_cache()
        c.fill(ctx(3))
        assert c.invalidate(3)
        assert not c.contains(3)
        assert not c.invalidate(3)

    def test_occupancy(self):
        c = make_cache(sets=2, ways=2)
        assert c.occupancy() == 0.0
        c.fill(ctx(0))
        assert c.occupancy() == pytest.approx(0.25)


class TestStats:
    def test_demand_counters(self):
        c = make_cache()
        c.access(ctx(0))
        c.fill(ctx(0))
        c.access(ctx(0))
        s = c.stats
        assert s.demand_accesses == 2
        assert s.demand_misses == 1
        assert s.demand_hits == 1
        assert s.fills == 1

    def test_prefetch_counters_separate(self):
        c = make_cache()
        c.access(ctx(0, kind=PREFETCH))
        s = c.stats
        assert s.prefetch_accesses == 1
        assert s.demand_accesses == 0

    def test_writebacks_out_counted(self):
        c = make_cache(sets=1, ways=1)
        c.fill(ctx(0, write=True, kind=WRITEBACK))
        c.fill(ctx(1))
        assert c.stats.writebacks_out == 1

    def test_hit_rate(self):
        c = make_cache()
        c.fill(ctx(0))
        c.access(ctx(0))
        c.access(ctx(1))
        assert c.stats.hit_rate == pytest.approx(0.5)

    def test_per_set_stats(self):
        c = make_cache(sets=4, track_set_stats=True)
        c.access(ctx(0))
        c.access(ctx(1))
        c.fill(ctx(1))
        c.access(ctx(1))
        assert c.set_accesses[0] == 1
        assert c.set_misses[0] == 1
        assert c.set_accesses[1] == 2
        assert c.set_misses[1] == 1

    def test_writeback_not_in_set_stats(self):
        c = make_cache(sets=4, track_set_stats=True)
        c.access(ctx(0, kind=WRITEBACK))
        assert c.set_accesses[0] == 0

    def test_merge(self):
        c1, c2 = make_cache(), make_cache()
        c1.access(ctx(0))
        c2.access(ctx(0))
        c2.access(ctx(1))
        merged = c1.stats.merge(c2.stats)
        assert merged.accesses == 3


class BypassingPolicy(ReplacementPolicy):
    """Always bypasses, charging 5 cycles of pending latency."""

    def choose_victim(self, set_idx, blocks, ctx):
        self.add_fill_latency(5)
        return self.BYPASS


class TestBypass:
    def test_bypass_skips_install_and_collects_latency(self):
        c = Cache("t", 2, 2, BypassingPolicy(2, 2))
        evicted, extra = c.fill(ctx(0))
        assert evicted is None
        assert extra == 5
        assert not c.contains(0)
        assert c.stats.bypasses == 1


# ---------------------------------------------------------------------------
# The per-set tag map behind find_way, checked against a linear scan
# ---------------------------------------------------------------------------

MAP_SETS, MAP_WAYS, MAP_BLOCKS = 4, 2, 24


class OddPCBypassLRU(LRUPolicy):
    """LRU that bypasses every fill from an odd PC."""

    def choose_victim(self, set_idx, blocks, ctx):
        if ctx.pc & 1:
            return self.BYPASS
        return super().choose_victim(set_idx, blocks, ctx)


def _sampled(policy_cls):
    return lambda s, w: policy_cls(
        s, w, selector=ExplicitSampledSets(s, [0, 1]), seed=0)


MAP_POLICIES = {
    "lru": LRUPolicy,
    "srrip": SRRIPPolicy,
    "hawkeye": _sampled(HawkeyePolicy),
    "mockingjay": _sampled(MockingjayPolicy),
    "odd-pc-bypass": OddPCBypassLRU,
}

map_ops = st.lists(st.tuples(
    st.sampled_from(["access", "fill", "invalidate"]),
    st.integers(0, MAP_BLOCKS - 1),
    st.sampled_from([DEMAND, PREFETCH, WRITEBACK]),
    st.booleans(),
    st.integers(0, 3)), max_size=80)


def scan_way(cache, set_idx, block):
    """The linear tag scan the map replaced: the reference answer."""
    for way, line in enumerate(cache.blocks_in_set(set_idx)):
        if line.valid and line.block == block:
            return way
    return None


def map_cache(policy):
    return Cache("t", MAP_SETS, MAP_WAYS,
                 MAP_POLICIES[policy](MAP_SETS, MAP_WAYS))


def apply_op(c, cycle, op, block, kind, write, pc):
    """Run one generated step; checks an access's way on the way."""
    context = ctx(block, pc=0x400 + pc, write=write, kind=kind, cycle=cycle)
    if op == "access":
        outcome = c.access(context)
        assert outcome.way == scan_way(c, block % MAP_SETS, block)
    elif op == "fill":
        c.fill(context)
    else:
        c.invalidate(block)


def assert_shared_line_untouched():
    """INVALID_LINE still reads as a fresh line and refuses every write."""
    fresh = CacheBlock()
    for name in CacheBlock.__slots__:
        assert getattr(INVALID_LINE, name) == getattr(fresh, name)
        with pytest.raises(AttributeError):
            setattr(INVALID_LINE, name, getattr(fresh, name))


def allocated_lines(cache):
    """Lines of *cache* other than the shared invalid line."""
    return [line for s in range(cache.num_sets)
            for line in cache.blocks_in_set(s) if line is not INVALID_LINE]


class TestTagMap:
    @pytest.mark.parametrize("policy", sorted(MAP_POLICIES))
    @settings(max_examples=60, deadline=None)
    @given(ops=map_ops)
    def test_find_way_matches_linear_scan(self, policy, ops):
        c = map_cache(policy)
        for cycle, step in enumerate(ops):
            apply_op(c, cycle, *step)
            for set_idx in range(MAP_SETS):
                for b in range(MAP_BLOCKS):
                    assert c.find_way(set_idx, b) == scan_way(c, set_idx, b)
            valid = sum(line.valid for s in range(MAP_SETS)
                        for line in c.blocks_in_set(s))
            assert sum(len(ways) for ways in c._ways) == valid

    @pytest.mark.parametrize("policy", sorted(MAP_POLICIES))
    @settings(max_examples=60, deadline=None)
    @given(ops=map_ops)
    def test_unmapped_ways_hold_the_shared_invalid_line(self, policy, ops):
        c = map_cache(policy)
        for cycle, step in enumerate(ops):
            apply_op(c, cycle, *step)
            for set_idx in range(MAP_SETS):
                mapped = set(c._ways[set_idx].values())
                for way, line in enumerate(c.blocks_in_set(set_idx)):
                    if way in mapped:
                        assert line is not INVALID_LINE and line.valid
                    else:
                        assert line is INVALID_LINE and not line.valid
            assert_shared_line_untouched()


class TestSharedInvalidLine:
    """Ways share one read-only invalid line until their first fill."""

    @staticmethod
    def system():
        return SystemConfig.from_profile(16, ScaleProfile.smoke())

    def test_copies_keep_the_one_shared_line(self):
        c = make_cache(sets=2, ways=2)
        c.fill(ctx(0))
        for clone in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert clone.blocks_in_set(0)[1] is INVALID_LINE
            assert clone.blocks_in_set(1) == [INVALID_LINE] * 2
            assert clone.contains(0) and clone.blocks_in_set(0)[0].valid

    def test_fresh_hierarchy_allocates_no_lines(self):
        h = MemoryHierarchy(self.system())
        for cache in [*h.l1, *h.l2, *h.llc.slices]:
            assert allocated_lines(cache) == []

    def test_alone_run_leaves_idle_cores_unallocated(self):
        config = self.system()
        trace = make_spec_trace("mcf", config.llc_lines_per_core, 16,
                                config.llc_sets_per_slice, 800, seed=1)
        sim = Simulator(config, [trace])
        sim.run()
        h = sim.hierarchy
        for core in range(1, 16):
            assert allocated_lines(h.l1[core]) == []
            assert allocated_lines(h.l2[core]) == []
        assert any(allocated_lines(sl) for sl in h.llc.slices)
        assert_shared_line_untouched()
