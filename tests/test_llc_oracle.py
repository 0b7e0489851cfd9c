"""The LLC checked against models that share no code with it.

A one-core, prefetcher-less run records every LLC visit's block in
order (demand misses from L2 and dirty L2 writebacks).  Replaying that
stream through :mod:`repro.analysis.opt_bound` gives two independent
references: an LRU LLC must miss exactly as often as the offline LRU
model, and no policy may beat Belady's OPT.  A writeback that misses
the LLC fills it without counting an access miss, so the simulator's
side of the comparison is ``misses + writeback_fills``.

The bare :class:`Cache` is checked against the closed form of a cyclic
loop in one LRU set.
"""

import pytest

from repro.analysis.opt_bound import lru_misses, opt_misses
from repro.cache.block import DEMAND, AccessContext
from repro.cache.cache import Cache
from repro.cache.hierarchy import MemoryHierarchy
from repro.replacement.lru import LRUPolicy
from repro.sim.config import ScaleProfile, SystemConfig
from repro.sim.simulator import Simulator
from repro.traces.mixes import homogeneous_mix, make_mix


@pytest.fixture(autouse=True)
def _hermetic_kernel_selection(monkeypatch):
    """An ambient REPRO_SIM_KERNEL would override ``sim_kernel``."""
    monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)


@pytest.fixture
def llc_stream(monkeypatch):
    """Blocks of every LLC visit, in order, for runs in this test."""
    stream = []
    demand = MemoryHierarchy.llc_demand
    writeback = MemoryHierarchy._writeback_to_llc

    def llc_demand(self, core_id, ctx, slice_id, cycle, latency):
        stream.append(ctx.block)
        return demand(self, core_id, ctx, slice_id, cycle, latency)

    def writeback_to_llc(self, core_id, block, cycle):
        stream.append(block)
        return writeback(self, core_id, block, cycle)

    monkeypatch.setattr(MemoryHierarchy, "llc_demand", llc_demand)
    monkeypatch.setattr(MemoryHierarchy, "_writeback_to_llc",
                        writeback_to_llc)
    return stream


def run_one_core(workload, policy, kernel):
    cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                    llc_policy=policy, seed=9,
                                    prefetcher="none", sim_kernel=kernel)
    traces = make_mix(homogeneous_mix(workload, 1), cfg, 6000, seed=9)
    sim = Simulator(cfg, traces, warmup_accesses=0)
    result = sim.run()
    assert sim.kernel_used == kernel
    stats = result.llc_stats
    return cfg, stats.misses + stats.writeback_fills


@pytest.mark.parametrize("kernel", ["reference", "vector"])
@pytest.mark.parametrize("workload", ["mcf", "xalancbmk", "omnetpp"])
class TestLLCAgainstOfflineModels:
    def test_lru_llc_matches_offline_lru(self, llc_stream, workload,
                                         kernel):
        cfg, fills = run_one_core(workload, "lru", kernel)
        assert len(llc_stream) > cfg.llc_sets_per_slice * cfg.llc_ways
        oracle = lru_misses(llc_stream, cfg.llc_sets_per_slice,
                            cfg.llc_ways)
        assert fills == oracle.misses

    @pytest.mark.parametrize("policy", ["hawkeye", "srrip"])
    def test_policy_never_beats_opt(self, llc_stream, workload, kernel,
                                    policy):
        cfg, fills = run_one_core(workload, policy, kernel)
        bound = opt_misses(llc_stream, cfg.llc_sets_per_slice,
                           cfg.llc_ways)
        assert fills >= bound.misses


def cyclic_loop_hits(num_blocks, ways, passes=4, sets=4):
    """Hits per pass when one LRU set loops over *num_blocks* blocks."""
    cache = Cache("loop", sets, ways, LRUPolicy(sets, ways))
    blocks = [i * sets for i in range(num_blocks)]  # all in set 0
    hits = []
    for _ in range(passes):
        count = 0
        for block in blocks:
            ctx = AccessContext(pc=0x400, block=block, core_id=0,
                                kind=DEMAND)
            if cache.access(ctx).hit:
                count += 1
            else:
                cache.fill(ctx)
        hits.append(count)
    return hits


class TestCyclicLoopClosedForm:
    @pytest.mark.parametrize("ways,num_blocks", [(1, 2), (4, 5),
                                                 (8, 9), (8, 16)])
    def test_loop_larger_than_set_never_hits(self, ways, num_blocks):
        assert cyclic_loop_hits(num_blocks, ways) == [0, 0, 0, 0]

    @pytest.mark.parametrize("ways,num_blocks", [(1, 1), (4, 3),
                                                 (4, 4), (8, 8)])
    def test_loop_that_fits_hits_after_first_pass(self, ways,
                                                  num_blocks):
        assert cyclic_loop_hits(num_blocks, ways) == \
            [0] + [num_blocks] * 3
