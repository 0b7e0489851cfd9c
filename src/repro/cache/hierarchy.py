"""The full memory hierarchy: L1D + L2 per core, sliced LLC, DRAM.

One demand access flows: L1D → L2 → home LLC slice (over the mesh, NUCA)
→ DRAM, filling back up on the way.  Non-inclusive levels: an LLC
eviction does not invalidate private copies.  Dirty evictions ripple
down: L1 → L2 → LLC → DRAM; writebacks never stall cores but do consume
DRAM bandwidth and cache fills.

Prefetchers observe each level's demand stream; their proposals run the
same path with kind=PREFETCH (no core stall, real bandwidth, late
prefetches covered by the pending-fill table).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.block import (
    DEMAND,
    PREFETCH,
    WRITEBACK,
    AccessContext,
)
from repro.cache.cache import Cache
from repro.cache.sliced_llc import SlicedLLC
from repro.dram.controller import DRAMController
from repro.dram.timing import DRAMTiming
from repro.interconnect.mesh import MeshNoC
from repro.prefetch.registry import make_prefetcher
from repro.replacement.lru import LRUPolicy
from repro.replacement.registry import PolicySpec
from repro.replacement.rrip import SRRIPPolicy
from repro.sim.config import SystemConfig
from repro.traces.trace import MemoryAccess


class CoreStats:
    """Per-core hierarchy counters (MPKI numerators)."""

    __slots__ = ("l1_accesses", "l1_misses", "l2_accesses", "l2_misses",
                 "llc_accesses", "llc_misses")

    def __init__(self) -> None:
        self.l1_accesses = 0
        self.l1_misses = 0
        self.l2_accesses = 0
        self.l2_misses = 0
        self.llc_accesses = 0
        self.llc_misses = 0


class MemoryHierarchy:
    """Builds and drives the memory system described by a SystemConfig.

    Args:
        config: system description.
        registry: optional :class:`repro.obs.StatsRegistry`; when given,
            every component (sliced LLC + fabric/NOCSTAR/DSC, DRAM
            controller, mesh, per-core counters) publishes its existing
            stats objects into it at construction.  Purely additive —
            counting and reset semantics are unchanged.
    """

    def __init__(self, config: SystemConfig, registry=None):
        self.config = config
        n = config.num_cores
        self.mesh = MeshNoC(
            n,
            router_cycles=config.noc.router_cycles,
            link_cycles=config.noc.link_cycles,
            injection_cycles=config.noc.injection_cycles,
            congestion_per_node=config.noc.congestion_per_node)
        self.llc = SlicedLLC(
            num_slices=n,
            sets_per_slice=config.llc_sets_per_slice,
            ways=config.llc_ways,
            policy_spec=PolicySpec(config.llc_policy,
                                   dict(config.llc_policy_params)),
            drishti=config.drishti,
            mesh=self.mesh,
            hash_scheme=config.hash_scheme,
            track_set_stats=config.track_set_stats,
            seed=config.seed,
            registry=registry)
        timing = DRAMTiming.for_frequency(config.core.frequency_ghz,
                                          config.dram.t_ns)
        self.dram = DRAMController(
            num_channels=config.dram.channels_for(n),
            banks_per_channel=config.dram.banks_per_channel,
            timing=timing)
        self.l1: List[Cache] = [
            Cache(f"L1D-{i}", config.l1.sets, config.l1.ways,
                  LRUPolicy(config.l1.sets, config.l1.ways))
            for i in range(n)
        ]
        self.l2: List[Cache] = [
            Cache(f"L2-{i}", config.l2.sets, config.l2.ways,
                  SRRIPPolicy(config.l2.sets, config.l2.ways))
            for i in range(n)
        ]
        self.prefetchers = [make_prefetcher(config.prefetcher)
                            for _ in range(n)]
        if config.model_tlb:
            from repro.cpu.tlb import TranslationUnit
            self.tlbs = [TranslationUnit() for _ in range(n)]
        else:
            self.tlbs = None
        self.core_stats = [CoreStats() for _ in range(n)]
        # block -> fill completion cycle; models late prefetches and
        # merged in-flight misses without a cycle wheel.
        self._pending_fill: Dict[int, float] = {}
        self._pending_cap = 4096
        if registry is not None:
            self.publish_stats(registry)

    def publish_stats(self, registry) -> None:
        """Register DRAM/mesh/per-core counters with *registry*.

        The LLC publishes itself from its own constructor; this covers
        the rest.  Per-core sources index through ``self.core_stats``
        because ``reset_stats`` replaces the ``CoreStats`` objects.
        """
        self.dram.publish_stats(registry, prefix="dram")
        self.mesh.publish_stats(registry, prefix="noc")
        if self.tlbs is not None:
            for i, unit in enumerate(self.tlbs):
                unit.publish_stats(registry, prefix=f"core.{i}.tlb")
        for i in range(self.config.num_cores):
            for attr in CoreStats.__slots__:
                registry.register(
                    f"core.{i}.{attr}",
                    lambda i=i, a=attr: getattr(self.core_stats[i], a))

    # ------------------------------------------------------------------
    # Writeback paths
    # ------------------------------------------------------------------
    def _back_invalidate(self, block: int) -> None:
        """Inclusive mode: drop private copies of an LLC-evicted block."""
        for cache in self.l1 + self.l2:
            cache.invalidate(block)

    def _handle_llc_eviction(self, evicted, cycle: int) -> None:
        if evicted is None:
            return
        if evicted.dirty:
            self.dram.write(evicted.block, now=cycle)
        if self.config.llc_inclusive:
            self._back_invalidate(evicted.block)

    def _writeback_to_llc(self, core_id: int, block: int, cycle: int) -> None:
        ctx = AccessContext(pc=0, block=block, core_id=core_id,
                            is_write=True, kind=WRITEBACK, cycle=cycle)
        slice_id = self.llc.slice_of(block)
        self.mesh.latency(core_id, slice_id, traffic_class="writeback")
        if self.llc.slices[slice_id].find_way(
                self.llc.slices[slice_id].set_index(block), block) is not None:
            # Present: just mark dirty (counted as a writeback access).
            self.llc.slices[slice_id].access(ctx)
            return
        evicted, _extra = self.llc.fill(ctx)
        self._handle_llc_eviction(evicted, cycle)

    def _writeback_to_l2(self, core_id: int, block: int, cycle: int) -> None:
        l2 = self.l2[core_id]
        ctx = AccessContext(pc=0, block=block, core_id=core_id,
                            is_write=True, kind=WRITEBACK, cycle=cycle)
        if l2.find_way(l2.set_index(block), block) is not None:
            l2.access(ctx)
            return
        evicted = l2.fill(ctx)[0]
        if evicted is not None and evicted.dirty:
            self._writeback_to_llc(core_id, evicted.block, cycle)

    # ------------------------------------------------------------------
    # Pending-fill (in-flight miss) bookkeeping
    # ------------------------------------------------------------------
    def _note_pending(self, block: int, completion: float) -> None:
        if len(self._pending_fill) >= self._pending_cap:
            self._pending_fill.clear()
        self._pending_fill[block] = completion

    def _pending_wait(self, block: int, now: float) -> float:
        completion = self._pending_fill.pop(block, None)
        if completion is None or completion <= now:
            return 0.0
        # Keep the entry for other cores that may also be waiting.
        self._pending_fill[block] = completion
        return completion - now

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def demand_access(self, core_id: int, access: MemoryAccess,
                      cycle: int) -> float:
        """Run one demand access; returns the latency the core observes."""
        cfg = self.config
        stats = self.core_stats[core_id]
        block = access.block
        ctx = AccessContext(pc=access.pc, block=block, core_id=core_id,
                            is_write=access.is_write, kind=DEMAND,
                            cycle=cycle)

        latency = float(cfg.l1.latency)
        if self.tlbs is not None:
            latency += self.tlbs[core_id].translate(access.address)
        l1 = self.l1[core_id]
        stats.l1_accesses += 1
        l1_hit = l1.access(ctx).hit
        self._observe_l1_prefetcher(core_id, access.pc, block, l1_hit, cycle)
        if l1_hit:
            latency += self._pending_wait(block, cycle + latency)
            return latency

        stats.l1_misses += 1
        latency += cfg.l2.latency
        l2 = self.l2[core_id]
        stats.l2_accesses += 1
        outcome = l2.access(ctx)
        self._observe_l2_prefetcher(core_id, access.pc, block, outcome.hit,
                                    cycle)
        if outcome.hit:
            self._credit_prefetch(l2, block, outcome.way, core_id)
            latency += self._pending_wait(block, cycle + latency)
            self._fill_l1(core_id, ctx, cycle)
            return latency

        stats.l2_misses += 1
        latency = self.llc_demand(core_id, ctx, self.llc.slice_of(block),
                                  cycle, latency)
        self._fill_l2(core_id, ctx, cycle)
        self._fill_l1(core_id, ctx, cycle)
        return latency

    def llc_demand(self, core_id: int, ctx: AccessContext, slice_id: int,
                   cycle: int, latency: float) -> float:
        """The L2-miss half of a demand access; returns *latency* plus
        the mesh round trip to home slice *slice_id*, the slice access
        and, on an LLC miss, the in-flight fill or DRAM read it waits
        for and the LLC fill (a dirty victim is written to DRAM)."""
        stats = self.core_stats[core_id]
        block = ctx.block
        latency += self.mesh.latency(core_id, slice_id, traffic_class="llc")
        latency += self.config.llc_latency
        stats.llc_accesses += 1
        ctx.slice_id = slice_id
        llc_slice = self.llc.slices[slice_id]
        llc_outcome = llc_slice.access(ctx)
        if llc_outcome.hit:
            self._credit_prefetch(llc_slice, block, llc_outcome.way, core_id)
        else:
            stats.llc_misses += 1
            wait = self._pending_wait(block, cycle + latency)
            if wait > 0:
                # Another request already fetched this block; ride it.
                latency += wait
            else:
                dram_latency = self.dram.read(block,
                                              now=int(cycle + latency))
                latency += dram_latency
                self._note_pending(block, cycle + latency)
            evicted, extra = self.llc.fill(ctx)
            latency += extra
            self._handle_llc_eviction(evicted, int(cycle + latency))
        return latency + self.mesh.latency(slice_id, core_id,
                                           traffic_class="llc")

    def _fill_l1(self, core_id: int, ctx: AccessContext, cycle: int) -> None:
        evicted = self.l1[core_id].fill(ctx)[0]
        if evicted is not None and evicted.dirty:
            self._writeback_to_l2(core_id, evicted.block, cycle)

    def _fill_l2(self, core_id: int, ctx: AccessContext, cycle: int) -> None:
        evicted = self.l2[core_id].fill(ctx)[0]
        if evicted is not None and evicted.dirty:
            self._writeback_to_llc(core_id, evicted.block, cycle)

    @staticmethod
    def _credit_prefetch(cache: Cache, block: int, way: Optional[int],
                         core_id: int) -> None:
        if way is None:
            return
        line = cache.blocks_in_set(cache.set_index(block))[way]
        line.is_prefetch = False  # first demand touch consumes the credit

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------
    def _observe_l1_prefetcher(self, core_id: int, pc: int, block: int,
                               hit: bool, cycle: int) -> None:
        l1_pf, _l2_pf = self.prefetchers[core_id]
        for candidate in l1_pf.observe(pc, block, hit):
            self._issue_prefetch(core_id, pc, candidate, "l1", cycle, l1_pf)

    def _observe_l2_prefetcher(self, core_id: int, pc: int, block: int,
                               hit: bool, cycle: int) -> None:
        _l1_pf, l2_pf = self.prefetchers[core_id]
        for candidate in l2_pf.observe(pc, block, hit):
            self._issue_prefetch(core_id, pc, candidate, "l2", cycle, l2_pf)

    def _issue_prefetch(self, core_id: int, pc: int, block: int,
                        fill_level: str, cycle: int, prefetcher) -> None:
        l1 = self.l1[core_id]
        l2 = self.l2[core_id]
        if fill_level == "l1" and l1.contains(block):
            return
        if l2.contains(block):
            if fill_level == "l1":
                ctx = AccessContext(pc=pc, block=block, core_id=core_id,
                                    kind=PREFETCH, cycle=cycle)
                self._fill_l1(core_id, ctx, cycle)
                prefetcher.stats.issued += 1
            return
        prefetcher.stats.issued += 1
        ctx = AccessContext(pc=pc, block=block, core_id=core_id,
                            kind=PREFETCH, cycle=cycle)
        slice_id = self.llc.slice_of(block)
        latency = float(self.config.l2.latency)
        ctx.slice_id = slice_id
        llc_hit = self.llc.slices[slice_id].access(ctx).hit
        if not llc_hit:
            latency += self.mesh.latency(core_id, slice_id,
                                         traffic_class="prefetch")
            latency += self.config.llc_latency
            if self._pending_fill.get(block, 0) <= cycle + latency:
                latency += self.dram.read(block, now=int(cycle + latency))
                self._note_pending(block, cycle + latency)
            evicted, _extra = self.llc.fill(ctx)
            self._handle_llc_eviction(evicted, int(cycle + latency))
        self._fill_l2(core_id, ctx, cycle)
        if fill_level == "l1":
            self._fill_l1(core_id, ctx, cycle)

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all counters, keep learned state (post-warmup)."""
        self.llc.reset_stats()
        self.dram.reset_stats()
        self.mesh.reset_stats()
        if self.tlbs is not None:
            for unit in self.tlbs:
                unit.reset_stats()
        for cache in self.l1 + self.l2:
            cache.stats = type(cache.stats)()
        for i in range(self.config.num_cores):
            self.core_stats[i] = CoreStats()
        for l1_pf, l2_pf in self.prefetchers:
            l1_pf.stats = type(l1_pf.stats)()
            l2_pf.stats = type(l2_pf.stats)()
