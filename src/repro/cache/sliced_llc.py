"""The sliced last-level cache.

One slice per core (paper Table 4), addresses spread over slices by the
complex hash in :mod:`repro.cache.slice_hash`.  Slices are physically
distributed (NUCA): the hierarchy charges mesh latency from the
requesting core's tile to the home slice for every LLC access.

The replacement machinery is built per slice by
:func:`repro.replacement.registry.build_llc_policies`, which also wires
the shared predictor fabric and per-slice sampled-set selectors according
to the active :class:`DrishtiConfig`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cache.block import AccessContext
from repro.cache.cache import Cache, CacheStats, EvictedBlock
from repro.cache.slice_hash import SliceHash
from repro.core.drishti import DrishtiConfig
from repro.interconnect.mesh import MeshNoC
from repro.replacement.registry import PolicySpec, build_llc_policies


class SlicedLLC:
    """An LLC made of per-core slices behind an address hash.

    Args:
        num_slices: slice count (== cores in the baseline).
        sets_per_slice: sets in each slice (2048 for a 2 MB 16-way slice).
        ways: associativity.
        policy_spec: replacement policy family + params.
        drishti: Drishti enhancement configuration.
        mesh: system NoC (for non-NOCSTAR predictor routing).
        hash_scheme: address-to-slice hash family.
        track_set_stats: keep per-set counters (Figure 5 / Table 1).
        seed: randomness seed for selectors.
        registry: optional :class:`repro.obs.StatsRegistry`; when given
            the LLC publishes its aggregate/per-slice counters plus its
            fabric, NOCSTAR, and DSC selectors under ``llc.*`` (existing
            stats objects remain the source of truth).
    """

    def __init__(self, num_slices: int, sets_per_slice: int, ways: int,
                 policy_spec: PolicySpec,
                 drishti: Optional[DrishtiConfig] = None,
                 mesh: Optional[MeshNoC] = None,
                 hash_scheme: str = "fold_xor",
                 track_set_stats: bool = False,
                 seed: int = 0,
                 registry=None):
        self.num_slices = num_slices
        self.sets_per_slice = sets_per_slice
        self.ways = ways
        self.policy_spec = policy_spec
        self.drishti = drishti if drishti is not None else \
            DrishtiConfig.baseline()
        self.hash = SliceHash(num_slices, scheme=hash_scheme)
        self.bundle = build_llc_policies(
            policy_spec, num_slices=num_slices, num_cores=num_slices,
            num_sets=sets_per_slice, num_ways=ways, drishti=self.drishti,
            mesh=mesh, seed=seed)
        self.slices: List[Cache] = [
            Cache(f"LLC-slice-{i}", sets_per_slice, ways,
                  self.bundle.policies[i], track_set_stats=track_set_stats)
            for i in range(num_slices)
        ]
        if registry is not None:
            self.publish_stats(registry)

    # ------------------------------------------------------------------
    #: CacheStats attributes published per aggregate and per slice.
    _PUBLISHED_STATS = ("accesses", "hits", "misses", "demand_accesses",
                        "demand_hits", "demand_misses", "fills", "bypasses",
                        "evictions", "writebacks_out", "writeback_fills")

    def publish_stats(self, registry, prefix: str = "llc") -> None:
        """Register LLC counters (and sub-components) with *registry*.

        Aggregate counters re-sum the per-slice ``CacheStats`` at
        collection time; per-slice counters read through each
        :class:`Cache` so ``reset_stats`` replacement is transparent.
        """
        for attr in self._PUBLISHED_STATS:
            registry.register(
                f"{prefix}.{attr}",
                lambda a=attr: getattr(self.aggregate_stats(), a))
        for i, sl in enumerate(self.slices):
            registry.register(f"{prefix}.slice.{i}.demand_accesses",
                              lambda s=sl: s.stats.demand_accesses)
            registry.register(f"{prefix}.slice.{i}.demand_misses",
                              lambda s=sl: s.stats.demand_misses)
        if self.fabric is not None:
            self.fabric.publish_stats(registry, prefix=f"{prefix}.fabric")
        if self.nocstar is not None:
            self.nocstar.publish_stats(registry, prefix="nocstar")
        for i, selector in enumerate(self.selectors or []):
            publish = getattr(selector, "publish_stats", None)
            if callable(publish):
                publish(registry, prefix=f"{prefix}.dsc.{i}")

    # ------------------------------------------------------------------
    @property
    def fabric(self):
        return self.bundle.fabric

    @property
    def nocstar(self):
        return self.bundle.nocstar

    @property
    def selectors(self):
        return self.bundle.selectors

    def slice_of(self, block: int) -> int:
        return self.hash.slice_of(block)

    def access(self, ctx: AccessContext) -> bool:
        """Route the access to its home slice; returns hit/miss."""
        ctx.slice_id = self.slice_of(ctx.block)
        return self.slices[ctx.slice_id].access(ctx).hit

    def fill(self, ctx: AccessContext, slice_id: Optional[int] = None
             ) -> Tuple[Optional[EvictedBlock], int]:
        """Install into the home slice; returns (evicted, extra_latency).

        A caller that has already hashed ``ctx.block`` passes its home
        *slice_id* so the block is hashed once per LLC visit.
        """
        if slice_id is None:
            slice_id = self.slice_of(ctx.block)
        ctx.slice_id = slice_id
        return self.slices[slice_id].fill(ctx)

    def contains(self, block: int) -> bool:
        return self.slices[self.slice_of(block)].contains(block)

    # ------------------------------------------------------------------
    def aggregate_stats(self) -> CacheStats:
        """Element-wise sum of all slices' counters."""
        total = CacheStats()
        for sl in self.slices:
            total = total.merge(sl.stats)
        return total

    def per_set_mpka(self) -> np.ndarray:
        """MPKA per (slice, set) — the Figure 5 matrix.

        Misses per kilo-*access*, where accesses are counted over the
        whole slice (so low-traffic sets score low even if every access
        misses, matching the paper's per-set view).
        """
        if not self.slices[0].track_set_stats:
            raise RuntimeError("SlicedLLC built without track_set_stats")
        mpka = np.zeros((self.num_slices, self.sets_per_slice))
        for i, sl in enumerate(self.slices):
            total_accesses = max(1, int(sl.set_accesses.sum()))
            mpka[i] = sl.set_misses * 1000.0 / total_accesses
        return mpka

    def reset_stats(self) -> None:
        """Zero counters while keeping learned state (post-warmup)."""
        for sl in self.slices:
            sl.stats = CacheStats()
            if sl.track_set_stats:
                sl.set_accesses.fill(0)
                sl.set_misses.fill(0)
        if self.fabric is not None:
            # Keep predictor contents; zero traffic counters only.
            self.fabric.reset_stats()
        if self.nocstar is not None:
            self.nocstar.reset_stats()

    def __repr__(self) -> str:
        return (f"SlicedLLC({self.num_slices} x {self.sets_per_slice}x"
                f"{self.ways}, policy={self.policy_spec.name!r})")
