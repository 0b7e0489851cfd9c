"""Generic set-associative cache with a pluggable replacement policy.

The cache is purely functional state (lookup / access / fill / invalidate);
latency and ordering live in :mod:`repro.cache.hierarchy` and the CPU
timing model.  Lookups go through a per-set ``{block: way}`` map kept by
:meth:`Cache.fill` and :meth:`Cache.invalidate`, the only places a line's
tag or valid bit changes.  An empty way holds the shared, read-only
:data:`~repro.cache.block.INVALID_LINE`; ``fill`` gives a way its own
:class:`CacheBlock` when it installs a line there, and ``invalidate``
puts the shared line back.  The map never points at the shared line.
Replacement policies receive hook calls:

* ``access(set_idx, ctx, hit, way)`` on every access routed to the cache,
* ``choose_victim(set_idx, blocks, ctx)`` when a fill needs a way
  (may return ``ReplacementPolicy.BYPASS``),
* ``on_fill(set_idx, way, ctx)`` after installation — its integer return
  value is extra fill-path latency in cycles (Drishti's predictor fabric
  charges remote-predictor lookups here),
* ``on_evict(set_idx, way, block, ctx)`` before a valid line leaves.

A policy that keeps the base class's no-op ``on_evict`` is not called
for it.  After a fill the cache drains the policy's pending fill latency
(:meth:`ReplacementPolicy.add_fill_latency`) itself; after a bypass it
calls ``take_fill_latency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

import numpy as np

from repro.cache.block import INVALID_LINE, AccessContext, CacheBlock

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.replacement.base import ReplacementPolicy


@dataclass
class CacheStats:
    """Counters for one cache (or one LLC slice)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_hits: int = 0
    fills: int = 0
    bypasses: int = 0
    evictions: int = 0
    writebacks_out: int = 0
    writeback_fills: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return element-wise sum with *other* (for aggregating slices)."""
        merged = CacheStats()
        for name in vars(self):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged


@dataclass
class EvictedBlock:
    """A line evicted by a fill; the hierarchy routes dirty ones downward."""

    block: int
    dirty: bool
    pc: int
    core_id: int


class AccessOutcome(NamedTuple):
    """Result of a cache access.

    Immutable: :meth:`Cache.access` returns :data:`MISS` for every miss
    and one shared outcome per way for hits.
    """

    hit: bool
    way: Optional[int] = None


#: The outcome of every cache miss.
MISS = AccessOutcome(hit=False)


class Cache:
    """A set-associative cache bound to a replacement policy instance.

    Args:
        name: for diagnostics ("L1D-3", "LLC-slice-7", ...).
        num_sets: power-of-two set count.
        num_ways: associativity.
        policy: replacement policy implementing the hook protocol above.
        track_set_stats: keep per-set access/miss counters (needed by the
            Figure 5 analysis and the dynamic sampled cache experiments).
    """

    def __init__(self, name: str, num_sets: int, num_ways: int,
                 policy: "ReplacementPolicy",
                 track_set_stats: bool = False):
        if num_sets < 1 or (num_sets & (num_sets - 1)) != 0:
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        if num_ways < 1:
            raise ValueError(f"num_ways must be >= 1, got {num_ways}")
        self.name = name
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.policy = policy
        self.stats = CacheStats()
        self._sets: List[List[CacheBlock]] = [
            [INVALID_LINE] * num_ways for _ in range(num_sets)
        ]
        # Valid lines of each set, block -> way.
        self._ways: List[Dict[int, int]] = [{} for _ in range(num_sets)]
        self._set_mask = num_sets - 1
        self._hit_outcomes = tuple(AccessOutcome(hit=True, way=way)
                                   for way in range(num_ways))
        # Imported here: repro.replacement.base imports repro.cache.
        from repro.replacement.base import ReplacementPolicy
        self._calls_on_evict = (type(policy).on_evict
                                is not ReplacementPolicy.on_evict)
        self.track_set_stats = track_set_stats
        if track_set_stats:
            self.set_accesses = np.zeros(num_sets, dtype=np.int64)
            self.set_misses = np.zeros(num_sets, dtype=np.int64)
        else:
            self.set_accesses = None
            self.set_misses = None

    # ------------------------------------------------------------------
    # Indexing helpers
    # ------------------------------------------------------------------
    def set_index(self, block: int) -> int:
        """Set index for a block number (low block bits)."""
        return block & self._set_mask

    def blocks_in_set(self, set_idx: int) -> List[CacheBlock]:
        return self._sets[set_idx]

    def find_way(self, set_idx: int, block: int) -> Optional[int]:
        """Way holding *block* in *set_idx*, or None (no side effects)."""
        return self._ways[set_idx].get(block)

    def contains(self, block: int) -> bool:
        """True if *block* is resident (no side effects)."""
        return block in self._ways[block & self._set_mask]

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def access(self, ctx: AccessContext) -> AccessOutcome:
        """Look up *ctx.block*; update stats and notify the policy.

        Does not fill on a miss — the hierarchy fills after the lower
        levels respond, via :meth:`fill`.
        """
        block = ctx.block
        set_idx = block & self._set_mask
        way = self._ways[set_idx].get(block)
        stats = self.stats
        stats.accesses += 1
        if way is None:
            stats.misses += 1
            if ctx.is_demand:
                stats.demand_accesses += 1
                stats.demand_misses += 1
            elif ctx.is_prefetch:
                stats.prefetch_accesses += 1
            if self.track_set_stats and not ctx.is_writeback:
                self.set_accesses[set_idx] += 1
                self.set_misses[set_idx] += 1
            self.policy.access(set_idx, ctx, False, None)
            return MISS

        stats.hits += 1
        if ctx.is_demand:
            stats.demand_accesses += 1
            stats.demand_hits += 1
        elif ctx.is_prefetch:
            stats.prefetch_accesses += 1
            stats.prefetch_hits += 1
        if self.track_set_stats and not ctx.is_writeback:
            self.set_accesses[set_idx] += 1
        line = self._sets[set_idx][way]
        line.last_touch = ctx.cycle
        if ctx.is_write or ctx.is_writeback:
            line.dirty = True
        self.policy.access(set_idx, ctx, True, way)
        return self._hit_outcomes[way]

    def fill(self, ctx: AccessContext):
        """Install *ctx.block*; returns ``(evicted, extra_latency)``.

        ``evicted`` is an :class:`EvictedBlock` or None (invalid victim or
        bypass); ``extra_latency`` is the policy's fill-path overhead in
        cycles (zero for conventional policies).
        """
        block = ctx.block
        set_idx = block & self._set_mask
        blocks = self._sets[set_idx]
        ways = self._ways[set_idx]

        # Refilling a resident block (e.g. a writeback-allocate racing a
        # demand fill) just refreshes the line.
        existing = ways.get(block)
        if existing is not None:
            line = blocks[existing]
            line.last_touch = ctx.cycle
            if ctx.is_write or ctx.is_writeback:
                line.dirty = True
            return None, 0

        policy = self.policy
        stats = self.stats
        victim_way = policy.choose_victim(set_idx, blocks, ctx)
        if victim_way == policy.BYPASS:
            stats.bypasses += 1
            return None, policy.take_fill_latency()

        line = blocks[victim_way]
        evicted = None
        if line.valid:
            if self._calls_on_evict:
                policy.on_evict(set_idx, victim_way, line, ctx)
            del ways[line.block]
            evicted = EvictedBlock(block=line.block, dirty=line.dirty,
                                   pc=line.pc, core_id=line.core_id)
            stats.evictions += 1
            if line.dirty:
                stats.writebacks_out += 1
        else:
            line = blocks[victim_way] = CacheBlock()

        line.valid = True
        line.block = block
        line.dirty = ctx.is_write or ctx.is_writeback
        line.pc = ctx.pc
        line.core_id = ctx.core_id
        line.is_prefetch = ctx.is_prefetch
        line.inserted_at = line.last_touch = ctx.cycle
        ways[block] = victim_way
        stats.fills += 1
        if ctx.is_writeback:
            stats.writeback_fills += 1
        extra = policy.on_fill(set_idx, victim_way, ctx) or 0
        # ReplacementPolicy.take_fill_latency, inline.
        pending = policy._pending_fill_latency
        if pending:
            policy._pending_fill_latency = 0
        return evicted, extra + pending

    def invalidate(self, block: int) -> bool:
        """Drop *block* if present; returns True if it was resident."""
        set_idx = block & self._set_mask
        way = self._ways[set_idx].pop(block, None)
        if way is None:
            return False
        self._sets[set_idx][way] = INVALID_LINE
        return True

    def occupancy(self) -> float:
        """Fraction of ways currently valid (diagnostics)."""
        valid = sum(len(ways) for ways in self._ways)
        return valid / (self.num_sets * self.num_ways)

    def __repr__(self) -> str:
        return (f"Cache({self.name!r}, {self.num_sets}x{self.num_ways}, "
                f"policy={type(self.policy).__name__})")
