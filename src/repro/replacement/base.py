"""Replacement-policy interface.

Every policy manages per-line metadata for one cache (one LLC slice in the
sliced configuration) and receives the hook calls documented in
:mod:`repro.cache.cache`.  The base class implements the no-op defaults so
simple policies only override what they need.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock

__all__ = ["ReplacementPolicy", "AccessContext"]


class ReplacementPolicy:
    """Base class for replacement policies.

    Args:
        num_sets: sets in the cache this instance is bound to.
        num_ways: associativity.

    Subclasses must implement :meth:`choose_victim`; the remaining hooks
    default to no-ops.
    """

    #: Sentinel victim meaning "do not install this fill" (non-inclusive
    #: LLCs may bypass; Mockingjay uses this for predicted-dead lines).
    BYPASS = -1

    #: Human-readable policy name, overridden by subclasses.
    name = "base"

    def __init__(self, num_sets: int, num_ways: int):
        if num_sets < 1 or num_ways < 1:
            raise ValueError("num_sets and num_ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self._pending_fill_latency = 0

    # -- hooks ----------------------------------------------------------
    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        """Called on every access routed to the cache (hit or miss)."""

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        """Return the way to evict for this fill, or :data:`BYPASS`."""
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        """Called after a line is installed.

        Returns extra fill-path latency in cycles (predictor lookups over
        an interconnect); conventional policies return 0.
        """
        return 0

    def on_evict(self, set_idx: int, way: int, block: CacheBlock,
                 ctx: AccessContext) -> None:
        """Called just before a valid line is evicted."""

    # -- fill-path latency ----------------------------------------------
    def add_fill_latency(self, cycles: int) -> None:
        """Accumulate fill-path latency (e.g. a remote predictor lookup).

        Policies that decide bypass in :meth:`choose_victim` consult their
        predictor there; the cache collects the charge afterwards,
        whether or not a fill happened.
        """
        self._pending_fill_latency += cycles

    def take_fill_latency(self) -> int:
        """Drain accumulated fill-path latency.

        The cache calls this after a bypass and drains
        ``_pending_fill_latency`` inline after a fill, so policies must
        not override it.
        """
        cycles = self._pending_fill_latency
        self._pending_fill_latency = 0
        return cycles

    # -- helpers --------------------------------------------------------
    @staticmethod
    def first_invalid(blocks: Sequence[CacheBlock]) -> Optional[int]:
        """Way of the first invalid line in the set, or None.

        The loop only reads ``valid``; the way comes from a C-level
        identity scan (``CacheBlock`` has no ``__eq__``), which stops at
        the first copy of that line object — in a cache, the shared
        :data:`~repro.cache.block.INVALID_LINE`.
        """
        for line in blocks:
            if not line.valid:
                return blocks.index(line)
        return None

    def reset(self) -> None:
        """Drop learned state (used between warmup and measurement)."""
