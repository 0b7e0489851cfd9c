"""The sampled cache shared by sampler+predictor policies.

A sampled cache tracks the blocks recently seen in each *sampled set*:
who brought them (PC, core, prefetch bit) and when.  Hawkeye feeds the
"when" into OPTgen quanta; Mockingjay turns it into observed reuse
distances.  Capacity is bounded per sampled set; evicting an entry that
was never reused is itself a training signal (the block was brought and
not reused before falling out of the history window).

With Drishti's dynamic sampled cache, the set of sampled sets changes at
phase boundaries; :meth:`SampledCache.retarget` flushes state for
de-sampled sets so stale history cannot train the predictor.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class SampledEntry:
    """One tracked block in a sampled set."""

    __slots__ = ("block", "pc", "core_id", "is_prefetch", "time", "reused")

    def __init__(self, block: int, pc: int, core_id: int,
                 is_prefetch: bool, time: int):
        self.block = block
        self.pc = pc
        self.core_id = core_id
        self.is_prefetch = is_prefetch
        self.time = time
        self.reused = False

    def __repr__(self) -> str:
        return (f"SampledEntry(block={self.block:#x}, pc={self.pc:#x}, "
                f"core={self.core_id}, t={self.time})")


class SampledCache:
    """Bounded per-sampled-set history of recently seen blocks.

    Args:
        entries_per_set: associativity of each sampled set's history.
            Reference implementations keep ~40+ entries per sampled set
            (Hawkeye's 12 KB over 64 sets, Mockingjay's 9.41 KB over
            32) — enough to observe reuse across the 8x-associativity
            history window.  Too small a history mislabels real reuse
            as "never reused".
    """

    def __init__(self, entries_per_set: int = 48):
        if entries_per_set < 1:
            raise ValueError(
                f"entries_per_set must be >= 1, got {entries_per_set}")
        self.entries_per_set = entries_per_set
        self._sets: Dict[int, Dict[int, SampledEntry]] = {}
        self.insertions = 0
        self.reuse_hits = 0
        self.capacity_evictions = 0

    def lookup(self, set_idx: int, block: int) -> Optional[SampledEntry]:
        """Entry for *block* in sampled set *set_idx*, if tracked."""
        return self._sets.get(set_idx, {}).get(block)

    def update(self, set_idx: int, block: int, pc: int, core_id: int,
               is_prefetch: bool, time: int) -> Optional[SampledEntry]:
        """Record an access; returns the entry evicted to make room.

        If *block* is already tracked its entry is refreshed in place
        (callers read the old entry via :meth:`lookup` *before* calling
        update).  Otherwise the oldest entry is evicted when the sampled
        set's history is full — the caller trains "not reused" for it.
        """
        entries = self._sets.setdefault(set_idx, {})
        existing = entries.get(block)
        if existing is not None:
            existing.pc = pc
            existing.core_id = core_id
            existing.is_prefetch = is_prefetch
            existing.time = time
            existing.reused = True
            self.reuse_hits += 1
            return None

        evicted = None
        if len(entries) >= self.entries_per_set:
            oldest_block = min(entries, key=lambda b: entries[b].time)
            evicted = entries.pop(oldest_block)
            self.capacity_evictions += 1
        entries[block] = SampledEntry(block, pc, core_id, is_prefetch, time)
        self.insertions += 1
        return evicted

    def retarget(self, keep_sets: Iterable[int]) -> List[SampledEntry]:
        """Drop history for sets not in *keep_sets* (DSC reselection).

        Returns the dropped entries so a policy may train "not reused"
        for blocks whose observation was cut short — both Hawkeye and
        Mockingjay simply discard them, as the reference implementations
        do on sampler flushes.
        """
        keep = set(keep_sets)
        dropped: List[SampledEntry] = []
        for set_idx in list(self._sets):
            if set_idx not in keep:
                dropped.extend(self._sets[set_idx].values())
                del self._sets[set_idx]
        return dropped

    def flush(self) -> None:
        self._sets.clear()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets.values())
