"""Memory-access records and trace containers.

A trace is the unit of work one core executes.  Each record is a memory
access annotated with the number of non-memory instructions that retired
since the previous access (``instr_gap``), which is what the timing model in
:mod:`repro.cpu.core_model` uses to charge issue cycles between memory
operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Sequence)

import numpy as np

BLOCK_BYTES = 64
BLOCK_SHIFT = 6  # log2(BLOCK_BYTES)


def block_of(address: int) -> int:
    """Return the cache-block number of a byte *address*."""
    return address >> BLOCK_SHIFT


@dataclass(frozen=True, slots=True)
class MemoryAccess:
    """One demand memory access issued by a core.

    Attributes:
        pc: program counter of the load/store instruction.
        address: byte address accessed.
        is_write: True for stores.
        instr_gap: instructions retired since the previous memory access
            (used to charge front-end/issue cycles between accesses).
        dependent: the access needs the previous access's data (pointer
            chase) and cannot overlap with it.
        block: cache-block number, precomputed from ``address`` at
            construction (excluded from equality/repr — it is derived).
    """

    pc: int
    address: int
    is_write: bool = False
    instr_gap: int = 1
    dependent: bool = False
    block: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "block", self.address >> BLOCK_SHIFT)


@dataclass(frozen=True)
class TraceArrays:
    """Structure-of-arrays view of a trace (see :meth:`Trace.as_arrays`).

    All arrays share the trace's length and order.  ``home_slice`` is
    filled per ``(hash_scheme, num_slices)`` pair on request via
    :meth:`Trace.home_slices` and is not part of this container.
    """

    pc: np.ndarray          # int64
    block: np.ndarray       # int64
    is_write: np.ndarray    # bool_
    instr_gap: np.ndarray   # int64
    dependent: np.ndarray   # bool_

    def __len__(self) -> int:
        return len(self.pc)


@dataclass
class TraceStats:
    """Summary statistics of a trace, computed once on demand."""

    num_accesses: int
    num_instructions: int
    num_writes: int
    unique_pcs: int
    unique_blocks: int
    footprint_bytes: int

    @property
    def write_fraction(self) -> float:
        if self.num_accesses == 0:
            return 0.0
        return self.num_writes / self.num_accesses

    @property
    def accesses_per_kilo_instr(self) -> float:
        if self.num_instructions == 0:
            return 0.0
        return 1000.0 * self.num_accesses / self.num_instructions


class Trace:
    """An ordered sequence of :class:`MemoryAccess` records with a name.

    Traces are immutable once built; generators produce them eagerly so
    repeated simulations (alone vs together runs) replay identical streams.
    """

    def __init__(self, name: str, accesses: Sequence[MemoryAccess]):
        self.name = name
        self._accesses: List[MemoryAccess] = list(accesses)
        self._stats: Optional[TraceStats] = None
        self._arrays: Optional[TraceArrays] = None
        self._derived: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self._accesses)

    def __getitem__(self, idx: int) -> MemoryAccess:
        return self._accesses[idx]

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self._accesses)} accesses)"

    @property
    def accesses(self) -> Sequence[MemoryAccess]:
        return self._accesses

    @property
    def num_instructions(self) -> int:
        return self.stats.num_instructions

    @property
    def stats(self) -> TraceStats:
        if self._stats is None:
            self._stats = self._compute_stats()
        return self._stats

    def as_arrays(self) -> TraceArrays:
        """Structure-of-arrays view of the trace, built once and cached.

        The batched simulation kernel (:mod:`repro.sim.kernel`) consumes
        these NumPy columns instead of iterating :class:`MemoryAccess`
        objects.  Traces are immutable, so the view never goes stale.
        Home-slice ids are cached separately per hash configuration; see
        :meth:`home_slices`.
        """
        if self._arrays is None:
            accs = self._accesses
            n = len(accs)
            # One list comprehension per column + the C-level np.array
            # constructor is several times faster than element-wise
            # ndarray assignment.
            self._arrays = TraceArrays(
                pc=np.array([a.pc for a in accs], dtype=np.int64),
                block=np.array([a.block for a in accs], dtype=np.int64),
                is_write=np.fromiter((a.is_write for a in accs),
                                     dtype=np.bool_, count=n),
                instr_gap=np.array([a.instr_gap for a in accs],
                                   dtype=np.int64),
                dependent=np.fromiter((a.dependent for a in accs),
                                      dtype=np.bool_, count=n),
            )
        return self._arrays

    def home_slices(self, hash_scheme: str, num_slices: int) -> np.ndarray:
        """Per-access home-slice ids under *hash_scheme*, cached.

        Computed vectorised via :meth:`repro.cache.slice_hash.SliceHash.
        slices_of`, which is pinned equal to the scalar ``slice_of`` used
        by the reference path.
        """
        def build() -> np.ndarray:
            from repro.cache.slice_hash import SliceHash
            hasher = SliceHash(num_slices, scheme=hash_scheme)
            return hasher.slices_of(self.as_arrays().block)
        return self.derived(("home_slices", hash_scheme, num_slices), build)

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, computed once per *key* and cached on the trace.

        For values that are a pure function of the trace and of
        whatever *key* names (home slices per hash geometry, the vector
        kernel's private-level classification per private-cache
        geometry and prefetcher).  Traces are immutable, so a cached
        value never goes stale; callers must not mutate it.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def _compute_stats(self) -> TraceStats:
        pcs = set()
        blocks = set()
        writes = 0
        instructions = 0
        for acc in self._accesses:
            pcs.add(acc.pc)
            blocks.add(acc.block)
            writes += acc.is_write
            instructions += acc.instr_gap + 1  # the access itself retires too
        return TraceStats(
            num_accesses=len(self._accesses),
            num_instructions=instructions,
            num_writes=writes,
            unique_pcs=len(pcs),
            unique_blocks=len(blocks),
            footprint_bytes=len(blocks) * BLOCK_BYTES,
        )

    def truncated(self, max_accesses: int) -> "Trace":
        """Return a copy limited to the first *max_accesses* records."""
        if max_accesses >= len(self._accesses):
            return self
        return Trace(self.name, self._accesses[:max_accesses])

    def repeated(self, times: int) -> "Trace":
        """Return a trace that replays this trace *times* times."""
        if times <= 1:
            return self
        return Trace(self.name, self._accesses * times)

    @staticmethod
    def concat(name: str, traces: Iterable["Trace"]) -> "Trace":
        """Concatenate several traces into one stream."""
        merged: List[MemoryAccess] = []
        for tr in traces:
            merged.extend(tr.accesses)
        return Trace(name, merged)
