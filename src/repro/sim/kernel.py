"""Batched/vectorized access-processing backend, bit-identical by design.

The reference simulation loop (:mod:`repro.sim.simulator` +
:meth:`repro.cache.hierarchy.MemoryHierarchy.demand_access`) walks one
Python object per access through the full L1 → L2 → LLC machinery.  The
private levels act as a multi-level filter: on eligible configs the
overwhelming majority of accesses die as L1/L2 hits in state whose
evolution is *timing-independent*, so they can be classified in bulk and
only the filtered miss residue replayed through the real
``MemoryHierarchy`` objects.  The sliced-LLC / mesh / DRAM / Drishti
semantics are untouched — those objects execute the exact same operation
sequence the reference path would.

Correctness argument (golden-pinned by ``tests/test_simulator_golden.py``
and the differential property tests):

* **Eligibility** (:func:`kernel_fallback_reasons`): with no TLB, a
  non-inclusive LLC and no telemetry, nothing downstream of the private
  caches ever writes *into* them, and the order-based L1 LRU / L2 SRRIP
  policies depend only on the access sequence, never on cycle values.
  Prefetchers do not change that: ``_issue_prefetch`` decides every
  L1/L2 fill from L1/L2 contents alone, and ``Prefetcher.observe`` sees
  only ``(pc, block, hit)``.  Private cache *content* is therefore a
  pure function of each core's access order, which is fixed by the
  trace, with or without prefetchers.  Ineligible configs automatically
  fall back to the reference path, per feature, with human-readable
  reasons.
* **Phase A** (:func:`_classify`, cached per trace by
  :meth:`VectorKernel._classify_core`): a lean, order-exact replica of
  one core's L1/L2 content evolution, driven together with fresh
  instances of the config's prefetcher pair, classifies every access
  into {0: L1 hit, 1: L2 hit, 2: L2 miss} and records, per access and
  in reference call order, the LLC-bound operations ``demand_access``
  and ``_issue_prefetch`` would make: prefetch requests that miss both
  private levels, the writebacks their fills cause, and the writebacks
  of the demand's own fills.  The product depends only on the trace,
  the L1/L2 geometry and the prefetcher, so it is cached on the
  :class:`~repro.traces.trace.Trace` and shared by every run of it.
* **Phase B** (:meth:`~repro.sim.simulator.Simulator.run`, the one
  driver loop of both backends): replays timing and all shared state
  against the real ``CoreTiming`` / LLC / mesh / DRAM / pending-fill
  objects in the verbatim reference operation order; the driver calls
  :meth:`VectorKernel.step` per access, which issues the recorded
  prefetch requests through
  :meth:`~repro.cache.hierarchy.MemoryHierarchy.llc_prefetch` and, on
  an L2 miss, the demand through
  :meth:`~repro.cache.hierarchy.MemoryHierarchy.llc_demand` — the same
  methods the reference path calls, at the same cycle and in the same
  order (a prefetch's pending-fill note can clear the table before the
  demand checks it).  Runs of trivial L1 hits (non-dependent, no
  LLC-bound operation, no in-flight fill for their blocks, empty MSHR
  file) are found by :meth:`VectorKernel.run_end` and advance the core
  clock via ``np.add.accumulate`` (:meth:`VectorKernel.fast_forward`),
  which reproduces the scalar loop's float adds bit-for-bit because
  ufunc accumulation is defined as strictly sequential.

Backend selection: ``SystemConfig.sim_kernel`` (``"auto"`` default),
overridable by the ``REPRO_SIM_KERNEL`` environment variable.  The
selector is *result-neutral* — both backends produce identical
:class:`~repro.sim.simulator.SimulationResult` values — so it is
excluded from config fingerprints and safe to flip per process.

Behavioral contract: the vector path maintains every counter exported
through ``SimulationResult`` (per-core ``CoreStats``, LLC/mesh/DRAM/
fabric stats, snapshots).  The private ``Cache.stats`` objects of lean-
modeled L1/L2 levels and the hierarchy's ``Prefetcher.stats`` are *not*
maintained — they are internal and never exported; configs that
publish them (telemetry) fall back.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.block import DEMAND, AccessContext
from repro.prefetch.base import NullPrefetcher
from repro.prefetch.registry import make_prefetcher
from repro.replacement.rrip import RRPV_LONG, RRPV_MAX

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig
    from repro.sim.simulator import Simulator

__all__ = [
    "KERNEL_ENV_VAR",
    "KERNEL_CHOICES",
    "MIN_VECTOR_RUN",
    "kernel_fallback_reasons",
    "resolve_kernel",
    "VectorKernel",
]

KERNEL_ENV_VAR = "REPRO_SIM_KERNEL"
KERNEL_CHOICES = ("auto", "vector", "reference")

#: Minimum run length worth paying NumPy call overhead for; shorter runs
#: are scalar-stepped.  Purely a speed knob — results are identical for
#: any value.  The per-run fixed cost (bounds lookup + accumulate call)
#: is a handful of scalar steps, so short runs are worth taking.
MIN_VECTOR_RUN = 8


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
def kernel_fallback_reasons(config: "SystemConfig",
                            telemetry=None) -> List[str]:
    """Why *config* cannot take the vector path (empty == eligible).

    Each entry names one config feature that couples private-level
    content to timing or to state the lean filter does not maintain.
    The prefetcher is not one: prefetch fills into L1/L2 depend on
    L1/L2 contents and the access order only, which Phase A replays.
    """
    reasons = []
    if config.model_tlb:
        reasons.append(
            "model_tlb=True: per-access translation latency feeds back "
            "into issue timing")
    if config.llc_inclusive:
        reasons.append(
            "llc_inclusive=True: LLC evictions back-invalidate private "
            "copies, coupling private content to shared-state timing")
    if telemetry is not None:
        reasons.append(
            "telemetry attached: registry/time-series sampling reads "
            "live private-cache counters the lean filter does not "
            "maintain")
    return reasons


def resolve_kernel(config: "SystemConfig", telemetry=None,
                   env_value: Optional[str] = None,
                   ) -> Tuple[str, List[str]]:
    """Resolve the backend to use: ``("vector" | "reference", reasons)``.

    Precedence: *env_value* (or the ``REPRO_SIM_KERNEL`` environment
    variable) over ``config.sim_kernel``.  A ``"vector"`` request on an
    ineligible config falls back per-feature — ``reasons`` says why.
    """
    if env_value is None:
        # Literal key on purpose: PAR002 exempts this result-neutral
        # selector by name (repro.lint.summaries.RESULT_NEUTRAL_ENV_VARS).
        env_value = os.environ.get("REPRO_SIM_KERNEL")
    requested = env_value if env_value else config.sim_kernel
    if requested not in KERNEL_CHOICES:
        raise ValueError(
            f"sim kernel must be one of {KERNEL_CHOICES}, "
            f"got {requested!r}")
    if requested == "reference":
        return "reference", []
    reasons = kernel_fallback_reasons(config, telemetry)
    if reasons:
        return "reference", reasons
    return "vector", []


# ----------------------------------------------------------------------
# Phase A: lean private-level content replica
# ----------------------------------------------------------------------
class _LeanPrivateState:
    """Order-exact replica of one core's L1+L2 *content* evolution.

    L1 (true LRU): one ``OrderedDict`` per set mapping block -> dirty,
    ordered least- to most-recently hit-or-filled.  Equivalent to the
    reference stamp-clock LRU: stamps are written on hits and fills
    only, so stamp order == hit-or-fill order, and invalid ways fill in
    ascending order before any eviction.

    L2 (SRRIP): per-set ``{block: way}`` plus way-indexed block/rrpv/
    dirty rows.  The reference victim scan ("find rrpv==MAX, else age
    everyone by one and rescan") ages every way by exactly
    ``RRPV_MAX - max(rrpv)`` and picks the first way that reaches
    ``RRPV_MAX`` — replicated in closed form.

    Fills follow ``Cache.fill``: filling a resident block only marks it
    dirty for a dirty fill and leaves its recency and RRPV alone.  Each
    fill returns the blocks whose dirty evictions reach the LLC.
    """

    __slots__ = ("l1_mask", "l1_ways", "l1", "l2_mask", "l2_ways",
                 "l2_map", "l2_blocks", "l2_rrpv", "l2_dirty")

    def __init__(self, config: "SystemConfig"):
        self.l1_mask = config.l1.sets - 1
        self.l1_ways = config.l1.ways
        self.l1: List[OrderedDict] = [
            OrderedDict() for _ in range(config.l1.sets)]
        self.l2_mask = config.l2.sets - 1
        self.l2_ways = config.l2.ways
        self.l2_map: List[Dict[int, int]] = [
            {} for _ in range(config.l2.sets)]
        self.l2_blocks = [[-1] * config.l2.ways
                          for _ in range(config.l2.sets)]
        self.l2_rrpv = [[RRPV_MAX] * config.l2.ways
                        for _ in range(config.l2.sets)]
        self.l2_dirty = [[False] * config.l2.ways
                         for _ in range(config.l2.sets)]

    # -- L2 ------------------------------------------------------------
    def l2_fill(self, block: int, dirty: bool) -> Tuple[int, ...]:
        """Reference ``l2.fill``; returns LLC-writeback blocks (0 or 1)."""
        set_idx = block & self.l2_mask
        mapping = self.l2_map[set_idx]
        way = mapping.get(block)
        if way is not None:
            if dirty:
                self.l2_dirty[set_idx][way] = True
            return ()
        blocks_row = self.l2_blocks[set_idx]
        rrpv_row = self.l2_rrpv[set_idx]
        dirty_row = self.l2_dirty[set_idx]
        events: Tuple[int, ...] = ()
        if len(mapping) < self.l2_ways:
            way = len(mapping)  # invalid ways fill in ascending order
        else:
            highest = max(rrpv_row)
            if highest < RRPV_MAX:
                delta = RRPV_MAX - highest
                for w in range(self.l2_ways):
                    # min() keeps the saturation machine-provable; the
                    # delta derivation already guarantees <= RRPV_MAX.
                    rrpv_row[w] = min(RRPV_MAX, rrpv_row[w] + delta)
            way = rrpv_row.index(RRPV_MAX)
            victim = blocks_row[way]
            del mapping[victim]
            if dirty_row[way]:
                events = (victim,)
        mapping[block] = way
        blocks_row[way] = block
        rrpv_row[way] = RRPV_LONG
        dirty_row[way] = dirty
        return events

    def l2_writeback(self, block: int) -> Tuple[int, ...]:
        """Reference ``_writeback_to_l2``: touch-dirty or fill-dirty."""
        set_idx = block & self.l2_mask
        way = self.l2_map[set_idx].get(block)
        if way is not None:
            self.l2_rrpv[set_idx][way] = 0
            self.l2_dirty[set_idx][way] = True
            return ()
        return self.l2_fill(block, True)

    # -- L1 ------------------------------------------------------------
    def l1_fill(self, block: int, dirty: bool) -> Tuple[int, ...]:
        """Reference ``_fill_l1``: returns LLC-writeback blocks."""
        line_map = self.l1[block & self.l1_mask]
        if block in line_map:
            if dirty:
                line_map[block] = True
            return ()
        events: Tuple[int, ...] = ()
        if len(line_map) >= self.l1_ways:
            victim, victim_dirty = line_map.popitem(last=False)
            if victim_dirty:
                events = self.l2_writeback(victim)
        line_map[block] = dirty
        return events


#: Kinds of the LLC-bound operations Phase A records for an access:
#: a prefetch request that missed both private levels, the writeback
#: of a dirty line a prefetch fill evicted (both before the demand),
#: and the writeback of a dirty line the demand's own fills evicted.
OP_PREFETCH, OP_PREFETCH_WRITEBACK, OP_DEMAND_WRITEBACK = 0, 1, 2


class _Classification:
    """Phase A's product for one trace under one private-level setup.

    A pure function of the trace, the L1/L2 geometry and the prefetcher
    pair (:func:`_classification_key`), so it is cached on the
    :class:`~repro.traces.trace.Trace` and shared, read-only, by every
    run of that trace.  Only compact NumPy arrays, so a sweep that keeps
    its traces alive holds about six bytes per access plus nine per
    recorded operation:

    * ``klass[i]``: access *i*'s demand class (0 L1 hit, 1 L2 hit, 2 L2
      miss).
    * ``op_block``/``op_kind``: every access's LLC-bound operations in
      reference call order (``OP_*`` kinds); access *i*'s are the slice
      ``op_start[i]:op_start[i + 1]``.
    * ``vec_ok``: the trivial L1 hits :meth:`VectorKernel.fast_forward`
      may take (non-dependent, no LLC-bound operation).
    """

    __slots__ = ("klass", "op_start", "op_block", "op_kind", "vec_ok")


def _classification_key(config: "SystemConfig") -> tuple:
    """Every config field :func:`_classify` reads."""
    return ("vector_kernel.private_levels", config.l1.sets, config.l1.ways,
            config.l2.sets, config.l2.ways, config.prefetcher)


def _classify(trace, config: "SystemConfig") -> _Classification:
    """Walk *trace* through a fresh lean replica of the private levels
    and a fresh instance of the config's prefetcher pair, recording
    what ``demand_access`` would send to the LLC (see
    :class:`_Classification`)."""
    arrays = trace.as_arrays()
    n = len(arrays)
    # The per-set OrderedDicts/lists are per-instance state with
    # insertion-ordered, deterministic iteration.
    state = _LeanPrivateState(config)
    # A disabled prefetcher is skipped rather than called: its observe()
    # builds an empty list on every access, L1 hits included.
    l1_observe, l2_observe = (
        None if isinstance(pf, NullPrefetcher) else pf.observe
        for pf in make_prefetcher(config.prefetcher))
    # A bytearray takes item stores at list speed and becomes the uint8
    # column without a copy.
    klass = bytearray(n)
    # One (access, block, kind) triple per LLC-bound operation; op_start
    # is derived from op_access after the walk, so accesses that record
    # nothing (nearly all of them) cost no bookkeeping.
    op_access: List[int] = []
    op_block: List[int] = []
    op_kind: List[int] = []
    add_access = op_access.append
    add_block = op_block.append
    add_kind = op_kind.append
    l1 = state.l1
    l1_mask = state.l1_mask
    l2_map = state.l2_map
    l2_mask = state.l2_mask
    l1_fill = state.l1_fill
    l2_fill = state.l2_fill
    # PCs are read only by a prefetcher; a memoryview yields them
    # without converting the column.
    pcs = memoryview(arrays.pc)
    for i, (block, is_write) in enumerate(zip(
            arrays.block.tolist(), arrays.is_write.tolist())):
        line_map = l1[block & l1_mask]
        if block in line_map:
            # L1 hit: refresh recency; writes set (never clear) dirty.
            line_map.move_to_end(block)
            if is_write:
                line_map[block] = True
            if l1_observe is None:
                continue
            l1_hit = True
        else:
            l1_hit = False
        if l1_observe is not None:
            for candidate in l1_observe(pcs[i], block, l1_hit):
                # Reference _issue_prefetch(..., "l1").
                if candidate in l1[candidate & l1_mask]:
                    continue
                evicted: Tuple[int, ...] = ()
                if candidate not in l2_map[candidate & l2_mask]:
                    add_access(i)
                    add_block(candidate)
                    add_kind(OP_PREFETCH)
                    evicted = l2_fill(candidate, False)
                for wb_block in evicted + l1_fill(candidate, False):
                    add_access(i)
                    add_block(wb_block)
                    add_kind(OP_PREFETCH_WRITEBACK)
            if l1_hit:
                continue
        set_idx = block & l2_mask
        way = l2_map[set_idx].get(block)
        if way is not None:
            state.l2_rrpv[set_idx][way] = 0
            if is_write:
                state.l2_dirty[set_idx][way] = True
        if l2_observe is not None:
            for candidate in l2_observe(pcs[i], block,
                                         way is not None):
                # Reference _issue_prefetch(..., "l2").
                if candidate not in l2_map[candidate & l2_mask]:
                    add_access(i)
                    add_block(candidate)
                    add_kind(OP_PREFETCH)
                    for wb_block in l2_fill(candidate, False):
                        add_access(i)
                        add_block(wb_block)
                        add_kind(OP_PREFETCH_WRITEBACK)
        if way is not None:
            klass[i] = 1
            evicted = l1_fill(block, is_write)
        else:
            klass[i] = 2
            # Reference order: fill L2 first, then L1 (each may chain a
            # dirty eviction down to the LLC).
            evicted = l2_fill(block, is_write)
            evicted += l1_fill(block, is_write)
        for wb_block in evicted:
            add_access(i)
            add_block(wb_block)
            add_kind(OP_DEMAND_WRITEBACK)
    product = _Classification()
    product.klass = klass = np.frombuffer(klass, dtype=np.uint8)
    product.op_start = op_start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(np.array(op_access, dtype=np.int64),
                          minlength=n), out=op_start[1:])
    product.op_block = np.array(op_block, dtype=np.int64)
    product.op_kind = np.array(op_kind, dtype=np.uint8)
    has_ops = op_start[1:] != op_start[:-1]
    product.vec_ok = ((klass == 0) & ~has_ops & ~arrays.dependent
                      & (arrays.instr_gap >= 0))
    return product


# ----------------------------------------------------------------------
# The vector backend
# ----------------------------------------------------------------------
class VectorKernel:
    """One simulation run through the vectorized backend.

    Instantiate fresh per :meth:`Simulator.run` call; holds per-run
    state.  All NumPy state lives on the instance or on the traces'
    cached classifications — no module-level arrays or RNG.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.hierarchy = sim.hierarchy
        self.config = sim.config
        config = self.config
        # Exact latency constants, derived by the same op sequence the
        # reference path uses (float init, then int adds in order).
        self._l1_latency = float(config.l1.latency)
        latency = float(config.l1.latency)
        latency += config.l2.latency
        self._l1_l2_latency = latency
        self._l1_hit_threshold = config.l1.latency + 1
        self._issue_width = config.core.issue_width
        self._inv_width = 1.0 / config.core.issue_width
        # Per-core classifications and per-run views (filled by
        # prepare()).  step() reads its per-access columns through
        # memoryviews of the NumPy arrays: item access yields a Python
        # scalar at close to list-indexing cost, with no per-run copy
        # (a list of a long trace's PCs or gaps costs tens of bytes per
        # access).
        self._products: List[_Classification] = []
        self._klass: List[memoryview] = []
        self._op_start: List[memoryview] = []
        self._op_block: List[memoryview] = []
        self._op_kind: List[memoryview] = []
        self._not_ok_positions: List[list] = []
        self._blocks: List[list] = []
        self._writes: List[list] = []
        self._pcs: List[memoryview] = []
        self._gaps: List[memoryview] = []
        self._deps: List[memoryview] = []
        self._homes: List[memoryview] = []
        self._gap_over_width: List[np.ndarray] = []
        self._gap_cumsum: List[np.ndarray] = []
        self._instr_after: List[np.ndarray] = []
        self._not_ok_ptr = [0] * len(sim.traces)

    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """Runtime safety: the lean replica assumes cold caches, so a
        re-run on an already-driven simulator must take the reference
        path (content would no longer start empty)."""
        for core in self.sim.cores:
            if core.cycle != 0.0 or core.instructions != 0:
                return False
        if self.hierarchy._pending_fill:
            return False
        for cache in self.hierarchy.l1:
            if cache.stats.accesses or cache.stats.fills:
                return False
        return True

    # ------------------------------------------------------------------
    # What the driver loop calls: prepare() runs Phase A, step() Phase B
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Phase A for every core, before the driver loop starts."""
        for core_id in range(len(self.sim.traces)):
            self._classify_core(core_id)

    def _classify_core(self, core_id: int) -> None:
        """Take core *core_id*'s classification from its trace's cache
        (running :func:`_classify` on a miss) and the per-run views."""
        config = self.config
        trace = self.sim.traces[core_id]
        product = trace.derived(_classification_key(config),
                                lambda: _classify(trace, config))
        arrays = trace.as_arrays()
        n = len(arrays)
        self._products.append(product)
        self._klass.append(memoryview(product.klass))
        self._op_start.append(memoryview(product.op_start))
        self._op_block.append(memoryview(product.op_block))
        self._op_kind.append(memoryview(product.op_kind))
        self._not_ok_positions.append(
            np.flatnonzero(~product.vec_ok).tolist())
        self._blocks.append(arrays.block.tolist())
        self._writes.append(arrays.is_write.tolist())
        self._pcs.append(memoryview(arrays.pc))
        self._gaps.append(memoryview(arrays.instr_gap))
        self._deps.append(memoryview(arrays.dependent))
        self._homes.append(memoryview(trace.home_slices(
            config.hash_scheme, config.num_cores)))
        self._gap_over_width.append(
            arrays.instr_gap / float(self._issue_width))
        cumsum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(arrays.instr_gap, out=cumsum[1:])
        self._gap_cumsum.append(cumsum)
        # Post-issue instruction count of access e relative to a zero
        # start: cumsum[e + 1] + (e + 1).  Monotone within any
        # vector-eligible run (gaps >= 0 there), which is all the ROB
        # bound search below needs.
        self._instr_after.append(
            cumsum[1:] + np.arange(1, n + 1, dtype=np.int64))

    def run_end(self, core, core_id: int, pos: int, limit: int) -> int:
        """End (exclusive, at most *limit*) of the run of trivial L1 hits
        at *pos* that :meth:`fast_forward` may take, or *pos* when no
        run of at least ``MIN_VECTOR_RUN`` accesses starts there.

        The driver calls it with monotone *pos* per core, so a per-core
        pointer into ``_not_ok_positions`` finds the next breaker.
        """
        if not self._products[core_id].vec_ok[pos]:
            return pos
        not_ok = self._not_ok_positions[core_id]
        num_not_ok = len(not_ok)
        j = self._not_ok_ptr[core_id]
        while j < num_not_ok and not_ok[j] < pos:
            j += 1
        self._not_ok_ptr[core_id] = j
        end = min(not_ok[j] if j < num_not_ok else
                  len(self._blocks[core_id]), limit)
        if core._outstanding and end > pos:
            end = self._rob_safe_end(core, core_id, pos, end)
        end = self._pending_safe_end(core_id, pos, end)
        return end if end - pos >= MIN_VECTOR_RUN else pos

    def _pending_safe_end(self, core_id: int, pos: int,
                          end: int) -> int:
        """Truncate [pos, *end*) at the first block with an in-flight
        fill entry (or return *end* if none).

        The reference path pops a live pending entry on *any* touch of
        its block, so such an access must be scalar-stepped.  The dict
        cannot mutate during the collision-free prefix (``_pending_wait``
        is a no-op for absent blocks), so one scan at run entry covers
        it; and because each truncation's scalar step consumes the
        colliding entry, successive scans cover disjoint ranges — linear
        total cost.
        """
        pending = self.hierarchy._pending_fill
        if not pending:
            return end
        blocks = self._blocks[core_id]
        for i in range(pos, end):
            if blocks[i] in pending:
                return i
        return end

    def _rob_safe_end(self, core, core_id: int, pos: int,
                      end: int) -> int:
        """Largest ``end' <= end`` provably free of ROB stalls.

        With in-flight misses, an L1 hit's only extra coupling to core
        state is the ROB-window check in ``issue_memory``: it stalls
        when the access's post-issue instruction count reaches
        ``rob_size`` past the *oldest live* in-flight entry.  Holding
        every run access strictly inside that window (measured against
        the oldest entry at run entry — drains during the run only move
        the bound outward) guarantees no stall fires, so the run's
        arithmetic is the plain advance/issue chain.  Leaving completed
        entries undrained is equivalent: ``issue_memory`` re-drains
        before every check and ``finish()``'s max is unaffected by
        entries whose completion is already behind the clock.
        """
        oldest_idx = core._outstanding[0][1]
        cumsum = self._gap_cumsum[core_id]
        budget = (oldest_idx + core.rob_size - core.instructions
                  + int(cumsum[pos]) + pos)
        instr_after = self._instr_after[core_id]
        return pos + int(np.searchsorted(instr_after[pos:end], budget))

    def fast_forward(self, core, core_id: int, pos: int,
                     end: int) -> None:
        """Advance *core* through [pos, end) of trivial L1 hits.

        Bit-exact: the accumulate chain performs the identical sequence
        of float adds the scalar ``advance`` / ``issue_memory`` pair
        would (gap/width, then 1/width, per access), and the last
        access's completion is derived from the same pre-issue
        intermediate the reference uses.
        """
        n = end - pos
        steps = np.empty(2 * n + 1, dtype=np.float64)
        steps[0] = core.cycle
        steps[1::2] = self._gap_over_width[core_id][pos:end]
        steps[2::2] = self._inv_width
        acc = np.add.accumulate(steps)
        core.cycle = float(acc[-1])
        core._last_completion = float(acc[-2]) + self._l1_latency
        cumsum = self._gap_cumsum[core_id]
        core.instructions += int(cumsum[end] - cumsum[pos]) + n

    def step(self, core, core_id: int, pos: int) -> None:
        """One access in the reference operation order on the real
        objects: the prefetch operations Phase A recorded (LLC requests
        through :meth:`MemoryHierarchy.llc_prefetch`, writebacks of the
        lines their fills evicted), then the demand — a private hit only
        waits for a fill still in flight, an L2 miss takes
        :meth:`MemoryHierarchy.llc_demand` — then the writebacks of the
        demand's own fills."""
        hier = self.hierarchy
        klass = self._klass[core_id][pos]
        block = self._blocks[core_id][pos]
        core.advance(self._gaps[core_id][pos])
        cycle = int(core.cycle)
        op_start = self._op_start[core_id]
        start = op_start[pos]
        end = op_start[pos + 1]
        after = None
        if start != end:
            op_blocks = self._op_block[core_id][start:end].tolist()
            pc = self._pcs[core_id][pos]
            for j, kind in enumerate(
                    self._op_kind[core_id][start:end].tolist()):
                if kind == OP_DEMAND_WRITEBACK:
                    after = op_blocks[j:]
                    break
                if kind == OP_PREFETCH:
                    hier.llc_prefetch(core_id, pc, op_blocks[j], cycle)
                else:
                    hier._writeback_to_llc(core_id, op_blocks[j], cycle)
        if klass == 2:
            ctx = AccessContext(pc=self._pcs[core_id][pos],
                                block=block, core_id=core_id,
                                is_write=self._writes[core_id][pos],
                                kind=DEMAND, cycle=cycle)
            latency = hier.llc_demand(core_id, ctx,
                                      self._homes[core_id][pos],
                                      cycle, self._l1_l2_latency)
        else:
            latency = self._l1_l2_latency if klass else self._l1_latency
            if block in hier._pending_fill:
                latency += hier._pending_wait(block, cycle + latency)
        if after:
            for wb_block in after:
                hier._writeback_to_llc(core_id, wb_block, cycle)
        core.issue_memory(latency,
                          dependent=self._deps[core_id][pos],
                          is_miss=latency > self._l1_hit_threshold)

    def finalize_counters(self, window_start: List[int]) -> None:
        """Fold Phase-A classifications from each core's
        *window_start* position on into the measured-window
        ``CoreStats`` (LLC counters were maintained live)."""
        for core_id, start in enumerate(window_start):
            window = self._products[core_id].klass[start:]
            stats = self.hierarchy.core_stats[core_id]
            l2_accesses = int(np.count_nonzero(window))
            l2_misses = int(np.count_nonzero(window == 2))
            stats.l1_accesses += len(window)
            stats.l1_misses += l2_accesses
            stats.l2_accesses += l2_accesses
            stats.l2_misses += l2_misses
