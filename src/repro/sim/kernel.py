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

* **Eligibility** (:func:`kernel_fallback_reasons`): with
  ``prefetcher == "none"``, no TLB, a non-inclusive LLC and no telemetry,
  nothing downstream of the private caches ever writes *into* them, and
  the order-based L1 LRU / L2 SRRIP policies depend only on the access
  sequence, never on cycle values.  Private cache *content* is therefore
  a pure function of each core's access order, which is fixed by the
  trace.  Ineligible configs automatically fall back to the reference
  path, per feature, with human-readable reasons.
* **Phase A** (:meth:`VectorKernel._classify_core`): a lean, order-exact
  replica of one core's L1/L2 content evolution classifies every access
  into {0: L1 hit, 1: L2 hit, 2: L2 miss} and records, per access, the
  blocks whose dirty evictions the reference path would write back to
  the LLC (in reference call order).
* **Phase B** (:meth:`~repro.sim.simulator.Simulator.run`, the one
  driver loop of both backends): replays timing and all shared state
  against the real ``CoreTiming`` / LLC / mesh / DRAM / pending-fill
  objects in the verbatim reference operation order; the driver calls
  :meth:`VectorKernel.step` per access, and an L2 miss takes the same
  :meth:`~repro.cache.hierarchy.MemoryHierarchy.llc_demand` the
  reference ``demand_access`` does.  Runs of trivial L1 hits
  (non-dependent, no in-flight fill for their blocks, empty MSHR file)
  are found by :meth:`VectorKernel.run_end` and advance the core clock
  via ``np.add.accumulate`` (:meth:`VectorKernel.fast_forward`), which
  reproduces the scalar loop's float adds bit-for-bit because ufunc
  accumulation is defined as strictly sequential.

Backend selection: ``SystemConfig.sim_kernel`` (``"auto"`` default),
overridable by the ``REPRO_SIM_KERNEL`` environment variable.  The
selector is *result-neutral* — both backends produce identical
:class:`~repro.sim.simulator.SimulationResult` values — so it is
excluded from config fingerprints and safe to flip per process.

Behavioral contract: the vector path maintains every counter exported
through ``SimulationResult`` (per-core ``CoreStats``, LLC/mesh/DRAM/
fabric stats, snapshots).  The private ``Cache.stats`` objects of lean-
modeled L1/L2 levels are *not* maintained — they are internal and never
exported; configs that publish them (telemetry) fall back.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.block import DEMAND, AccessContext
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
    """
    reasons = []
    if config.prefetcher != "none":
        reasons.append(
            f"prefetcher={config.prefetcher!r}: prefetch fills write into "
            f"the private caches based on timing (vector path requires "
            f"'none')")
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
        # Literal key on purpose: PAR001 exempts this result-neutral
        # selector by name (see repro.lint.purity.RESULT_NEUTRAL_ENV_VARS).
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
    def l2_install(self, block: int, dirty: bool) -> Tuple[int, ...]:
        """Install *block*; returns LLC-writeback blocks (0 or 1)."""
        set_idx = block & self.l2_mask
        mapping = self.l2_map[set_idx]
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
        return self.l2_install(block, True)

    # -- L1 ------------------------------------------------------------
    def l1_fill(self, block: int, dirty: bool) -> Tuple[int, ...]:
        """Reference ``_fill_l1``: returns LLC-writeback blocks."""
        line_map = self.l1[block & self.l1_mask]
        events: Tuple[int, ...] = ()
        if len(line_map) >= self.l1_ways:
            victim, victim_dirty = line_map.popitem(last=False)
            if victim_dirty:
                events = self.l2_writeback(victim)
        line_map[block] = dirty
        return events


# ----------------------------------------------------------------------
# The vector backend
# ----------------------------------------------------------------------
class VectorKernel:
    """One simulation run through the vectorized backend.

    Instantiate fresh per :meth:`Simulator.run` call; holds per-run
    classification state.  All NumPy state lives on the instance — no
    module-level arrays or RNG.
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
        # Per-core classification products (filled by _classify_core).
        # Columns read on *every* access of the Phase-A loop are
        # converted to Python lists (scalar list indexing is far cheaper
        # than ndarray item access); columns only touched in the scalar
        # residue stay NumPy and are unboxed at the point of use.
        self._klass: List[np.ndarray] = []
        self._events: List[Dict[int, Tuple[int, ...]]] = []
        self._vec_ok: List[np.ndarray] = []
        self._not_ok_positions: List[list] = []
        self._blocks: List[list] = []
        self._pcs: List[np.ndarray] = []
        self._writes: List[list] = []
        self._gaps: List[np.ndarray] = []
        self._deps: List[np.ndarray] = []
        self._gap_over_width: List[np.ndarray] = []
        self._gap_cumsum: List[np.ndarray] = []
        self._instr_after: List[np.ndarray] = []
        self._homes: List[np.ndarray] = []
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
    # Phase A
    # ------------------------------------------------------------------
    def _classify_core(self, core_id: int) -> None:
        trace = self.sim.traces[core_id]
        arrays = trace.as_arrays()
        blocks = arrays.block.tolist()
        writes = arrays.is_write.tolist()
        self._blocks.append(blocks)
        self._pcs.append(arrays.pc)
        self._writes.append(writes)
        self._gaps.append(arrays.instr_gap)
        self._deps.append(arrays.dependent)
        self._gap_over_width.append(
            arrays.instr_gap / float(self._issue_width))
        cumsum = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(arrays.instr_gap, out=cumsum[1:])
        self._gap_cumsum.append(cumsum)
        # Post-issue instruction count of access e relative to a zero
        # start: cumsum[e + 1] + (e + 1).  Monotone within any
        # vector-eligible run (gaps >= 0 there), which is all the ROB
        # bound search below needs.
        self._instr_after.append(
            cumsum[1:] + np.arange(1, len(blocks) + 1, dtype=np.int64))
        self._homes.append(
            trace.home_slices(self.config.hash_scheme,
                              self.config.num_cores))

        # The per-set OrderedDicts/lists are per-instance state with
        # insertion-ordered, deterministic iteration.
        state = _LeanPrivateState(self.config)
        n = len(blocks)
        klass = np.zeros(n, dtype=np.uint8)
        events: Dict[int, Tuple[int, ...]] = {}
        l1 = state.l1
        l1_mask = state.l1_mask
        l2_map = state.l2_map
        l2_mask = state.l2_mask
        for i, (block, is_write) in enumerate(zip(blocks, writes)):
            line_map = l1[block & l1_mask]
            if block in line_map:
                # L1 hit: refresh recency; writes set (never clear) dirty.
                line_map.move_to_end(block)
                if is_write:
                    line_map[block] = True
                continue
            set_idx = block & l2_mask
            way = l2_map[set_idx].get(block)
            if way is not None:
                klass[i] = 1
                state.l2_rrpv[set_idx][way] = 0
                if is_write:
                    state.l2_dirty[set_idx][way] = True
                evts = state.l1_fill(block, is_write)
            else:
                klass[i] = 2
                # Reference order: fill L2 first, then L1 (each may
                # chain a dirty eviction down to the LLC).
                evts = state.l2_install(block, is_write)
                evts += state.l1_fill(block, is_write)
            if evts:
                events[i] = evts
        self._klass.append(klass)
        self._events.append(events)
        arrays_dep = arrays.dependent
        vec_ok = (klass == 0) & ~arrays_dep & (arrays.instr_gap >= 0)
        self._vec_ok.append(vec_ok)
        self._not_ok_positions.append(np.flatnonzero(~vec_ok).tolist())

    # ------------------------------------------------------------------
    # Phase B: what the simulator's driver loop calls
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Run Phase A for every core, before the driver loop starts."""
        for core_id in range(len(self.sim.traces)):
            self._classify_core(core_id)

    def run_end(self, core, core_id: int, pos: int, limit: int) -> int:
        """End (exclusive, at most *limit*) of the run of trivial L1 hits
        at *pos* that :meth:`fast_forward` may take, or *pos* when no
        run of at least ``MIN_VECTOR_RUN`` accesses starts there.

        The driver calls it with monotone *pos* per core, so a per-core
        pointer into ``_not_ok_positions`` finds the next breaker.
        """
        if not self._vec_ok[core_id][pos]:
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
        objects.  A private hit only waits for a fill still in flight
        and replays the dirty evictions Phase A recorded (an L1 hit has
        none); an L2 miss takes :meth:`MemoryHierarchy.llc_demand`."""
        hier = self.hierarchy
        klass = self._klass[core_id][pos]
        block = self._blocks[core_id][pos]
        core.advance(int(self._gaps[core_id][pos]))
        cycle = int(core.cycle)
        if klass == 2:
            ctx = AccessContext(pc=int(self._pcs[core_id][pos]),
                                block=block, core_id=core_id,
                                is_write=self._writes[core_id][pos],
                                kind=DEMAND, cycle=cycle)
            latency = hier.llc_demand(core_id, ctx,
                                      int(self._homes[core_id][pos]),
                                      cycle, self._l1_l2_latency)
        else:
            latency = self._l1_l2_latency if klass else self._l1_latency
            if block in hier._pending_fill:
                latency += hier._pending_wait(block, cycle + latency)
        events = self._events[core_id].get(pos)
        if events:
            for wb_block in events:
                hier._writeback_to_llc(core_id, wb_block, cycle)
        core.issue_memory(latency,
                          dependent=bool(self._deps[core_id][pos]),
                          is_miss=latency > self._l1_hit_threshold)

    def finalize_counters(self, window_start: List[int]) -> None:
        """Fold Phase-A classifications from each core's
        *window_start* position on into the measured-window
        ``CoreStats`` (LLC counters were maintained live)."""
        for core_id, start in enumerate(window_start):
            window = self._klass[core_id][start:]
            stats = self.hierarchy.core_stats[core_id]
            l2_accesses = int(np.count_nonzero(window))
            l2_misses = int(np.count_nonzero(window == 2))
            stats.l1_accesses += len(window)
            stats.l1_misses += l2_accesses
            stats.l2_accesses += l2_accesses
            stats.l2_misses += l2_misses
