"""The Hawkeye replacement policy (per LLC slice).

Structure per slice:

* an RRIP array (3-bit per line),
* a sampled cache observing the slice's sampled sets,
* one OPTgen per sampled set, and
* a reuse predictor reached through the :class:`PredictorFabric` — local
  to the slice in the baseline, per-core-yet-global under Drishti.

Operation:

* every demand/prefetch access to a sampled set replays through OPTgen;
  the verdict trains the predictor of the *requesting core* (friendly on
  OPT hit, averse on OPT miss);
* sampled-cache capacity evictions train averse (brought, never reused);
* on fill, the predictor classifies the fill PC: friendly inserts at
  RRPV 0 (and ages the rest of the set), averse inserts at RRPV 7;
* eviction prefers RRPV 7 lines, else the oldest friendly line — and a
  friendly eviction detrains its PC (the prediction was wrong).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock
from repro.core.predictor_fabric import PredictorFabric, PredictorScope
from repro.core.sampled_sets import SampledSetSelector, StaticSampledSets
from repro.core.signature import make_signature
from repro.replacement.base import ReplacementPolicy
from repro.replacement.hawkeye.optgen import OptGen
from repro.replacement.hawkeye.predictor import HawkeyePredictor
from repro.replacement.sampled_cache import SampledCache

RRPV_MAX = 7  # 3-bit RRIP per line (Table 3's 12 KB)


def default_hawkeye_fabric(table_bits: int = 13) -> PredictorFabric:
    """A standalone single-slice fabric for direct policy use in tests."""
    return PredictorFabric(
        PredictorScope.LOCAL, num_slices=1, num_cores=1,
        predictor_factory=lambda _i: HawkeyePredictor(table_bits=table_bits))


class HawkeyePolicy(ReplacementPolicy):
    """Hawkeye bound to one LLC slice.

    Args:
        num_sets, num_ways: slice geometry.
        slice_id: this slice's id (fabric routing).
        fabric: shared predictor fabric; a private local one is created if
            omitted (single-slice / unit-test use).
        selector: sampled-set selector; defaults to the conventional
            random selection of ``num_sets // 32`` sets.
        table_bits: predictor table size (log2).
        sampled_entries_per_set: sampled-cache history per sampled set.
    """

    name = "hawkeye"
    uses_predictor = True
    uses_sampled_sets = True

    def __init__(self, num_sets: int, num_ways: int, slice_id: int = 0,
                 fabric: Optional[PredictorFabric] = None,
                 selector: Optional[SampledSetSelector] = None,
                 table_bits: int = 13, sampled_entries_per_set: int = 48,
                 seed: int = 0):
        super().__init__(num_sets, num_ways)
        self.slice_id = slice_id
        self.table_bits = table_bits
        self.fabric = fabric if fabric is not None else \
            default_hawkeye_fabric(table_bits)
        self.selector = selector if selector is not None else \
            StaticSampledSets(num_sets, max(2, num_sets // 32), seed=seed)
        self.sampler = SampledCache(entries_per_set=sampled_entries_per_set)
        self._optgen: Dict[int, OptGen] = {}
        self._rrpv = [[RRPV_MAX] * num_ways for _ in range(num_sets)]
        self._friendly = [[False] * num_ways for _ in range(num_sets)]

    # ------------------------------------------------------------------
    def _signature(self, pc: int, core_id: int, is_prefetch: bool) -> int:
        return make_signature(pc, core_id, is_prefetch, self.table_bits)

    def _optgen_for(self, set_idx: int) -> OptGen:
        gen = self._optgen.get(set_idx)
        if gen is None:
            gen = OptGen(capacity=self.num_ways)
            self._optgen[set_idx] = gen
        return gen

    def _train(self, target_core: int, signature: int, friendly: bool,
               cycle: int) -> None:
        predictor, _latency = self.fabric.train_target(
            self.slice_id, target_core, cycle)
        if friendly:
            predictor.train_friendly(signature)
        else:
            predictor.train_averse(signature)

    # ------------------------------------------------------------------
    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        if hit and way is not None:
            self._rrpv[set_idx][way] = 0
        if ctx.is_writeback:
            return

        reselected = self.selector.observe(set_idx, hit)
        if reselected is not None:
            self.sampler.retarget(reselected)
            self._optgen = {s: gen for s, gen in self._optgen.items()
                            if s in self.selector.sampled_sets}

        if not self.selector.is_sampled(set_idx):
            return

        optgen = self._optgen_for(set_idx)
        entry = self.sampler.lookup(set_idx, ctx.block)
        last_time = entry.time if entry is not None else None
        verdict = optgen.access(last_time)
        if entry is not None and verdict is not None:
            sig = self._signature(entry.pc, entry.core_id, entry.is_prefetch)
            self._train(entry.core_id, sig, verdict, ctx.cycle)
        evicted = self.sampler.update(set_idx, ctx.block, ctx.pc,
                                      ctx.core_id, ctx.is_prefetch,
                                      optgen.time - 1)
        if evicted is not None and not evicted.reused:
            # Brought into the sampled window and never reused: averse.
            sig = self._signature(evicted.pc, evicted.core_id,
                                  evicted.is_prefetch)
            self._train(evicted.core_id, sig, False, ctx.cycle)

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(blocks)
        if invalid is not None:
            return invalid
        rrpv = self._rrpv[set_idx]
        if RRPV_MAX in rrpv:  # no RRPV exceeds RRPV_MAX
            return rrpv.index(RRPV_MAX)
        # No cache-averse line: evict the oldest friendly line, and
        # detrain its PC — the friendly prediction cost us this eviction.
        return rrpv.index(max(rrpv))

    def on_evict(self, set_idx: int, way: int, block: CacheBlock,
                 ctx: AccessContext) -> None:
        if self._friendly[set_idx][way]:
            sig = self._signature(block.pc, block.core_id, block.is_prefetch)
            self._train(block.core_id, sig, False, ctx.cycle)

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        if ctx.is_writeback:
            # Writebacks carry no useful PC; install as averse-ish without
            # consulting the predictor (they are already deprioritised).
            self._rrpv[set_idx][way] = RRPV_MAX
            self._friendly[set_idx][way] = False
            return 0
        predictor, latency = self.fabric.predict(self.slice_id, ctx.core_id,
                                                 ctx.cycle)
        sig = self._signature(ctx.pc, ctx.core_id, ctx.is_prefetch)
        friendly = predictor.predict(sig)
        self._friendly[set_idx][way] = friendly
        rrpv = self._rrpv[set_idx]
        if friendly:
            # Age the rest of the set so older friendly lines become
            # eviction candidates before this one, unless another line
            # already sits at RRPV_MAX - 1.
            saturated = rrpv.count(RRPV_MAX - 1) > (rrpv[way] == RRPV_MAX - 1)
            if not saturated:
                for w in range(self.num_ways):
                    if w != way and rrpv[w] < RRPV_MAX - 1:
                        rrpv[w] += 1
            rrpv[way] = 0
        else:
            rrpv[way] = RRPV_MAX
        return latency

    def reset(self) -> None:
        self.sampler.flush()
        self._optgen.clear()
        self.selector.reset()
        for set_idx in range(self.num_sets):
            for way in range(self.num_ways):
                self._rrpv[set_idx][way] = RRPV_MAX
                self._friendly[set_idx][way] = False
