"""Property-based tests on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import DEMAND, AccessContext
from repro.cache.cache import Cache
from repro.cache.slice_hash import SliceHash, fold_xor_slice, modulo_slice
from repro.core.dynamic_sampler import DynamicSampledSets
from repro.core.signature import make_signature, mix64
from repro.cpu.core_model import CoreTiming
from repro.interconnect.topology import MeshTopology
from repro.metrics.speedup import (
    harmonic_speedup,
    unfairness,
    weighted_speedup,
)
from repro.replacement.hawkeye.optgen import OptGen
from repro.replacement.lru import LRUPolicy
from repro.replacement.mockingjay.predictor import (
    ETRPredictor,
    INF_SCALED,
)
from repro.replacement.rrip import SRRIPPolicy


def ctx(block):
    return AccessContext(pc=0x400, block=block, core_id=0, kind=DEMAND)


blocks_strategy = st.lists(st.integers(min_value=0, max_value=255),
                           min_size=1, max_size=200)


class TestCacheInvariants:
    @given(blocks_strategy)
    @settings(max_examples=50, deadline=None)
    def test_lru_accessed_block_is_resident_after_fill(self, blocks):
        cache = Cache("t", 4, 2, LRUPolicy(4, 2))
        for b in blocks:
            if not cache.access(ctx(b)).hit:
                cache.fill(ctx(b))
            assert cache.contains(b)

    @given(blocks_strategy)
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, blocks):
        cache = Cache("t", 2, 2, SRRIPPolicy(2, 2))
        for b in blocks:
            if not cache.access(ctx(b)).hit:
                cache.fill(ctx(b))
            assert cache.occupancy() <= 1.0

    @given(blocks_strategy)
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, blocks):
        cache = Cache("t", 4, 2, LRUPolicy(4, 2))
        for b in blocks:
            if not cache.access(ctx(b)).hit:
                cache.fill(ctx(b))
        s = cache.stats
        assert s.hits + s.misses == s.accesses

    @given(blocks_strategy)
    @settings(max_examples=30, deadline=None)
    def test_no_duplicate_blocks_in_a_set(self, blocks):
        cache = Cache("t", 2, 4, LRUPolicy(2, 4))
        for b in blocks:
            if not cache.access(ctx(b)).hit:
                cache.fill(ctx(b))
            for set_idx in range(2):
                resident = [line.block
                            for line in cache.blocks_in_set(set_idx)
                            if line.valid]
                assert len(resident) == len(set(resident))


class TestSliceHashProperties:
    @given(st.integers(min_value=0, max_value=2**48),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, deadline=None)
    def test_slice_in_range(self, block, num_slices):
        sh = SliceHash(num_slices)
        assert 0 <= sh.slice_of(block) < num_slices

    @given(st.integers(min_value=0, max_value=2**58),
           st.integers(min_value=1, max_value=64),
           st.sampled_from(["fold_xor", "modulo"]))
    @settings(max_examples=200, deadline=None)
    def test_slice_of_matches_the_hash_function(self, block, num_slices,
                                                scheme):
        fn = fold_xor_slice if scheme == "fold_xor" else modulo_slice
        assert SliceHash(num_slices, scheme).slice_of(block) == \
            int(fn(block, num_slices))

    @given(st.integers(min_value=0, max_value=2**48))
    @settings(max_examples=100, deadline=None)
    def test_mix64_deterministic(self, x):
        assert mix64(x) == mix64(x)

    @given(st.integers(min_value=0, max_value=2**40),
           st.integers(min_value=0, max_value=63),
           st.booleans(),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_signature_in_table(self, pc, core, pf, bits):
        sig = make_signature(pc, core, pf, bits)
        assert 0 <= sig < (1 << bits)

    @given(st.integers(min_value=0, max_value=2**48),
           st.integers(min_value=0, max_value=63),
           st.booleans(),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_signature_is_masked_mix64(self, pc, core, pf, bits):
        key = (pc << 7) ^ (core << 1) ^ (1 if pf else 0)
        assert make_signature(pc, core, pf, bits) == \
            mix64(key) & ((1 << bits) - 1)


class TestOptGenProperties:
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded_by_capacity(self, stream):
        gen = OptGen(capacity=4)
        last = {}
        for b in stream:
            gen.access(last.get(b))
            last[b] = gen.time - 1
            for t in range(max(0, gen.time - gen.history + 1), gen.time):
                assert gen.occupancy_at(t) <= gen.capacity

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=2,
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_hits_with_capacity_ge_unique_blocks_always_hit(self, stream):
        """If capacity >= unique blocks, every reuse is an OPT hit."""
        gen = OptGen(capacity=4, history=400)
        last = {}
        for b in stream:
            verdict = gen.access(last.get(b))
            if verdict is not None:
                assert verdict is True
            last[b] = gen.time - 1


class TestETRPredictorProperties:
    @given(st.lists(st.tuples(st.integers(0, 15),
                              st.integers(0, 20_000)),
                    min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_values_always_in_range(self, trainings):
        p = ETRPredictor(table_bits=4)
        for sig, dist in trainings:
            p.train(sig, p.scale(dist))
            value = p.predict(sig)
            assert 0 <= value <= INF_SCALED


class TestDSCProperties:
    @given(st.lists(st.tuples(st.integers(0, 15), st.booleans()),
                    min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_counters_bounded_and_selection_valid(self, events):
        d = DynamicSampledSets(16, 4, lines_per_slice=32, seed=0)
        for set_idx, hit in events:
            d.observe(set_idx, hit)
            assert (d.counters >= 0).all()
            assert (d.counters <= 255).all()
            assert len(d.sampled_sets) == 4
            assert all(0 <= s < 16 for s in d.sampled_sets)


class TestMetricsProperties:
    ipcs = st.lists(st.floats(min_value=0.01, max_value=10.0),
                    min_size=1, max_size=32)

    @given(ipcs)
    @settings(max_examples=100, deadline=None)
    def test_ws_bounded_by_n_when_together_le_alone(self, alone):
        together = [a * 0.9 for a in alone]
        assert weighted_speedup(together, alone) <= len(alone)

    @given(ipcs)
    @settings(max_examples=100, deadline=None)
    def test_identical_ipcs_give_ws_n_hs_1(self, ipc):
        assert weighted_speedup(ipc, ipc) == len(ipc)
        assert abs(harmonic_speedup(ipc, ipc) - 1.0) < 1e-9
        assert abs(unfairness(ipc, ipc) - 1.0) < 1e-9

    @given(ipcs, ipcs)
    @settings(max_examples=100, deadline=None)
    def test_unfairness_at_least_one(self, together, alone):
        n = min(len(together), len(alone))
        assert unfairness(together[:n], alone[:n]) >= 1.0


class TestTopologyProperties:
    @given(st.integers(min_value=1, max_value=64),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, n, data):
        t = MeshTopology(n)
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)


class TestCoreTimingProperties:
    @given(st.lists(st.tuples(st.integers(0, 20),
                              st.floats(min_value=0, max_value=300),
                              st.booleans()),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_cycles_monotonic_and_ipc_bounded(self, ops):
        core = CoreTiming(issue_width=4)
        last_cycle = 0.0
        for gap, latency, dep in ops:
            core.advance(gap)
            core.issue_memory(latency, dependent=dep)
            assert core.cycle >= last_cycle
            last_cycle = core.cycle
        core.finish()
        assert core.ipc <= core.issue_width + 1e-9
