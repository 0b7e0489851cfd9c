"""Differential + unit tests for the vectorized simulation kernel.

The contract of :mod:`repro.sim.kernel` is *bit-identity*: on every
eligible configuration the vector backend must export exactly the same
:class:`SimulationResult` values as the reference per-access loop — and
on ineligible configurations it must fall back (with reasons) rather
than approximate.  The hypothesis suite here drives randomized
configuration × trace combinations through both backends and compares
the full export with ``==`` (floats included: the kernel replicates the
reference op order, not just its math), over every prefetcher pair the
registry offers.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import MemoryHierarchy
from repro.prefetch.registry import PREFETCHER_REGISTRY
from repro.sim import kernel as kernel_module
from repro.sim.config import CacheConfig, ScaleProfile, SystemConfig
from repro.sim.kernel import (KERNEL_CHOICES, MIN_VECTOR_RUN,
                              VectorKernel, kernel_fallback_reasons,
                              resolve_kernel)
from repro.sim.simulator import Simulator
from repro.traces.mixes import homogeneous_mix, make_mix
from repro.traces.trace import MemoryAccess, Trace


@pytest.fixture(autouse=True)
def _hermetic_kernel_selection(monkeypatch):
    """An ambient REPRO_SIM_KERNEL would override every per-test
    ``sim_kernel`` request; tests that want the env path set it
    explicitly via monkeypatch."""
    monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)


def smoke_config(num_cores=1, policy="lru", **overrides):
    return SystemConfig.from_profile(num_cores, ScaleProfile.smoke(),
                                     llc_policy=policy, seed=5,
                                     prefetcher="none", **overrides)


def run_with_kernel(config, traces, kernel, warmup=None):
    cfg = dataclasses.replace(config)
    cfg.llc_policy_params = dict(config.llc_policy_params)
    cfg.sim_kernel = kernel
    sim = Simulator(cfg, traces, warmup_accesses=warmup)
    result = sim.run()
    return export(result), sim


def export(result):
    """Every exported SimulationResult value, for exact comparison."""
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "l1": result.l1_misses,
        "l2": result.l2_misses,
        "llc_acc": result.llc_demand_accesses,
        "llc_miss": result.llc_demand_misses,
        "llc_stats": vars(result.llc_stats),
        "dram": (result.dram_reads, result.dram_writes,
                 result.dram_row_hit_rate),
        "noc": (result.noc_messages, result.noc_avg_latency),
        "fabric": (result.fabric_lookups, result.fabric_trains,
                   result.fabric_lookup_latency_avg),
        "per_set": (None if result.per_set_mpka is None
                    else result.per_set_mpka.tolist()),
    }


def assert_backends_agree(config, traces, warmup=None,
                          expect_vector=True):
    ref, ref_sim = run_with_kernel(config, traces, "reference", warmup)
    vec, vec_sim = run_with_kernel(config, traces, "vector", warmup)
    assert ref_sim.kernel_used == "reference"
    if expect_vector:
        assert vec_sim.kernel_used == "vector"
    assert ref == vec


# ---------------------------------------------------------------------------
# Randomized differential suite
# ---------------------------------------------------------------------------

class TestDifferential:
    @settings(max_examples=14, deadline=None)
    @given(
        policy=st.sampled_from(["lru", "srrip", "ship"]),
        cores=st.integers(min_value=1, max_value=3),
        workload=st.sampled_from(["mcf", "xalancbmk", "omnetpp",
                                  "google_search"]),
        accesses=st.integers(min_value=200, max_value=1200),
        prefetcher=st.sampled_from(sorted(PREFETCHER_REGISTRY)),
    )
    def test_random_config_bit_identical(self, policy, cores, workload,
                                         accesses, prefetcher):
        cfg = smoke_config(cores, policy)
        cfg.prefetcher = prefetcher
        traces = make_mix(homogeneous_mix(workload, cores), cfg,
                          accesses, seed=5)
        assert_backends_agree(cfg, traces)

    @settings(max_examples=8, deadline=None)
    @given(
        accesses=st.integers(min_value=100, max_value=900),
        warmup=st.one_of(
            st.none(), st.just(0), st.just(10 ** 9),
            st.integers(min_value=1, max_value=900)),
    )
    def test_warmup_edges_bit_identical(self, accesses, warmup):
        cfg = smoke_config(1, "lru")
        traces = make_mix(homogeneous_mix("mcf", 1), cfg, accesses,
                          seed=7)
        assert_backends_agree(cfg, traces, warmup=warmup)

    def test_multicore_with_set_stats(self):
        cfg = smoke_config(4, "hawkeye", track_set_stats=True)
        traces = make_mix(homogeneous_mix("mcf", 4), cfg, 1500, seed=3)
        assert_backends_agree(cfg, traces)

    def test_last_core_fast_forwards_through_warmup(self, monkeypatch):
        """Two short traces finish inside warmup; the long L1-resident
        one is then alone in the loop and fast-forwards before the
        reset, up to its warmup target and no further."""
        cfg = smoke_config(3, "lru")
        short = make_mix(homogeneous_mix("mcf", 3), cfg, 40, seed=5)[:2]
        hot = Trace("hot", [MemoryAccess(pc=0x400, address=(i % 4) * 64,
                                         instr_gap=60)
                            for i in range(2000)])
        traces = short + [hot]
        warmup = 1000
        runs = []
        original = VectorKernel.fast_forward

        def spy(kernel, core, core_id, pos, end):
            runs.append((core_id, pos, end))
            original(kernel, core, core_id, pos, end)

        monkeypatch.setattr(VectorKernel, "fast_forward", spy)
        ref, _ = run_with_kernel(cfg, traces, "reference", warmup)
        vec, vec_sim = run_with_kernel(cfg, traces, "vector", warmup)
        assert vec_sim.kernel_used == "vector"
        assert any(pos < warmup == end for _core, pos, end in runs)
        assert ref == vec

    def test_trace_shorter_than_min_vector_run(self):
        cfg = smoke_config(1, "lru")
        traces = make_mix(homogeneous_mix("mcf", 1), cfg,
                          MIN_VECTOR_RUN - 1, seed=5)
        assert_backends_agree(cfg, traces)

    @pytest.mark.parametrize("overrides", [
        {"prefetcher": "baseline", "llc_inclusive": True},
        {"model_tlb": True},
        {"llc_inclusive": True},
    ])
    def test_fallback_configs_still_agree(self, overrides):
        """Ineligible configs: both requests run the reference path and
        trivially agree; the point is the fallback is silent-correct.
        A prefetcher does not make an ineligible config eligible."""
        cfg = smoke_config(2, "lru")
        for key, value in overrides.items():
            setattr(cfg, key, value)
        traces = make_mix(homogeneous_mix("mcf", 2), cfg, 600, seed=5)
        ref, _ = run_with_kernel(cfg, traces, "reference")
        vec, vec_sim = run_with_kernel(cfg, traces, "vector")
        assert vec_sim.kernel_used == "reference"
        assert vec_sim.kernel_fallback_reasons
        assert ref == vec


# ---------------------------------------------------------------------------
# Prefetch operations on the vector kernel
# ---------------------------------------------------------------------------

def tiny_private_config():
    """Baseline prefetchers with a two-line L1 and a four-line L2, so
    prefetch fills evict often."""
    cfg = smoke_config(1, "lru")
    cfg.prefetcher = "baseline"
    cfg.l1 = CacheConfig(sets=1, ways=2, latency=5)
    cfg.l2 = CacheConfig(sets=2, ways=2, latency=15)
    return cfg


def churn_trace(n=400, seed=4):
    """Half a forward walk from one PC (arms the IP-stride prefetcher),
    half random blocks and writes from two others, over 16 blocks."""
    rng = np.random.default_rng(seed)
    walk = rng.random(n) < 0.5
    blocks = np.where(walk, np.arange(n) // 2 % 16, rng.integers(0, 12, n))
    pcs = np.where(walk, 0, 1 + rng.integers(0, 2, n))
    writes = rng.random(n) < 0.5
    return Trace("churn", [
        MemoryAccess(pc=0x400 + 4 * int(pc), address=int(block) * 64,
                     is_write=bool(write), instr_gap=3)
        for pc, block, write in zip(pcs, blocks, writes)])


def classification(trace, cfg):
    return trace.derived(kernel_module._classification_key(cfg),
                         lambda: pytest.fail("trace was never classified"))


class TestPrefetchKernel:
    def test_resident_candidates_and_l2_hit_fill_writeback(
            self, monkeypatch):
        """Candidates already in L1 or L2, and an L1 prefetch that hits
        in L2 and whose L1 fill pushes a dirty line down to the LLC
        before the demand, all replay bit-identically."""
        cfg = tiny_private_config()
        trace = churn_trace()
        seen = {"l1_in_l1": 0, "l1_in_l2": 0, "l2_in_l2": 0}
        original = MemoryHierarchy._issue_prefetch

        def spy(hier, core_id, pc, block, level, cycle, prefetcher):
            if level == "l1" and hier.l1[core_id].contains(block):
                seen["l1_in_l1"] += 1
            elif hier.l2[core_id].contains(block):
                seen[f"{level}_in_l2"] += 1
            original(hier, core_id, pc, block, level, cycle, prefetcher)

        monkeypatch.setattr(MemoryHierarchy, "_issue_prefetch", spy)
        ref, _ = run_with_kernel(cfg, [trace], "reference")
        monkeypatch.setattr(MemoryHierarchy, "_issue_prefetch", original)
        vec, vec_sim = run_with_kernel(cfg, [trace], "vector")
        assert vec_sim.kernel_used == "vector"
        assert all(seen.values()), seen
        # An access whose first prefetch operation is a writeback: an L1
        # prefetch served from L2 whose L1 fill evicted a dirty line
        # that the L2 could not absorb.
        product = classification(trace, cfg)
        firsts = product.op_start[:-1][np.diff(product.op_start) > 0]
        assert (product.op_kind[firsts]
                == kernel_module.OP_PREFETCH_WRITEBACK).any()
        assert ref == vec

    def test_prefetch_clears_pending_table_at_cap(self, monkeypatch):
        """A stream fills the 4096-entry pending-fill table; the note
        that clears it comes from a prefetch, ahead of the demand's own
        pending check, on both backends."""
        cfg = smoke_config(1, "lru")
        cfg.prefetcher = "baseline"
        trace = Trace("stream", [MemoryAccess(pc=0x400, address=i * 128,
                                              instr_gap=2)
                                 for i in range(3000)])
        clears = []
        original = MemoryHierarchy.llc_prefetch

        def spy(hier, core_id, pc, block, cycle):
            before = len(hier._pending_fill)
            ctx = original(hier, core_id, pc, block, cycle)
            if len(hier._pending_fill) < before:
                clears.append(block)
            return ctx

        monkeypatch.setattr(MemoryHierarchy, "llc_prefetch", spy)
        ref, _ = run_with_kernel(cfg, [trace], "reference")
        ref_clears = list(clears)
        clears.clear()
        vec, vec_sim = run_with_kernel(cfg, [trace], "vector")
        assert vec_sim.kernel_used == "vector"
        assert ref_clears and clears == ref_clears
        assert ref == vec

    def test_l1_hit_runs_with_resident_candidates_fast_forward(
            self, monkeypatch):
        """Once a loop's next-line candidates all sit in L1 its hits
        carry no prefetch operations, so they still fast-forward."""
        cfg = smoke_config(1, "lru")
        cfg.prefetcher = "baseline"
        trace = Trace("loop", [MemoryAccess(pc=0x400, address=(i % 4) * 64,
                                            instr_gap=60)
                               for i in range(2000)])
        runs = []
        original = VectorKernel.fast_forward

        def spy(kernel, core, core_id, pos, end):
            runs.append(end - pos)
            original(kernel, core, core_id, pos, end)

        monkeypatch.setattr(VectorKernel, "fast_forward", spy)
        ref, _ = run_with_kernel(cfg, [trace], "reference")
        vec, vec_sim = run_with_kernel(cfg, [trace], "vector")
        assert vec_sim.kernel_used == "vector"
        assert sum(runs) > 1900
        assert ref == vec


class TestClassificationCache:
    """Phase A's product is cached on the trace, keyed on every config
    field it reads."""

    @pytest.fixture
    def count_classify(self, monkeypatch):
        calls = []
        original = kernel_module._classify

        def counting(trace, config):
            calls.append(trace.name)
            return original(trace, config)

        monkeypatch.setattr(kernel_module, "_classify", counting)
        return calls

    def test_second_simulator_reuses_classification(self, count_classify):
        cfg = SystemConfig.from_profile(2, ScaleProfile.smoke(),
                                        llc_policy="lru", seed=5)
        traces = make_mix(homogeneous_mix("mcf", 2), cfg, 800, seed=5)
        first, _ = run_with_kernel(cfg, traces, "vector")
        assert len(count_classify) == 2
        products = [classification(t, cfg) for t in traces]
        hawkeye = cfg.with_policy("hawkeye")
        second, sim = run_with_kernel(hawkeye, traces, "vector")
        assert sim.kernel_used == "vector"
        assert len(count_classify) == 2  # reused, not re-classified
        assert [classification(t, cfg) for t in traces] == products
        ref, _ = run_with_kernel(hawkeye, traces, "reference")
        assert second == ref
        again, _ = run_with_kernel(cfg, traces, "vector")
        assert again == first

    @pytest.mark.parametrize("change", [
        {"l1": CacheConfig(sets=4, ways=12, latency=5)},
        {"l1": CacheConfig(sets=8, ways=6, latency=5)},
        {"l2": CacheConfig(sets=16, ways=8, latency=15)},
        {"l2": CacheConfig(sets=32, ways=4, latency=15)},
        {"prefetcher": "none"},
    ])
    def test_keyed_field_change_reclassifies(self, count_classify, change):
        cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                        llc_policy="lru", seed=5)
        traces = make_mix(homogeneous_mix("xalancbmk", 1), cfg, 800,
                          seed=5)
        run_with_kernel(cfg, traces, "vector")
        other = dataclasses.replace(cfg, **change)
        vec, sim = run_with_kernel(other, traces, "vector")
        assert sim.kernel_used == "vector"
        assert len(count_classify) == 2
        ref, _ = run_with_kernel(other, traces, "reference")
        assert vec == ref

    def test_latency_change_reuses_classification(self, count_classify):
        """Private-level latencies are Phase B inputs, not Phase A's."""
        cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                        llc_policy="lru", seed=5)
        traces = make_mix(homogeneous_mix("xalancbmk", 1), cfg, 800,
                          seed=5)
        run_with_kernel(cfg, traces, "vector")
        other = dataclasses.replace(
            cfg, l2=CacheConfig(sets=32, ways=8, latency=11))
        vec, _ = run_with_kernel(other, traces, "vector")
        assert len(count_classify) == 1
        assert vec == run_with_kernel(other, traces, "reference")[0]


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

class TestResolveKernel:
    def test_reference_request_is_unconditional(self):
        cfg = smoke_config(1, "lru", sim_kernel="reference")
        assert resolve_kernel(cfg) == ("reference", [])

    def test_auto_picks_vector_when_eligible(self):
        kernel, reasons = resolve_kernel(smoke_config(1, "lru"))
        assert kernel == "vector"
        assert reasons == []

    def test_auto_picks_vector_with_prefetcher(self):
        """The default (baseline) prefetcher pair is vector-eligible and
        reproduces the reference path's pinned IPC."""
        cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                        llc_policy="lru", seed=9)
        assert cfg.prefetcher == "baseline"
        assert resolve_kernel(cfg) == ("vector", [])
        traces = make_mix(homogeneous_mix("xalancbmk", 1), cfg, 3000,
                          seed=9)
        sim = Simulator(cfg, traces)
        result = sim.run()
        assert sim.kernel_used == "vector"
        # The pin of test_simulator_golden.TestSingleCoreGolden.
        assert result.ipc == [1.483844547278775]

    def test_each_ineligible_feature_is_named(self):
        cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                        model_tlb=True,
                                        llc_inclusive=True)
        assert cfg.prefetcher == "baseline"
        reasons = kernel_fallback_reasons(cfg, telemetry=object())
        text = " ".join(reasons)
        assert "prefetcher" not in text
        assert "model_tlb" in text
        assert "llc_inclusive" in text
        assert "telemetry" in text
        assert len(reasons) == 3

    def test_env_value_overrides_config(self):
        cfg = smoke_config(1, "lru", sim_kernel="vector")
        assert resolve_kernel(cfg, env_value="reference") == \
            ("reference", [])

    def test_env_variable_overrides_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "reference")
        cfg = smoke_config(1, "lru", sim_kernel="vector")
        assert resolve_kernel(cfg)[0] == "reference"

    def test_invalid_request_raises(self):
        cfg = smoke_config(1, "lru")
        with pytest.raises(ValueError):
            resolve_kernel(cfg, env_value="simd")

    def test_config_validates_sim_kernel(self):
        with pytest.raises(ValueError):
            smoke_config(1, "lru", sim_kernel="bogus")

    def test_canonical_dict_excludes_backend_selector(self):
        a = smoke_config(1, "lru", sim_kernel="vector")
        b = smoke_config(1, "lru", sim_kernel="reference")
        assert a.canonical_dict() == b.canonical_dict()
        assert "sim_kernel" not in a.canonical_dict()
        assert all(choice in KERNEL_CHOICES
                   for choice in ("auto", "vector", "reference"))

    def test_rerun_falls_back_to_reference(self):
        """The lean replica assumes cold caches: a second run() on the
        same Simulator must take the reference path."""
        cfg = smoke_config(1, "lru", sim_kernel="vector")
        traces = make_mix(homogeneous_mix("mcf", 1), cfg, 400, seed=5)
        sim = Simulator(cfg, traces)
        sim.run()
        assert sim.kernel_used == "vector"
        sim.run()
        assert sim.kernel_used == "reference"
        assert sim.kernel_fallback_reasons


# ---------------------------------------------------------------------------
# SoA trace views
# ---------------------------------------------------------------------------

class TestTraceArrays:
    def make_trace(self):
        cfg = smoke_config(1, "lru")
        return make_mix(homogeneous_mix("mcf", 1), cfg, 500, seed=5)[0]

    def test_columns_match_records(self):
        trace = self.make_trace()
        arrays = trace.as_arrays()
        assert len(arrays) == len(trace)
        assert arrays.pc.dtype == np.int64
        assert arrays.block.dtype == np.int64
        assert arrays.instr_gap.dtype == np.int64
        assert arrays.is_write.dtype == np.bool_
        assert arrays.dependent.dtype == np.bool_
        for i in (0, len(trace) // 2, len(trace) - 1):
            acc = trace[i]
            assert arrays.pc[i] == acc.pc
            assert arrays.block[i] == acc.block
            assert bool(arrays.is_write[i]) == acc.is_write
            assert arrays.instr_gap[i] == acc.instr_gap
            assert bool(arrays.dependent[i]) == acc.dependent

    def test_arrays_are_cached(self):
        trace = self.make_trace()
        assert trace.as_arrays() is trace.as_arrays()

    def test_home_slices_match_scalar_hash(self):
        from repro.cache.slice_hash import SliceHash
        trace = self.make_trace()
        homes = trace.home_slices("fold_xor", 4)
        hasher = SliceHash(4, scheme="fold_xor")
        expected = [hasher.slice_of(acc.block) for acc in trace]
        assert homes.tolist() == expected
        assert trace.home_slices("fold_xor", 4) is homes  # cached
        # A different geometry is a different cache entry.
        assert trace.home_slices("fold_xor", 8) is not homes


class TestMemoryAccessLayout:
    def test_slots_no_dict(self):
        acc = MemoryAccess(pc=1, address=1 << 12)
        assert not hasattr(acc, "__dict__")

    def test_block_precomputed(self):
        acc = MemoryAccess(pc=1, address=0x1FC0)
        assert acc.block == 0x1FC0 >> 6

    def test_frozen(self):
        acc = MemoryAccess(pc=1, address=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            acc.pc = 2

    def test_pickle_roundtrip(self):
        """Pool workers receive traces by pickle; the slotted layout
        must survive the trip with the derived block intact."""
        acc = MemoryAccess(pc=7, address=12345 * 64, is_write=True,
                           instr_gap=3, dependent=True)
        clone = pickle.loads(pickle.dumps(acc))
        assert clone == acc
        assert clone.block == acc.block

    def test_trace_pickle_roundtrip(self):
        trace = Trace("t", [MemoryAccess(pc=i, address=i * 64)
                            for i in range(10)])
        clone = pickle.loads(pickle.dumps(trace))
        assert len(clone) == 10
        assert clone[3].block == 3
