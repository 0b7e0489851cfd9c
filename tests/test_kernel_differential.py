"""Differential + unit tests for the vectorized simulation kernel.

The contract of :mod:`repro.sim.kernel` is *bit-identity*: on every
eligible configuration the vector backend must export exactly the same
:class:`SimulationResult` values as the reference per-access loop — and
on ineligible configurations it must fall back (with reasons) rather
than approximate.  The hypothesis suite here drives randomized
configuration × trace combinations through both backends and compares
the full export with ``==`` (floats included: the kernel replicates the
reference op order, not just its math).
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import ScaleProfile, SystemConfig
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
    @settings(max_examples=10, deadline=None)
    @given(
        policy=st.sampled_from(["lru", "srrip", "ship"]),
        cores=st.integers(min_value=1, max_value=3),
        workload=st.sampled_from(["mcf", "xalancbmk", "omnetpp",
                                  "google_search"]),
        accesses=st.integers(min_value=200, max_value=1200),
    )
    def test_random_config_bit_identical(self, policy, cores, workload,
                                         accesses):
        cfg = smoke_config(cores, policy)
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
        {"prefetcher": "baseline"},
        {"model_tlb": True},
        {"llc_inclusive": True},
    ])
    def test_fallback_configs_still_agree(self, overrides):
        """Ineligible configs: both requests run the reference path and
        trivially agree; the point is the fallback is silent-correct."""
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

    def test_auto_falls_back_with_prefetcher(self):
        cfg = SystemConfig.from_profile(1, ScaleProfile.smoke())
        assert cfg.prefetcher == "baseline"
        kernel, reasons = resolve_kernel(cfg)
        assert kernel == "reference"
        assert any("prefetcher" in r for r in reasons)

    def test_each_ineligible_feature_is_named(self):
        cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                        model_tlb=True,
                                        llc_inclusive=True)
        reasons = kernel_fallback_reasons(cfg, telemetry=object())
        text = " ".join(reasons)
        assert "prefetcher" in text
        assert "model_tlb" in text
        assert "llc_inclusive" in text
        assert "telemetry" in text
        assert len(reasons) == 4

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
