"""Tests for the sliced LLC and the policy registry/builder."""

import pytest

from repro.cache.block import DEMAND, AccessContext
from repro.cache.sliced_llc import SlicedLLC
from repro.core.drishti import (
    DrishtiConfig,
    baseline_sampled_sets,
    drishti_policy_name,
    drishti_sampled_sets,
)
from repro.core.dynamic_sampler import DynamicSampledSets
from repro.core.predictor_fabric import PredictorScope
from repro.core.sampled_sets import StaticSampledSets
from repro.interconnect.mesh import MeshNoC
from repro.replacement.registry import (
    PolicySpec,
    build_llc_policies,
    make_policy,
    policy_names,
    policy_uses_predictor,
)


def ctx(block, pc=0x400, core=0):
    return AccessContext(pc=pc, block=block, core_id=core, kind=DEMAND)


class TestRegistry:
    def test_all_policies_listed(self):
        names = policy_names()
        for expected in ("lru", "srrip", "drrip", "dip", "ship",
                        "hawkeye", "mockingjay", "glider", "chrome",
                        "random", "brrip"):
            assert expected in names

    def test_make_policy_standalone(self):
        for name in policy_names():
            policy = make_policy(name, 8, 2)
            assert policy.num_sets == 8

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("bogus")

    def test_capability_flags(self):
        assert policy_uses_predictor("hawkeye")
        assert not policy_uses_predictor("lru")

    def test_build_bundle_local(self):
        bundle = build_llc_policies(PolicySpec("mockingjay"), 4, 4, 32,
                                    4, DrishtiConfig.baseline())
        assert len(bundle.policies) == 4
        assert bundle.fabric.scope == PredictorScope.LOCAL
        assert bundle.nocstar is None
        assert all(isinstance(s, StaticSampledSets)
                   for s in bundle.selectors)

    def test_build_bundle_full_drishti(self):
        bundle = build_llc_policies(PolicySpec("mockingjay"), 4, 4, 32,
                                    4, DrishtiConfig.full())
        assert bundle.fabric.scope == PredictorScope.PER_CORE_GLOBAL
        assert bundle.nocstar is not None
        assert all(isinstance(s, DynamicSampledSets)
                   for s in bundle.selectors)

    def test_sideband_latency_override(self):
        drishti = DrishtiConfig.full().with_sideband_latency(9)
        bundle = build_llc_policies(PolicySpec("mockingjay"), 2, 2, 32,
                                    4, drishti)
        assert bundle.nocstar.base_latency == 9

    def test_memoryless_policies_have_no_fabric(self):
        bundle = build_llc_policies(PolicySpec("lru"), 4, 4, 32, 4,
                                    DrishtiConfig.baseline())
        assert bundle.fabric is None

    def test_slices_share_one_fabric(self):
        bundle = build_llc_policies(PolicySpec("hawkeye"), 4, 4, 32, 4,
                                    DrishtiConfig.full())
        assert all(p.fabric is bundle.fabric for p in bundle.policies)

    def test_selector_seeds_differ_per_slice(self):
        bundle = build_llc_policies(PolicySpec("hawkeye"), 4, 4, 128, 4,
                                    DrishtiConfig.baseline())
        sampled = [s.sampled_sets for s in bundle.selectors]
        assert len(set(sampled)) > 1


class TestDrishtiConfig:
    def test_named_configs(self):
        assert not DrishtiConfig.baseline().is_enhanced
        assert DrishtiConfig.full().is_enhanced
        assert DrishtiConfig.full().use_nocstar
        assert not DrishtiConfig.without_nocstar().use_nocstar
        assert not DrishtiConfig.global_view_only().dynamic_sampled_cache
        assert DrishtiConfig.dsc_only().predictor_scope == "local"

    def test_policy_naming(self):
        assert drishti_policy_name("mockingjay",
                                   DrishtiConfig.full()) == "d-mockingjay"
        assert drishti_policy_name("mockingjay",
                                   DrishtiConfig.baseline()) == "mockingjay"

    def test_sampled_set_reduction(self):
        # Paper Section 4.2: Hawkeye 64 -> 8, Mockingjay 32 -> 16 on a
        # 2048-set slice.
        assert baseline_sampled_sets("hawkeye", 2048) == 64
        assert drishti_sampled_sets("hawkeye", 2048) == 8
        assert baseline_sampled_sets("mockingjay", 2048) == 32
        assert drishti_sampled_sets("mockingjay", 2048) == 16

    def test_override(self):
        cfg = DrishtiConfig(sampled_sets_override=5)
        assert cfg.sampled_sets_for("hawkeye", 2048) == 5

    def test_invalid_scope(self):
        with pytest.raises(ValueError):
            DrishtiConfig(predictor_scope="bogus")


class TestSlicedLLC:
    def make(self, slices=4, policy="lru", drishti=None, **kw):
        return SlicedLLC(slices, 32, 4, PolicySpec(policy),
                         drishti=drishti, mesh=MeshNoC(slices), **kw)

    def test_access_routes_by_hash(self):
        llc = self.make()
        c = ctx(12345)
        llc.access(c)
        assert c.slice_id == llc.slice_of(12345)

    def test_fill_then_hit(self):
        llc = self.make()
        assert not llc.access(ctx(7))
        llc.fill(ctx(7))
        assert llc.access(ctx(7))
        assert llc.contains(7)

    def test_fill_with_known_slice_matches_hashed_fill(self):
        routed, hashed = self.make(), self.make()
        c = ctx(7)
        routed.fill(c, routed.slice_of(7))
        hashed.fill(ctx(7))
        assert c.slice_id == routed.slice_of(7)
        assert [sl.contains(7) for sl in routed.slices] == \
            [sl.contains(7) for sl in hashed.slices]

    def test_aggregate_stats_sum_slices(self):
        llc = self.make()
        for b in range(40):
            llc.access(ctx(b))
        assert llc.aggregate_stats().accesses == 40

    def test_per_set_mpka_shape(self):
        llc = self.make(track_set_stats=True)
        for b in range(100):
            llc.access(ctx(b))
        assert llc.per_set_mpka().shape == (4, 32)

    def test_per_set_mpka_requires_tracking(self):
        llc = self.make(track_set_stats=False)
        with pytest.raises(RuntimeError):
            llc.per_set_mpka()

    def test_reset_stats_keeps_contents(self):
        llc = self.make()
        llc.fill(ctx(3))
        llc.reset_stats()
        assert llc.aggregate_stats().accesses == 0
        assert llc.contains(3)

    def test_drishti_wiring(self):
        llc = self.make(policy="mockingjay", drishti=DrishtiConfig.full())
        assert llc.fabric.scope == PredictorScope.PER_CORE_GLOBAL
        assert llc.nocstar is not None
