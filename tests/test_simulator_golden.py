"""Fixed-seed golden results for :meth:`Simulator.run`.

Captured before the hot-loop optimisation (hoisted attribute lookups)
so any refactor of the one driver loop, on one core or many, that
changes even one float is caught.  Exact ``==`` on purpose: the loop is
pure deterministic arithmetic and must stay bit-identical.

The vector-kernel classes pin prefetcher-less configs — eligible for
the batched backend — under **both** backends against one shared set of
golden values, so the bit-identity contract of
:mod:`repro.sim.kernel` is golden-anchored, not just differential.
"""

import dataclasses

import pytest

from repro.sim.config import ScaleProfile, SystemConfig
from repro.sim.simulator import Simulator
from repro.traces.mixes import homogeneous_mix, make_mix


@pytest.fixture(autouse=True)
def _hermetic_kernel_selection(monkeypatch):
    """An ambient REPRO_SIM_KERNEL would override the per-test
    ``sim_kernel`` fields and break the kernel_used assertions."""
    monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)


class TestMultiCoreGolden:
    def make_result(self):
        cfg = SystemConfig.from_profile(4, ScaleProfile.smoke(),
                                        llc_policy="hawkeye", seed=5)
        traces = make_mix(homogeneous_mix("mcf", 4), cfg, 2000, seed=5)
        return Simulator(cfg, traces).run()

    def test_golden_values(self):
        result = self.make_result()
        assert result.ipc == [0.43067090654811013, 0.4059770537086933,
                              0.3827752741839033, 0.40921637289232227]
        assert result.cycles == [85327.33333333462, 85315.16666666801,
                                 92866.50000000143, 84957.5000000013]
        assert result.llc_demand_misses == [1208, 1230, 1382, 1274]
        assert result.llc_stats.writebacks_out == 137
        assert result.noc_messages == 16827
        assert result.noc_avg_latency == 5.000891424496345

    def test_rerun_is_deterministic(self):
        first = self.make_result()
        second = self.make_result()
        assert first.ipc == second.ipc
        assert first.cycles == second.cycles


class TestSingleCoreGolden:
    """A one-core run: the same driver loop with one core in its heap."""

    def setup_method(self):
        self.cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                             llc_policy="lru", seed=9)
        self.traces = make_mix(homogeneous_mix("xalancbmk", 1),
                               self.cfg, 3000, seed=9)

    def test_golden_values(self):
        result = Simulator(self.cfg, self.traces).run()
        assert result.ipc == [1.483844547278775]
        assert result.instructions == [84546]
        assert result.llc_demand_misses == [2400]

    def test_zero_warmup(self):
        result = Simulator(self.cfg, self.traces,
                           warmup_accesses=0).run()
        assert result.ipc == [1.5029859087936401]

    def test_warmup_longer_than_trace_measures_everything(self):
        result = Simulator(self.cfg, self.traces,
                           warmup_accesses=10 ** 9).run()
        assert result.ipc == [1.5029859087936401]

    def test_baseline_prefetcher_forces_reference_kernel(self):
        """These goldens use prefetcher='baseline': requesting the
        vector backend must fall back (with a reason) and reproduce
        the same values through the reference path."""
        cfg = dataclasses.replace(self.cfg)
        cfg.llc_policy_params = dict(self.cfg.llc_policy_params)
        cfg.sim_kernel = "vector"
        sim = Simulator(cfg, self.traces)
        result = sim.run()
        assert sim.kernel_used == "reference"
        assert any("prefetcher" in reason
                   for reason in sim.kernel_fallback_reasons)
        assert result.ipc == [1.483844547278775]


def _with_kernel(cfg: SystemConfig, kernel: str) -> SystemConfig:
    out = dataclasses.replace(cfg)
    out.llc_policy_params = dict(cfg.llc_policy_params)
    out.sim_kernel = kernel
    return out


@pytest.mark.parametrize("kernel", ["reference", "vector"])
class TestVectorEligibleSingleCoreGolden:
    """Prefetcher-less single-core goldens, pinned under both kernels."""

    def setup_method(self):
        self.cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                             llc_policy="lru", seed=9,
                                             prefetcher="none")
        self.traces = make_mix(homogeneous_mix("xalancbmk", 1),
                               self.cfg, 3000, seed=9)

    def test_golden_values(self, kernel):
        sim = Simulator(_with_kernel(self.cfg, kernel), self.traces)
        result = sim.run()
        assert sim.kernel_used == kernel
        assert result.ipc == [0.8814204868284403]
        assert result.instructions == [84546]
        assert result.llc_demand_misses == [2400]

    def test_zero_warmup(self, kernel):
        result = Simulator(_with_kernel(self.cfg, kernel), self.traces,
                           warmup_accesses=0).run()
        assert result.ipc == [0.8886763957284995]


@pytest.mark.parametrize("kernel", ["reference", "vector"])
class TestVectorEligibleMultiCoreGolden:
    """Prefetcher-less 4-core hawkeye goldens under both kernels."""

    def make_sim(self, kernel):
        cfg = SystemConfig.from_profile(4, ScaleProfile.smoke(),
                                        llc_policy="hawkeye", seed=5,
                                        prefetcher="none")
        traces = make_mix(homogeneous_mix("mcf", 4), cfg, 2000, seed=5)
        return Simulator(_with_kernel(cfg, kernel), traces)

    def test_golden_values(self, kernel):
        sim = self.make_sim(kernel)
        result = sim.run()
        assert sim.kernel_used == kernel
        assert result.ipc == [0.27572339124465217, 0.2791855730691668,
                              0.24870303191433768, 0.2770884406547418]
        assert result.cycles == [133278.49999999863, 125912.66666666555,
                                 142929.4999999987, 126248.49999999939]
        assert result.llc_demand_misses == [1242, 1254, 1399, 1248]
        assert result.llc_stats.writebacks_out == 62
        assert result.noc_messages == 12711
        assert result.noc_avg_latency == 4.999763983950909
