"""Fixed-seed golden results for :meth:`Simulator.run`.

Captured before the hot-loop optimisation (hoisted attribute lookups)
so any refactor of the one driver loop, on one core or many, that
changes even one float is caught.  Exact ``==`` on purpose: the loop is
pure deterministic arithmetic and must stay bit-identical.

Every golden is pinned under **both** backends against one shared set
of values: the default-prefetcher (``"baseline"``) configs run the
vector kernel under ``sim_kernel="auto"`` and are re-run on the
reference path, and the prefetcher-less classes are parametrized over
both, so the bit-identity contract of :mod:`repro.sim.kernel` is
golden-anchored, not just differential.
"""

import dataclasses

import pytest

from repro.cache.sliced_llc import SlicedLLC
from repro.core.drishti import DrishtiConfig
from repro.sim.config import ScaleProfile, SystemConfig
from repro.sim.simulator import Simulator
from repro.traces.mixes import homogeneous_mix, make_mix


@pytest.fixture(autouse=True)
def _hermetic_kernel_selection(monkeypatch):
    """An ambient REPRO_SIM_KERNEL would override the per-test
    ``sim_kernel`` fields and break the kernel_used assertions."""
    monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)


class TestMultiCoreGolden:
    def make_result(self, kernel="auto"):
        cfg = SystemConfig.from_profile(4, ScaleProfile.smoke(),
                                        llc_policy="hawkeye", seed=5,
                                        sim_kernel=kernel)
        assert cfg.prefetcher == "baseline"
        traces = make_mix(homogeneous_mix("mcf", 4), cfg, 2000, seed=5)
        sim = Simulator(cfg, traces)
        result = sim.run()
        assert sim.kernel_used == ("vector" if kernel == "auto" else kernel)
        return result

    def test_golden_values(self):
        self.check_golden(self.make_result())

    def test_golden_values_reference_kernel(self):
        self.check_golden(self.make_result("reference"))

    @staticmethod
    def check_golden(result):
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

    def test_baseline_prefetcher_takes_vector_kernel(self):
        """These goldens use prefetcher='baseline', which the vector
        kernel models: it runs with no fallback reason and reproduces
        the values the reference path pins."""
        assert self.cfg.prefetcher == "baseline"
        sim = Simulator(_with_kernel(self.cfg, "vector"), self.traces)
        result = sim.run()
        assert sim.kernel_used == "vector"
        assert sim.kernel_fallback_reasons == []
        assert result.ipc == [1.483844547278775]
        assert result.instructions == [84546]
        assert result.llc_demand_misses == [2400]

    def test_golden_values_reference_kernel(self):
        cfg = _with_kernel(self.cfg, "reference")
        sim = Simulator(cfg, self.traces)
        result = sim.run()
        assert sim.kernel_used == "reference"
        assert result.ipc == [1.483844547278775]
        assert result.instructions == [84546]
        assert result.llc_demand_misses == [2400]
        result = Simulator(cfg, self.traces, warmup_accesses=0).run()
        assert result.ipc == [1.5029859087936401]


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


@pytest.mark.parametrize("kernel", ["auto", "reference"])
class TestFillLatencyGolden:
    """4-core Drishti without NOCSTAR: Hawkeye's per-core-global
    predictor answers over the mesh, so ``Cache.fill`` returns a
    non-zero latency that ``llc_demand`` charges to demand misses.
    The other goldens run with zero fill latency throughout."""

    def test_golden_values(self, kernel, monkeypatch):
        fills = []
        fill = SlicedLLC.fill

        def counting_fill(self, ctx, slice_id=None):
            evicted, extra = fill(self, ctx, slice_id)
            fills.append(extra)
            return evicted, extra

        monkeypatch.setattr(SlicedLLC, "fill", counting_fill)
        cfg = SystemConfig.from_profile(
            4, ScaleProfile.smoke(), llc_policy="hawkeye", seed=5,
            drishti=DrishtiConfig.without_nocstar(), sim_kernel=kernel)
        assert cfg.prefetcher == "baseline"
        traces = make_mix(homogeneous_mix("mcf", 4), cfg, 2000, seed=5)
        sim = Simulator(cfg, traces)
        result = sim.run()
        assert sim.kernel_used == ("vector" if kernel == "auto" else kernel)
        assert len(fills) == 13766
        assert sum(1 for extra in fills if extra) == 10296
        assert sum(fills) == 71658
        assert result.ipc == [0.42651181417700573, 0.4012561815016209,
                              0.39320815242940693, 0.43010832011605926]
        assert result.cycles == [86562.66666666802, 86346.33333333468,
                                 90402.50000000137, 81333.00000000128]
        assert result.llc_demand_misses == [1209, 1217, 1327, 1217]
        assert result.llc_stats.writebacks_out == 134
        assert result.noc_messages == 38946
        assert result.noc_avg_latency == 5.004698813742104
