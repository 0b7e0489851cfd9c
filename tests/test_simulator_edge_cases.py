"""Edge-case coverage for the simulator and runner."""

import pytest

from repro.core.drishti import DrishtiConfig
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.report import simulation_to_dict
from repro.sim.runner import run_mix
from repro.sim.simulator import Simulator
from repro.traces.trace import MemoryAccess, Trace


def tiny_cfg(policy="lru", **kw):
    return SystemConfig(num_cores=2, llc_policy=policy,
                        llc_sets_per_slice=32,
                        l1=CacheConfig(sets=4, ways=2, latency=5),
                        l2=CacheConfig(sets=8, ways=2, latency=15),
                        prefetcher="none", **kw)


def trace(name="t", n=60, base=0):
    return Trace(name, [MemoryAccess(pc=0x400, address=base + i * 64)
                        for i in range(n)])


class TestWarmupEdges:
    def test_trace_shorter_than_warmup_measures_everything(self):
        sim = Simulator(tiny_cfg(), [trace(n=20), trace(n=20, base=1 << 20)],
                        warmup_accesses=1000)
        result = sim.run()
        # Stats never reset; measurement covers the full run.
        assert result.llc_stats.accesses > 0
        assert all(i > 0 for i in result.instructions)

    def test_one_short_trace_does_not_disable_warmup_for_mix(self):
        # Regression: a single trace shorter than the warmup target used
        # to keep its core permanently cold, so `all(warm)` never became
        # true and the *whole mix* silently ran without a warmup reset.
        # Each core's target is now clamped to its trace length.
        short, long_ = trace("s", n=30), trace("l", n=400, base=1 << 20)
        warm = Simulator(tiny_cfg(), [short, long_],
                         warmup_accesses=100).run()
        cold = Simulator(tiny_cfg(), [short, long_],
                         warmup_accesses=0).run()
        # The short trace finishes entirely inside warmup: measured zero.
        assert warm.instructions[0] == 0
        # The long trace still warmed up: a strict subset is measured.
        assert 0 < warm.instructions[1] < cold.instructions[1]
        # And the LLC counters really were reset mid-run.
        assert warm.llc_stats.accesses < cold.llc_stats.accesses

    @pytest.mark.parametrize("kernel", ["reference", "vector"])
    def test_one_core_warmup_equal_to_length_measures_everything(
            self, kernel, monkeypatch):
        # Regression: one core whose warmup equalled its trace length
        # reset the stats on its last access and measured an empty
        # window (IPC 0), unlike every multi-core run.
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        cfg = tiny_cfg(sim_kernel=kernel)
        exact = Simulator(cfg, [trace(n=60)], warmup_accesses=60)
        result = exact.run()
        never = Simulator(cfg, [trace(n=60)],
                          warmup_accesses=10 ** 9).run()
        assert exact.kernel_used == kernel
        assert result.instructions[0] > 0
        assert simulation_to_dict(result) == simulation_to_dict(never)

    def test_single_access_traces(self):
        sim = Simulator(tiny_cfg(), [trace(n=1), trace(n=1, base=1 << 20)],
                        warmup_accesses=0)
        result = sim.run()
        assert all(i >= 1 for i in result.instructions)

    def test_uneven_trace_lengths(self):
        sim = Simulator(tiny_cfg(), [trace(n=10), trace(n=200,
                                                        base=1 << 20)],
                        warmup_accesses=2)
        result = sim.run()
        assert result.instructions[1] > result.instructions[0]


class TestCentralizedInSimulator:
    def test_centralized_fabric_runs_and_queues(self):
        cfg = tiny_cfg(policy="mockingjay",
                       drishti=DrishtiConfig.centralized())
        traces = [trace("a", n=200), trace("b", n=200, base=1 << 20)]
        result = Simulator(cfg, traces, warmup_accesses=0).run()
        assert len(result.fabric_per_instance) == 1
        assert result.fabric_lookups > 0
        # The single port's queueing shows up as raw lookup latency.
        assert result.fabric_lookup_latency_avg > 0


class TestRunMixAloneResults:
    def test_alone_results_captured_for_uncached(self):
        cfg = tiny_cfg()
        traces = [trace("a"), trace("b", base=1 << 20)]
        mix = run_mix(cfg, traces, alone_ipc_cache={},
                      warmup_accesses=5)
        assert set(mix.alone_results) == {"a", "b"}
        for alone in mix.alone_results.values():
            assert len(alone.ipc) == 1

    def test_cached_names_skip_alone_runs(self):
        cfg = tiny_cfg()
        traces = [trace("a"), trace("b", base=1 << 20)]
        mix = run_mix(cfg, traces,
                      alone_ipc_cache={"a": 1.0, "b": 1.0},
                      warmup_accesses=5)
        assert mix.alone_results == {}


class TestResultAccessors:
    def test_mpki_per_core_vs_total(self):
        cfg = tiny_cfg()
        traces = [trace("a", n=150), trace("b", n=150, base=1 << 20)]
        result = Simulator(cfg, traces, warmup_accesses=0).run()
        per_core = [result.mpki(i) for i in range(2)]
        assert result.mpki() == pytest.approx(
            1000 * sum(result.llc_demand_misses) /
            result.total_instructions)
        assert all(v >= 0 for v in per_core)

    def test_fabric_apki_zero_without_predictor(self):
        cfg = tiny_cfg()
        result = Simulator(cfg, [trace()], warmup_accesses=0).run()
        assert result.fabric_apki == 0.0
