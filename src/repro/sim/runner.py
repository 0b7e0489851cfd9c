"""Alone/together runs and mix-level metrics.

The paper's methodology: every core's trace is first run *alone* on the
same N-core system (other cores idle, full sliced LLC available) to get
``IPC_alone``; the mix then runs *together* and the speedup metrics of
Section 5.2 fall out of the two IPC vectors.

``alone_ipc_cache`` lets experiments measure ``IPC_alone`` once (under
the baseline LRU system, as is common practice) and reuse it across the
policy configurations being compared — this is what makes the 10+
policy × mix sweeps tractable and is recorded as a methodology note in
EXPERIMENTS.md.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs import events as obs_events

from repro.metrics.speedup import (
    harmonic_speedup,
    individual_slowdowns,
    max_individual_slowdown,
    unfairness,
    weighted_speedup,
)
from repro.sim.config import SystemConfig
from repro.sim.simulator import SimulationResult, Simulator
from repro.traces.trace import Trace


@dataclass
class MixResult:
    """Metrics for one mix under one configuration."""

    config: SystemConfig
    trace_names: List[str]
    ipc_together: List[float]
    ipc_alone: List[float]
    result: SimulationResult
    alone_results: Dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def slowdowns(self) -> List[float]:
        return individual_slowdowns(self.ipc_together, self.ipc_alone)

    @property
    def ws(self) -> float:
        return weighted_speedup(self.ipc_together, self.ipc_alone)

    @property
    def hs(self) -> float:
        return harmonic_speedup(self.ipc_together, self.ipc_alone)

    @property
    def mis(self) -> float:
        return max_individual_slowdown(self.ipc_together, self.ipc_alone)

    @property
    def unfairness(self) -> float:
        return unfairness(self.ipc_together, self.ipc_alone)

    @property
    def mpki(self) -> float:
        return self.result.mpki()

    @property
    def wpki(self) -> float:
        return self.result.wpki


def run_alone(config: SystemConfig, trace: Trace,
              warmup_accesses: Optional[int] = None) -> SimulationResult:
    """Run one trace alone on core 0 of the configured system."""
    sim = Simulator(config, [trace], warmup_accesses=warmup_accesses)
    return sim.run()


def measure_alone_ipcs(config: SystemConfig, traces: Sequence[Trace],
                       warmup_accesses: Optional[int] = None,
                       ) -> Dict[str, float]:
    """Measure ``IPC_alone`` for every trace on *config*.

    Experiments call this with the **baseline LRU** system and pass the
    result to :func:`run_mix` as ``alone_ipc_cache``, so alone IPCs are
    always measured under the baseline regardless of which policy
    configuration happens to run first (the methodology recorded in
    EXPERIMENTS.md).
    """
    return {trace.name: run_alone(config, trace,
                                  warmup_accesses=warmup_accesses).ipc[0]
            for trace in traces}


def run_mix(config: SystemConfig, traces: Sequence[Trace],
            alone_ipc_cache: Optional[Dict[str, float]] = None,
            warmup_accesses: Optional[int] = None) -> MixResult:
    """Run a mix together (and alone as needed); returns all metrics.

    Args:
        config: system under test.
        traces: one trace per core.
        alone_ipc_cache: trace-name -> IPC_alone.  Missing entries are
            measured (on *this* config) and written back.  Callers
            comparing several policy configurations should prefill the
            cache with :func:`measure_alone_ipcs` on the baseline
            system — relying on the lazy path means alone IPCs come
            from whichever config runs first.
        warmup_accesses: per-core warmup override.
    """
    sim = Simulator(config, traces, warmup_accesses=warmup_accesses)
    together = sim.run()
    ipc_together = together.ipc

    if alone_ipc_cache is None:
        alone_ipc_cache = {}
    missing = [t.name for t in traces if t.name not in alone_ipc_cache]
    if missing:
        # The lazy path measures IPC_alone on *this* config, not the
        # baseline — fine for one-off runs, a methodology hazard when
        # comparing policies.  Make it loud and observable.
        warnings.warn(
            f"run_mix measuring IPC_alone lazily on "
            f"llc_policy={config.llc_policy!r} for {missing}; prefill "
            f"alone_ipc_cache with measure_alone_ipcs on the baseline "
            f"system when comparing configurations",
            RuntimeWarning, stacklevel=2)
        # Unreachable from pool workers: SweepEngine prefills
        # alone_ipc_cache before submitting cell units, so the lazy
        # path only runs in direct serial calls (regression-tested by
        # test_parallel_engine).
        obs_events.emit("lazy_alone_ipc", traces=missing,  # repro-lint: disable=PAR002
                        policy=config.llc_policy)
    alone_results: Dict[str, SimulationResult] = {}
    ipc_alone: List[float] = []
    for trace in traces:
        cached = alone_ipc_cache.get(trace.name)
        if cached is None:
            alone = run_alone(config, trace,
                              warmup_accesses=warmup_accesses)
            cached = alone.ipc[0]
            alone_ipc_cache[trace.name] = cached
            alone_results[trace.name] = alone
        ipc_alone.append(cached)

    return MixResult(config=config,
                     trace_names=[t.name for t in traces],
                     ipc_together=ipc_together,
                     ipc_alone=ipc_alone,
                     result=together,
                     alone_results=alone_results)


def normalized_ws(mix: MixResult, baseline: MixResult) -> float:
    """Normalised weighted speedup: WS(config) / WS(baseline LRU).

    This is the paper's headline 'performance improvement' metric
    (Figure 13 et al.), usually quoted as ``(value - 1) * 100`` percent.
    """
    if baseline.ws <= 0:
        raise ValueError("baseline WS must be positive")
    return mix.ws / baseline.ws
