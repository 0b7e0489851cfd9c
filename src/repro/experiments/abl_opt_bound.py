"""Extension: score policies against the offline Belady-OPT bound.

Hawkeye and Mockingjay *emulate* OPT; this experiment measures how much
of the true LRU→OPT headroom each policy captures on single-core runs
(no prefetching, so the simulated LLC stream matches the offline
filter's).  Belady's MIN is computed exactly with the next-use
algorithm in :mod:`repro.analysis.opt_bound`.

Expected shape: OPT-emulating policies capture a meaningful positive
fraction of the headroom on reuse-structured workloads; nothing exceeds
1.0 by construction of the bound (up to the small L1-filter mismatch
documented below).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.opt_bound import (
    llc_stream_from_trace,
    lru_misses,
    opt_misses,
    policy_efficiency,
)
from repro.core.drishti import DrishtiConfig
from repro.experiments.common import ExperimentProfile, render_table
from repro.sim.simulator import Simulator
from repro.traces.mixes import homogeneous_mix, make_mix

POLICIES = ("lru", "srrip", "hawkeye", "mockingjay")


@dataclass
class OPTBoundReport:
    """Structured results for the OPT-bound study."""

    profile: ExperimentProfile
    workloads: Tuple[str, ...]
    # workload -> {"lru": OPTResult, "opt": OPTResult,
    #              policy: simulated demand misses}
    bounds: Dict[str, Dict[str, object]]

    def efficiency(self, workload: str, policy: str) -> float:
        data = self.bounds[workload]
        return policy_efficiency(data[policy], data["lru_bound"],
                                 data["opt_bound"])

    def rows(self) -> List[Tuple]:
        rows = []
        for wl in self.workloads:
            data = self.bounds[wl]
            row = [wl, data["lru_bound"].misses, data["opt_bound"].misses]
            for policy in POLICIES:
                row.append(round(self.efficiency(wl, policy), 3))
            rows.append(tuple(row))
        return rows

    def render(self) -> str:
        headers = (["workload", "LRU-bound misses", "OPT misses"] +
                   [f"{p} eff." for p in POLICIES])
        return render_table(
            "OPT-bound study: fraction of LRU->OPT headroom captured "
            "(1-core, no prefetch)", headers, self.rows())


def run(profile: Optional[ExperimentProfile] = None,
        workloads: Tuple[str, ...] = ("xalancbmk", "gcc"),
        ) -> OPTBoundReport:
    """Regenerate the OPT-bound study at *profile* scale."""
    if profile is None:
        profile = ExperimentProfile.bench()
    bounds: Dict[str, Dict[str, object]] = {}
    for wl in workloads:
        ref_cfg = profile.config(1, "lru", DrishtiConfig.baseline(),
                                 prefetcher="none")
        traces = make_mix(homogeneous_mix(wl, 1), ref_cfg,
                          profile.scale.accesses_per_core,
                          seed=profile.seed)
        # Offline bound on the private-level-filtered stream.
        raw_blocks = [acc.block for acc in traces[0]]
        llc_stream = llc_stream_from_trace(
            raw_blocks, l2_capacity_blocks=ref_cfg.l2.capacity_blocks)
        sets, ways = ref_cfg.llc_sets_per_slice, ref_cfg.llc_ways
        data: Dict[str, object] = {
            "lru_bound": lru_misses(llc_stream, sets, ways),
            "opt_bound": opt_misses(llc_stream, sets, ways),
        }
        # Simulated policies on the same trace (warmup 0 so counts are
        # whole-stream, like the bound).
        for policy in POLICIES:
            cfg = profile.config(1, policy, DrishtiConfig.baseline(),
                                 prefetcher="none")
            result = Simulator(cfg, traces, warmup_accesses=0).run()
            data[policy] = sum(result.llc_demand_misses)
        bounds[wl] = data
    return OPTBoundReport(profile=profile, workloads=tuple(workloads),
                          bounds=bounds)
