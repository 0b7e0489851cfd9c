"""Figure 11: the interconnect is what makes Enhancement I viable.

(a) D-Mockingjay with predictor messages on the existing mesh instead of
NOCSTAR *slows down* relative to baseline Mockingjay — by more as core
count grows (paper: -2.8% at 4 cores, -5.5% at 16, -9% at 32).
(b) Sweeping a fixed side-band latency on the largest system shows ≤5
cycles is essentially free while ~20 cycles (the mesh's latency) eats
the gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.drishti import DrishtiConfig
from repro.experiments.common import (
    ExperimentProfile,
    pct,
    render_table,
)
from repro.sim.runner import run_mix
from repro.traces.mixes import make_mix

LATENCY_SWEEP = (1, 3, 5, 10, 20, 30)


@dataclass
class Fig11Report:
    """Structured results for Figure 11."""

    profile: ExperimentProfile
    # (a) cores -> percent WS change of mesh-routed D-Mockingjay vs
    # baseline Mockingjay (negative = slowdown).
    mesh_slowdown: Dict[int, float]
    # (b) side-band latency -> percent WS improvement of D-Mockingjay
    # over LRU at max cores.
    latency_sensitivity: Dict[int, float]
    cores_for_sweep: int

    def rows(self) -> List[Tuple]:
        rows = [("a", f"{cores} cores", self.mesh_slowdown[cores])
                for cores in sorted(self.mesh_slowdown)]
        rows += [("b", f"{lat} cycles", self.latency_sensitivity[lat])
                 for lat in sorted(self.latency_sensitivity)]
        return rows

    def render(self) -> str:
        return render_table(
            "Figure 11: (a) mesh-routed slowdown vs Mockingjay (%); "
            f"(b) side-band latency sweep on {self.cores_for_sweep} "
            "cores (WS% vs LRU)",
            ["panel", "point", "value (%)"], self.rows())


class _BaselineRuns:
    """LRU baselines + per-mix traces/alone-IPCs, computed once."""

    def __init__(self, profile: ExperimentProfile, cores: int,
                 num_mixes: int):
        self.profile = profile
        self.cores = cores
        self.entries = []
        for mix in profile.mixes(cores)[:num_mixes]:
            cfg = profile.config(cores, "lru", DrishtiConfig.baseline())
            traces = make_mix(mix, cfg, profile.scale.accesses_per_core,
                              seed=profile.seed)
            alone: Dict[str, float] = {}
            base = run_mix(cfg, traces, alone_ipc_cache=alone)
            self.entries.append((traces, alone, base))

    def avg_ws(self, policy: str, drishti: DrishtiConfig) -> float:
        """Average normalised WS of (policy, drishti) over the mixes."""
        ratios = []
        for traces, alone, base in self.entries:
            cfg = self.profile.config(self.cores, policy, drishti)
            this = run_mix(cfg, traces, alone_ipc_cache=alone)
            ratios.append(this.ws / base.ws)
        return sum(ratios) / len(ratios)


def run(profile: Optional[ExperimentProfile] = None,
        latencies: Tuple[int, ...] = LATENCY_SWEEP,
        num_mixes: int = 2) -> Fig11Report:
    """Regenerate Figure 11 at *profile* scale; returns the report."""
    if profile is None:
        profile = ExperimentProfile.bench()

    mesh_slowdown: Dict[int, float] = {}
    sweep_runs: Optional[_BaselineRuns] = None
    for cores in profile.core_counts:
        runs = _BaselineRuns(profile, cores, num_mixes)
        mesh_ws = runs.avg_ws("mockingjay",
                              DrishtiConfig.without_nocstar())
        base_ws = runs.avg_ws("mockingjay", DrishtiConfig.baseline())
        mesh_slowdown[cores] = 100.0 * (mesh_ws / base_ws - 1.0)
        if cores == profile.max_cores:
            sweep_runs = runs

    cores = profile.max_cores
    if sweep_runs is None:
        sweep_runs = _BaselineRuns(profile, cores, num_mixes)
    latency_sensitivity: Dict[int, float] = {}
    for lat in latencies:
        drishti = DrishtiConfig.full().with_sideband_latency(lat)
        latency_sensitivity[lat] = pct(
            sweep_runs.avg_ws("mockingjay", drishti))
    return Fig11Report(profile=profile, mesh_slowdown=mesh_slowdown,
                       latency_sensitivity=latency_sensitivity,
                       cores_for_sweep=cores)
