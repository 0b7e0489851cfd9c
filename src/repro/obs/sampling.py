"""Per-run telemetry bundle and interval time-series sampling.

Faldu et al.'s variability study (PAPERS.md) — and Drishti's own
Observations I/II — hinge on *when* predictor quality degrades, not
just whether end-of-run averages move.  :class:`SimTelemetry` gives a
simulation run that time axis: attach one to a
:class:`repro.sim.simulator.Simulator` and, every ``sample_interval``
demand accesses, the run appends a row with cumulative IPC, LLC MPKI,
predictor-fabric APKI, and DSC reselection counts.

Design constraints honoured here:

* **Zero cost when off.**  ``Simulator`` guards sampling behind a
  single falsy integer test per access; with no telemetry attached the
  simulated arithmetic is untouched and goldens stay bit-identical.
* **Registry included.**  The bundle owns a
  :class:`repro.obs.registry.StatsRegistry` that the memory hierarchy
  and its components publish into at construction, so one object hands
  a caller both the time series and the full end-of-run counter map.
* **Plain rows.**  Samples are dicts of numbers — picklable, JSON-safe,
  and exported by ``simulation_to_dict`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.registry import StatsRegistry

#: Keys present in every interval sample row.
SAMPLE_FIELDS = (
    "accesses",
    "instructions",
    "ipc",
    "llc_demand_misses",
    "mpki",
    "fabric_accesses",
    "fabric_apki",
    "dsc_reselections",
)


@dataclass
class SimTelemetry:
    """Everything one simulation run publishes.

    Args:
        sample_interval: demand accesses between time-series samples;
            0 (the default) disables the time series while keeping the
            registry active.
        registry: metric registry components publish into; a fresh one
            is created when not supplied.
    """

    sample_interval: int = 0
    registry: StatsRegistry = field(default_factory=StatsRegistry)
    samples: List[Dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.sample_interval < 0:
            raise ValueError(f"sample_interval must be >= 0, "
                             f"got {self.sample_interval}")

    def record(self, row: Dict) -> None:
        """Append one time-series row (called by the simulator)."""
        self.samples.append(row)

    def __repr__(self) -> str:
        return (f"SimTelemetry(interval={self.sample_interval}, "
                f"{len(self.samples)} samples, "
                f"{len(self.registry)} metrics)")
