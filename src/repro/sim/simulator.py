"""The multi-core trace-driven simulation loop.

Cores interleave in cycle order: each step advances the core whose local
clock is furthest behind, so shared-resource contention (LLC slices, DRAM
channels, mesh links) is experienced in a realistic global order without
a cycle-accurate event wheel.  A one-core run (the alone-IPC run) is
the same loop with one core, under either backend.

Warmup: each core's leading ``warmup_accesses`` train caches and
predictors without counting; when the last core crosses its warmup
boundary all hierarchy statistics reset and per-core IPC measurement
windows open.  A core whose trace is shorter than ``warmup_accesses``
counts as warm once its trace is exhausted (its warmup target is
clamped to its trace length), so one short trace cannot silently
disable warmup for the whole mix; if warmup would consume *every*
trace entirely, statistics are never reset and the full run is
measured.

Telemetry: pass a :class:`repro.obs.SimTelemetry` to publish every
component's counters into a ``StatsRegistry`` and (optionally) record
an IPC/MPKI/fabric-APKI/DSC time-series every ``sample_interval``
accesses.  With no telemetry attached (the default) the hot loop
performs one falsy integer test extra and results are bit-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.cache import CacheStats
from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu.core_model import CoreTiming
from repro.obs.sampling import SimTelemetry
from repro.sim.config import SystemConfig
from repro.sim.kernel import VectorKernel, resolve_kernel
from repro.traces.trace import Trace


@dataclass
class SimulationResult:
    """Everything a simulation run produces."""

    config: SystemConfig
    trace_names: List[str]
    instructions: List[int]  # measured window, per core
    cycles: List[float]  # measured window, per core
    llc_stats: CacheStats
    llc_demand_accesses: List[int]  # per core, measured window
    llc_demand_misses: List[int]
    l2_misses: List[int]
    l1_misses: List[int]
    dram_reads: int
    dram_writes: int
    dram_row_hit_rate: float
    noc_messages: int
    noc_avg_latency: float
    fabric_lookups: int = 0
    fabric_trains: int = 0
    fabric_lookup_latency_avg: float = 0.0
    fabric_per_instance: List[int] = field(default_factory=list)
    nocstar_messages: int = 0
    nocstar_energy_pj: float = 0.0
    per_set_mpka: Optional[np.ndarray] = None
    interval_samples: Optional[List[dict]] = None

    @property
    def ipc(self) -> List[float]:
        return [inst / cyc if cyc > 0 else 0.0
                for inst, cyc in zip(self.instructions, self.cycles)]

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions)

    def mpki(self, core_id: Optional[int] = None) -> float:
        """LLC demand misses per kilo-instruction (per core or overall)."""
        if core_id is not None:
            instr = self.instructions[core_id]
            misses = self.llc_demand_misses[core_id]
        else:
            instr = self.total_instructions
            misses = sum(self.llc_demand_misses)
        return 1000.0 * misses / instr if instr else 0.0

    @property
    def wpki(self) -> float:
        """LLC writebacks (to DRAM) per kilo-instruction, Table 5's metric."""
        instr = self.total_instructions
        return (1000.0 * self.llc_stats.writebacks_out / instr
                if instr else 0.0)

    @property
    def fabric_apki(self) -> float:
        """Predictor accesses per kilo-instruction (Figure 10's metric)."""
        instr = self.total_instructions
        total = self.fabric_lookups + self.fabric_trains
        return 1000.0 * total / instr if instr else 0.0


class Simulator:
    """Runs a set of per-core traces on a configured system.

    Args:
        config: system description.
        traces: one trace per core (shorter lists leave trailing cores
            idle).
        warmup_accesses: per-core accesses excluded from statistics
            (defaults to 20% of the shortest trace).
        telemetry: optional :class:`repro.obs.SimTelemetry`; components
            publish their counters into its registry at construction,
            and ``telemetry.sample_interval > 0`` enables the interval
            time-series (off by default — disabled runs are
            bit-identical).
    """

    def __init__(self, config: SystemConfig, traces: Sequence[Trace],
                 warmup_accesses: Optional[int] = None,
                 telemetry: Optional[SimTelemetry] = None):
        if len(traces) > config.num_cores:
            raise ValueError(
                f"{len(traces)} traces for {config.num_cores} cores")
        self.config = config
        self.traces = list(traces)
        if warmup_accesses is None:
            shortest = min((len(t) for t in self.traces), default=0)
            warmup_accesses = shortest // 5
        self.warmup_accesses = warmup_accesses
        self.telemetry = telemetry
        registry = telemetry.registry if telemetry is not None else None
        self.hierarchy = MemoryHierarchy(config, registry=registry)
        self.cores = [
            CoreTiming(issue_width=config.core.issue_width,
                       rob_size=config.core.rob_size,
                       max_outstanding=config.core.max_outstanding)
            for _ in range(config.num_cores)
        ]
        if registry is not None:
            for i in range(len(self.traces)):
                registry.register(
                    f"core.{i}.instructions",
                    lambda i=i: self.cores[i].instructions)
                registry.register(f"core.{i}.cycles",
                                  lambda i=i: self.cores[i].cycle)
        # Set by run(): which access-processing backend executed and,
        # when it fell back to the reference path, why.
        self.kernel_used: Optional[str] = None
        self.kernel_fallback_reasons: List[str] = []

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute all traces to completion; returns measured statistics.

        One cycle-ordered loop drives every run, one core or many: each
        iteration pops the core whose clock is furthest behind and
        advances it by one access, through the reference step
        (``demand_access`` plus ``CoreTiming``) or the vector kernel's
        :meth:`~repro.sim.kernel.VectorKernel.step`.  With the kernel, a
        run of trivial L1 hits may instead be fast-forwarded in one go:
        always after the warmup reset, and before it only when no other
        core is left to interleave, and then no further than that core's
        warmup target, so the reset fires at exactly the access the
        reference loop resets at.

        Backend selection: eligible configs (see
        :func:`repro.sim.kernel.resolve_kernel`) may take the
        bit-identical vectorized kernel; ``self.kernel_used`` /
        ``self.kernel_fallback_reasons`` record the decision.
        """
        kernel = self._select_kernel()
        if kernel is None:
            step = self._reference_step()
        else:
            kernel.prepare()
            step = kernel.step
        cores = self.cores
        num_active = len(self.traces)
        lengths = [len(t) for t in self.traces]
        # Each core's warmup target is clamped to its trace length: a
        # core whose whole trace fits inside warmup counts as warm once
        # it finishes, so it cannot postpone the stats reset (and the
        # measurement windows) of every other core indefinitely.
        targets = [min(self.warmup_accesses, n) for n in lengths]
        warm_count = targets.count(0)
        unfinished = sum(1 for n in lengths if n > 0)
        reset_done = self.warmup_accesses == 0
        # Measurement windows open at zero unless the reset moves them.
        snapshots = [(0, 0.0)] * num_active
        window_start = [0] * num_active
        positions = [0] * num_active
        sample_every = (self.telemetry.sample_interval
                        if self.telemetry is not None else 0)
        total_done = 0
        heappush = heapq.heappush
        heappop = heapq.heappop
        heap = [(0.0, i) for i in range(num_active)]

        while heap:
            _cycle, core_id = heappop(heap)
            core = cores[core_id]
            pos = positions[core_id]
            length = lengths[core_id]
            if pos >= length:
                core.finish()
                continue
            end = pos
            if kernel is not None and (reset_done or not heap):
                end = kernel.run_end(core, core_id, pos,
                                     length if reset_done
                                     else targets[core_id])
            if end > pos:
                kernel.fast_forward(core, core_id, pos, end)
            else:
                step(core, core_id, pos)
                end = pos + 1
            positions[core_id] = end
            if end == length:
                unfinished -= 1
            if pos < targets[core_id] <= end:
                warm_count += 1
                if warm_count == num_active and not reset_done \
                        and unfinished > 0:
                    # Reset only when something remains to measure;
                    # warmup that would consume every trace entirely
                    # measures the whole run instead.
                    self.hierarchy.reset_stats()
                    reset_done = True
                    snapshots = [cores[i].snapshot()
                                 for i in range(num_active)]
                    window_start = list(positions)

            if sample_every:
                total_done += end - pos
                if total_done % sample_every == 0:
                    self._sample(total_done)

            if end < length:
                heappush(heap, (core.cycle, core_id))
            else:
                core.finish()

        if kernel is not None:
            kernel.finalize_counters(window_start)
        return self._collect(snapshots, num_active)

    def _select_kernel(self) -> Optional[VectorKernel]:
        """Pick the backend for this run and record the decision."""
        kernel_used, fallback_reasons = resolve_kernel(
            self.config, self.telemetry)
        kernel = None
        if kernel_used == "vector" and not self.traces:
            kernel_used = "reference"  # nothing to vectorize
        elif kernel_used == "vector":
            kernel = VectorKernel(self)
            if not kernel.ready():
                kernel = None
                kernel_used = "reference"
                fallback_reasons = [
                    "simulator already ran: the lean private-level "
                    "replica assumes cold caches"]
        self.kernel_used = kernel_used
        self.kernel_fallback_reasons = fallback_reasons
        return kernel

    def _reference_step(self):
        """The reference per-access step (``demand_access`` plus the
        core's timing), with its lookups hoisted out of the loop."""
        accesses = [t.accesses for t in self.traces]
        demand_access = self.hierarchy.demand_access
        # L1 hits retire through the ROB like ordinary instructions;
        # only accesses that left the L1 hold an MSHR.
        l1_hit_threshold = self.config.l1.latency + 1

        def step(core: CoreTiming, core_id: int, pos: int) -> None:
            access = accesses[core_id][pos]
            core.advance(access.instr_gap)
            latency = demand_access(core_id, access, int(core.cycle))
            core.issue_memory(latency, dependent=access.dependent,
                              is_miss=latency > l1_hit_threshold)
        return step

    # ------------------------------------------------------------------
    def _sample(self, accesses_done: int) -> None:
        """Append one interval time-series row to the telemetry bundle.

        Values are cumulative reads of the live stats objects, so rows
        recorded before the warmup reset reflect warmup traffic and
        rows after it restart from the reset (the discontinuity *is*
        the warmup boundary — useful in itself when plotting).
        """
        num_active = len(self.traces)
        cores = self.cores[:num_active]
        instructions = sum(c.instructions for c in cores)
        cycles = max((c.cycle for c in cores), default=0.0)
        core_stats = self.hierarchy.core_stats[:num_active]
        misses = sum(cs.llc_misses for cs in core_stats)
        fabric = self.hierarchy.llc.fabric
        fabric_total = fabric.stats.total_accesses if fabric is not None \
            else 0
        reselections = 0
        for selector in self.hierarchy.llc.selectors or []:
            reselections += getattr(selector, "reselections", 0) or 0
        self.telemetry.record({
            "accesses": accesses_done,
            "instructions": instructions,
            "ipc": instructions / cycles if cycles else 0.0,
            "llc_demand_misses": misses,
            "mpki": 1000.0 * misses / instructions if instructions
            else 0.0,
            "fabric_accesses": fabric_total,
            "fabric_apki": 1000.0 * fabric_total / instructions
            if instructions else 0.0,
            "dsc_reselections": reselections,
        })

    # ------------------------------------------------------------------
    def _collect(self, snapshots: List[Tuple[int, float]],
                 num_active: int) -> SimulationResult:
        instructions = []
        cycles = []
        for i in range(num_active):
            snap_instr, snap_cycle = snapshots[i]
            core = self.cores[i]
            instructions.append(core.instructions - snap_instr)
            cycles.append(core.cycle - snap_cycle)

        hierarchy = self.hierarchy
        llc_stats = hierarchy.llc.aggregate_stats()
        core_stats = hierarchy.core_stats[:num_active]
        fabric = hierarchy.llc.fabric
        nocstar = hierarchy.llc.nocstar

        per_set = None
        if self.config.track_set_stats:
            per_set = hierarchy.llc.per_set_mpka()

        result = SimulationResult(
            config=self.config,
            trace_names=[t.name for t in self.traces],
            instructions=instructions,
            cycles=cycles,
            llc_stats=llc_stats,
            llc_demand_accesses=[cs.llc_accesses for cs in core_stats],
            llc_demand_misses=[cs.llc_misses for cs in core_stats],
            l2_misses=[cs.l2_misses for cs in core_stats],
            l1_misses=[cs.l1_misses for cs in core_stats],
            dram_reads=hierarchy.dram.stats.reads,
            dram_writes=hierarchy.dram.stats.writes,
            dram_row_hit_rate=hierarchy.dram.stats.row_hit_rate,
            noc_messages=hierarchy.mesh.stats.messages,
            noc_avg_latency=hierarchy.mesh.stats.average_latency,
            per_set_mpka=per_set,
        )
        if fabric is not None:
            result.fabric_lookups = fabric.stats.lookups
            result.fabric_trains = fabric.stats.trains
            result.fabric_lookup_latency_avg = \
                fabric.stats.average_lookup_latency
            result.fabric_per_instance = \
                list(fabric.stats.per_instance_accesses)
        if nocstar is not None:
            result.nocstar_messages = nocstar.stats.total_messages
            result.nocstar_energy_pj = nocstar.stats.dynamic_energy_pj
        if self.telemetry is not None and self.telemetry.samples:
            result.interval_samples = list(self.telemetry.samples)
        return result
