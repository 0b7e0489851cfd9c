"""Perf-trajectory benchmark harness for the simulation kernels.

``python -m repro.bench`` times both access-processing backends
(:mod:`repro.sim.kernel`) and records the results as schema-versioned
JSON artefacts at the repository root:

* ``BENCH_kernel.json`` — serial unit throughput (accesses/second) of
  the reference and vector kernels on two single-core workloads (a
  hot-loop, L1-resident stream and the miss-heavy ``mcf`` model), plus
  the :class:`~repro.traces.trace.MemoryAccess` build rate and
  per-record size.
* ``BENCH_sweep.json`` — end-to-end sweep throughput (cells/second) of
  a small policy × mix matrix at the bench experiment scale, run
  directly through :func:`repro.sim.runner.run_mix` (no result cache,
  ``IPC_alone`` prefilled on baseline LRU per methodology).

Artefacts are merged per *mode* (``smoke`` / ``full``) so both records
can coexist in one file; re-running a mode overwrites only that mode's
entry.  ``--check`` compares the fresh vector throughput against the
committed same-mode baseline and fails on a >30 % regression
(tolerance-gated; skipped when no baseline exists).

Every timed configuration is first asserted bit-identical across the
two kernels — a benchmark of a wrong kernel is worthless.  Timings are
best-of-N with the trace's SoA arrays warm after the first repeat,
which matches production use (arrays are built once and cached on the
immutable trace; see :meth:`repro.traces.trace.Trace.as_arrays`).

This module is *not* part of the deterministic hot set — wall-clock
reads are confined here and to the artefacts it writes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.config import ScaleProfile, SystemConfig
from repro.sim.simulator import SimulationResult, Simulator
from repro.traces.mixes import homogeneous_mix, make_mix
from repro.traces.synthetic import PCClassSpec, WorkloadSpec, build_trace
from repro.traces.trace import Trace

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "KERNEL_BENCH_FILE",
    "SWEEP_BENCH_FILE",
    "REGRESSION_TOLERANCE",
    "BenchRegression",
    "hot_loop_spec",
    "unit_config",
    "assert_kernels_equivalent",
    "time_kernel",
    "unit_throughput",
    "sweep_throughput",
    "trace_build_report",
    "check_against_baseline",
    "merge_mode_payload",
    "run_bench",
]

BENCH_SCHEMA_VERSION = 1
KERNEL_BENCH_FILE = "BENCH_kernel.json"
SWEEP_BENCH_FILE = "BENCH_sweep.json"

#: ``--check`` fails when fresh vector throughput drops below this
#: fraction of the committed baseline (0.7 == a >30 % regression).
#: Loose on purpose: the speedup ratio is hardware-independent but
#: not contention-independent, and miss-heavy units sit near 1.6x.
REGRESSION_TOLERANCE = 0.7

#: accesses per unit workload, per mode.
_UNIT_ACCESSES = {"smoke": {"hot_loop": 200_000, "mcf": 40_000},
                  "full": {"hot_loop": 500_000, "mcf": 150_000}}
_UNIT_REPEATS = {"smoke": 3, "full": 4}
_SWEEP_CORES = {"smoke": (4,), "full": (4, 16)}


class BenchRegression(RuntimeError):
    """Raised by ``--check`` when throughput regressed past tolerance."""


# ---------------------------------------------------------------------------
# Workloads / configs
# ---------------------------------------------------------------------------

def hot_loop_spec() -> WorkloadSpec:
    """The hot-loop unit workload: an L1-resident working set.

    Four cyclic pools sized well inside the L1 give a ~99.5 % L1 hit
    rate with sparse scan (compulsory-miss) and chase (dependent)
    accents, so the stream is dominated by exactly the runs the vector
    kernel batches — the upper-bound case the ≥5x target is stated
    against.
    """
    return WorkloadSpec(
        name="bench_hot_loop", apki=50.0, slice_affinity=0.0,
        set_skew_band=1.0,
        classes=(
            PCClassSpec("cyclic", count=4, pool_frac=0.014, weight=0.996),
            PCClassSpec("scan", count=1, pool_frac=2.0, weight=0.002),
            PCClassSpec("chase", count=1, pool_frac=0.5, weight=0.002),
        ),
        suite="bench")


def unit_config(**overrides) -> SystemConfig:
    """Single-core, prefetcher-less smoke system (vector-eligible)."""
    return SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                     llc_policy="lru", seed=11,
                                     prefetcher="none", **overrides)


def _unit_traces(workload: str, num_accesses: int,
                 config: SystemConfig) -> List[Trace]:
    if workload == "hot_loop":
        trace = build_trace(hot_loop_spec(),
                            capacity_blocks=config.llc_lines_per_core,
                            num_slices=config.num_cores,
                            num_sets=config.llc_sets_per_slice,
                            num_accesses=num_accesses, seed=11,
                            hash_scheme=config.hash_scheme)
        return [trace]
    return make_mix(homogeneous_mix(workload, 1), config,
                    num_accesses, seed=11)


# ---------------------------------------------------------------------------
# Equivalence + timing
# ---------------------------------------------------------------------------

def _fingerprint(result: SimulationResult) -> Dict:
    """Exported values compared bit-exactly across kernels."""
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "l1_misses": result.l1_misses,
        "l2_misses": result.l2_misses,
        "llc_demand_accesses": result.llc_demand_accesses,
        "llc_demand_misses": result.llc_demand_misses,
        "llc_stats": vars(result.llc_stats),
        "dram": (result.dram_reads, result.dram_writes),
        "noc": (result.noc_messages, result.noc_avg_latency),
    }


def _run(config: SystemConfig, traces: Sequence[Trace],
         kernel: str) -> Tuple[SimulationResult, str]:
    cfg = dataclasses.replace(config)
    cfg.llc_policy_params = dict(config.llc_policy_params)
    cfg.sim_kernel = kernel
    sim = Simulator(cfg, list(traces))
    result = sim.run()
    return result, sim.kernel_used or "reference"


def assert_kernels_equivalent(config: SystemConfig,
                              traces: Sequence[Trace]) -> None:
    """Fail loudly if the two kernels disagree on this configuration.

    Also asserts the vector request actually ran vectorized — timing a
    silent fallback would record a meaningless speedup.
    """
    ref, _ = _run(config, traces, "reference")
    vec, used = _run(config, traces, "vector")
    if used != "vector":
        raise AssertionError(
            f"vector kernel fell back to {used!r} on a bench config; "
            f"bench configs must be vector-eligible")
    mismatch = [key for key in _fingerprint(ref)
                if _fingerprint(ref)[key] != _fingerprint(vec)[key]]
    if mismatch:
        raise AssertionError(
            f"kernels disagree on {mismatch} for "
            f"policy={config.llc_policy!r}")


def time_kernel(config: SystemConfig, traces: Sequence[Trace],
                kernel: str, repeats: int) -> float:
    """Best-of-*repeats* wall seconds for one full ``Simulator.run``."""
    best = float("inf")
    for _ in range(repeats):
        cfg = dataclasses.replace(config)
        cfg.llc_policy_params = dict(config.llc_policy_params)
        cfg.sim_kernel = kernel
        sim = Simulator(cfg, list(traces))
        start = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - start)
        if (sim.kernel_used or "reference") != kernel:
            raise AssertionError(
                f"requested kernel {kernel!r} but ran "
                f"{sim.kernel_used!r}")
    return best


def unit_throughput(mode: str) -> Dict:
    """Serial accesses/second of both kernels on the unit workloads."""
    repeats = _UNIT_REPEATS[mode]
    out: Dict[str, Dict] = {}
    for workload, accesses in _UNIT_ACCESSES[mode].items():
        config = unit_config()
        traces = _unit_traces(workload, accesses, config)
        assert_kernels_equivalent(config, traces)
        t_ref = time_kernel(config, traces, "reference", repeats)
        t_vec = time_kernel(config, traces, "vector", repeats)
        out[workload] = {
            "accesses": accesses,
            "repeats": repeats,
            "reference_acc_per_s": round(accesses / t_ref, 1),
            "vector_acc_per_s": round(accesses / t_vec, 1),
            "speedup": round(t_ref / t_vec, 3),
        }
    return out


# ---------------------------------------------------------------------------
# Sweep throughput
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SweepPlan:
    cores: Tuple[int, ...]
    policies: Tuple[str, ...] = ("lru", "hawkeye")

    def cells(self, profile) -> int:
        return sum(len(profile.mixes(c)) * len(self.policies)
                   for c in self.cores)


def sweep_throughput(mode: str) -> Dict:
    """Cells/second of a small policy × mix sweep under each kernel.

    Runs the bench experiment profile's mixes directly through
    :func:`repro.sim.runner.run_mix` — deliberately bypassing the sweep
    result cache so every cell is really simulated — with ``IPC_alone``
    prefilled from the baseline LRU system (the EXPERIMENTS.md
    methodology).  Cell results are asserted identical across kernels
    before any timing is recorded.
    """
    from repro.experiments.common import ExperimentProfile
    from repro.sim.runner import measure_alone_ipcs, run_mix

    profile = ExperimentProfile.bench()
    plan = _SweepPlan(cores=_SWEEP_CORES[mode])

    def build_cells(kernel: str):
        fingerprints = []
        for cores in plan.cores:
            for mix in profile.mixes(cores):
                base = profile.config(cores, "lru", None,
                                      prefetcher="none",
                                      sim_kernel=kernel)
                traces = make_mix(mix, base, profile.scale.accesses_per_core,
                                  seed=profile.seed)
                alone = measure_alone_ipcs(base, traces)
                for policy in plan.policies:
                    cfg = profile.config(cores, policy, None,
                                         prefetcher="none",
                                         sim_kernel=kernel)
                    result = run_mix(cfg, traces, alone_ipc_cache=dict(alone))
                    fingerprints.append(
                        (cores, mix.name, policy,
                         _fingerprint(result.result)))
        return fingerprints

    # Equivalence gate: every cell, both kernels, compared bit-exactly.
    if build_cells("reference") != build_cells("vector"):
        raise AssertionError("sweep cells disagree across kernels")

    timings = {}
    for kernel in ("reference", "vector"):
        start = time.perf_counter()
        build_cells(kernel)
        timings[kernel] = time.perf_counter() - start
    cells = plan.cells(profile)
    return {
        "cells": cells,
        "core_counts": list(plan.cores),
        "policies": list(plan.policies),
        "reference_cells_per_s": round(cells / timings["reference"], 3),
        "vector_cells_per_s": round(cells / timings["vector"], 3),
        "speedup": round(timings["reference"] / timings["vector"], 3),
    }


# ---------------------------------------------------------------------------
# MemoryAccess build report
# ---------------------------------------------------------------------------

def trace_build_report(num_accesses: int) -> Dict:
    """Build rate and per-record memory of :class:`MemoryAccess`, and the
    rate at which :meth:`Trace.as_arrays` builds its column views."""
    from repro.traces.trace import MemoryAccess

    start = time.perf_counter()
    records = [MemoryAccess(pc=i & 0xFFFF, address=i * 64,
                            is_write=bool(i & 1))
               for i in range(num_accesses)]
    t_build = time.perf_counter() - start
    trace = Trace("bench_build", records)
    start = time.perf_counter()
    trace.as_arrays()
    t_arrays = time.perf_counter() - start
    return {
        "accesses": num_accesses,
        "slots_bytes_per_record": sys.getsizeof(records[0]),
        "slots_build_acc_per_s": round(num_accesses / t_build, 1),
        "as_arrays_acc_per_s": round(num_accesses / t_arrays, 1),
    }


# ---------------------------------------------------------------------------
# Artefact I/O + regression gate
# ---------------------------------------------------------------------------

def _load_artifact(path: Path) -> Dict:
    if not path.exists():
        return {"schema_version": BENCH_SCHEMA_VERSION, "modes": {}}
    data = json.loads(path.read_text())
    if data.get("schema_version") != BENCH_SCHEMA_VERSION:
        # Incompatible recording: start fresh rather than mis-merge.
        return {"schema_version": BENCH_SCHEMA_VERSION, "modes": {}}
    return data


def merge_mode_payload(path: Path, mode: str, payload: Dict) -> Dict:
    """Merge *payload* under ``modes[mode]``, preserving other modes."""
    data = _load_artifact(path)
    data["modes"][mode] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def check_against_baseline(baseline: Dict, mode: str,
                           fresh_kernel: Dict,
                           fresh_sweep: Optional[Dict]) -> List[str]:
    """Regression messages for the vector *speedup* vs a committed record.

    The gate compares the vector/reference ratio, not absolute
    throughput: both backends are timed on the same machine in the same
    run, so the ratio is hardware-independent and safe to enforce on CI
    runners slower than the machine that recorded the baseline.  Empty
    when within :data:`REGRESSION_TOLERANCE` or when the baseline has no
    same-mode entry (first recording is never a regression).
    """
    problems: List[str] = []
    base_mode = baseline.get("modes", {}).get(mode)
    if not base_mode:
        return problems
    for workload, fresh in fresh_kernel.items():
        old = base_mode.get("unit", {}).get(workload)
        if not old:
            continue
        floor = old["speedup"] * REGRESSION_TOLERANCE
        if fresh["speedup"] < floor:
            problems.append(
                f"unit/{workload}: vector speedup {fresh['speedup']:.2f}x "
                f"< {floor:.2f}x (tolerance floor of baseline "
                f"{old['speedup']:.2f}x)")
    if fresh_sweep is not None:
        old_sweep = base_mode.get("sweep")
        if old_sweep:
            floor = old_sweep["speedup"] * REGRESSION_TOLERANCE
            if fresh_sweep["speedup"] < floor:
                problems.append(
                    f"sweep: vector speedup {fresh_sweep['speedup']:.2f}x "
                    f"< {floor:.2f}x (tolerance floor of baseline "
                    f"{old_sweep['speedup']:.2f}x)")
    return problems


def _environment() -> Dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "recorded_at": time.strftime("%Y-%m-%d"),
    }


def run_bench(mode: str, out_dir: Path, check: bool = False,
              skip_sweep: bool = False) -> Dict:
    """Run the full harness; write/merge artefacts; return a summary.

    Raises :class:`BenchRegression` when *check* is set and the fresh
    vector speedup is >30 % below the committed same-mode baseline.

    An ambient ``REPRO_SIM_KERNEL`` is suspended for the duration: the
    harness selects each backend explicitly per timed run, and the env
    override would silently retarget every one of them.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    kernel_path = out_dir / KERNEL_BENCH_FILE
    sweep_path = out_dir / SWEEP_BENCH_FILE
    baseline_kernel = _load_artifact(kernel_path)
    baseline_sweep = _load_artifact(sweep_path)

    ambient = os.environ.pop("REPRO_SIM_KERNEL", None)
    try:
        unit = unit_throughput(mode)
        build = trace_build_report(_UNIT_ACCESSES[mode]["hot_loop"])
        sweep = None if skip_sweep else sweep_throughput(mode)
    finally:
        if ambient is not None:
            os.environ["REPRO_SIM_KERNEL"] = ambient

    problems = check_against_baseline(baseline_kernel, mode, unit, None)
    if sweep is not None:
        problems += check_against_baseline(baseline_sweep, mode, {}, sweep)
    if check and problems:
        raise BenchRegression("; ".join(problems))

    env = _environment()
    merge_mode_payload(kernel_path, mode,
                       {"environment": env, "unit": unit,
                        "trace_build": build})
    if sweep is not None:
        merge_mode_payload(sweep_path, mode,
                           {"environment": env, "sweep": sweep})
    return {"mode": mode, "unit": unit, "trace_build": build,
            "sweep": sweep, "regressions": problems}
