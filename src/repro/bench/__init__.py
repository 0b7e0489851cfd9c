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
entry.

Throughputs are best-of-N per CPU-second (``time.process_time``), and
each is also recorded *normalised*: divided by the median rate of a
fixed pure-Python calibration loop (:func:`calibrate`) sampled just
before each of that row's timed runs of that kernel.  The simulator is
interpreted Python too, so the normalised figure moves with the code,
not with the host; sampling per row tracks a host whose speed drifts
during the invocation.
``--check`` gates the normalised throughput of **each** kernel against
the committed same-mode baseline (skipped when no baseline exists): the
geometric mean of its fresh/committed ratios over the unit workloads
and the sweep must stay at or above :data:`REGRESSION_TOLERANCE`, and
every single ratio at or above :data:`ROW_TOLERANCE`, so a collapse
confined to one workload cannot hide in the mean.  Gating the
vector/reference ratio instead would let a change that slows both
kernels equally pass, and would fail whenever the reference oracle got
faster.

Every timed configuration is first asserted bit-identical across the
two kernels — a benchmark of a wrong kernel is worthless.  Timings are
best-of-N, and every repetition runs on fresh copies of its traces, so
no repetition reuses the SoA arrays or the vector kernel's private-level
classification an earlier one cached on the immutable trace (see
:meth:`repro.traces.trace.Trace.derived`); a cold sweep pays both once
per trace too.

This module is *not* part of the deterministic hot set — wall-clock
reads are confined here and to the artefacts it writes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
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
    "ROW_TOLERANCE",
    "BenchRegression",
    "calibrate",
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

BENCH_SCHEMA_VERSION = 2
KERNEL_BENCH_FILE = "BENCH_kernel.json"
SWEEP_BENCH_FILE = "BENCH_sweep.json"

#: ``--check`` fails when a kernel's fresh normalised throughput, as a
#: geometric mean over the unit workloads and the sweep, drops below
#: this fraction of the committed baseline (0.85 == a >15 %
#: regression), so a 30 % slowdown of either kernel fails the gate.
REGRESSION_TOLERANCE = 0.85

#: ... or when any single workload's ratio drops below this one, so a
#: regression confined to one row (one workload, or the multi-core
#: sweep) is not averaged away by the others.
ROW_TOLERANCE = 0.7

#: Iterations of the fixed calibration loop (:func:`calibrate`) and the
#: entries of the table it reads (a few megabytes of dict and lists).
CALIB_LOOPS = 200_000
CALIB_TABLE = 1 << 18

#: accesses per unit workload, per mode.
_UNIT_ACCESSES = {"smoke": {"hot_loop": 200_000, "mcf": 40_000},
                  "full": {"hot_loop": 500_000, "mcf": 150_000}}
_UNIT_REPEATS = {"smoke": 7, "full": 5}
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


def calibrate() -> float:
    """Loops per CPU-second of a fixed pure-Python loop: how fast this
    host runs interpreted code right now.  Like the simulator, the loop
    looks up dict keys and updates list slots scattered over several
    megabytes, so it also feels the cache contention of a shared host,
    which a loop over a few registers does not."""
    mask = CALIB_TABLE - 1
    table = {k * 2654435761 % (1 << 40): k for k in range(CALIB_TABLE)}
    keys = list(table)
    slots = [0] * CALIB_TABLE
    x = 12345
    start = time.process_time()
    for _ in range(CALIB_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        slots[table[keys[x & mask]]] += 1
    return CALIB_LOOPS / (time.process_time() - start)


def _normalised(per_s: float, loops_per_s: float) -> float:
    """*per_s* per million calibration loops per second."""
    return float(f"{per_s / loops_per_s * 1e6:.6g}")


def time_kernel(config: SystemConfig, traces: Sequence[Trace],
                kernel: str, repeats: int,
                calibration: List[float]) -> Tuple[float, float]:
    """Best-of-*repeats* CPU seconds for one full ``Simulator.run``, each
    on fresh copies of *traces* (nothing cached on them), and the median
    of the :func:`calibrate` samples taken just before each run (also
    appended to *calibration*)."""
    best = float("inf")
    samples: List[float] = []
    for _ in range(repeats):
        cfg = dataclasses.replace(config)
        cfg.llc_policy_params = dict(config.llc_policy_params)
        cfg.sim_kernel = kernel
        sim = Simulator(cfg, [Trace(t.name, t.accesses) for t in traces])
        samples.append(calibrate())
        start = time.process_time()
        sim.run()
        best = min(best, time.process_time() - start)
        if (sim.kernel_used or "reference") != kernel:
            raise AssertionError(
                f"requested kernel {kernel!r} but ran "
                f"{sim.kernel_used!r}")
    calibration.extend(samples)
    return best, statistics.median(samples)


def unit_throughput(mode: str, calibration: List[float]) -> Dict:
    """Serial accesses per CPU-second of both kernels on the unit
    workloads, raw and normalised by the calibration samples of the
    same row and kernel (*calibration* as for :func:`time_kernel`)."""
    repeats = _UNIT_REPEATS[mode]
    out: Dict[str, Dict] = {}
    for workload, accesses in _UNIT_ACCESSES[mode].items():
        config = unit_config()
        traces = _unit_traces(workload, accesses, config)
        assert_kernels_equivalent(config, traces)
        t_ref, calib_ref = time_kernel(config, traces, "reference",
                                       repeats, calibration)
        t_vec, calib_vec = time_kernel(config, traces, "vector", repeats,
                                       calibration)
        out[workload] = {
            "accesses": accesses,
            "repeats": repeats,
            "reference_acc_per_s": round(accesses / t_ref, 1),
            "vector_acc_per_s": round(accesses / t_vec, 1),
            "speedup": round(t_ref / t_vec, 3),
            "reference_norm": _normalised(accesses / t_ref, calib_ref),
            "vector_norm": _normalised(accesses / t_vec, calib_vec),
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


def sweep_throughput(mode: str, calibration: List[float]) -> Dict:
    """Cells per CPU-second of a small policy × mix sweep under each
    kernel, best of two alternating runs each, raw and normalised by the
    calibration samples taken before that kernel's runs (*calibration*
    as for :func:`time_kernel`).

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

    cells = plan.cells(profile)
    timings = {"reference": float("inf"), "vector": float("inf")}
    samples: Dict[str, List[float]] = {"reference": [], "vector": []}
    for _ in range(2):
        fingerprints = {}
        for kernel in ("reference", "vector"):
            samples[kernel].append(calibrate())
            start = time.process_time()
            fingerprints[kernel] = build_cells(kernel)
            timings[kernel] = min(timings[kernel],
                                  time.process_time() - start)
        # Equivalence gate: every cell, both kernels, bit-exactly.
        if fingerprints["reference"] != fingerprints["vector"]:
            raise AssertionError("sweep cells disagree across kernels")
    for kernel_samples in samples.values():
        calibration.extend(kernel_samples)
    return {
        "cells": cells,
        "core_counts": list(plan.cores),
        "policies": list(plan.policies),
        "reference_cells_per_s": round(cells / timings["reference"], 3),
        "vector_cells_per_s": round(cells / timings["vector"], 3),
        "speedup": round(timings["reference"] / timings["vector"], 3),
        **{f"{kernel}_norm": _normalised(cells / timings[kernel],
                                         statistics.median(samples[kernel]))
           for kernel in timings},
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
    """Regression messages for each kernel's normalised throughput vs a
    committed record.

    For each kernel, the ratio of fresh to committed ``<kernel>_norm``
    (throughput divided by the same row's calibration-loop rate) is
    taken on every unit workload and on the sweep.  Their geometric
    mean must stay at or above :data:`REGRESSION_TOLERANCE`, which
    damps the run-to-run spread of single rows on a shared host, and
    each ratio at or above the lower :data:`ROW_TOLERANCE`, which keeps
    a regression of one row from hiding in the mean.  A host that runs
    everything slower also runs the calibration loop slower, so a
    slower CI runner passes, while a slowdown of either kernel, or of
    both, fails.  Empty when the baseline has no same-mode entry (first
    recording is never a regression).
    """
    problems: List[str] = []
    base_mode = baseline.get("modes", {}).get(mode)
    if not base_mode:
        return problems
    base_unit = base_mode.get("unit") or {}
    rows = [(f"unit/{workload}", fresh, base_unit.get(workload))
            for workload, fresh in fresh_kernel.items()]
    if fresh_sweep is not None:
        rows.append(("sweep", fresh_sweep, base_mode.get("sweep")))
    rows = [(name, fresh, old) for name, fresh, old in rows if old]
    for kernel in ("reference", "vector"):
        key = f"{kernel}_norm"
        ratios = [(name, fresh[key] / old[key]) for name, fresh, old in rows]
        if not ratios:
            continue
        score = statistics.geometric_mean(ratio for _name, ratio in ratios)
        if score < REGRESSION_TOLERANCE:
            detail = ", ".join(f"{name} {ratio:.2f}x"
                               for name, ratio in ratios)
            problems.append(
                f"{kernel}: normalised throughput {score:.2f}x of the "
                f"baseline < {REGRESSION_TOLERANCE}x (geometric mean of "
                f"{detail})")
        for name, ratio in ratios:
            if ratio < ROW_TOLERANCE:
                problems.append(
                    f"{kernel}: {name} normalised throughput {ratio:.2f}x "
                    f"of the baseline < {ROW_TOLERANCE}x")
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

    Raises :class:`BenchRegression` when *check* is set and either
    kernel's fresh normalised throughput is more than 15 % below the
    committed same-mode baseline over all rows, or more than 30 % below
    it on any one row (:func:`check_against_baseline`).

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
    calibration: List[float] = []
    try:
        unit = unit_throughput(mode, calibration)
        build = trace_build_report(_UNIT_ACCESSES[mode]["hot_loop"])
        sweep = None if skip_sweep else sweep_throughput(mode, calibration)
    finally:
        if ambient is not None:
            os.environ["REPRO_SIM_KERNEL"] = ambient
    # Recorded for context only: each row is normalised by its own
    # samples (unit_throughput, sweep_throughput).
    calib = {"loops": CALIB_LOOPS, "samples": len(calibration),
             "loops_per_s": round(statistics.median(calibration), 1)}

    # One check over both files' rows, so each kernel's geometric mean
    # spans the unit workloads and the sweep.
    recorded = {name: data.get("modes", {}).get(mode, {}).get(name)
                for name, data in (("unit", baseline_kernel),
                                   ("sweep", baseline_sweep))}
    problems = check_against_baseline({"modes": {mode: recorded}}, mode,
                                      unit, sweep)
    if check and problems:
        raise BenchRegression("; ".join(problems))

    env = _environment()
    merge_mode_payload(kernel_path, mode,
                       {"environment": env, "calibration": calib,
                        "unit": unit, "trace_build": build})
    if sweep is not None:
        merge_mode_payload(sweep_path, mode,
                           {"environment": env, "calibration": calib,
                            "sweep": sweep})
    return {"mode": mode, "calibration": calib, "unit": unit,
            "trace_build": build, "sweep": sweep, "regressions": problems}
