"""The three benchmark workloads, their output checks and metrics.

Every workload is a closed loop driven by one client process, serial,
with no process pool.  See ``perfbench/README.md`` for why each one
exists and which layer each metric isolates.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.drishti import DrishtiConfig
from repro.experiments import common
from repro.experiments.engine import SweepEngine
from repro.experiments.resultcache import ResultCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobSpec, ServiceProfile
from repro.sim.report import mix_to_dict
from repro.sim.runner import run_alone, run_mix
from repro.traces.mixes import make_mix

from stats import (calibrate, own_peak_rss_mb, percentile,
                   process_peak_rss_mb)
from tracer import LayerTracer

SRC = Path(__file__).resolve().parents[1] / "src"

CORE_COUNTS = (4, 16)
POLICIES = ["lru", "hawkeye", "d-hawkeye"]
PAPER_ACCESSES = 800
FILTERED_ACCESSES = 8000
#: Heterogeneous mixes: a fixed multiset of memory-intensive SPEC and
#: GAP workloads, placed on cores in a seed-dependent order.  Their
#: accesses per cycle stay within about 2x of ``mcf``'s, so no core
#: finishes its trace before the slowest one leaves warmup.
HETERO = {4: ["mcf", "xalancbmk", "omnetpp", "pr_kron"],
          16: ["mcf", "xalancbmk", "omnetpp", "pr_kron", "bfs_kron",
               "cc_urand", "xz", "pop2"] * 2}
#: An L1-resident workload: four small cyclic pools with sparse scan
#: and pointer-chase accents (~99.9 % L1 hits).  Its low access
#: intensity keeps it from racing through its trace while the ``mcf``
#: cores are still in warmup, which the vector kernel steps access by
#: access.
HOT_LOOP = {
    "name": "hot_loop", "apki": 2.0, "slice_affinity": 0.0,
    "set_skew_band": 1.0, "suite": "bench",
    "classes": [
        {"pattern": "cyclic", "count": 4, "pool_frac": 0.007,
         "weight": 0.996},
        {"pattern": "scan", "count": 1, "pool_frac": 2.0, "weight": 0.002},
        {"pattern": "chase", "count": 1, "pool_frac": 0.5, "weight": 0.002},
    ],
}

#: Warm re-runs per sweep run: job-latency samples (300 leave fifteen
#: beyond the 95th percentile, which needs ten).
WARM_SAMPLES = 300
#: Warm re-runs on each side of a traced run.
TRACE_WARM_SAMPLES = 30
SETUP_REPEATS = 3
DAEMON_STARTS = 3


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def paper_spec(seed: int) -> Dict[str, Any]:
    """The Figure-13 sweep as a service job spec: homogeneous ``mcf``
    and a heterogeneous mix at 4 and 16 cores, default prefetchers."""
    rng = random.Random(seed)
    mixes = []
    for cores in CORE_COUNTS:
        hetero = list(HETERO[cores])
        rng.shuffle(hetero)
        mixes.append({"name": f"homo_mcf_{cores}", "workloads":
                      ["mcf"] * cores, "kind": "homogeneous"})
        mixes.append({"name": f"hetero_{cores}", "workloads": hetero,
                      "kind": "heterogeneous"})
    return {"name": "paper_sweep", "scale": "small",
            "core_counts": list(CORE_COUNTS), "seed": seed,
            "accesses_per_core": PAPER_ACCESSES, "policies": POLICIES,
            "mixes": mixes}


def filtered_spec(seed: int) -> Dict[str, Any]:
    """One core in eight (at least one) runs ``mcf``, the rest the
    L1-resident loop."""
    rng = random.Random(seed)
    mixes = []
    for cores in CORE_COUNTS:
        minority = max(1, cores // 8)
        workloads = ["hot_loop"] * (cores - minority) + ["mcf"] * minority
        rng.shuffle(workloads)
        mixes.append({"name": f"filtered_{cores}", "workloads": workloads,
                      "kind": "heterogeneous"})
    return {"name": "filtered_sweep", "scale": "small",
            "core_counts": list(CORE_COUNTS), "seed": seed,
            "accesses_per_core": FILTERED_ACCESSES, "policies": POLICIES,
            "workloads": [HOT_LOOP], "mixes": mixes}


@dataclass(frozen=True)
class NoPrefetchProfile(ServiceProfile):
    """A service profile whose systems have no prefetchers, which makes
    them eligible for the vector kernel."""

    def config(self, num_cores, policy, drishti, **overrides):
        overrides.setdefault("prefetcher", "none")
        return super().config(num_cores, policy, drishti, **overrides)


@dataclass
class Sweep:
    """One sweep workload's inputs."""

    spec: Dict[str, Any]
    profile: ServiceProfile
    policies: Tuple

    @classmethod
    def build(cls, spec: Dict[str, Any], prefetch: bool) -> "Sweep":
        job = JobSpec.from_dict(spec)
        profile = job.profile()
        if not prefetch:
            profile = NoPrefetchProfile(**{
                f.name: getattr(profile, f.name)
                for f in dataclasses.fields(profile)})
        return cls(spec, profile, job.policy_triples())

    def accesses(self, matrix, stats) -> int:
        """Simulated demand accesses of one sweep: every alone unit
        plus every core of every cell."""
        cores = sum(c for c, _mix, _label in matrix.results)
        return self.profile.scale.accesses_per_core * \
            (stats.alone_units + cores)


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Attempted/failed operations; a failed check is a failed op."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def run(self, what: str, fn: Callable[[], Any]):
        """Call *fn*; an exception counts as a failed operation."""
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.record(False, f"{what}: {exc!r}")
            return None

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def _json_normal(payload: Dict[str, Any]) -> Dict[str, Any]:
    """*payload* as a JSON client receives it."""
    return json.loads(json.dumps(payload))


def _program_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_setup_s() -> float:
    """Median wall time of a fresh interpreter importing the sweep
    stack (the start-up every CLI sweep pays)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import repro.experiments.engine, "
                        "repro.service.jobs"],
                       env=_program_env(), check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Sweep operations
# ---------------------------------------------------------------------------

def sweep_once(sweep: Sweep, cache_dir: Path):
    """One sweep through ``SweepEngine`` with *cache_dir* attached;
    returns ``(matrix, export, stats, seconds)``."""
    engine = SweepEngine(cache=ResultCache(cache_dir))
    start = time.perf_counter()
    matrix = engine.run(sweep.profile, sweep.policies)
    export = common.matrix_to_dict(matrix)
    return matrix, export, engine.last_stats, time.perf_counter() - start


def cold_sweep(sweep: Sweep, cache_dir: Path, outcome: Outcome,
               reference: Optional[Dict] = None):
    """A sweep on an empty cache: every unit simulates and is put."""
    shutil.rmtree(cache_dir, ignore_errors=True)
    got = outcome.run("cold sweep", lambda: sweep_once(sweep, cache_dir))
    if got is None:
        return None
    _matrix, export, stats, _seconds = got
    outcome.record(stats.simulations_run == stats.total_units
                   and stats.cache_hits == 0 and stats.unit_failures == 0
                   and (reference is None or export == reference),
                   f"cold sweep simulated {stats.simulations_run}/"
                   f"{stats.total_units} units or changed its output")
    return got


def warm_sweeps(sweep: Sweep, cache_dir: Path, count: int,
                reference: Dict, outcome: Outcome) -> List[float]:
    """*count* re-runs against a full cache; returns their latencies
    (submit to exported result)."""
    latencies = []
    for _ in range(count):
        got = outcome.run("warm sweep", lambda: sweep_once(sweep, cache_dir))
        if got is None:
            continue
        _matrix, export, stats, seconds = got
        if outcome.record(stats.cache_hits == stats.total_units
                          and stats.simulations_run == 0
                          and export == reference,
                          "warm sweep missed the cache or changed its "
                          "output"):
            latencies.append(seconds)
    return latencies


def check_cell(sweep: Sweep, matrix, seed: int, outcome: Outcome) -> None:
    """Re-run one 4-core cell directly with ``run_mix`` (the reference
    kernel) and compare it bit-exactly with the sweep's cell."""
    cells = sorted(key for key in matrix.results if key[0] == min(
        CORE_COUNTS))
    cores, mix_name, label = random.Random(seed).choice(cells)
    mix = next(m for m in sweep.profile.mixes(cores) if m.name == mix_name)
    _label, policy, drishti = next(p for p in sweep.policies
                                   if p[0] == label)

    def rerun():
        base = sweep.profile.config(cores, "lru", DrishtiConfig.baseline(),
                                    sim_kernel="reference")
        traces = make_mix(mix, base, sweep.profile.scale.accesses_per_core,
                          seed=sweep.profile.seed)
        alone = {t.name: run_alone(base, t).ipc[0] for t in traces}
        cfg = sweep.profile.config(cores, policy, drishti,
                                   sim_kernel="reference")
        return run_mix(cfg, traces, alone_ipc_cache=alone)

    result = outcome.run("cell re-run", rerun)
    if result is not None:
        outcome.record(mix_to_dict(result) ==
                       mix_to_dict(matrix.results[(cores, mix_name, label)]),
                       f"run_mix re-run of cell {cores}/{mix_name}/{label} "
                       f"differs from the sweep")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, accesses_per_s: float,
               latencies: List[float], peak_rss_mb: float,
               outcome: Outcome) -> Dict[str, Dict[str, Any]]:
    p50 = percentile(latencies, 50) if latencies else None
    p95 = percentile(latencies, 95) if latencies else None
    if p50 is None or p95 is None:
        outcome.record(False, f"only {len(latencies)} latency samples; "
                              f"p95 needs ten beyond it")
    return {
        "setup_s": _metric(setup_s, "s"),
        "accesses_per_s": _metric(accesses_per_s, "1/s"),
        "job_latency_p50_s": _metric(p50 or 0.0, "s"),
        "job_latency_p95_s": _metric(p95 or 0.0, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        "success_rate": _metric(outcome.success_rate, "ratio"),
    }


def per_layer(tracer: LayerTracer, service: Dict[str, float],
              calib: float, overhead: float) -> Dict[str, Dict[str, Any]]:
    s, c, n = tracer.self_s, tracer.calls, tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    table = [
        ("traces.build_calls", c["traces.build"], "count"),
        ("traces.build_s", s["traces.build"], "s"),
        ("sim.run_calls", c["sim.run"], "count"),
        ("sim.run_self_s", s["sim"], "s"),
        ("sim.vector_share", ratio(n["sim.vector_runs"], c["sim.run"]),
         "ratio"),
        ("kernel.stepped_share", ratio(c["cpu.issue"], n["sim.accesses"]),
         "ratio"),
        ("cpu.issue_calls", c["cpu.issue"], "count"),
        ("cpu.s", s["cpu"], "s"),
        ("hierarchy.demand_calls", c["hierarchy.demand"], "count"),
        ("hierarchy.demand_self_s", s["hierarchy"], "s"),
        ("cache.private.access_calls", c["cache.private.access"], "count"),
        ("cache.private.fill_calls", c["cache.private.fill"], "count"),
        ("cache.private.s", s["cache.private"], "s"),
        ("prefetch.observe_calls", c["prefetch.observe"], "count"),
        ("prefetch.observe_s", s["prefetch"], "s"),
        ("prefetch.fills", n["prefetch.fills"], "count"),
        ("prefetch.accuracy", ratio(n["prefetch.useful"],
                                    n["prefetch.fills"]), "ratio"),
        ("llc.access_calls", c["llc.access"], "count"),
        ("llc.fill_calls", c["llc.fill"], "count"),
        ("llc.self_s", s["llc"], "s"),
        ("llc.demand_hit_rate", ratio(n["llc.demand_hits"],
                                      n["llc.demand_accesses"]), "ratio"),
        ("llc.writeback_fills", n["llc.writeback_fills"], "count"),
        ("policy.hook_calls", c["policy.hook"], "count"),
        ("policy.s", s["policy"], "s"),
        ("fabric.calls", c["fabric"], "count"),
        ("fabric.s", s["fabric"], "s"),
        ("nocstar.messages", n["nocstar.messages"], "count"),
        ("dsc.observe_calls", n["dsc.observe"], "count"),
        ("noc.calls", c["noc"], "count"),
        ("noc.s", s["noc"], "s"),
        ("noc.avg_latency_cycles", ratio(n["noc.latency_cycles"],
                                         n["noc.messages"]), "cycles"),
        ("dram.read_calls", c["dram.read"], "count"),
        ("dram.write_calls", c["dram.write"], "count"),
        ("dram.s", s["dram"], "s"),
        ("dram.row_hit_rate", ratio(n["dram.row_hits"],
                                    n["dram.requests"]), "ratio"),
        ("engine.units", n["engine.units"], "count"),
        ("engine.self_s", s["engine"], "s"),
        ("engine.cache_hit_ratio", ratio(n["engine.cache_hits"],
                                         n["engine.units"]), "ratio"),
        ("resultcache.key_s", s["resultcache.key"], "s"),
        ("resultcache.get_calls", c["resultcache.get"], "count"),
        ("resultcache.get_s", s["resultcache.get"], "s"),
        ("resultcache.put_calls", c["resultcache.put"], "count"),
        ("resultcache.put_s", s["resultcache.put"], "s"),
        ("export.s", s["export"], "s"),
    ]
    table += [(f"service.{name}_s", service.get(name, 0.0), "s")
              for name in ("submit", "queue", "engine", "finish", "result")]
    table += [("host.calib_loops_per_s", calib, "1/s"),
              ("trace_overhead", overhead, "ratio")]
    return {name: _metric(value, unit) for name, value, unit in table}


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------

def run_sweep(sweep: Sweep, seconds: float, trace: bool, seed: int,
              work: Path, outcome: Outcome) -> Dict[str, Dict[str, Any]]:
    """``paper_sweep`` / ``filtered_sweep``.

    Untraced: cold sweeps (fresh empty cache each) for 70 % of the
    time budget, then :data:`WARM_SAMPLES` warm re-runs of the same
    sweep.  Traced: one cold sweep plus warm re-runs untraced, the
    same again under :class:`LayerTracer`.
    """
    calib = calibrate()
    setup_s = import_setup_s()
    cache_dir = work / "cache"

    if trace:
        untraced = cold_sweep(sweep, cache_dir, outcome)
        if untraced is None:
            raise RuntimeError("untraced cold sweep failed")
        matrix, reference, _stats, plain_s = untraced
        warm_sweeps(sweep, cache_dir, TRACE_WARM_SAMPLES, reference,
                    outcome)
        with LayerTracer() as tracer:
            traced = cold_sweep(sweep, cache_dir, outcome, reference)
            warm_sweeps(sweep, cache_dir, TRACE_WARM_SAMPLES, reference,
                        outcome)
        check_cell(sweep, matrix, seed, outcome)
        overhead = traced[3] / plain_s if traced else 0.0
        return per_layer(tracer, {}, calib, overhead)

    start = time.perf_counter()
    budget = 0.7 * seconds
    cold_seconds, accesses, last = 0.0, 0, 0.0
    matrix = reference = None
    while matrix is None or time.perf_counter() - start + last <= budget:
        got = cold_sweep(sweep, cache_dir, outcome, reference)
        if got is None:
            if matrix is None:
                raise RuntimeError("cold sweep failed")
            break
        got_matrix, export, stats, last = got
        if matrix is None:
            matrix, reference = got_matrix, export
        cold_seconds += last
        accesses += sweep.accesses(got_matrix, stats)
    latencies = warm_sweeps(sweep, cache_dir, WARM_SAMPLES, reference,
                            outcome)
    check_cell(sweep, matrix, seed, outcome)
    print(f"perfbench: {accesses} accesses in {cold_seconds:.2f} s of cold "
          f"sweeps, {len(latencies)} warm re-runs", file=sys.stderr)
    return end_to_end(setup_s, accesses / cold_seconds, latencies,
                      own_peak_rss_mb(), outcome)


# ---------------------------------------------------------------------------
# warm_resubmit
# ---------------------------------------------------------------------------

class Daemon:
    """A ``python -m repro.service serve`` subprocess."""

    def __init__(self, root: Path):
        self.root = root
        (root / "daemon.json").unlink(missing_ok=True)
        self._log = open(root / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--root",
             str(root)],
            env=_program_env(), stdout=self._log, stderr=self._log)

    def wait_ready(self, timeout: float = 60.0) -> ServiceClient:
        """Poll until the advertised daemon answers ``/healthz``."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}")
            try:
                advert = json.loads((self.root / "daemon.json").read_text())
                if advert.get("pid") == self.proc.pid:
                    client = ServiceClient(
                        url=f"http://{advert['host']}:{advert['port']}")
                    client.health()
                    return client
            except (OSError, ValueError, ServiceError):
                pass
            if time.monotonic() >= deadline:
                raise RuntimeError("daemon did not become ready")
            time.sleep(0.005)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _submit_job(client: ServiceClient, spec: Dict[str, Any]):
    """Submit, long-poll ``watch`` to the end, fetch the result."""
    t0 = time.perf_counter()
    record = client.submit(spec)
    t1 = time.perf_counter()
    final = client.watch(record["job_id"])
    t2 = time.perf_counter()
    export = client.result(record["job_id"])
    t3 = time.perf_counter()
    return final, export, (t0, t1, t2, t3)


def run_warm_resubmit(sweep: Sweep, seconds: float, trace: bool,
                      work: Path, outcome: Outcome
                      ) -> Dict[str, Dict[str, Any]]:
    """Resubmit the ``paper_sweep`` job to a daemon whose shared cache
    holds every unit; each operation is submit → watch → result."""
    calib = calibrate()
    root = work / "service"
    root.mkdir(parents=True)
    # Warm the daemon's shared cache and keep the in-process export.
    warmed = cold_sweep(sweep, root / "cache", outcome)
    if warmed is None:
        raise RuntimeError("warm-up sweep failed")
    matrix, export, stats, _seconds = warmed
    reference = _json_normal(export)
    accesses_per_job = sweep.accesses(matrix, stats)

    daemon = None
    starts = []
    try:
        for _ in range(DAEMON_STARTS):
            if daemon is not None:
                daemon.stop()
            start = time.perf_counter()
            daemon = Daemon(root)
            client = daemon.wait_ready()
            starts.append(time.perf_counter() - start)

        latencies: List[float] = []
        split: Dict[str, List[float]] = {k: [] for k in (
            "submit", "queue", "engine", "finish", "result")}
        begin = time.perf_counter()
        budget = seconds / 2 if trace else seconds
        while time.perf_counter() - begin < budget:
            got = outcome.run("job", lambda: _submit_job(client,
                                                         sweep.spec))
            if got is None:
                continue
            final, result, (t0, t1, t2, t3) = got
            job_stats = final.get("stats") or {}
            if not outcome.record(
                    final["status"] == "done"
                    and job_stats.get("simulations_run") == 0
                    and job_stats.get("cache_hits")
                    == job_stats.get("total_units")
                    and result == reference,
                    f"job {final['job_id']} ({final['status']}) missed the "
                    f"cache or returned a different export"):
                continue
            latencies.append(t3 - t0)
            engine_s = job_stats["wall_seconds"]
            split["submit"].append(t1 - t0)
            split["queue"].append(final["started"] - final["created"])
            split["engine"].append(engine_s)
            split["finish"].append(final["finished"] - final["started"]
                                   - engine_s)
            split["result"].append(t3 - t2)
        peak_rss = process_peak_rss_mb(daemon.proc.pid)
    finally:
        if daemon is not None:
            daemon.stop()

    if not trace:
        served = accesses_per_job * len(latencies)
        return end_to_end(statistics.median(starts),
                          served / sum(latencies) if latencies else 0.0,
                          latencies, peak_rss, outcome)

    # Traced: the daemon's engine work, replayed in process on its
    # cache, alternating untraced and traced runs.
    cache_dir = root / "cache"
    tracer = LayerTracer()
    plain: List[float] = []
    traced: List[float] = []
    for _ in range(TRACE_WARM_SAMPLES):
        plain += warm_sweeps(sweep, cache_dir, 1, export, outcome)
        with tracer:
            traced += warm_sweeps(sweep, cache_dir, 1, export, outcome)
    overhead = statistics.median(traced) / statistics.median(plain) \
        if plain and traced else 0.0
    service = {name: statistics.median(values)
               for name, values in split.items() if values}
    return per_layer(tracer, service, calib, overhead)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, outcome: Outcome) -> Dict[str, Dict[str, Any]]:
    if name == "paper_sweep":
        return run_sweep(Sweep.build(paper_spec(seed), prefetch=True),
                         seconds, trace, seed, work, outcome)
    if name == "filtered_sweep":
        return run_sweep(Sweep.build(filtered_spec(seed), prefetch=False),
                         seconds, trace, seed, work, outcome)
    if name == "warm_resubmit":
        return run_warm_resubmit(
            Sweep.build(paper_spec(seed), prefetch=True), seconds, trace,
            work, outcome)
    raise ValueError(f"unknown workload {name!r}")
