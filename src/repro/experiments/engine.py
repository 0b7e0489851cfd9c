"""Parallel sweep execution engine for the policy matrix.

The shared ``{policy × mix × core-count}`` sweep behind every figure
and table decomposes into independent work units:

* an **alone unit** measures one trace's ``IPC_alone`` on the baseline
  LRU system (one unit per distinct trace per core count — computed
  once, not lazily inside the first ``run_mix`` of each mix), and
* a **cell unit** runs one mix *together* under one policy
  configuration, consuming the alone IPCs measured in phase one.

Units carry only small, picklable descriptions (``ExperimentProfile``,
``MixSpec``, policy name, ``DrishtiConfig``); workers regenerate their
traces deterministically with :func:`repro.traces.mixes.make_mix_trace`
instead of having multi-megabyte traces pickled across processes.
Every unit's outcome is fully determined by seeds derived from the
profile, so scheduling order — serial, any interleaving across a
process pool, or any pattern of retries — cannot change a single
result.

``parallel=True`` fans units out over a ``ProcessPoolExecutor``.
``SweepEngine(parallel=False)`` (the default) runs every unit through
the same scheduler, as a pool that starts degraded: serial execution
is the scheduler's in-process tail, the path a broken pool finishes
on, and is numerically identical to the historical serial sweep.
Attach a :class:`repro.experiments.resultcache.ResultCache` to skip
already-computed units across runs: the parent probes the cache before
dispatching, so a fully warm sweep performs **zero** simulations
(observable via :class:`SweepStats`).

Fault tolerance (docs/robustness.md): every unit runs under a
:class:`repro.experiments.retry.RetryPolicy` — failed units are
retried with deterministic exponential backoff, pooled units get a
wall-clock deadline, a ``BrokenProcessPool`` is survived by respawning
the pool (and, on repeated breakage, degrading to in-process
execution), and ``SweepEngine.run(resume=...)`` replays a prior
manifest + result cache so an interrupted sweep skips every completed
unit.  The :mod:`repro.experiments.faults` injector exercises all of
these paths deterministically in tests and CI.

Observability (docs/observability.md): every run publishes its whole
lifecycle — ``sweep_start``, one event per work unit (cache hits
included), ``sweep_end`` on every exit path, and the recovery events
``unit_retried`` / ``unit_failed`` / ``pool_respawn`` /
``pool_degraded`` / ``sweep_interrupted`` — on an event bus
(:class:`repro.obs.events.EventBus`).  Pass ``events=`` to inject a
private bus (the service daemon gives each job its own, so concurrent
engines in one process never cross-talk); by default the run uses the
context's current bus.  A :class:`repro.obs.RunManifest` is simply a
bus subscriber the engine attaches for the duration of the run — via
``scoped_subscribe``, so a failing sweep can never leak its listener
— making the JSONL manifest the complete record of where each number
came from.  Set ``progress=True`` for a live ``done/total, cache
hits, ETA`` stderr line.  Neither layer touches simulation
arithmetic.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import ExitStack
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, \
    ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, \
    Tuple

from repro.core.drishti import DrishtiConfig
from repro.experiments.faults import FaultPlan, maybe_inject, unit_label
from repro.experiments.resultcache import ResultCache, cache_key
from repro.experiments.retry import RetryPolicy, UnitFailure
from repro.obs import MANIFEST_SCHEMA_VERSION, ProgressLine, RunManifest, \
    telemetry_enabled
from repro.obs import events as obs_events
from repro.obs.events import EventBus
from repro.sim.config import SystemConfig
from repro.sim.runner import MixResult, run_alone, run_mix
from repro.traces.mixes import MixSpec, make_mix, make_mix_trace, \
    mix_trace_name
from repro.traces.trace import Trace

__all__ = [
    "SweepEngine",
    "SweepStats",
    "available_workers",
    "default_engine",
    "run_sweep",
]


def available_workers() -> int:
    """CPUs this process may use (respects affinity masks/cgroups)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class SweepStats:
    """What one :meth:`SweepEngine.run` actually did.

    ``simulations_run`` counts units that executed a simulator (cache
    misses); a warm-cache sweep reports 0 with
    ``cache_hits == total_units``.  ``resumed_units`` counts units
    skipped because a ``resume`` manifest proved them complete (alone
    values replayed from the manifest; cells via the result cache).
    """

    alone_units: int = 0
    cell_units: int = 0
    cache_hits: int = 0
    simulations_run: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    unit_retries: int = 0
    unit_failures: int = 0
    pool_respawns: int = 0
    resumed_units: int = 0

    @property
    def total_units(self) -> int:
        return self.alone_units + self.cell_units

    @property
    def cells_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.cell_units / self.wall_seconds


# ---------------------------------------------------------------------------
# Worker functions (module-level so they pickle under multiprocessing).
# ---------------------------------------------------------------------------

def _base_config(profile, cores: int) -> SystemConfig:
    """The baseline LRU system: trace geometry + IPC_alone reference."""
    return profile.config(cores, "lru", DrishtiConfig.baseline())


def _pool_alone_unit(profile, task: "_AloneTask",
                     plan: Optional[FaultPlan], label: str,
                     attempt: int) -> float:
    """One pooled alone-unit attempt: fault injection, then IPC_alone
    for one trace on the baseline LRU system.

    Pure by contract (PAR001): the fault plan and parent-assigned
    attempt number arrive as arguments, never from process state.
    """
    maybe_inject(plan, label, attempt)
    base_cfg = _base_config(profile, task.cores)
    trace = make_mix_trace(task.mix, task.core_index, base_cfg,
                           profile.scale.accesses_per_core,
                           seed=profile.seed)
    return run_alone(base_cfg, trace).ipc[0]


def _pool_cell_unit(profile, task: "_CellTask",
                    alone_ipcs: Dict[str, float],
                    plan: Optional[FaultPlan], label: str,
                    attempt: int) -> MixResult:
    """One pooled cell-unit attempt: fault injection, then one mix run
    together under one policy configuration."""
    maybe_inject(plan, label, attempt)
    traces = make_mix(task.mix, _base_config(profile, task.cores),
                      profile.scale.accesses_per_core, seed=profile.seed)
    cfg = profile.config(task.cores, task.policy, task.drishti)
    return run_mix(cfg, traces, alone_ipc_cache=dict(alone_ipcs))


def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Tear a pool down without waiting on hung or dead workers."""
    if pool is None:
        return
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown races
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

@dataclass
class _AloneTask:
    key: str
    cores: int
    trace_name: str
    mix: MixSpec
    core_index: int
    label: str = ""


@dataclass
class _CellTask:
    key: str
    cores: int
    mix: MixSpec
    policy: str
    drishti: DrishtiConfig
    targets: List[Tuple[int, str, str]] = field(default_factory=list)
    label: str = ""


@dataclass
class _PoolUnit:
    """Scheduler state for one work unit."""

    task: object
    label: str
    key: str
    attempts: int = 0        #: attempts consumed so far
    started: float = 0.0     #: monotonic submit time of this attempt
    ready_at: float = 0.0    #: monotonic backoff gate for resubmission


@dataclass
class _PoolContext:
    """Pool lifecycle shared by both phases of one run (a serial run
    starts degraded, with no pool)."""

    workers: int
    respawns_left: int
    pool: Optional[ProcessPoolExecutor] = None
    degraded: bool = False


@dataclass
class _ResumeState:
    """Completed units recovered from a prior run's manifest."""

    path: str
    alone_values: Dict[str, float] = field(default_factory=dict)
    completed: Set[str] = field(default_factory=set)
    prior_events: int = 0
    torn_tail: bool = False


def _load_resume(path) -> _ResumeState:
    """Parse a prior manifest (tolerating crash damage) into the set
    of unit keys proven complete, plus replayable alone-IPC values."""
    from repro.obs.manifest import read_manifest_ex
    report = read_manifest_ex(path)
    state = _ResumeState(path=str(path), prior_events=len(report.events),
                         torn_tail=report.torn_tail)
    for event in report.events:
        if event.get("event") != "unit" or not event.get("key"):
            continue
        key = event["key"]
        metrics = event.get("metrics") or {}
        if event.get("unit") == "alone":
            try:
                state.alone_values[key] = float(metrics["ipc_alone"])
            except (KeyError, TypeError, ValueError):
                continue  # unusable record: re-simulate, don't crash
            state.completed.add(key)
        elif event.get("unit") == "cell":
            state.completed.add(key)
    return state


def _cell_metrics(result: MixResult) -> Dict[str, float]:
    """The headline numbers a manifest reader wants per cell."""
    return {"ws": result.ws, "hs": result.hs,
            "mpki": result.mpki, "wpki": result.wpki}


class _UnitReporter:
    """Fans unit completions out to the event bus and progress line.

    One ``unit`` event / progress tick per *work unit* — the
    deduplicated alone + distinct-cell units, so cache hits and
    duplicate-config cells never double-count against ``total``.
    Units skipped via resume count as "warm" for the progress line's
    ETA (they finish in microseconds, like cache hits).  The manifest
    (when attached) receives the event as a bus subscriber, as does
    any other sink — a service job's progress feed, a test probe.
    """

    def __init__(self, bus: EventBus, progress: ProgressLine):
        self.bus = bus
        self.progress = progress
        self.done = 0
        self.cache_hits = 0
        self.resumed = 0

    @property
    def warm(self) -> int:
        return self.cache_hits + self.resumed

    def unit(self, cache_hit: bool, resumed: bool = False,
             **fields) -> None:
        self.done += 1
        if cache_hit:
            self.cache_hits += 1
        if resumed:
            self.resumed += 1
            fields["resumed"] = True
        self.bus.emit("unit", cache_hit=cache_hit, **fields)
        self.progress.update(self.done, self.warm)


class SweepEngine:
    """Schedules the policy sweep's work units.

    Args:
        parallel: fan units out over a process pool.  ``False`` runs
            them through the same scheduler with no pool, on its
            in-process tail (the byte-for-byte serial path).
        max_workers: pool size; defaults to :func:`available_workers`.
        cache: optional :class:`ResultCache` consulted before and
            updated after every unit.
        manifest: optional :class:`repro.obs.RunManifest`; every run
            appends ``sweep_start`` / ``unit`` / ``sweep_end`` events
            (plus any :mod:`repro.obs.events` emitted while it runs).
        events: optional :class:`repro.obs.events.EventBus` the run
            publishes its lifecycle on.  Defaults to the context's
            current bus (the process-global one for plain callers);
            inject a private bus to isolate concurrent engines in one
            process.  While the run executes, the injected bus is
            also the *current* bus for its thread, so events emitted
            by library code deep under the run land on it too.
        progress: write a live ``done/total`` line to stderr.
        retry: :class:`repro.experiments.retry.RetryPolicy` governing
            per-unit retries, backoff, timeouts and pool respawns
            (default: three attempts, no timeout).
        faults: optional :class:`repro.experiments.faults.FaultPlan`
            injected into every unit attempt (testing/CI only).
        resume: default manifest path for :meth:`run`'s ``resume``.
    """

    def __init__(self, parallel: bool = False,
                 max_workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 manifest: Optional[RunManifest] = None,
                 events: Optional[EventBus] = None,
                 progress: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 faults: Optional[FaultPlan] = None,
                 resume=None):
        self.parallel = parallel
        self.max_workers = max_workers
        self.cache = cache
        self.manifest = manifest
        self.events = events
        self.progress = progress
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.resume = resume
        self.last_stats: Optional[SweepStats] = None

    # ------------------------------------------------------------------
    def _alone_key(self, profile, base_key: Dict, mix: MixSpec,
                   core_index: int) -> str:
        # (workload spec, core_index, seed) fully determine the trace;
        # the baseline config (*base_key*, its canonical dict, built
        # once per core count) carries the geometry it is built against.
        # The *resolved* spec dict is keyed alongside the name: two
        # specs sharing a name but differing in any parameter (possible
        # with custom WorkloadSpec.from_dict workloads) must never
        # share an alone-IPC entry.
        return cache_key("alone", base_key,
                         mix.workloads[core_index],
                         mix.workload_spec(core_index).to_dict(),
                         core_index, profile.seed,
                         profile.scale.accesses_per_core)

    def _cell_key(self, profile, cores: int, base_key: Dict,
                  mix: MixSpec, policy: str,
                  drishti: DrishtiConfig) -> str:
        cfg = profile.config(cores, policy, drishti)
        # As with _alone_key: key each core's resolved spec dict, not
        # just its workload name.
        return cache_key("cell", base_key,
                         cfg.canonical_dict(), list(mix.workloads),
                         [mix.resolve(w).to_dict() for w in mix.workloads],
                         profile.seed, profile.scale.accesses_per_core)

    def _cache_get(self, key: str):
        if self.cache is None:
            return False, None
        return self.cache.get(key)

    def _cache_put(self, key: str, value) -> None:
        if self.cache is not None:
            self.cache.put(key, value)

    # ------------------------------------------------------------------
    def run(self, profile, policies: Optional[Sequence[
            Tuple[str, str, DrishtiConfig]]] = None, resume=None):
        """Execute the sweep; returns the merged ``PolicyMatrix``.

        Args:
            profile: the :class:`ExperimentProfile` to sweep.
            policies: (label, policy, drishti) triples.
            resume: path to a prior run's manifest; units it proves
                complete are skipped (alone IPCs replayed from the
                manifest, cells through the attached result cache).

        Per-run statistics are left in :attr:`last_stats`.  A
        ``sweep_end`` manifest event is emitted whether the run
        completes (``status: ok``), exhausts a unit's retries
        (``failed``, :class:`UnitFailure` propagates) or is
        interrupted (``interrupted``, after flushing a
        ``sweep_interrupted`` record).
        """
        from repro.experiments.common import (HEADLINE_POLICIES,
                                              PolicyMatrix, _mix_suite)
        if policies is None:
            policies = HEADLINE_POLICIES
        policies = tuple(policies)
        started = time.time()
        stats = SweepStats()
        matrix = PolicyMatrix(profile=profile,
                              labels=[label for label, _p, _d in policies])
        resume = resume if resume is not None else self.resume
        resume_state = _load_resume(resume) if resume else None

        # ---- plan: decompose into deduplicated work units -------------
        alone_plan: Dict[Tuple[int, str], _AloneTask] = {}
        cell_plan: List[Tuple[int, MixSpec, str, str, DrishtiConfig]] = []
        base_keys: Dict[int, Dict] = {}
        for cores in profile.core_counts:
            base_key = base_keys[cores] = \
                _base_config(profile, cores).canonical_dict()
            mixes = profile.mixes(cores)
            matrix.mix_names[cores] = [m.name for m in mixes]
            for mix in mixes:
                matrix.mix_kinds[mix.name] = mix.kind
                matrix.mix_suites[mix.name] = _mix_suite(mix)
                for core_index, workload in enumerate(mix.workloads):
                    tname = mix_trace_name(workload, profile.seed,
                                           core_index,
                                           spec=mix.resolve(workload))
                    if (cores, tname) not in alone_plan:
                        alone_plan[(cores, tname)] = _AloneTask(
                            key=self._alone_key(profile, base_key, mix,
                                                core_index),
                            cores=cores, trace_name=tname, mix=mix,
                            core_index=core_index,
                            label=unit_label("alone", cores, tname))
                for label, policy, drishti in policies:
                    cell_plan.append((cores, mix, label, policy, drishti))
        stats.alone_units = len(alone_plan)
        stats.cell_units = len(cell_plan)

        # ---- cache/resume probe (in the parent, pre-dispatch) ---------
        alone_ipcs: Dict[Tuple[int, str], float] = {}
        alone_pending: List[_AloneTask] = []
        alone_hits: List[Tuple[_AloneTask, float]] = []
        alone_resumed: List[Tuple[_AloneTask, float]] = []
        for (cores, tname), task in alone_plan.items():
            found, value = self._cache_get(task.key)
            if found:
                alone_ipcs[(cores, tname)] = value
                stats.cache_hits += 1
                alone_hits.append((task, value))
                if resume_state is not None and \
                        task.key in resume_state.completed:
                    stats.resumed_units += 1
            elif resume_state is not None and \
                    task.key in resume_state.alone_values:
                # Replay the manifest's value (JSON floats round-trip
                # exactly) and backfill the cache for the next run.
                value = resume_state.alone_values[task.key]
                alone_ipcs[(cores, tname)] = value
                stats.resumed_units += 1
                alone_resumed.append((task, value))
                self._cache_put(task.key, value)
            else:
                alone_pending.append(task)

        cell_results: Dict[Tuple[int, str, str], MixResult] = {}
        cell_pending: Dict[str, _CellTask] = {}
        cell_hits: List[Tuple[str, int, MixSpec, str, MixResult]] = []
        hit_keys: set = set()
        resume_missing = 0
        for cores, mix, label, policy, drishti in cell_plan:
            target = (cores, mix.name, label)
            key = self._cell_key(profile, cores, base_keys[cores], mix,
                                 policy, drishti)
            if key in cell_pending:  # identical workload tuple + config
                cell_pending[key].targets.append(target)
                continue
            found, value = self._cache_get(key)
            if found:
                cell_results[target] = value
                stats.cache_hits += 1
                if key not in hit_keys:  # one manifest unit per key
                    hit_keys.add(key)
                    cell_hits.append((key, cores, mix, policy, value))
                    if resume_state is not None and \
                            key in resume_state.completed:
                        stats.resumed_units += 1
            else:
                if resume_state is not None and \
                        key in resume_state.completed:
                    resume_missing += 1  # manifest says done, cache lost
                cell_pending[key] = _CellTask(
                    key=key, cores=cores, mix=mix, policy=policy,
                    drishti=drishti, targets=[target],
                    label=unit_label("cell", cores, mix.name, label))

        stats.simulations_run = len(alone_pending) + len(cell_pending)

        # ---- observability -------------------------------------------
        # Work units = dedup'd alone tasks + *distinct* cell configs, so
        # the progress denominator matches the events actually emitted.
        total_units = stats.alone_units + len(hit_keys) + len(cell_pending)
        workers = (self.max_workers or available_workers()) \
            if self.parallel else 1
        progress = ProgressLine(total_units, enabled=self.progress)
        bus = self.events if self.events is not None \
            else obs_events.current_bus()
        reporter = _UnitReporter(bus, progress)
        with ExitStack() as scope:
            # The injected bus becomes this thread's current bus, so
            # events emitted by library code under the run (e.g.
            # run_mix's lazy_alone_ipc) reach this run's sinks only.
            scope.enter_context(obs_events.use_bus(bus))
            if self.manifest is not None:
                # The manifest is just a bus subscriber, scoped so no
                # exit path — including exceptions raised before the
                # execute phase even starts — can leak it onto the bus
                # where it would double-report into the next run.
                manifest = self.manifest
                scope.enter_context(bus.scoped_subscribe(
                    lambda kind, payload: manifest.emit(kind, **payload)))
            bus.emit(
                "sweep_start",
                schema_version=MANIFEST_SCHEMA_VERSION,
                seed=profile.seed,
                accesses_per_core=profile.scale.accesses_per_core,
                core_counts=list(profile.core_counts),
                policies=[label for label, _p, _d in policies],
                alone_units=stats.alone_units,
                cell_units=stats.cell_units,
                total_units=total_units,
                workers=workers,
                cache_attached=self.cache is not None,
                max_attempts=self.retry.max_attempts,
                unit_timeout=self.retry.unit_timeout,
                faults_armed=bool(self.faults))
            if resume_state is not None:
                bus.emit(
                    "sweep_resume",
                    path=resume_state.path,
                    prior_events=resume_state.prior_events,
                    prior_torn_tail=resume_state.torn_tail,
                    completed_units=len(resume_state.completed),
                    resumed_units=stats.resumed_units,
                    missing_from_cache=resume_missing)
            status = "ok"
            error: Optional[str] = None
            try:
                # ---- execute ------------------------------------------
                try:
                    for task, value in alone_hits:
                        reporter.unit(True, unit="alone", key=task.key,
                                      cores=task.cores,
                                      trace=task.trace_name,
                                      seed=profile.seed, wall_seconds=0.0,
                                      metrics={"ipc_alone": value})
                    for task, value in alone_resumed:
                        reporter.unit(False, resumed=True, unit="alone",
                                      key=task.key, cores=task.cores,
                                      trace=task.trace_name,
                                      seed=profile.seed, wall_seconds=0.0,
                                      metrics={"ipc_alone": value})
                    for key, cores, mix, policy, value in cell_hits:
                        reporter.unit(True, unit="cell", key=key,
                                      cores=cores, mix=mix.name,
                                      policy=policy, seed=profile.seed,
                                      wall_seconds=0.0,
                                      metrics=_cell_metrics(value))
                    self._execute(profile, workers, alone_pending,
                                  list(cell_pending.values()), alone_ipcs,
                                  cell_results, reporter, stats)
                except KeyboardInterrupt:
                    # Flush a durable partial-run record: everything done
                    # so far is already in the manifest/cache, so a later
                    # run(resume=...) skips straight to the remainder.
                    status = "interrupted"
                    error = "KeyboardInterrupt"
                    bus.emit("sweep_interrupted", done=reporter.done,
                             total_units=total_units)
                    raise
                except BaseException as exc:
                    status = "failed"
                    error = repr(exc)
                    raise
            finally:
                stats.wall_seconds = time.time() - started
                self.last_stats = stats
                end_fields = dict(
                    status=status,
                    alone_units=stats.alone_units,
                    cell_units=stats.cell_units,
                    total_units=total_units,
                    cache_hits=stats.cache_hits,
                    simulations_run=stats.simulations_run,
                    workers=stats.workers,
                    unit_retries=stats.unit_retries,
                    unit_failures=stats.unit_failures,
                    pool_respawns=stats.pool_respawns,
                    resumed_units=stats.resumed_units,
                    wall_seconds=round(stats.wall_seconds, 6))
                if error is not None:
                    end_fields["error"] = error
                bus.emit("sweep_end", **end_fields)
                progress.finish(reporter.done, reporter.warm)

        # ---- merge ----------------------------------------------------
        for cores, mix, label, policy, drishti in cell_plan:
            matrix.results[(cores, mix.name, label)] = \
                cell_results[(cores, mix.name, label)]
        return matrix

    # ------------------------------------------------------------------
    # Retry plumbing (shared by pooled and in-process attempts)
    # ------------------------------------------------------------------
    def _handle_unit_error(self, label: str, key: str, attempt: int,
                           exc: BaseException,
                           stats: SweepStats) -> float:
        """Account one failed attempt; returns the backoff delay.

        Raises :class:`UnitFailure` (chaining *exc*) when the retry
        budget is exhausted.  Events reach the manifest through the
        engine's bus listener, so serial and pooled runs record the
        same recovery history.
        """
        if attempt >= self.retry.max_attempts:
            stats.unit_failures += 1
            obs_events.emit("unit_failed", label=label, key=key,
                            attempts=attempt, error=repr(exc))
            raise UnitFailure(label, key, attempt, exc) from exc
        stats.unit_retries += 1
        delay = self.retry.delay(key, attempt)
        obs_events.emit("unit_retried", label=label, key=key,
                        attempt=attempt, error=repr(exc),
                        delay_seconds=round(delay, 6))
        return delay

    @staticmethod
    def _attempt_fields(attempts: int) -> Dict[str, int]:
        """Extra manifest fields for a unit that needed retries (empty
        for first-try successes, keeping fault-free manifests
        byte-compatible with earlier schema revisions)."""
        return {"attempts": attempts} if attempts > 1 else {}

    # ------------------------------------------------------------------
    def _mix_alone_ipcs(self, profile, cores: int, mix: MixSpec,
                        alone_ipcs: Dict[Tuple[int, str], float],
                        ) -> Dict[str, float]:
        """The alone-IPC dict one cell's ``run_mix`` call needs."""
        out = {}
        for core_index, workload in enumerate(mix.workloads):
            tname = mix_trace_name(workload, profile.seed, core_index,
                                   spec=mix.resolve(workload))
            out[tname] = alone_ipcs[(cores, tname)]
        return out

    # ------------------------------------------------------------------
    # Unit scheduler
    # ------------------------------------------------------------------
    def _respawn_or_degrade(self, ctx: _PoolContext,
                            stats: SweepStats) -> None:
        """The pool broke (or a worker hung past its deadline): spend
        a respawn if any remain, otherwise fall back to in-process
        execution for every unit still outstanding."""
        _kill_pool(ctx.pool)
        if ctx.respawns_left > 0:
            ctx.respawns_left -= 1
            stats.pool_respawns += 1
            obs_events.emit("pool_respawn", workers=ctx.workers,
                            respawns_left=ctx.respawns_left)
            ctx.pool = ProcessPoolExecutor(max_workers=ctx.workers)
        else:
            ctx.pool = None
            ctx.degraded = True
            obs_events.emit("pool_degraded", workers=ctx.workers)

    def _pool_phase(self, ctx: _PoolContext, units: List[_PoolUnit],
                    submit_unit: Callable[[ProcessPoolExecutor,
                                           _PoolUnit], Future],
                    run_inline: Callable[[_PoolUnit], object],
                    finish_unit: Callable[[_PoolUnit, object, float],
                                          None],
                    stats: SweepStats) -> None:
        """Drive one phase's units to completion, surviving failures.

        A deadline-polling scheduler replaces the fire-and-forget
        ``as_completed`` loop: failed attempts re-enter the queue
        after their deterministic backoff, units past
        ``retry.unit_timeout`` are declared hung (their worker is
        reclaimed by respawning the pool), and ``BrokenProcessPool``
        requeues in-flight casualties without charging their retry
        budgets.  Once the pool is degraded — a serial run's context
        starts that way — everything left runs in process, in
        submission order.
        """
        pending: Deque[_PoolUnit] = deque(units)
        inflight: Dict[Future, _PoolUnit] = {}
        timeout = self.retry.unit_timeout

        def requeue_casualties() -> None:
            # The pool died under these units through no fault of
            # their own: refund the attempt and run them again.
            for unit in inflight.values():
                unit.attempts -= 1
                unit.ready_at = 0.0
                pending.appendleft(unit)
            inflight.clear()

        while (pending or inflight) and not ctx.degraded:
            now = time.monotonic()
            # Fill the pool, respecting each unit's backoff gate.
            rotations = 0
            while pending and len(inflight) < 2 * ctx.workers \
                    and rotations < len(pending) and not ctx.degraded:
                unit = pending[0]
                if unit.ready_at > now:
                    pending.rotate(-1)
                    rotations += 1
                    continue
                pending.popleft()
                unit.attempts += 1
                unit.started = now
                try:
                    future = submit_unit(ctx.pool, unit)
                except BrokenExecutor:
                    unit.attempts -= 1
                    pending.appendleft(unit)
                    requeue_casualties()
                    self._respawn_or_degrade(ctx, stats)
                    continue
                inflight[future] = unit
            if ctx.degraded:
                break
            if not inflight:
                if pending:
                    wake = min(u.ready_at for u in pending) \
                        - time.monotonic()
                    if wake > 0:
                        time.sleep(min(wake, 0.25))
                continue
            done, _not_done = futures_wait(
                list(inflight), timeout=self.retry.poll_interval,
                return_when=FIRST_COMPLETED)
            broken = False
            for future in list(done):
                unit = inflight.pop(future)
                try:
                    value = future.result()
                except KeyboardInterrupt:
                    raise
                except BrokenExecutor:
                    broken = True
                    unit.attempts -= 1
                    unit.ready_at = 0.0
                    pending.appendleft(unit)
                except Exception as exc:
                    delay = self._handle_unit_error(
                        unit.label, unit.key, unit.attempts, exc, stats)
                    unit.ready_at = time.monotonic() + delay
                    pending.append(unit)
                else:
                    finish_unit(unit, value,
                                time.monotonic() - unit.started)
            if timeout is not None and not broken:
                now = time.monotonic()
                for future in list(inflight):
                    unit = inflight[future]
                    if future.done() or now - unit.started <= timeout:
                        continue
                    # Hung worker: this attempt is spent, and the only
                    # way to reclaim the stuck slot is a pool respawn.
                    broken = True
                    del inflight[future]
                    exc: BaseException = TimeoutError(
                        f"unit {unit.label} exceeded "
                        f"{timeout}s wall-clock deadline "
                        f"(attempt {unit.attempts})")
                    delay = self._handle_unit_error(
                        unit.label, unit.key, unit.attempts, exc, stats)
                    unit.ready_at = time.monotonic() + delay
                    pending.append(unit)
            if broken:
                requeue_casualties()
                self._respawn_or_degrade(ctx, stats)

        # In-process tail: each unit keeps the retry budget it already
        # spent in the pool (none, for a serial run), and a failed
        # attempt is retried in place — recomputation is deterministic,
        # so results are identical to a healthy pooled run.
        while pending:
            unit = pending.popleft()
            unit_started = time.monotonic()
            while True:
                unit.attempts += 1
                try:
                    maybe_inject(self.faults, unit.label, unit.attempts)
                    value = run_inline(unit)
                    break
                except Exception as exc:
                    delay = self._handle_unit_error(
                        unit.label, unit.key, unit.attempts, exc, stats)
                    if delay > 0:
                        time.sleep(delay)
            finish_unit(unit, value, time.monotonic() - unit_started)

    def _execute(self, profile, workers: int,
                 alone_pending: List[_AloneTask],
                 cell_pending: List[_CellTask],
                 alone_ipcs: Dict[Tuple[int, str], float],
                 cell_results: Dict[Tuple[int, str, str], MixResult],
                 reporter: _UnitReporter,
                 stats: SweepStats) -> None:
        """Run every pending unit through the scheduler, alone phase
        first.

        A parallel run fans units out over a process pool.  A serial
        run is a context that starts degraded, with no pool, so its
        units take :meth:`_pool_phase`'s in-process tail in plan order.
        The in-process tail generates each distinct trace once per core
        count, keyed by its canonical name, and shares it with every
        unit and every mix that runs it (a heterogeneous mix's ``mcf``
        core and the homogeneous ``mcf`` mix's core of the same index
        are one trace object, so they also share the vector kernel's
        classification cached on it).

        Per-unit ``wall_seconds`` runs from submission (pooled) or
        first attempt (in process) to completion of the successful
        attempt as seen by the parent, so it includes pool queueing
        and retries — the number a reader wants when judging where a
        sweep's time went.
        """
        pooled = self.parallel and bool(alone_pending or cell_pending)
        if pooled:
            stats.workers = workers
        ctx = _PoolContext(
            workers=workers, respawns_left=self.retry.max_pool_respawns,
            pool=ProcessPoolExecutor(max_workers=workers) if pooled
            else None,
            degraded=not pooled)
        base_cfgs = {cores: _base_config(profile, cores) for cores in
                     sorted({t.cores for t in alone_pending} |
                            {t.cores for t in cell_pending})}
        trace_memo: Dict[Tuple[int, str], Trace] = {}

        def traces_for(cores: int, mix: MixSpec) -> List[Trace]:
            traces = []
            for core_index, workload in enumerate(mix.workloads):
                trace_key = (cores, mix_trace_name(
                    workload, profile.seed, core_index,
                    spec=mix.resolve(workload)))
                if trace_key not in trace_memo:
                    trace_memo[trace_key] = make_mix_trace(
                        mix, core_index, base_cfgs[cores],
                        profile.scale.accesses_per_core,
                        seed=profile.seed)
                traces.append(trace_memo[trace_key])
            return traces

        def submit_alone(pool, unit):
            return pool.submit(_pool_alone_unit, profile, unit.task,
                               self.faults, unit.label, unit.attempts)

        def inline_alone(unit):
            task = unit.task
            trace = traces_for(task.cores, task.mix)[task.core_index]
            return run_alone(base_cfgs[task.cores], trace).ipc[0]

        def finish_alone(unit, value, wall):
            task = unit.task
            alone_ipcs[(task.cores, task.trace_name)] = value
            self._cache_put(task.key, value)
            reporter.unit(False, unit="alone", key=task.key,
                          cores=task.cores, trace=task.trace_name,
                          seed=profile.seed, wall_seconds=round(wall, 6),
                          metrics={"ipc_alone": value},
                          **self._attempt_fields(unit.attempts))

        def submit_cell(pool, unit):
            task = unit.task
            return pool.submit(_pool_cell_unit, profile, task,
                               self._mix_alone_ipcs(profile, task.cores,
                                                    task.mix, alone_ipcs),
                               self.faults, unit.label, unit.attempts)

        def inline_cell(unit):
            task = unit.task
            cfg = profile.config(task.cores, task.policy, task.drishti)
            return run_mix(cfg, traces_for(task.cores, task.mix),
                           alone_ipc_cache=self._mix_alone_ipcs(
                               profile, task.cores, task.mix, alone_ipcs))

        def finish_cell(unit, result, wall):
            task = unit.task
            for target in task.targets:
                cell_results[target] = result
            self._cache_put(task.key, result)
            reporter.unit(False, unit="cell", key=task.key,
                          cores=task.cores, mix=task.mix.name,
                          policy=task.policy, seed=profile.seed,
                          wall_seconds=round(wall, 6),
                          metrics=_cell_metrics(result),
                          **self._attempt_fields(unit.attempts))

        try:
            for tasks, submit, inline, finish in (
                    (alone_pending, submit_alone, inline_alone,
                     finish_alone),
                    (cell_pending, submit_cell, inline_cell, finish_cell)):
                self._pool_phase(
                    ctx, [_PoolUnit(task=t, label=t.label, key=t.key)
                          for t in tasks],
                    submit, inline, finish, stats)
        except BaseException:
            # Interrupted or failed: don't block on in-flight (possibly
            # hung) workers — reclaim them and let run() flush records.
            _kill_pool(ctx.pool)
            ctx.pool = None
            raise
        else:
            if ctx.pool is not None:
                ctx.pool.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Defaults / environment knobs
# ---------------------------------------------------------------------------

def _env_workers() -> Optional[int]:
    """``REPRO_SWEEP_WORKERS``: unset/0/1 → serial; N>1 or ``auto``."""
    raw = os.environ.get("REPRO_SWEEP_WORKERS", "").strip().lower()
    if not raw:
        return None
    if raw == "auto":
        return available_workers()
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SWEEP_WORKERS must be an integer or 'auto', "
            f"got {raw!r}")


def _env_cache() -> Optional[ResultCache]:
    """``REPRO_SWEEP_CACHE``: unset/0 → off; 1 → results/cache; path."""
    raw = os.environ.get("REPRO_SWEEP_CACHE", "").strip()
    if not raw or raw == "0":
        return None
    if raw == "1":
        return ResultCache()
    return ResultCache(raw)


def _env_manifest() -> Optional[RunManifest]:
    """``REPRO_MANIFEST``: unset → no manifest; a path → append there."""
    raw = os.environ.get("REPRO_MANIFEST", "").strip()
    if not raw:
        return None
    return RunManifest(raw)


def _env_resume() -> Optional[str]:
    """``REPRO_SWEEP_RESUME``: unset → fresh run; a path → replay that
    manifest and skip every unit it proves complete."""
    raw = os.environ.get("REPRO_SWEEP_RESUME", "").strip()
    return raw or None


def default_engine() -> SweepEngine:
    """Engine configured from the environment (serial, no cache, no
    telemetry when ``REPRO_SWEEP_WORKERS`` / ``REPRO_SWEEP_CACHE`` /
    ``REPRO_TELEMETRY`` / ``REPRO_MANIFEST`` are unset; retry/timeout
    from ``REPRO_SWEEP_RETRIES`` / ``REPRO_SWEEP_TIMEOUT``, fault
    injection from ``REPRO_FAULTS``, resume from
    ``REPRO_SWEEP_RESUME``)."""
    workers = _env_workers()
    parallel = workers is not None and workers > 1
    return SweepEngine(parallel=parallel,
                       max_workers=workers if parallel else None,
                       cache=_env_cache(),
                       manifest=_env_manifest(),
                       progress=telemetry_enabled(),
                       retry=RetryPolicy.from_env(),
                       faults=FaultPlan.from_env(),
                       resume=_env_resume())


def run_sweep(profile, policies=None, *, parallel: bool = False,
              max_workers: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              manifest: Optional[RunManifest] = None,
              progress: bool = False,
              retry: Optional[RetryPolicy] = None,
              faults: Optional[FaultPlan] = None,
              resume=None):
    """One-shot sweep; returns ``(PolicyMatrix, SweepStats)``."""
    engine = SweepEngine(parallel=parallel, max_workers=max_workers,
                         cache=cache, manifest=manifest,
                         progress=progress, retry=retry, faults=faults)
    matrix = engine.run(profile, policies, resume=resume)
    return matrix, engine.last_stats
