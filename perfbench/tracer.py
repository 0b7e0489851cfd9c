"""Per-layer timing from outside the program: wrap public functions.

:class:`LayerTracer` replaces selected functions and methods of the
``repro`` packages with timing wrappers for the duration of a ``with``
block and puts every original back on exit.  Nothing under ``src/`` is
edited; the simulator runs exactly the same code, one call frame deeper.

Spans are aggregated in place rather than recorded one by one (a sweep
makes millions of calls).  Each wrapped call opens a span on a stack;
when it closes, its duration minus the time its child spans covered is
added to its layer's *self time*, and its duration is charged to the
enclosing span as child time.  A call into the layer that is already on
top of the stack (``Cache.access`` calling ``Cache.find_way``) stays in
the open span instead of opening a new one.

All times are host seconds from :func:`time.perf_counter`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer"]

_PRIVATE = "cache.private"


def _cache_layer(cache) -> str:
    """LLC slices are named ``LLC-slice-<i>``; L1D/L2 are private."""
    return "llc" if cache.name.startswith("LLC") else _PRIVATE


def _subclasses(cls) -> List[type]:
    """*cls* and all its subclasses, each once."""
    out, todo = {}, [cls]
    while todo:
        klass = todo.pop()
        out[klass] = None
        todo.extend(klass.__subclasses__())
    return list(out)


class LayerTracer:
    """Context manager that times the simulator stack layer by layer.

    Attributes (read after the ``with`` block):
        self_s: layer -> self time in seconds.
        calls: counter name -> number of calls.
        counts: derived counters (prefetch fills/credits, sim kernels,
            simulated statistics summed over ``Simulator.run`` calls,
            engine unit totals).
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _timed(self, fn: Callable, layer, counter: Optional[str] = None,
               skip_under: Optional[str] = None, count_reentry: bool = True,
               after: Optional[Callable] = None) -> Callable:
        """Wrap *fn* in a span of *layer*.

        *layer* is a name, or a function of the first argument (the
        counter is then prefixed with the resolved name).  *counter*
        counts calls, including calls made from inside the same layer
        unless *count_reentry* is false.  While *skip_under* is on top
        of the stack the call passes straight through, uncounted.
        *after(args, result)* runs when the call returns.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        perf = time.perf_counter
        dynamic = callable(layer)

        def wrapper(*args, **kwargs):
            name = layer(args[0]) if dynamic else layer
            top = stack[-1][0] if stack else None
            if skip_under is not None and top == skip_under:
                return fn(*args, **kwargs)
            if counter is not None and (count_reentry or top != name):
                calls[f"{name}.{counter}" if dynamic else counter] += 1
            if top == name:
                result = fn(*args, **kwargs)
            else:
                frame = [name, 0.0]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    stack.pop()
                    self_s[name] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner: type, name: str,
               make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name]
        if isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    def _patch_methods(self, base: type, names, make) -> None:
        """Patch *names* on *base* and on every subclass defining them."""
        for klass in _subclasses(base):
            for name in names:
                if name in klass.__dict__:
                    self._patch(klass, name, make)

    def _patch_function(self, module, name: str, make) -> None:
        """Patch a module-level function and every ``repro`` module that
        imported it by name."""
        original = getattr(module, name)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)
                self._patches.append((mod, name, original))

    # ------------------------------------------------------------------
    # Layer map
    # ------------------------------------------------------------------
    def _install(self) -> None:
        from repro.cache.cache import Cache
        from repro.cache.hierarchy import MemoryHierarchy
        from repro.cache.sliced_llc import SlicedLLC
        from repro.core.dynamic_sampler import DynamicSampledSets
        from repro.core.predictor_fabric import PredictorFabric
        from repro.cpu.core_model import CoreTiming
        from repro.dram.controller import DRAMController
        from repro.experiments import common, engine, resultcache
        from repro.interconnect.mesh import MeshNoC
        from repro.prefetch.base import Prefetcher
        from repro.replacement.base import ReplacementPolicy
        from repro.sim import runner
        from repro.sim.config import SystemConfig
        from repro.sim.simulator import Simulator
        from repro.traces import mixes
        # Import every policy and prefetcher so their subclasses exist.
        import repro.prefetch.registry  # noqa: F401
        import repro.replacement.registry  # noqa: F401

        timed = self._timed
        counts = self.counts

        # traces
        self._patch_function(mixes, "make_mix_trace",
                             lambda f: timed(f, "traces.build", "traces.build"))
        # sim: building the system, running it, the alone/together API
        self._patch(Simulator, "__init__", lambda f: timed(f, "sim"))
        self._patch(Simulator, "run",
                    lambda f: timed(f, "sim", "sim.run",
                                    after=self._after_sim_run))
        for name in ("run_alone", "run_mix"):
            self._patch_function(runner, name, lambda f: timed(f, "sim"))
        # cpu
        for name in ("advance", "finish", "snapshot"):
            self._patch(CoreTiming, name, lambda f: timed(f, "cpu"))
        self._patch(CoreTiming, "issue_memory",
                    lambda f: timed(f, "cpu", "cpu.issue"))
        # hierarchy
        self._patch(MemoryHierarchy, "demand_access",
                    lambda f: timed(f, "hierarchy", "hierarchy.demand"))

        def count_prefetch_fills(f):
            def wrapper(hier, core_id, pc, block, fill_level, cycle,
                        prefetcher):
                before = prefetcher.stats.issued
                f(hier, core_id, pc, block, fill_level, cycle, prefetcher)
                counts["prefetch.fills"] += prefetcher.stats.issued - before
            return wrapper

        def count_prefetch_credits(f):
            def wrapper(cache, block, way, core_id):
                if way is not None and cache.blocks_in_set(
                        cache.set_index(block))[way].is_prefetch:
                    counts["prefetch.useful"] += 1
                return f(cache, block, way, core_id)
            return wrapper

        self._patch(MemoryHierarchy, "_issue_prefetch", count_prefetch_fills)
        self._patch(MemoryHierarchy, "_credit_prefetch",
                    count_prefetch_credits)
        # private caches and LLC slices share the Cache class
        for name, counter in (("access", "access"), ("fill", "fill"),
                              ("find_way", None), ("contains", None),
                              ("invalidate", None)):
            self._patch(Cache, name,
                        lambda f, c=counter: timed(f, _cache_layer, c))
        for name in ("access", "fill", "contains", "slice_of"):
            self._patch(SlicedLLC, name, lambda f: timed(f, "llc"))
        # replacement-policy hooks; L1/L2 policy work stays private
        self._patch_methods(
            ReplacementPolicy,
            ("access", "choose_victim", "on_fill", "on_evict",
             "take_fill_latency"),
            lambda f: timed(f, "policy", "policy.hook", skip_under=_PRIVATE,
                            count_reentry=False))
        # predictor fabric (NOCSTAR exchanges run inside it), DSC
        for name in ("predict", "train_target"):
            self._patch(PredictorFabric, name,
                        lambda f: timed(f, "fabric", "fabric"))

        def count_dsc(f):
            def wrapper(*args, **kwargs):
                counts["dsc.observe"] += 1
                return f(*args, **kwargs)
            return wrapper

        self._patch(DynamicSampledSets, "observe", count_dsc)
        # mesh, DRAM, prefetchers
        self._patch(MeshNoC, "latency", lambda f: timed(f, "noc", "noc"))
        self._patch(DRAMController, "read",
                    lambda f: timed(f, "dram", "dram.read"))
        self._patch(DRAMController, "write",
                    lambda f: timed(f, "dram", "dram.write"))
        self._patch_methods(Prefetcher, ("observe",),
                            lambda f: timed(f, "prefetch", "prefetch.observe"))
        # engine, result cache, export
        self._patch(engine.SweepEngine, "run",
                    lambda f: timed(f, "engine", "engine.run",
                                    after=self._after_engine_run))
        self._patch_function(resultcache, "cache_key",
                             lambda f: timed(f, "resultcache.key"))
        self._patch(SystemConfig, "canonical_dict",
                    lambda f: timed(f, "resultcache.key"))
        self._patch(resultcache.ResultCache, "get",
                    lambda f: timed(f, "resultcache.get", "resultcache.get"))
        self._patch(resultcache.ResultCache, "put",
                    lambda f: timed(f, "resultcache.put", "resultcache.put"))
        self._patch_function(common, "matrix_to_dict",
                             lambda f: timed(f, "export", "export"))

    # ------------------------------------------------------------------
    # Post-call hooks (read results; never touch simulator state)
    # ------------------------------------------------------------------
    def _after_sim_run(self, args, result) -> None:
        sim = args[0]
        c = self.counts
        c["sim.accesses"] += sum(len(t) for t in sim.traces)
        c["sim.vector_runs"] += sim.kernel_used == "vector"
        stats = result.llc_stats
        c["llc.demand_accesses"] += stats.demand_accesses
        c["llc.demand_hits"] += stats.demand_hits
        c["llc.writeback_fills"] += stats.writeback_fills
        c["nocstar.messages"] += result.nocstar_messages
        c["noc.messages"] += result.noc_messages
        c["noc.latency_cycles"] += result.noc_messages * \
            result.noc_avg_latency
        requests = result.dram_reads + result.dram_writes
        c["dram.requests"] += requests
        c["dram.row_hits"] += result.dram_row_hit_rate * requests

    def _after_engine_run(self, args, _matrix) -> None:
        stats = args[0].last_stats
        self.counts["engine.units"] += stats.total_units
        self.counts["engine.cache_hits"] += stats.cache_hits

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)
