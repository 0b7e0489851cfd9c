"""Drishti Enhancement I: predictor placement and routing.

A sampler+predictor policy (Hawkeye, Mockingjay, SHiP++, ...) asks the
fabric two questions:

* "which predictor do I *look up* on this LLC fill?" (latency-critical —
  the fill stalls on the answer), and
* "which predictor do I *train* with this sampled-cache observation?"
  (off the critical path, but still interconnect traffic).

The fabric answers according to its scope:

``local``
    One predictor per slice (the baseline sliced design, paper Figure 1).
    Zero interconnect cost — and myopic training, because each slice's
    predictor only ever sees the accesses that hashed to that slice.

``centralized``
    One predictor for the whole LLC (paper Section 4.1.2a, Figure 8).
    Global view, but every slice's lookups and trains contend for a single
    structure: messages cross the mesh to the centre node and queue at the
    predictor's port.  Figure 10's ">65 accesses per kilo-instruction"
    bottleneck is this.

``per_core_global``
    Drishti's choice (Section 4.1.2b, Figure 9): one predictor per core,
    placed next to that core's LLC slice, *indexed by hash(PC, core)* and
    reachable from every slice.  Any slice's sampled cache trains the
    requesting core's predictor; any slice's fill looks it up.  Traffic per
    predictor is tiny (~2.5 APKI per core, Figure 10) and rides NOCSTAR at
    3 cycles — or, for the Figure 11 ablation, the existing mesh at ~20.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.nocstar import NOCSTAR
from repro.interconnect.mesh import MeshNoC


class PredictorScope:
    """Enumeration of predictor placements (string-valued for configs)."""

    LOCAL = "local"
    CENTRALIZED = "centralized"
    PER_CORE_GLOBAL = "per_core_global"

    ALL = (LOCAL, CENTRALIZED, PER_CORE_GLOBAL)


@dataclass
class FabricStats:
    """Traffic/latency accounting for Figure 10 and Figure 11."""

    lookups: int = 0
    trains: int = 0
    lookup_latency_total: int = 0
    train_latency_total: int = 0
    per_instance_accesses: List[int] = field(default_factory=list)

    @property
    def total_accesses(self) -> int:
        return self.lookups + self.trains

    @property
    def average_lookup_latency(self) -> float:
        return (self.lookup_latency_total / self.lookups
                if self.lookups else 0.0)

    def accesses_per_kilo_instr(self, instructions: int) -> float:
        """APKI against a total instruction count (Figure 10's metric)."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.total_accesses / instructions


class PredictorFabric:
    """Owns predictor instances and routes lookups/trains to them.

    Args:
        scope: one of :class:`PredictorScope`.
        num_slices: LLC slices.
        num_cores: cores (== slices in the baseline).
        predictor_factory: ``f(instance_id) -> predictor``; the fabric is
            generic over the predictor type (Hawkeye counters, Mockingjay
            ETR table, SHiP SHCT, ...).
        mesh: the existing NoC, used when ``use_nocstar`` is False and for
            the centralized design.
        use_nocstar: route slice→predictor messages over the dedicated
            3-cycle side-band (Drishti's default).
        nocstar: side-band instance; created on demand if None and needed.
        center_node: placement of the centralized predictor.
        service_cycles: port occupancy per access of the centralized
            predictor (models its bandwidth bottleneck).
        lookup_hide_cycles: predictor-lookup latency the slice's fill
            pipeline hides (the lookup launches as soon as the fill's
            PC is known).  Calibrated to Figure 11b's knee: the paper
            finds side-band latencies below five cycles cost nothing,
            while mesh-class latencies (~20 cycles) are exposed.
    """

    def __init__(self, scope: str, num_slices: int, num_cores: int,
                 predictor_factory: Callable[[int], object],
                 mesh: Optional[MeshNoC] = None,
                 use_nocstar: bool = False,
                 nocstar: Optional[NOCSTAR] = None,
                 center_node: Optional[int] = None,
                 service_cycles: int = 2,
                 lookup_hide_cycles: int = 5):
        if scope not in PredictorScope.ALL:
            raise ValueError(f"unknown predictor scope {scope!r}")
        self.scope = scope
        self.num_slices = num_slices
        self.num_cores = num_cores
        self.mesh = mesh
        self.use_nocstar = use_nocstar
        if use_nocstar and nocstar is None:
            nocstar = NOCSTAR(max(num_slices, num_cores))
        self.nocstar = nocstar
        self.center_node = (center_node if center_node is not None
                            else num_slices // 2)
        self.service_cycles = service_cycles
        self.lookup_hide_cycles = lookup_hide_cycles

        if scope == PredictorScope.LOCAL:
            count = num_slices
        elif scope == PredictorScope.CENTRALIZED:
            count = 1
        else:
            count = num_cores
        self.instances = [predictor_factory(i) for i in range(count)]
        self.stats = FabricStats(per_instance_accesses=[0] * count)
        self._center_next_free = 0  # single-port queue of the centralized design
        # The scope is fixed: resolve its dispatch once, not per message.
        self._local = scope == PredictorScope.LOCAL
        self._centralized = scope == PredictorScope.CENTRALIZED

    # ------------------------------------------------------------------
    def _route(self, slice_id: int, core_id: int, cycle: int,
               is_request: bool):
        """``(target instance, latency)`` of a message from *slice_id* to
        a non-local predictor: interconnect transit, plus the port queue
        of the centralized one."""
        if self._centralized:
            target, dst = 0, self.center_node
        else:
            # Per-core predictor lives beside that core's slice (one slice
            # per core in the baseline system).
            target = core_id % len(self.instances)
            dst = target % self.num_slices
        if self.use_nocstar and self.nocstar is not None:
            # NOCSTAR acquires the whole path with control wires; its
            # quoted latency covers the exchange.
            if is_request:
                latency = self.nocstar.request(slice_id, dst)
            else:
                latency = self.nocstar.response(slice_id, dst)
        elif self.mesh is not None:
            latency = self.mesh.latency(slice_id, dst,
                                        traffic_class="predictor")
            if is_request:
                # A lookup needs the answer back: request + response
                # both cross the mesh on the fill's critical path.
                latency += self.mesh.latency(dst, slice_id,
                                             traffic_class="predictor")
        else:
            latency = 0
        if self._centralized:
            latency += self._queue_latency(cycle)
        return target, latency

    def _queue_latency(self, cycle: int) -> int:
        """Port-contention wait at the centralized predictor."""
        wait = max(0, self._center_next_free - cycle)
        self._center_next_free = max(cycle, self._center_next_free) + \
            self.service_cycles
        return wait + self.service_cycles

    # ------------------------------------------------------------------
    def predict(self, slice_id: int, core_id: int, cycle: int = 0):
        """Predictor for an LLC fill in *slice_id* on behalf of *core_id*.

        Returns ``(predictor, exposed_latency_cycles)``: the raw lookup
        latency minus what the fill pipeline hides
        (``lookup_hide_cycles``), floored at zero.  Stats record the raw
        latency so Figure 11's sensitivity reads the true interconnect
        cost.
        """
        if self._local:
            target, latency = slice_id, 0
        else:
            target, latency = self._route(slice_id, core_id, cycle, True)
        stats = self.stats
        stats.lookups += 1
        stats.lookup_latency_total += latency
        stats.per_instance_accesses[target] += 1
        hidden = self.lookup_hide_cycles
        return (self.instances[target],
                latency - hidden if latency > hidden else 0)

    def train_target(self, slice_id: int, core_id: int, cycle: int = 0):
        """Predictor a sampled cache in *slice_id* trains for *core_id*.

        Returns ``(predictor, latency_cycles)``; training is off the fill
        critical path, so the latency is accounted (traffic/energy) but
        not charged to the load.
        """
        if self._local:
            target, latency = slice_id, 0
        else:
            target, latency = self._route(slice_id, core_id, cycle, False)
        stats = self.stats
        stats.trains += 1
        stats.train_latency_total += latency
        stats.per_instance_accesses[target] += 1
        return self.instances[target], latency

    def publish_stats(self, registry, prefix: str = "fabric") -> None:
        """Register fabric traffic/latency counters with a
        ``StatsRegistry`` (per-instance counts included — the Figure 10
        traffic view)."""
        registry.register_many(prefix, self,
                               ["lookups", "trains", "lookup_latency_total",
                                "train_latency_total"])
        registry.register(f"{prefix}.accesses",
                          lambda: self.stats.total_accesses)
        registry.register(f"{prefix}.avg_lookup_latency",
                          lambda: self.stats.average_lookup_latency)
        for i in range(len(self.instances)):
            registry.register(
                f"{prefix}.instance.{i}.accesses",
                lambda i=i: self.stats.per_instance_accesses[i])

    def reset_stats(self) -> None:
        """Zero traffic/latency counters, keep predictor learned state
        (the post-warmup reset contract)."""
        self.stats.lookups = 0
        self.stats.trains = 0
        self.stats.lookup_latency_total = 0
        self.stats.train_latency_total = 0
        for i in range(len(self.stats.per_instance_accesses)):
            self.stats.per_instance_accesses[i] = 0

    def reset(self) -> None:
        """Reset traffic stats and predictor learned state."""
        self.stats = FabricStats(
            per_instance_accesses=[0] * len(self.instances))
        self._center_next_free = 0
        if self.nocstar is not None:
            self.nocstar.reset_stats()
        for predictor in self.instances:
            reset = getattr(predictor, "reset", None)
            if callable(reset):
                reset()

    def __repr__(self) -> str:
        return (f"PredictorFabric(scope={self.scope!r}, "
                f"instances={len(self.instances)}, "
                f"nocstar={self.use_nocstar})")
