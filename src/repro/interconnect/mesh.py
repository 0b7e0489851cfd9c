"""Mesh NoC latency and traffic model.

A 2-stage wormhole-routed mesh (paper Table 4): each hop costs router
pipeline cycles plus link traversal, and sustained load adds a congestion
term.  The model is analytic rather than flit-accurate — what the paper's
experiments need from the NoC is (i) NUCA latency that grows with core
count and (ii) the ~20-cycle average slice→predictor penalty of Figure 11
when Drishti's messages ride the existing mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.interconnect.topology import MeshTopology


@dataclass
class NoCStats:
    """Aggregate mesh traffic counters."""

    messages: int = 0
    total_hops: int = 0
    total_latency: int = 0
    by_class: Dict[str, int] = field(default_factory=dict)

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.messages if self.messages else 0.0

    @property
    def average_hops(self) -> float:
        return self.total_hops / self.messages if self.messages else 0.0


class MeshNoC:
    """Latency model over a :class:`MeshTopology`.

    Args:
        num_nodes: mesh size (== cores == LLC slices in the baseline).
        router_cycles: per-hop router pipeline latency (2-stage wormhole).
        link_cycles: per-hop link traversal latency.
        injection_cycles: fixed NI inject+eject cost per message.
        congestion_per_node: extra cycles per hop per unit of normalised
            load, a first-order contention term that grows with core count.

    Latency is a pure function of (src, dst) for fixed parameters, so the
    constructor tabulates ``(hops, latency)`` for every ordered pair and
    :meth:`latency` is a bounds check plus one lookup.
    """

    def __init__(self, num_nodes: int, router_cycles: int = 2,
                 link_cycles: int = 1, injection_cycles: int = 2,
                 congestion_per_node: float = 0.06):
        self.topology = MeshTopology(num_nodes)
        self.router_cycles = router_cycles
        self.link_cycles = link_cycles
        self.injection_cycles = injection_cycles
        self.congestion_per_node = congestion_per_node
        self.stats = NoCStats()
        self._routes: List[Tuple[int, int]] = []
        for src in range(num_nodes):
            for dst in range(num_nodes):
                hops = self.topology.hops(src, dst)
                congestion = int(round(hops * congestion_per_node *
                                       num_nodes))
                self._routes.append(
                    (hops, self.base_latency(src, dst) + congestion))

    def base_latency(self, src: int, dst: int) -> int:
        """Uncontended latency from *src* to *dst* in cycles."""
        hops = self.topology.hops(src, dst)
        if hops == 0:
            return self.injection_cycles
        return self.injection_cycles + hops * (self.router_cycles +
                                               self.link_cycles)

    def latency(self, src: int, dst: int, traffic_class: str = "data") -> int:
        """Latency with the first-order congestion term; counts traffic."""
        n = self.topology.num_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(
                f"node pair ({src}, {dst}) out of range [0, {n})")
        hops, lat = self._routes[src * n + dst]
        stats = self.stats
        stats.messages += 1
        stats.total_hops += hops
        stats.total_latency += lat
        by_class = stats.by_class
        by_class[traffic_class] = by_class.get(traffic_class, 0) + 1
        return lat

    def average_latency_estimate(self) -> float:
        """Expected latency of a random src→dst message (no counting)."""
        avg_hops = self.topology.average_hops()
        per_hop = (self.router_cycles + self.link_cycles +
                   self.congestion_per_node * self.topology.num_nodes)
        return self.injection_cycles + avg_hops * per_hop

    def publish_stats(self, registry, prefix: str = "noc") -> None:
        """Register this mesh's counters with a ``StatsRegistry``.

        Sources read through ``self`` so the stats object swapped in by
        :meth:`reset_stats` is always the one observed.
        """
        registry.register_many(prefix, self,
                               ["messages", "total_hops", "total_latency"])
        registry.register(f"{prefix}.avg_latency",
                          lambda: self.stats.average_latency)
        registry.register(f"{prefix}.avg_hops",
                          lambda: self.stats.average_hops)

    def reset_stats(self) -> None:
        self.stats = NoCStats()

    def __repr__(self) -> str:
        return f"MeshNoC({self.topology.num_nodes} nodes)"
