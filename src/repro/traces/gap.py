"""GAP benchmark suite workload models.

Two layers:

* **Parametric models** (used by the standard mixes): graph analytics has
  a characteristic mix of sequential CSR walks (offsets/neighbours),
  heavily reused hub-vertex properties (power-law graphs), and scattered
  cold-vertex property reads.  Per the paper's Figure 2, GAP workloads —
  ``pr`` in particular — have the *highest* fraction of PCs whose loads
  map to a single slice, so these models carry high ``slice_affinity``.

* **A real graph engine** (:class:`GraphTraceGenerator`): builds a CSR
  graph (power-law or uniform) with numpy and emits the address stream an
  actual PageRank / BFS / connected-components / SSSP iteration performs
  over it.  Used by the examples and tests as a ground-truth substrate;
  the parametric models are preferred for the big sweeps because their
  knobs are controlled.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.traces.synthetic import PCClassSpec, WorkloadSpec, build_trace
from repro.traces.trace import MemoryAccess, Trace

# ---------------------------------------------------------------------------
# Parametric models
# ---------------------------------------------------------------------------


def _gap(name: str, apki: float, affinity: float, skew_band: float,
         classes: List[PCClassSpec]) -> WorkloadSpec:
    return WorkloadSpec(name=name, apki=apki, slice_affinity=affinity,
                        set_skew_band=skew_band, classes=tuple(classes),
                        suite="gap")


def _graph_classes(hub_weight: float, chase_frac: float,
                   write_frac: float = 0.05) -> List[PCClassSpec]:
    """The common GAP shape: CSR streams + hub reuse + cold scatter."""
    return [
        # Offsets / frontier walks: sequential.
        PCClassSpec("stream", count=3, pool_frac=10.0, weight=0.20),
        # Hub vertex properties: small, hot, cache-friendly.
        PCClassSpec("cyclic", count=8, pool_frac=0.06, weight=hub_weight),
        # Cold vertex properties: scattered, barely reused.
        PCClassSpec("chase", count=6, pool_frac=chase_frac,
                    weight=1.0 - 0.20 - hub_weight,
                    write_frac=write_frac, in_skew_band=True),
    ]


GAP_WORKLOADS: Dict[str, WorkloadSpec] = {
    "pr_kron": _gap("pr_kron", apki=40.0, affinity=0.90, skew_band=0.35,
                    classes=_graph_classes(hub_weight=0.40, chase_frac=4.0,
                                           write_frac=0.10)),
    "pr_urand": _gap("pr_urand", apki=42.0, affinity=0.85, skew_band=0.6,
                     classes=_graph_classes(hub_weight=0.25,
                                            chase_frac=5.0,
                                            write_frac=0.10)),
    "bfs_kron": _gap("bfs_kron", apki=30.0, affinity=0.82, skew_band=0.4,
                     classes=_graph_classes(hub_weight=0.35,
                                            chase_frac=3.5)),
    "bfs_urand": _gap("bfs_urand", apki=32.0, affinity=0.78, skew_band=0.7,
                      classes=_graph_classes(hub_weight=0.22,
                                             chase_frac=4.5)),
    "cc_kron": _gap("cc_kron", apki=34.0, affinity=0.84, skew_band=0.4,
                    classes=_graph_classes(hub_weight=0.38,
                                           chase_frac=3.8,
                                           write_frac=0.15)),
    "cc_urand": _gap("cc_urand", apki=36.0, affinity=0.80, skew_band=0.7,
                     classes=_graph_classes(hub_weight=0.24,
                                            chase_frac=4.8,
                                            write_frac=0.15)),
    "sssp_kron": _gap("sssp_kron", apki=38.0, affinity=0.83, skew_band=0.4,
                      classes=_graph_classes(hub_weight=0.36,
                                             chase_frac=4.2,
                                             write_frac=0.12)),
    "sssp_urand": _gap("sssp_urand", apki=39.0, affinity=0.79,
                       skew_band=0.7,
                       classes=_graph_classes(hub_weight=0.23,
                                              chase_frac=5.2,
                                              write_frac=0.12)),
    "bc_kron": _gap("bc_kron", apki=33.0, affinity=0.86, skew_band=0.4,
                    classes=_graph_classes(hub_weight=0.42,
                                           chase_frac=3.2)),
    "bc_twitter": _gap("bc_twitter", apki=35.0, affinity=0.88,
                       skew_band=0.3,
                       classes=_graph_classes(hub_weight=0.45,
                                              chase_frac=3.6)),
    "tc_kron": _gap("tc_kron", apki=28.0, affinity=0.87, skew_band=0.4,
                    classes=_graph_classes(hub_weight=0.40,
                                           chase_frac=3.0)),
    "tc_road": _gap("tc_road", apki=24.0, affinity=0.75, skew_band=0.8,
                    classes=_graph_classes(hub_weight=0.20,
                                           chase_frac=2.5)),
}


def gap_workload_names() -> List[str]:
    return sorted(GAP_WORKLOADS)


def make_gap_trace(name: str, capacity_blocks: int, num_slices: int,
                   num_sets: int, num_accesses: int, seed: int = 0,
                   hash_scheme: str = "fold_xor") -> Trace:
    """Generate a trace for the named GAP-like workload model."""
    if name not in GAP_WORKLOADS:
        raise ValueError(f"unknown GAP workload {name!r}; "
                         f"known: {gap_workload_names()}")
    return build_trace(GAP_WORKLOADS[name], capacity_blocks, num_slices,
                       num_sets, num_accesses, seed=seed,
                       hash_scheme=hash_scheme)


# ---------------------------------------------------------------------------
# The real graph engine
# ---------------------------------------------------------------------------

class CSRGraph:
    """Compressed-sparse-row graph with numpy storage.

    Args:
        num_vertices: vertex count.
        avg_degree: mean out-degree.
        power_law: skew degrees Zipf-style (Kronecker/Twitter-like) or
            keep them uniform (Urand-like).
        seed: construction seed.
    """

    def __init__(self, num_vertices: int, avg_degree: int = 8,
                 power_law: bool = True, seed: int = 0,
                 zipf_exponent: float = 1.15):
        if num_vertices < 2:
            raise ValueError("need >= 2 vertices")
        if avg_degree < 1:
            raise ValueError("avg_degree must be >= 1")
        self.num_vertices = num_vertices
        rng = np.random.default_rng(seed)
        num_edges = num_vertices * avg_degree
        if power_law:
            # Zipf-distributed endpoints concentrate edges on hubs.
            # Hub *ids* are then scattered by a random permutation —
            # real graphs' popular vertices have arbitrary ids, so hub
            # properties land in distinct cache blocks rather than a
            # few consecutive ones.
            raw = rng.zipf(zipf_exponent, size=num_edges * 2)
            dst = (raw % num_vertices).astype(np.int64)
            perm = rng.permutation(num_vertices)
            dst = perm[dst]
        else:
            dst = rng.integers(0, num_vertices, size=num_edges * 2,
                               dtype=np.int64)
        src = rng.integers(0, num_vertices, size=num_edges * 2,
                           dtype=np.int64)
        keep = src != dst
        src, dst = src[keep][:num_edges], dst[keep][:num_edges]
        order = np.argsort(src, kind="stable")
        src, self.neighbors = src[order], dst[order]
        self.offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        counts = np.bincount(src, minlength=num_vertices)
        self.offsets[1:] = np.cumsum(counts)

    @property
    def num_edges(self) -> int:
        return len(self.neighbors)

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]


class GraphTraceGenerator:
    """Emit the memory-access stream of real graph-algorithm iterations.

    Address map (block-granular): the offsets array, the neighbours
    array, and one property array per algorithm live in disjoint regions;
    each vertex property is 8 bytes so eight vertices share a block,
    giving hub-property reuse exactly as in a real run.
    """

    OFFSETS_BASE = 1 << 34
    NEIGHBORS_BASE = 1 << 35
    PROP_BASE = 1 << 36
    PROP2_BASE = 1 << 37
    SALT_STRIDE = 1 << 38  # disjoint address spaces per process

    PC_OFFSETS = 0x500010
    PC_NEIGHBORS = 0x500024
    PC_PROP_READ = 0x500038
    PC_PROP_WRITE = 0x50004C
    PC_FRONTIER = 0x500060

    def __init__(self, graph: CSRGraph, apki: float = 35.0, seed: int = 0,
                 address_salt: int = 0):
        self.graph = graph
        self.apki = apki
        self.address_salt = address_salt * self.SALT_STRIDE
        self._rng = np.random.default_rng(seed)

    # -- address helpers -------------------------------------------------
    def _offsets_addr(self, v: int) -> int:
        return self.address_salt + self.OFFSETS_BASE + v * 8

    def _neighbors_addr(self, e: int) -> int:
        return self.address_salt + self.NEIGHBORS_BASE + e * 8

    def _prop_addr(self, v: int, second: bool = False) -> int:
        base = self.PROP2_BASE if second else self.PROP_BASE
        return self.address_salt + base + v * 8

    def _gap(self) -> int:
        mean_gap = max(0.0, 1000.0 / self.apki - 1.0)
        return int(self._rng.geometric(1.0 / (mean_gap + 1.0)) - 1)

    def _emit(self, records: List[MemoryAccess], pc: int, addr: int,
              is_write: bool = False, dependent: bool = False) -> None:
        records.append(MemoryAccess(pc=pc, address=addr, is_write=is_write,
                                    instr_gap=self._gap(),
                                    dependent=dependent))

    # -- algorithms ------------------------------------------------------
    def pagerank(self, max_accesses: int, iterations: int = 4) -> Trace:
        """Pull-style PageRank: for each v, gather ranks of neighbours."""
        g = self.graph
        records: List[MemoryAccess] = []
        for _ in range(iterations):
            for v in range(g.num_vertices):
                self._emit(records, self.PC_OFFSETS, self._offsets_addr(v))
                for e in range(int(g.offsets[v]), int(g.offsets[v + 1])):
                    self._emit(records, self.PC_NEIGHBORS,
                               self._neighbors_addr(e))
                    u = int(g.neighbors[e])
                    self._emit(records, self.PC_PROP_READ,
                               self._prop_addr(u), dependent=True)
                    if len(records) >= max_accesses:
                        return Trace("pagerank", records[:max_accesses])
                self._emit(records, self.PC_PROP_WRITE,
                           self._prop_addr(v, second=True), is_write=True)
        return Trace("pagerank", records[:max_accesses])

    def bfs(self, max_accesses: int, source: int = 0) -> Trace:
        """Top-down BFS from *source*."""
        g = self.graph
        records: List[MemoryAccess] = []
        visited = np.zeros(g.num_vertices, dtype=bool)
        frontier = [source]
        visited[source] = True
        while frontier and len(records) < max_accesses:
            next_frontier = []
            for v in frontier:
                self._emit(records, self.PC_FRONTIER,
                           self._prop_addr(v, second=True))
                self._emit(records, self.PC_OFFSETS, self._offsets_addr(v))
                for e in range(int(g.offsets[v]), int(g.offsets[v + 1])):
                    self._emit(records, self.PC_NEIGHBORS,
                               self._neighbors_addr(e))
                    u = int(g.neighbors[e])
                    self._emit(records, self.PC_PROP_READ,
                               self._prop_addr(u), dependent=True)
                    if not visited[u]:
                        visited[u] = True
                        self._emit(records, self.PC_PROP_WRITE,
                                   self._prop_addr(u), is_write=True)
                        next_frontier.append(u)
                    if len(records) >= max_accesses:
                        return Trace("bfs", records[:max_accesses])
            frontier = next_frontier
        return Trace("bfs", records[:max_accesses])

    def connected_components(self, max_accesses: int,
                             iterations: int = 4) -> Trace:
        """Label-propagation CC."""
        g = self.graph
        records: List[MemoryAccess] = []
        labels = np.arange(g.num_vertices)
        for _ in range(iterations):
            changed = False
            for v in range(g.num_vertices):
                self._emit(records, self.PC_OFFSETS, self._offsets_addr(v))
                best = int(labels[v])
                for e in range(int(g.offsets[v]), int(g.offsets[v + 1])):
                    self._emit(records, self.PC_NEIGHBORS,
                               self._neighbors_addr(e))
                    u = int(g.neighbors[e])
                    self._emit(records, self.PC_PROP_READ,
                               self._prop_addr(u), dependent=True)
                    if labels[u] < best:
                        best = int(labels[u])
                    if len(records) >= max_accesses:
                        return Trace("cc", records[:max_accesses])
                if best < labels[v]:
                    labels[v] = best
                    changed = True
                    self._emit(records, self.PC_PROP_WRITE,
                               self._prop_addr(v), is_write=True)
            if not changed:
                break
        return Trace("cc", records[:max_accesses])

    def sssp(self, max_accesses: int, source: int = 0) -> Trace:
        """Bellman-Ford-style SSSP (unit weights)."""
        g = self.graph
        records: List[MemoryAccess] = []
        dist = np.full(g.num_vertices, np.iinfo(np.int64).max,
                       dtype=np.int64)
        dist[source] = 0
        frontier = [source]
        while frontier and len(records) < max_accesses:
            next_frontier = []
            for v in frontier:
                self._emit(records, self.PC_FRONTIER,
                           self._prop_addr(v, second=True))
                self._emit(records, self.PC_OFFSETS, self._offsets_addr(v))
                for e in range(int(g.offsets[v]), int(g.offsets[v + 1])):
                    self._emit(records, self.PC_NEIGHBORS,
                               self._neighbors_addr(e))
                    u = int(g.neighbors[e])
                    self._emit(records, self.PC_PROP_READ,
                               self._prop_addr(u), dependent=True)
                    if dist[v] + 1 < dist[u]:
                        dist[u] = dist[v] + 1
                        self._emit(records, self.PC_PROP_WRITE,
                                   self._prop_addr(u), is_write=True)
                        next_frontier.append(u)
                    if len(records) >= max_accesses:
                        return Trace("sssp", records[:max_accesses])
            frontier = next_frontier
        return Trace("sssp", records[:max_accesses])
