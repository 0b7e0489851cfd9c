"""Tests for the mesh topology and NoC latency model."""

import math

import pytest

from repro.interconnect.mesh import MeshNoC
from repro.interconnect.topology import MeshTopology


class TestTopology:
    def test_grid_shape(self):
        t = MeshTopology(16)
        assert (t.rows, t.cols) == (4, 4)

    def test_non_square_count(self):
        t = MeshTopology(12)
        assert t.rows * t.cols >= 12

    def test_coordinates_row_major(self):
        t = MeshTopology(16)
        assert t.coordinates(0) == (0, 0)
        assert t.coordinates(5) == (1, 1)

    def test_hops_manhattan(self):
        t = MeshTopology(16)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 5) == 2
        assert t.hops(0, 15) == 6

    def test_hops_symmetric(self):
        t = MeshTopology(16)
        for a in range(16):
            for b in range(16):
                assert t.hops(a, b) == t.hops(b, a)

    def test_route_endpoints_and_length(self):
        t = MeshTopology(16)
        route = t.route(0, 15)
        assert route[0] == 0
        assert route[-1] == 15
        assert len(route) == t.hops(0, 15) + 1

    def test_route_xy_goes_x_first(self):
        t = MeshTopology(16)
        route = t.route(0, 5)  # (0,0) -> (1,1)
        assert route == [0, 1, 5]

    def test_average_hops_grows_with_size(self):
        assert MeshTopology(4).average_hops() < \
            MeshTopology(16).average_hops() < \
            MeshTopology(64).average_hops()

    def test_single_node(self):
        t = MeshTopology(1)
        assert t.average_hops() == 0.0

    def test_bad_node(self):
        with pytest.raises(ValueError):
            MeshTopology(4).coordinates(4)


class TestMeshNoC:
    def test_latency_zero_hop_is_injection_only(self):
        noc = MeshNoC(16)
        assert noc.latency(3, 3) == noc.injection_cycles

    def test_latency_monotonic_in_distance(self):
        noc = MeshNoC(16)
        assert noc.latency(0, 1) < noc.latency(0, 15)

    def test_congestion_grows_with_node_count(self):
        small = MeshNoC(4)
        big = MeshNoC(64)
        # Same 1-hop trip is more expensive on a bigger, busier mesh.
        assert big.latency(0, 1) >= small.latency(0, 1)

    def test_32_core_average_near_paper_20_cycles(self):
        """The paper observed ~20-cycle average latency at 32 cores."""
        noc = MeshNoC(32)
        avg = noc.average_latency_estimate()
        assert 14 <= avg <= 26

    def test_stats_counting(self):
        noc = MeshNoC(16)
        noc.latency(0, 5, traffic_class="llc")
        noc.latency(0, 5, traffic_class="predictor")
        assert noc.stats.messages == 2
        assert noc.stats.by_class == {"llc": 1, "predictor": 1}

    def test_reset_stats(self):
        noc = MeshNoC(16)
        noc.latency(0, 1)
        noc.reset_stats()
        assert noc.stats.messages == 0

    def test_average_latency_stat(self):
        noc = MeshNoC(16)
        a = noc.latency(0, 1)
        b = noc.latency(0, 15)
        assert noc.stats.average_latency == pytest.approx((a + b) / 2)


def _formula(n, src, dst, router_cycles=2, link_cycles=1,
             injection_cycles=2, congestion_per_node=0.06):
    """Row-major XY mesh cost, written out independently of the model."""
    cols = math.ceil(math.sqrt(n))
    (r1, c1), (r2, c2) = divmod(src, cols), divmod(dst, cols)
    hops = abs(r1 - r2) + abs(c1 - c2)
    base = injection_cycles + hops * (router_cycles + link_cycles)
    return hops, base, base + int(round(hops * congestion_per_node * n))


class TestMeshLatencyTable:
    """The tabulated latency equals the XY formula on every pair."""

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 16, 32, 64])
    @pytest.mark.parametrize("params", [
        {}, dict(router_cycles=3, link_cycles=2, injection_cycles=1,
                 congestion_per_node=0.11)])
    def test_every_pair_matches_formula(self, n, params):
        noc = MeshNoC(n, **params)
        total_hops = total_latency = 0
        for src in range(n):
            for dst in range(n):
                hops, base, lat = _formula(n, src, dst, **params)
                assert noc.topology.hops(src, dst) == hops
                assert noc.base_latency(src, dst) == base
                assert noc.latency(src, dst, traffic_class="t") == lat
                total_hops += hops
                total_latency += lat
        assert noc.stats.messages == n * n
        assert noc.stats.total_hops == total_hops
        assert noc.stats.total_latency == total_latency
        assert noc.stats.by_class == {"t": n * n}

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 16, 32, 64])
    def test_out_of_range_nodes_raise(self, n):
        noc = MeshNoC(n)
        for bad in (-1, n):
            for src, dst in ((bad, 0), (0, bad), (bad, bad)):
                with pytest.raises(ValueError):
                    noc.latency(src, dst)
                with pytest.raises(ValueError):
                    noc.base_latency(src, dst)
                with pytest.raises(ValueError):
                    noc.topology.hops(src, dst)
        assert noc.stats.messages == 0
