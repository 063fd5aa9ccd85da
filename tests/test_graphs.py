import itertools
import random

import networkx as nx
import numpy as np
import pytest

from multipath_tsp.errors import InstanceError
from multipath_tsp.graphs import (
    UNREACHED,
    BidirectedGraph,
    CapacitatedNetwork,
    Graph,
    bfs_distances,
    descend,
    is_connected,
    min_cut,
    shortest_path,
)


def enumerate_cut(net: CapacitatedNetwork, s: int, t: int) -> float:
    """Reference min cut by checking every vertex subset."""
    n = len(net.digraph.out_arcs)
    free = [v for v in range(n) if v not in (s, t)]
    best = float("inf")
    for bits in range(1 << len(free)):
        members = {s} | {free[j] for j in range(len(free)) if bits >> j & 1}
        cap = sum(
            net.capacity[a]
            for a, (u, v) in enumerate(net.digraph.arcs)
            if u in members and v not in members
        )
        best = min(best, cap)
    return best


def enumerate_min_hops(g: Graph, s: int, t: int) -> int:
    """Reference distance by enumerating simple paths depth-first."""
    best = [float("inf")]

    def walk(v, seen, hops):
        if hops >= best[0]:
            return
        if v == t:
            best[0] = hops
            return
        for w in g.adj[v]:
            if w not in seen:
                walk(w, seen | {w}, hops + 1)

    walk(s, {s}, 0)
    return best[0]


def random_network(rng: random.Random, n: int) -> CapacitatedNetwork:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    for v in range(1, n):
        if not any(v in e for e in edges):
            edges.append((rng.randrange(v), v))
    dig = BidirectedGraph(Graph(n, edges))
    caps = [rng.choice([0.0, 0.25, 0.5, 1.0, 2.0]) for _ in range(dig.num_arcs)]
    return CapacitatedNetwork(dig, caps)


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InstanceError) as err:
            Graph(3, [[0, 0]])
        assert err.value.code == "self-loop"

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(InstanceError) as err:
            Graph(3, [[0, 1], [1, 0]])
        assert err.value.code == "duplicate-edge"

    def test_rejects_out_of_range(self):
        with pytest.raises(InstanceError) as err:
            Graph(3, [[0, 3]])
        assert err.value.code == "index-out-of-range"

    def test_edge_ids_cover_both_orientations(self):
        g = Graph(4, [[2, 1], [0, 3]])
        assert g.edge_id(1, 2) == g.edge_id(2, 1) == 0
        assert g.edges[0] == (1, 2)

    def test_arcs_hold_both_orientations_built_on_first_use(self):
        g = Graph(4, [[2, 1], [0, 3]])
        assert not hasattr(g, "_arcs")  # construction does not build them
        assert g.arcs == {(1, 2), (2, 1), (0, 3), (3, 0)}
        assert g.arcs is g.arcs
        assert Graph(1, []).arcs == frozenset()


class TestBfs:
    def test_line_graph(self):
        g = Graph(3, [[0, 1], [1, 2]])
        assert bfs_distances(g, 0) == [0, 1, 2]

    def test_source_distance_zero(self, fig1):
        for v in range(fig1.graph.n):
            assert bfs_distances(fig1.graph, v)[v] == 0

    def test_fig1_s1_to_t2(self, fig1):
        # two hops via the top inner vertex; cross-checked by path enumeration
        assert bfs_distances(fig1.graph, 0)[3] == 2
        assert enumerate_min_hops(fig1.graph, 0, 3) == 2

    def test_matches_enumeration_everywhere(self, fig1):
        for s in range(fig1.graph.n):
            dist = bfs_distances(fig1.graph, s)
            for t in range(fig1.graph.n):
                assert dist[t] == enumerate_min_hops(fig1.graph, s, t)

    def test_unreachable_sentinel(self):
        g = Graph(3, [[0, 1]])
        assert bfs_distances(g, 0)[2] == UNREACHED

    def test_triangle_inequality(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(3, 8)
            net = random_network(rng, n)
            g = Graph(n, net.digraph.arcs[0::2])  # arc 2e is edge e as stored
            dist = [bfs_distances(g, v) for v in range(n)]
            for u, v, w in itertools.permutations(range(n), 3):
                if dist[u][w] >= 0 and dist[u][v] >= 0 and dist[v][w] >= 0:
                    assert dist[u][w] <= dist[u][v] + dist[v][w]

    def test_distance_table_is_built_once_on_first_read(self, monkeypatch):
        import multipath_tsp.graphs as graphs

        calls = []

        def counted(g, source):
            calls.append(source)
            return bfs_distances(g, source)

        monkeypatch.setattr(graphs, "bfs_distances", counted)
        g = Graph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [1, 3]])
        assert calls == [] and not hasattr(g, "_dists")
        table = g.dists
        assert sorted(calls) == list(range(5))
        assert g.dists is table and len(calls) == 5
        for v in range(5):
            assert list(table[v]) == bfs_distances(g, v)


class TestConnectivity:
    def test_single_vertex(self):
        assert is_connected(Graph(1, []))

    def test_two_isolated_vertices(self):
        assert not is_connected(Graph(2, []))

    def test_fig1(self, fig1):
        assert is_connected(fig1.graph)


class TestShortestPath:
    def test_lowest_index_tie_break(self):
        g = Graph(4, [[0, 1], [0, 2], [1, 3], [2, 3]])
        assert shortest_path(g, 0, 3) == [0, 1, 3]

    def test_path_is_valid(self, fig1):
        for s in range(10):
            for t in range(10):
                walk = shortest_path(fig1.graph, s, t)
                assert walk[0] == s and walk[-1] == t
                assert len(walk) - 1 == bfs_distances(fig1.graph, s)[t]
                for u, v in zip(walk, walk[1:]):
                    assert fig1.graph.has_edge(u, v)


    def test_descend_refuses_a_row_that_is_not_a_bfs_row(self):
        # on the path 0-1-2, vertex 2 claims distance 1 but has no neighbour at 0
        g = Graph(3, [[0, 1], [1, 2]])
        assert descend(g, [0, 1, 2], 2) == [2, 1, 0]
        with pytest.raises(ValueError, match="not a BFS row"):
            descend(g, [0, 2, 1], 1)


class TestBidirected:
    def test_arc_counts_and_pairing(self, fig1):
        dig = BidirectedGraph(fig1.graph)
        assert dig.num_arcs == 2 * fig1.graph.num_edges
        for a, (u, v) in enumerate(dig.arcs):
            assert dig.arcs[a ^ 1] == (v, u)

    def test_collapse_reproduces_edges(self, fig1):
        dig = BidirectedGraph(fig1.graph)
        collapsed = {tuple(sorted(arc)) for arc in dig.arcs}
        assert collapsed == set(fig1.graph.edges)

    def test_out_in_arcs(self):
        dig = BidirectedGraph(Graph(3, [[0, 1], [1, 2]]))
        assert dig.out_arcs[1] == (1, 2)  # arcs (1,0) and (1,2)
        assert dig.arcs[1] == (1, 0) and dig.arcs[2] == (1, 2)


class TestMinCut:
    def test_two_vertex_unit(self):
        net = CapacitatedNetwork(BidirectedGraph(Graph(2, [[0, 1]])), [1.0, 1.0])
        value, members = min_cut(net, 0, 1)
        assert value == pytest.approx(1.0)
        assert members == frozenset({0})

    def test_all_zero_capacities(self):
        net = CapacitatedNetwork(BidirectedGraph(Graph(2, [[0, 1]])), [0.0, 0.0])
        value, _ = min_cut(net, 0, 1)
        assert value == pytest.approx(0.0)

    def test_fig1_commodity_flow_capacities(self, fig1, fig1_lp):
        net = CapacitatedNetwork(fig1_lp.digraph, fig1_lp.flows[0])
        value, members = min_cut(net, 4, 2)
        assert value == pytest.approx(enumerate_cut(net, 4, 2), abs=1e-9)
        assert value >= 0.5 - 1e-9  # at least the outflow of vertex 4
        assert 4 in members and 2 not in members

    def test_duality_on_random_networks(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 7)
            net = random_network(rng, n)
            s, t = rng.sample(range(n), 2)
            value, members = min_cut(net, s, t)
            assert s in members and t not in members
            assert value == pytest.approx(enumerate_cut(net, s, t), abs=1e-9)
            crossing = sum(
                net.capacity[a]
                for a, (u, v) in enumerate(net.digraph.arcs)
                if u in members and v not in members
            )
            assert crossing == pytest.approx(value, abs=1e-9)

    def test_matches_networkx_past_enumeration(self):
        """networkx's max flow is the oracle. The vertices reachable from s in
        the residual of any maximum flow form the same inclusion-minimal min
        cut, so both sides must name that set; on about a third of these
        networks a larger min cut exists too. Capacities are multiples of 1/8,
        so every sum is exact."""
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(8, 25)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            edges += [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u, v) not in edges and rng.random() < 3 / n]
            dig = BidirectedGraph(Graph(n, edges))
            caps = [rng.choice([0, rng.randint(1, 16), rng.randint(1, 16)]) / 8 for _ in range(dig.num_arcs)]
            s, t = rng.sample(range(n), 2)
            value, members = min_cut(CapacitatedNetwork(dig, caps), s, t)

            g = nx.DiGraph()
            g.add_weighted_edges_from(((u, v, c) for (u, v), c in zip(dig.arcs, caps)), weight="capacity")
            nx_value, flow = nx.maximum_flow(g, s, t)
            residual = nx.DiGraph()
            residual.add_node(s)
            residual.add_edges_from(
                (u, v) for u, v in g.edges if g[u][v]["capacity"] - flow[u][v] + flow[v][u] > 0
            )
            assert value == nx_value
            assert members == {s} | nx.descendants(residual, s)

    def test_rejects_equal_endpoints(self):
        net = CapacitatedNetwork(BidirectedGraph(Graph(2, [[0, 1]])), [1.0, 1.0])
        with pytest.raises(ValueError):
            min_cut(net, 1, 1)

    def test_capacity_validation(self):
        dig = BidirectedGraph(Graph(2, [[0, 1]]))
        with pytest.raises(ValueError):
            CapacitatedNetwork(dig, [1.0])
        with pytest.raises(ValueError):
            CapacitatedNetwork(dig, [1.0, -2.0])
        with pytest.raises(ValueError):
            CapacitatedNetwork(dig, [np.inf, 0.0])
