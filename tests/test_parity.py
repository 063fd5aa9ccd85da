import random

import pytest

from multipath_tsp.graphs import Graph, bfs_distances
from multipath_tsp.parity import (
    EdgeMultiset,
    min_tjoin,
    odd_vertices,
    tjoin_brute_force,
)


def random_graph(rng: random.Random, n: int, max_edges: int) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in {tuple(sorted(e)) for e in edges}]
    rng.shuffle(candidates)
    for extra in candidates:
        if len(edges) >= max_edges:
            break
        edges.append(extra)
    return Graph(n, edges)


def random_even_subset(rng: random.Random, n: int) -> tuple[int, ...]:
    size = rng.randrange(0, n + 1)
    size -= size % 2
    return tuple(sorted(rng.sample(range(n), size)))


class TestOddVertices:
    def test_single_edge(self):
        m = EdgeMultiset(Graph(2, [[0, 1]]))
        m.add(0, 1)
        assert odd_vertices(m) == frozenset({0, 1})

    def test_cycle_is_even(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        m = EdgeMultiset(g)
        m.add_walk([0, 1, 2, 3, 0])
        assert odd_vertices(m) == frozenset()

    def test_doubled_edge_is_even(self):
        m = EdgeMultiset(Graph(2, [[0, 1]]))
        m.add(0, 1, times=2)
        assert odd_vertices(m) == frozenset()

    def test_fig1_sampled_state_hand_count(self, fig1):
        # two sampled walks plus two single reconnection edges from one
        # concrete run; odd set verified by hand
        m = EdgeMultiset(fig1.graph)
        m.add_walk([0, 4, 6, 2])
        m.add_walk([1, 9, 7, 4, 3])
        m.add(5, 7)
        m.add(5, 8)
        assert odd_vertices(m) == frozenset({0, 1, 2, 3, 7, 8})


class TestMinJoin:
    def test_empty_target(self, fig1):
        join = min_tjoin(fig1.graph, ())
        assert join.edges == frozenset() and join.cost == 0

    def test_path_graph_endpoints(self, path3):
        join = min_tjoin(path3.graph, (0, 2))
        assert join.cost == 2
        assert join.edges == frozenset({0, 1})

    def test_rejects_odd_cardinality(self, path3):
        with pytest.raises(ValueError):
            min_tjoin(path3.graph, (0,))

    def test_rejects_repeated_vertex(self, path3):
        with pytest.raises(ValueError):
            min_tjoin(path3.graph, (0, 1, 1, 2))
        with pytest.raises(ValueError):
            min_tjoin(path3.graph, (1, 1))

    def test_parity_correction(self, fig1):
        rng = random.Random(3)
        for _ in range(25):
            odd = random_even_subset(rng, 10)
            join = min_tjoin(fig1.graph, odd)
            m = EdgeMultiset(fig1.graph)
            for e in join.edges:
                m.add_edge(e)
            assert odd_vertices(m) == frozenset(odd)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(77)
        for trial in range(60):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, max_edges=min(12, n * (n - 1) // 2))
            odd = random_even_subset(rng, n)
            join = min_tjoin(g, odd)
            best, _ = tjoin_brute_force(g, odd)
            assert join.cost == best, (trial, odd, g.edges)

    def test_join_no_longer_than_matching_sum(self):
        rng = random.Random(15)
        for _ in range(30):
            n = rng.randint(3, 8)
            g = random_graph(rng, n, max_edges=14)
            odd = random_even_subset(rng, n)
            if not odd:
                continue
            join = min_tjoin(g, odd)
            dists = [bfs_distances(g, v) for v in range(n)]
            # any perfect matching's distance sum is an upper bound
            def greedy_sum(vs):
                if not vs:
                    return 0
                a = vs[0]
                best = min(vs[1:], key=lambda b: dists[a][b])
                rest = [v for v in vs[1:] if v != best]
                return dists[a][best] + greedy_sum(rest)
            assert join.cost <= greedy_sum(list(odd))

