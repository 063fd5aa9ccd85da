import random
import subprocess
import sys
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import multipath_tsp.parity as parity
from multipath_tsp.errors import InternalError
from multipath_tsp.graphs import Graph, bfs_distances
from multipath_tsp.parity import (
    MATCH_DP_MAX,
    assignment_cycles,
    certified_pairs,
    min_tjoin,
    min_weight_pairs,
    odd_set_pairs,
    odd_vertices,
)

from oracles import tjoin_brute_force


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
        assert odd_vertices([(0, 1)]) == frozenset({0, 1})

    def test_cycle_is_even(self):
        assert odd_vertices([(0, 1), (1, 2), (2, 3), (3, 0)]) == frozenset()

    def test_doubled_edge_is_even(self):
        assert odd_vertices([(0, 1), (1, 0)]) == frozenset()

    def test_fig1_sampled_state_hand_count(self, fig1):
        # two sampled walks plus two single reconnection edges from one
        # concrete run; odd set verified by hand
        m = []
        for walk in ([0, 4, 6, 2], [1, 9, 7, 4, 3]):
            m += zip(walk, walk[1:])
        m += [(5, 7), (5, 8)]
        assert all(fig1.graph.has_edge(u, v) for u, v in m)
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

    def test_rejects_vertex_outside_graph(self, path3):
        for odd in ((-1, 0), (0, 3)):
            with pytest.raises(ValueError):
                min_tjoin(path3.graph, odd)

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
            assert odd_vertices([fig1.graph.edges[e] for e in join.edges]) == frozenset(odd)

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


def blossom_weight(dists, odd) -> int:
    complete = nx.Graph()
    complete.add_nodes_from(odd)
    for idx, a in enumerate(odd):
        for b in odd[idx + 1:]:
            complete.add_edge(a, b, weight=dists[a][b])
    return sum(dists[a][b] for a, b in nx.min_weight_matching(complete))


def assignment_value(weight) -> int:
    """A: the least assignment of the rows of `weight` without a fixed point."""
    big = sum(map(sum, weight)) + 1
    padded = [[big if i == j else c for j, c in enumerate(row)] for i, row in enumerate(weight)]
    rows, cols = linear_sum_assignment(padded)
    return int(sum(weight[i][j] for i, j in zip(rows, cols)))


class TestMatchingDp:
    def test_weight_equals_blossom_for_every_even_size(self):
        rng = random.Random(29)
        for size in range(0, 25, 2):
            for _ in range(6):
                n = rng.randint(max(size, 2), 40)
                g = random_graph(rng, n, max_edges=rng.randint(n - 1, 2 * n))
                dists = g.dists
                odd = tuple(sorted(rng.sample(range(n), size)))
                best = blossom_weight(dists, odd)
                assert min_tjoin(g, odd).cost == best, (size, g.edges, odd)
                weight = [[dists[a][b] for b in odd] for a in odd]
                matchings = [min_weight_pairs(weight)] if size <= MATCH_DP_MAX else []
                if size:
                    matchings.append(certified_pairs(weight))  # None where the bound cannot certify
                for pairs in filter(None, matchings):
                    assert sorted(v for pair in pairs for v in pair) == list(range(size))
                    assert all(i < j for i, j in pairs)
                    assert sum(weight[i][j] for i, j in pairs) == best, (size, g.edges, odd)

    def test_cost_equals_exhaustive_oracle_up_to_22_edges(self):
        rng = random.Random(41)
        for trial in range(30):
            n = rng.randint(8, 14)
            g = random_graph(rng, n, max_edges=rng.randint(n - 1, 22))
            odd = random_even_subset(rng, n)
            best, _ = tjoin_brute_force(g, odd)
            assert min_tjoin(g, odd).cost == best, (trial, odd, g.edges)

    def test_both_sides_of_the_threshold(self):
        rng = random.Random(5)
        g = random_graph(rng, 16, max_edges=18)
        for size in (MATCH_DP_MAX, MATCH_DP_MAX + 2):
            odd = tuple(sorted(rng.sample(range(16), size)))
            join = min_tjoin(g, odd)
            best, _ = tjoin_brute_force(g, odd)
            assert join.cost == best
            assert odd_vertices([g.edges[e] for e in join.edges]) == frozenset(odd)

    def test_ties_go_to_the_lowest_partner(self):
        # on the 4-cycle 0-1-2-3-0 both {01, 23} and {03, 12} weigh 2;
        # vertex 0 takes partner 1, the lower of the two tying partners
        g = Graph(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        dists = g.dists
        assert min_weight_pairs(dists) == [(0, 1), (2, 3)]
        join = min_tjoin(g, (0, 1, 2, 3))
        assert join.edges == frozenset({g.edge_id(0, 1), g.edge_id(2, 3)})


# a tree: centre 0 with leaves 1, 2, 3 and the edge 0-4; 4-5; 5 with leaves 6, 7
UNCERTIFIED_TREE = [[0, 1], [0, 2], [0, 3], [0, 4], [4, 5], [5, 6], [5, 7]]


class TestCertifiedMatching:
    def test_uncertified_repair_goes_to_the_odd_set_lp(self):
        # The assignment's cycles repair to a matching of weight 8, above the
        # bound 6 = (12 + 1) // 2, so the odd-set LP matches it; the tree's
        # only join with every vertex odd has 6 edges
        g = Graph(8, UNCERTIFIED_TREE)
        dists = g.dists
        odd = tuple(range(8))
        weight = [[dists[a][b] for b in odd] for a in odd]
        assert assignment_value(weight) == 12
        assert certified_pairs(weight) is None
        best, _ = tjoin_brute_force(g, odd)
        assert best == 6
        assert min_tjoin(g, odd).cost == best

    def test_odd_assignment_certified_by_its_ceiling(self):
        # triangle 0-1-3, the edge 0-2, and leaves 4 and 5 at 2: the least
        # assignment runs round the two triangles {0, 1, 3} and {2, 4, 5} of
        # the distances, 3 + 4 = 7, so A / 2 = 3.5 is not reached by any
        # integer matching, and the ceiling 4 is the optimum, (1, 3) + (2, 4)
        # + (0, 5) or (0, 2) + (1, 3) + (4, 5)
        g = Graph(6, [[0, 1], [0, 2], [0, 3], [1, 3], [2, 4], [2, 5]])
        dists = g.dists
        odd = tuple(range(6))
        weight = [[dists[a][b] for b in odd] for a in odd]
        assert assignment_value(weight) == 7
        pairs = certified_pairs(weight)
        assert pairs is not None
        assert sum(weight[i][j] for i, j in pairs) == 4
        assert min_tjoin(g, odd).cost == tjoin_brute_force(g, odd)[0] == 4


    def test_even_cycle_tie_pairs_the_lowest_vertex_with_its_lower_neighbour(self):
        # every pair weighs 1, so both alternate halves of the 4-cycle weigh 2;
        # in either direction round the cycle, 0 takes 1, not 3
        weight = [[int(a != b) for b in range(4)] for a in range(4)]
        for cycle in ([0, 1, 2, 3], [0, 3, 2, 1]):
            assert sorted(certified_pairs(weight, [cycle])) == [(0, 1), (2, 3)], cycle


class TestAssignmentCycles:
    def test_cycles_partition_the_set_and_weigh_the_least_assignment(self):
        rng = random.Random(67)
        for size in range(2, 25, 2):
            n = rng.randint(size, 40)
            g = random_graph(rng, n, max_edges=rng.randint(n - 1, 2 * n))
            dists = g.dists
            odd = tuple(sorted(rng.sample(range(n), size)))
            weight = [[dists[a][b] for b in odd] for a in odd]
            cycles = assignment_cycles(weight)
            assert sorted(v for cycle in cycles for v in cycle) == list(range(size))
            assert all(len(cycle) >= 2 and cycle[0] == min(cycle) for cycle in cycles)
            assert [cycle[0] for cycle in cycles] == sorted(cycle[0] for cycle in cycles)
            around = sum(weight[a][b] for cycle in cycles for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            assert around == assignment_value(weight)
            assert certified_pairs(weight, cycles) == certified_pairs(weight)

    def test_min_tjoin_seeds_the_odd_set_lp_with_the_odd_cycles(self, monkeypatch):
        # UNCERTIFIED_TREE's assignment has the odd cycles (0 1 2) and (5 7 6)
        g = Graph(8, UNCERTIFIED_TREE)
        calls = []

        def spy(weight, odd_sets=()):
            calls.append([list(s) for s in odd_sets])
            return odd_set_pairs(weight, odd_sets)

        monkeypatch.setattr(parity, "odd_set_pairs", spy)
        assert min_tjoin(g, range(8)).cost == 6
        assert calls == [[[0, 1, 2], [5, 7, 6]]]


def gnp_graph(rng: random.Random, n: int, p: float) -> Graph:
    """A random tree plus each other pair with probability p: connected G(n, p)-like."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph(n, sorted(edges))


class TestOddSetMatching:
    def test_weight_equals_blossom_on_trees_and_gnp(self):
        rng = random.Random(53)
        for size in range(2, 31, 2):
            for shape in ("tree", "gnp"):
                n = rng.randint(size, 60)
                g = gnp_graph(rng, n, 0.0 if shape == "tree" else 3 / n)
                dists = g.dists
                odd = tuple(sorted(rng.sample(range(n), size)))
                weight = [[dists[a][b] for b in odd] for a in odd]
                pairs = odd_set_pairs(weight)
                assert sum(weight[i][j] for i, j in pairs) == blossom_weight(dists, odd), (shape, g.edges, odd)

    def test_hundred_vertex_tree_with_forty_odd_vertices(self):
        # a plain branch and bound had not finished such trees after minutes
        rng = random.Random(11)
        g = gnp_graph(rng, 100, 0.0)
        dists = g.dists
        odd = tuple(sorted(rng.sample(range(100), 40)))
        weight = [[dists[a][b] for b in odd] for a in odd]
        start = time.perf_counter()
        pairs = odd_set_pairs(weight)
        assert time.perf_counter() - start < 1.0
        assert sum(weight[i][j] for i, j in pairs) == blossom_weight(dists, odd)

    # two unit triangles 10 apart: the degree rows alone are optimal at x = 1/2
    # on both triangles (cost 3), below every perfect matching (1 + 10 + 1)
    TRIANGLES = [[0 if a == b else 1 if (a < 3) == (b < 3) else 10 for b in range(6)] for a in range(6)]

    def test_two_triangles_take_one_odd_set_row(self):
        ends = np.column_stack(np.triu_indices(6, 1))
        half = np.array([0.5 if (a < 3) == (b < 3) else 0.0 for a, b in ends])
        assert [np.flatnonzero(s).tolist() for s in parity._odd_cuts(6, ends, half)] == [[3, 4, 5]]
        pairs = odd_set_pairs(self.TRIANGLES)
        assert sum(self.TRIANGLES[a][b] for a, b in pairs) == 12

    def test_seeded_odd_sets_go_in_before_the_first_solve(self, monkeypatch):
        # the assignment's odd cycles are the two triangles: with their rows
        # in place the first solve is the matching, with no round of _odd_cuts
        assert assignment_cycles(self.TRIANGLES) == [[0, 2, 1], [3, 5, 4]]
        monkeypatch.setattr(parity, "_odd_cuts", lambda t, ends, x: [])
        pairs = odd_set_pairs(self.TRIANGLES, [[0, 2, 1], [3, 5, 4]])
        assert sum(self.TRIANGLES[a][b] for a, b in pairs) == 12

    def test_seeded_weight_equals_blossom_on_trees_and_gnp(self):
        rng = random.Random(59)
        for size in range(2, 31, 2):
            for shape in ("tree", "gnp"):
                n = rng.randint(size, 60)
                g = gnp_graph(rng, n, 0.0 if shape == "tree" else 3 / n)
                dists = g.dists
                odd = tuple(sorted(rng.sample(range(n), size)))
                weight = [[dists[a][b] for b in odd] for a in odd]
                seeds = [cycle for cycle in assignment_cycles(weight) if len(cycle) % 2]
                pairs = odd_set_pairs(weight, seeds)
                assert sorted(v for pair in pairs for v in pair) == list(range(size))
                assert sum(weight[i][j] for i, j in pairs) == blossom_weight(dists, odd), (shape, g.edges, odd)

    def test_fractional_point_without_a_violated_odd_set_raises(self, monkeypatch):
        monkeypatch.setattr(parity, "_odd_cuts", lambda t, ends, x: [])
        with pytest.raises(InternalError):
            odd_set_pairs(self.TRIANGLES)

    def test_pairs_are_a_perfect_matching_in_order(self):
        rng = random.Random(61)
        for size in range(2, 27, 2):
            n = rng.randint(size, 40)
            g = gnp_graph(rng, n, rng.choice((0.0, 0.1, 0.3)))
            dists = g.dists
            odd = tuple(sorted(rng.sample(range(n), size)))
            pairs = odd_set_pairs([[dists[a][b] for b in odd] for a in odd])
            assert sorted(v for pair in pairs for v in pair) == list(range(size))
            assert all(i < j for i, j in pairs)
            assert pairs == sorted(pairs)


@st.composite
def small_graph_and_even_set(draw):
    n = draw(st.integers(2, 9))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    tree = set(edges)
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    extra = draw(st.integers(0, min(len(chords), 22 - len(edges))))
    edges += draw(st.permutations(chords))[:extra]
    odd = [v for v in range(n) if draw(st.booleans())]
    return Graph(n, edges), tuple(odd[len(odd) % 2:])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_graph_and_even_set())
def test_join_is_minimal_with_odd_set_exactly_t(case):
    g, odd = case
    join = min_tjoin(g, odd)
    assert join.cost == tjoin_brute_force(g, odd)[0]
    assert odd_vertices([g.edges[e] for e in join.edges]) == frozenset(odd)


def test_cli_import_leaves_networkx_unloaded():
    # networkx is a test oracle only, so a fresh interpreter that loads the
    # CLI has not loaded it
    code = "import multipath_tsp.cli, sys; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_uncertified_join_leaves_networkx_unloaded():
    # the tree's odd set goes past the assignment bound to the odd-set LP,
    # which runs without networkx
    code = (
        "import sys; from multipath_tsp.graphs import Graph; from multipath_tsp.parity import min_tjoin; "
        f"assert min_tjoin(Graph(8, {UNCERTIFIED_TREE}), range(8)).cost == 6; "
        "sys.exit('networkx' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
