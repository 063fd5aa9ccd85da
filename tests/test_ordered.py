import numpy as np
import pytest

from multipath_tsp.errors import InternalError
from multipath_tsp.graphs import Graph
from multipath_tsp.instances import Instance, OrderedInstance, Solution, validate_solution
from multipath_tsp.multipath import prepare, splice_excursions
from multipath_tsp.ordered import (
    extract_ordered_walks,
    prepare_ordered,
    run_ordered_trial,
    solve_ordered,
    validate_ordered,
)
from multipath_tsp.parity import EdgeMultiset

from conftest import random_instances


@pytest.fixture(scope="module")
def triangle():
    return OrderedInstance(Graph(3, [[0, 1], [1, 2], [0, 2]]), (0, 1, 2))


@pytest.fixture(scope="module")
def fig1_ordered(fig1):
    return OrderedInstance(fig1.graph, (0, 2, 1, 3))


class TestSolveOrdered:
    def test_triangle_is_tight(self, triangle):
        sol, report = solve_ordered(triangle, 0)
        assert sol.walks == ((0, 1), (1, 2), (2, 0))
        assert sol.cost == 3
        assert report.parity == 0 and report.reconnection == 0
        assert report.ratio == pytest.approx(1.0)

    def test_plan_matches_the_commodity_instance(self, fig1_ordered):
        assert prepare_ordered is prepare
        plan = prepare(fig1_ordered)
        same = prepare(Instance(fig1_ordered.graph, fig1_ordered.commodities))
        assert np.array_equal(plan.lp.flows, same.lp.flows)
        assert plan.lp.cuts == same.lp.cuts
        assert plan.decomposition.paths == same.decomposition.paths
        run_ordered_trial(plan, 0)
        # the join reads the distances; nothing on the ordered path reads the path mass
        assert "dists" in vars(plan) and "mass" not in vars(plan)

    def test_fig1_order_every_seed(self, fig1_ordered):
        plan = prepare(fig1_ordered)
        lp = plan.lp.objective
        for seed in range(150):
            sol, report, join = run_ordered_trial(plan, seed)
            ok, why = validate_ordered(fig1_ordered, sol)
            assert ok, (seed, why)
            assert report.total <= 2 * lp + 1e-5, (seed, report)
            assert join.cost <= lp / 2 + 1e-5
            assert sol.cost == report.total

    def test_statistical_ratio_bound(self):
        # per-instance mean over seeds stays within the guarantee plus noise
        bound = 1.7911
        for inst in random_instances("ordered", 12, seed=23, n_max=10):
            plan = prepare(inst)
            costs = []
            for seed in range(120):
                sol, report, _ = run_ordered_trial(plan, seed)
                costs.append(sol.cost)
            mean = sum(costs) / len(costs)
            var = sum((c - mean) ** 2 for c in costs) / len(costs)
            se = (var / len(costs)) ** 0.5
            assert mean <= bound * plan.lp.objective + 3 * se + 1e-9

    def test_order_preserved(self):
        for inst in random_instances("ordered", 15, seed=41, n_max=9):
            sol, _ = solve_ordered(inst, 5)
            ok, why = validate_ordered(inst, sol)
            assert ok, why
            for i, walk in enumerate(sol.walks):
                assert walk[0] == inst.order[i]
                assert walk[-1] == inst.order[(i + 1) % inst.k]


class TestExtraction:
    def test_no_extras_returns_paths(self, triangle):
        extra = EdgeMultiset(triangle.graph)
        assert extract_ordered_walks is splice_excursions
        sol = splice_excursions(triangle.graph, [(0, 1), (1, 2), (2, 0)], extra)
        assert sol.walks == ((0, 1), (1, 2), (2, 0))
        assert sol.cost == 3

    def test_pendant_excursion(self):
        # triangle plus a pendant vertex: reconnection edge and its join twin
        # splice as an out-and-back excursion at the first shared vertex
        g = Graph(4, [[0, 1], [1, 2], [0, 2], [0, 3]])
        extra = EdgeMultiset(g)
        extra.add(3, 0, times=2)
        sol = splice_excursions(g, [(0, 1), (1, 2), (2, 0)], extra)
        assert sol.walks == ((0, 3, 0, 1), (1, 2), (2, 0))
        assert sol.cost == 5

    def test_two_components_splice_into_one_walk(self):
        # walks 0-1-4 | 4-8-5-7-6 | 6-9-0; vertices 2 and 3 lie on no walk
        g = Graph(10, [[0, 1], [1, 4], [4, 8], [5, 8], [5, 7], [6, 7], [6, 9], [0, 9],
                       [2, 3], [3, 8], [2, 8], [7, 9]])
        extra = EdgeMultiset(g)
        for u, v in [(2, 3), (3, 8), (2, 8)]:  # lowest vertex 2 is off every walk
            extra.add(u, v)
        for u, v in [(6, 7), (7, 9), (6, 9)]:  # on-walk 7 comes first, but 6 is lower
            extra.add(u, v)
        sol = splice_excursions(g, [(0, 1, 4), (4, 8, 5, 7, 6), (6, 9, 0)], extra)
        # component {2, 3, 8} anchors at 8 (walk 1, position 1): 8-2-3-8, lowest neighbor first;
        # component {6, 7, 9} anchors at 6, whose first walk is 1 (position 4): 6-7-9-6
        assert sol.walks == ((0, 1, 4), (4, 8, 2, 3, 8, 5, 7, 6, 7, 9, 6), (6, 9, 0))
        assert sol.cost == 8 + 6

    def test_edge_multiset_conserved(self):
        for inst in random_instances("ordered", 20, seed=57, n_max=10):
            plan = prepare(inst)
            for seed in (0, 1):
                sol, report, join = run_ordered_trial(plan, seed)
                assert sol.cost == report.sampling + report.reconnection + report.parity

    def test_extraction_neither_loses_nor_adds_edges(self):
        # replay the solver's deterministic inputs and compare multisets
        from collections import Counter

        from multipath_tsp.multipath import attachment_order, sample_paths
        from multipath_tsp.parity import min_tjoin, odd_vertices

        for inst in random_instances("ordered", 15, seed=83, n_max=10):
            plan = prepare(inst)
            g = inst.graph
            state = sample_paths(plan.decomposition, 2)
            extra = EdgeMultiset(g)
            for v, w in attachment_order(g, state.covered):
                extra.add(v, w)
            union = extra.copy()
            for walk in state.walks:
                union.add_walk(walk)
            join = min_tjoin(g, odd_vertices(union), plan.dists)
            for e in join.edges:
                extra.add_edge(e)
            sol = splice_excursions(g, [tuple(w) for w in state.walks], extra)
            produced = Counter()
            for walk in sol.walks:
                for u, v in zip(walk, walk[1:]):
                    produced[g.edge_id(u, v)] += 1
            expected = Counter(dict(extra.items()))
            for walk in state.walks:
                for u, v in zip(walk, walk[1:]):
                    expected[g.edge_id(u, v)] += 1
            assert produced == expected

    def test_parity_violation_detected(self, triangle):
        extra = EdgeMultiset(triangle.graph)
        extra.add(0, 1)  # odd degree at 0 and 1
        with pytest.raises(InternalError, match="parity"):
            splice_excursions(triangle.graph, [(0, 1), (1, 2), (2, 0)], extra)

    def test_disconnected_union_detected(self):
        g = Graph(5, [[0, 1], [1, 2], [0, 2], [3, 4], [2, 3]])
        extra = EdgeMultiset(g)
        extra.add(3, 4, times=2)  # touches no sampled walk
        with pytest.raises(InternalError, match="disconnected"):
            splice_excursions(g, [(0, 1), (1, 2), (2, 0)], extra)


class TestValidateOrdered:
    def test_accepts_solver_output(self, fig1_ordered):
        sol, _ = solve_ordered(fig1_ordered, 3)
        ok, why = validate_ordered(fig1_ordered, sol)
        assert ok, why
        base = Instance(fig1_ordered.graph, fig1_ordered.commodities)
        ok, why = validate_solution(base, Solution(sol.walks, sol.cost))
        assert ok, why

    def test_rejects_swapped_walks(self, triangle):
        bad = Solution(((0, 2), (1, 2), (2, 1, 0)), 5)
        ok, why = validate_ordered(triangle, bad)
        assert not ok
