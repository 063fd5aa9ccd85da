from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipath_tsp.errors import InternalError
from multipath_tsp.graphs import Graph, shortest_path
from multipath_tsp.instances import Instance, OrderedInstance, Solution, validate_solution
from multipath_tsp.lp import EPS_OBJ
from multipath_tsp.multipath import prepare, splice_excursions
from multipath_tsp.ordered import (
    extract_ordered_walks,
    prepare_ordered,
    run_ordered_trial,
    validate_ordered,
)

from conftest import FIG1_EDGES, random_instances, shaped_ordered_instances


@pytest.fixture(scope="module")
def triangle():
    return OrderedInstance(Graph(3, [[0, 1], [1, 2], [0, 2]]), (0, 1, 2))


@pytest.fixture(scope="module")
def fig1_ordered(fig1):
    return OrderedInstance(fig1.graph, (0, 2, 1, 3))


class TestSolveOrdered:
    def test_triangle_is_tight(self, triangle):
        sol, report = run_ordered_trial(prepare(triangle), 0)[:2]
        assert sol.walks == ((0, 1), (1, 2), (2, 0))
        assert sol.cost == 3
        assert report.parity == 0 and report.reconnection == 0
        assert report.ratio == pytest.approx(1.0)

    def test_plan_matches_the_commodity_instance(self):
        assert prepare_ordered is prepare
        inst = OrderedInstance(Graph(10, FIG1_EDGES), (0, 2, 1, 3))
        plan = prepare(inst)
        same = prepare(Instance(inst.graph, inst.commodities))
        assert np.array_equal(plan.lp.flows, same.lp.flows)
        assert plan.lp.cuts == same.lp.cuts
        assert plan.decomposition.paths == same.decomposition.paths
        run_ordered_trial(plan, 0)
        # this order's LP is integral and its paths cover every vertex, so the
        # trial has no join and builds no distance table; nothing on the
        # ordered path reads the path mass
        assert not hasattr(inst.graph, "_dists") and "mass" not in vars(plan)

    def test_join_builds_the_distance_table(self):
        # the order (0, 2, 1) leaves vertices to reconnect, so seed 0 needs a join
        g = Graph(10, FIG1_EDGES)
        plan = prepare(OrderedInstance(g, (0, 2, 1)))
        assert not hasattr(g, "_dists")
        assert run_ordered_trial(plan, 0)[2].edges
        assert hasattr(g, "_dists")

    def test_join_above_half_the_lp_raises(self):
        # fig1_ordered's LP is integral and its paths cover every vertex, so no
        # seed gives it a join; the order (0, 2, 1) leaves vertices to reconnect
        plan = prepare(OrderedInstance(Graph(10, FIG1_EDGES), (0, 2, 1)))
        join = run_ordered_trial(plan, 0)[2]
        assert join.cost > 0
        low = replace(plan, lp=replace(plan.lp, objective=2.0 * join.cost - 1.0))
        with pytest.raises(InternalError, match="parity join exceeded half the LP value"):
            run_ordered_trial(low, 0)

    def test_invalid_solution_raises(self, fig1_ordered, monkeypatch):
        import multipath_tsp.ordered as ordered

        monkeypatch.setattr(ordered, "validate_ordered", lambda inst, sol: (False, "forced"))
        with pytest.raises(InternalError, match="invalid solution: forced"):
            run_ordered_trial(prepare(fig1_ordered), 0)

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
            sol, _ = run_ordered_trial(prepare(inst), 5)[:2]
            ok, why = validate_ordered(inst, sol)
            assert ok, why
            for i, walk in enumerate(sol.walks):
                assert walk[0] == inst.order[i]
                assert walk[-1] == inst.order[(i + 1) % inst.k]


class TestExtraction:
    def test_no_extras_returns_paths(self, triangle):
        assert extract_ordered_walks is splice_excursions
        sol = splice_excursions([(0, 1), (1, 2), (2, 0)], [])
        assert sol.walks == ((0, 1), (1, 2), (2, 0))
        assert sol.cost == 3

    def test_pendant_excursion(self):
        # triangle plus a pendant vertex: reconnection edge and its join twin
        # splice as an out-and-back excursion at the first shared vertex
        sol = splice_excursions([(0, 1), (1, 2), (2, 0)], [(3, 0), (3, 0)])
        assert sol.walks == ((0, 3, 0, 1), (1, 2), (2, 0))
        assert sol.cost == 5

    def test_two_components_splice_into_one_walk(self):
        # walks 0-1-4 | 4-8-5-7-6 | 6-9-0; vertices 2 and 3 lie on no walk
        extra = [(2, 3), (3, 8), (2, 8)]  # lowest vertex 2 is off every walk
        extra += [(6, 7), (7, 9), (6, 9)]  # on-walk 7 comes first, but 6 is lower
        sol = splice_excursions([(0, 1, 4), (4, 8, 5, 7, 6), (6, 9, 0)], extra)
        # component {2, 3, 8} anchors at 8 (walk 1, position 1): 8-2-3-8, lowest neighbor first;
        # component {6, 7, 9} anchors at 6, whose first walk is 1 (position 4): 6-7-9-6
        assert sol.walks == ((0, 1, 4), (4, 8, 2, 3, 8, 5, 7, 6, 7, 9, 6), (6, 9, 0))
        assert sol.cost == 8 + 6

    def test_excursion_at_first_occurrence_within_the_walk(self):
        # the walk passes 1 twice; the excursion 1-4-1 goes in after the first pass
        sol = splice_excursions([(0, 1, 2, 1, 3)], [(1, 4), (1, 4)])
        assert sol.walks == ((0, 1, 4, 1, 2, 1, 3),)
        assert sol.cost == 6

    def test_edge_multiset_conserved(self):
        for inst in random_instances("ordered", 20, seed=57, n_max=10):
            plan = prepare(inst)
            for seed in (0, 1):
                sol, report, join = run_ordered_trial(plan, seed)
                assert sol.cost == report.sampling + report.reconnection + report.parity

    def test_extraction_neither_loses_nor_adds_edges(self):
        # replay the solver's deterministic inputs and compare multisets
        from collections import Counter

        from multipath_tsp.multipath import attachment_order, chosen_walks, sample_paths
        from multipath_tsp.parity import min_tjoin, odd_vertices

        for inst in random_instances("ordered", 15, seed=83, n_max=10):
            plan = prepare(inst)
            g = inst.graph
            walks = chosen_walks(plan.decomposition, sample_paths(plan.decomposition, 2))
            extra = attachment_order(g, {v for walk in walks for v in walk})
            join = min_tjoin(g, odd_vertices(extra))
            extra += [g.edges[e] for e in join.edges]
            sol = splice_excursions([tuple(w) for w in walks], extra)
            produced = Counter()
            for walk in sol.walks:
                for u, v in zip(walk, walk[1:]):
                    produced[g.edge_id(u, v)] += 1
            expected = Counter(g.edge_id(u, v) for u, v in extra)
            for walk in walks:
                for u, v in zip(walk, walk[1:]):
                    expected[g.edge_id(u, v)] += 1
            assert produced == expected

    def test_walks_add_no_odd_vertex(self):
        # each terminal starts one walk and ends the next, so the join can
        # read the odd set of the reconnection edges alone, as the solver does
        from multipath_tsp.multipath import attachment_order, chosen_walks, sample_paths
        from multipath_tsp.parity import odd_vertices

        for inst in random_instances("ordered", 30, seed=89, n_max=12):
            plan = prepare(inst)
            g = inst.graph
            for seed in range(3):
                walks = chosen_walks(plan.decomposition, sample_paths(plan.decomposition, seed))
                extra = attachment_order(g, {v for walk in walks for v in walk})
                union = extra + [(a, b) for walk in walks for a, b in zip(walk, walk[1:])]
                assert odd_vertices(extra) == odd_vertices(union)

    def test_parity_violation_detected(self):
        with pytest.raises(InternalError, match="parity"):
            splice_excursions([(0, 1), (1, 2), (2, 0)], [(0, 1)])  # odd degree at 0 and 1

    def test_disconnected_union_detected(self):
        with pytest.raises(InternalError, match="disconnected"):
            splice_excursions([(0, 1), (1, 2), (2, 0)], [(3, 4), (3, 4)])  # touches no sampled walk


class TestValidateOrdered:
    def test_accepts_solver_output(self, fig1_ordered):
        sol, _ = run_ordered_trial(prepare(fig1_ordered), 3)[:2]
        ok, why = validate_ordered(fig1_ordered, sol)
        assert ok, why
        base = Instance(fig1_ordered.graph, fig1_ordered.commodities)
        ok, why = validate_solution(base, Solution(sol.walks, sol.cost))
        assert ok, why

    def test_rejects_swapped_walks(self, triangle):
        bad = Solution(((0, 2), (1, 2), (2, 1, 0)), 5)
        ok, why = validate_ordered(triangle, bad)
        assert not ok


def _edge_counts(g, walks) -> Counter:
    return Counter(g.edge_id(u, v) for walk in walks for u, v in zip(walk, walk[1:]))


@st.composite
def splice_case(draw):
    """A connected graph of at most 10 vertices, walks along its edges, and the
    (u, v) copies of doubled edges and closed walks that each start on a walk,
    so every component of the copies touches a walk and every degree is even;
    then the copies shuffled, each flipped to (v, u)."""
    n = draw(st.integers(2, 10))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    tree = set(edges)
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    edges += draw(st.permutations(chords))[:draw(st.integers(0, min(len(chords), 8)))]
    g = Graph(n, edges)
    walks = []
    for _ in range(draw(st.integers(1, 3))):
        walk = [draw(st.integers(0, n - 1))]
        for _ in range(draw(st.integers(0, 5))):
            walk.append(draw(st.sampled_from(g.adj[walk[-1]])))
        walks.append(walk)
    on_walk = sorted({v for walk in walks for v in walk})
    copies = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.sampled_from(on_walk))
        if draw(st.booleans()):
            w = draw(st.sampled_from(g.adj[start]))
            copies += [(start, w)] * 2
        else:
            # out along random edges, back along a shortest path: a closed walk
            loop = [start]
            for _ in range(draw(st.integers(1, 5))):
                loop.append(draw(st.sampled_from(g.adj[loop[-1]])))
            loop += shortest_path(g, loop[-1], start)[1:]
            copies += list(zip(loop, loop[1:]))
    return g, walks, copies, [(v, u) for u, v in draw(st.permutations(copies))]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(splice_case())
def test_splice_keeps_every_edge_and_endpoint(case):
    g, walks, copies, flipped = case
    sol = splice_excursions(walks, copies)
    assert _edge_counts(g, sol.walks) == _edge_counts(g, walks) + Counter(g.edge_id(u, v) for u, v in copies)
    assert [(w[0], w[-1]) for w in sol.walks] == [(w[0], w[-1]) for w in walks]
    assert sol.cost == sum(len(w) - 1 for w in walks) + len(copies)
    # neither the order of the copies nor their orientation changes the output
    assert splice_excursions(walks, flipped) == sol

    with pytest.raises(InternalError, match="parity"):
        splice_excursions(walks, copies + [g.edges[0]])  # one more copy makes both its ends odd

    touched = {v for e in copies for v in e}
    on_walk = {v for walk in walks for v in walk}
    apart = [e for e in g.edges if not set(e) & (touched | on_walk)]
    if apart:
        # a component that shares no vertex with any walk
        with pytest.raises(InternalError, match="disconnected"):
            splice_excursions(walks, copies + [apart[0]] * 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shaped_ordered_instances())
def test_ordered_trials_on_edge_shapes(inst):
    # stars, complete graphs, paths and trees with k >= 2 terminals: the join
    # costs at most LP / 2 and the report adds up to the cost, on 3 seeds
    plan = prepare(inst)
    for seed in range(3):
        sol, report, join = run_ordered_trial(plan, seed)
        ok, why = validate_solution(inst, sol)
        assert ok, why
        assert join.cost <= plan.lp.objective / 2 + EPS_OBJ
        assert report.total == sol.cost
