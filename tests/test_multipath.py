import numpy as np
import pytest

from multipath_tsp.decomposition import decompose, path_mass
from multipath_tsp.graphs import BidirectedGraph, Graph
from multipath_tsp.instances import Instance, Solution, validate_solution
from multipath_tsp.lp import FractionalSolution
from multipath_tsp.multipath import (
    SamplerState,
    derandomize_choices,
    prepare,
    reconnect,
    run_derandomized,
    run_trial,
    sample_paths,
    solve_derandomized,
    solve_randomized,
)

from conftest import random_instances


@pytest.fixture(scope="module")
def diamond_plan():
    """Two parallel 2-edge routes, each carrying half the flow."""
    inst = Instance(Graph(4, [[0, 1], [0, 2], [1, 3], [2, 3]]), ((0, 3),))
    dig = BidirectedGraph(inst.graph)
    flows = np.zeros((1, dig.num_arcs))
    for u, v in [(0, 1), (1, 3)]:
        flows[0, dig.arc_id(u, v)] = 0.5
    for u, v in [(0, 2), (2, 3)]:
        flows[0, dig.arc_id(u, v)] = 0.5
    sol = FractionalSolution(inst, dig, flows, np.zeros((1, 4)), 2.0)
    return inst, decompose(inst, sol)


class TestSampling:
    def test_single_path_always_chosen(self, path3):
        plan = prepare(path3)
        for seed in range(25):
            state = sample_paths(plan.decomposition, seed)
            assert state.chosen == (0,)
            assert state.walks == [[0, 1, 2]]
            # the sampled path alone covers every vertex
            ok, why = validate_solution(path3, Solution((tuple(state.walks[0]),), 2))
            assert ok, why

    def test_half_half_frequency(self, diamond_plan):
        _, dec = diamond_plan
        assert len(dec.paths[0]) == 2
        hits = sum(sample_paths(dec, seed).chosen[0] == 0 for seed in range(10000))
        assert abs(hits / 10000 - 0.5) <= 0.02

    def test_fig1_second_commodity_frequency(self, fig1, fig1_lp):
        dec = decompose(fig1, fig1_lp)
        target = (1, 8, 5, 6, 3)  # the route through the two lower-left inner vertices
        idx = [p.vertices for p in dec.paths[1]].index(target)
        hits = sum(sample_paths(dec, seed).chosen[1] == idx for seed in range(10000))
        assert abs(hits / 10000 - 0.5) <= 0.02

    def test_depot_commodity_singleton(self):
        inst = Instance(Graph(2, [[0, 1]]), ((0, 1), (1, 1)))
        plan = prepare(inst)
        state = sample_paths(plan.decomposition, 0)
        assert state.chosen[1] is None
        assert state.walks[1] == [1]

    def test_deterministic_per_seed(self, fig1):
        plan = prepare(fig1)
        a = sample_paths(plan.decomposition, 123)
        b = sample_paths(plan.decomposition, 123)
        assert a.chosen == b.chosen and a.walks == b.walks


class TestReconnect:
    def test_nothing_pending_is_noop(self, path3):
        state = SamplerState((0,), [[0, 1, 2]], {0, 1, 2})
        done = reconnect(path3, state)
        assert done == Solution(((0, 1, 2),), 2)
        ok, why = validate_solution(path3, done)
        assert ok, why

    def test_fig1_two_uncovered_inner_vertices(self, fig1):
        # one concrete sampling outcome: these walks leave vertices 5 and 8 uncovered
        walks = [[0, 4, 6, 2], [1, 9, 7, 4, 3]]
        covered = {v for w in walks for v in w}
        state = SamplerState((0, 1), [list(w) for w in walks], covered)
        done = reconnect(fig1, state)
        ok, why = validate_solution(fig1, done)
        assert ok, why
        base = sum(len(w) - 1 for w in walks)
        assert done.cost - base == 4  # two vertices at cost two each
        for i, w in enumerate(done.walks):
            assert w[0] == walks[i][0] and w[-1] == walks[i][-1]
            for u, v in zip(w, w[1:]):
                assert fig1.graph.has_edge(u, v)

    def test_star_leaves(self):
        # center 0, commodity between two leaves: every other leaf costs two
        n = 6
        inst = Instance(Graph(n, [[0, i] for i in range(1, n)]), ((1, 2),))
        state = SamplerState((0,), [[1, 0, 2]], {0, 1, 2})
        done = reconnect(inst, state)
        assert done.cost == 2 + 2 * (n - 3)
        # one excursion from the center, lowest leaf first, at its first occurrence
        assert done.walks == ((1, 0, 3, 0, 4, 0, 5, 0, 2),)
        ok, why = validate_solution(inst, done)
        assert ok, why

    def test_splice_at_first_occurrence(self):
        g = Graph(4, [[0, 1], [1, 2], [1, 3]])
        inst = Instance(g, ((0, 2),))
        state = SamplerState((0,), [[0, 1, 2]], {0, 1, 2})
        done = reconnect(inst, state)
        assert done.walks == ((0, 1, 3, 1, 2),)

    def test_nested_attachment(self):
        # 3 attaches to the walk at 1, then 4 attaches to 3: one excursion 1-3-4-3-1
        g = Graph(5, [[0, 1], [1, 2], [1, 3], [3, 4]])
        inst = Instance(g, ((0, 2),))
        state = SamplerState((0,), [[0, 1, 2]], {0, 1, 2})
        done = reconnect(inst, state)
        assert done == Solution(((0, 1, 3, 4, 3, 1, 2),), 6)
        ok, why = validate_solution(inst, done)
        assert ok, why


class TestRandomizedSolver:
    def test_fig1_bounded_every_seed(self, fig1):
        plan = prepare(fig1)
        for seed in range(300):
            sol, report = run_trial(plan, seed)
            assert report.total <= 16
            assert report.total == report.sampling + report.reconnection
            ok, why = validate_solution(fig1, sol)
            assert ok, why

    def test_singleton_instance(self):
        inst = Instance(Graph(1, []), ((0, 0),))
        sol, report = solve_randomized(inst, 4)
        assert sol.cost == 0 and report.total == 0 and report.ratio == 1.0

    def test_path_graph_ratio_one(self, path3):
        sol, report = solve_randomized(path3, 11)
        assert report.total == 2 and report.ratio == pytest.approx(1.0)


class TestDerandomized:
    def test_fig1(self, fig1):
        sol, report = solve_derandomized(fig1)
        ok, why = validate_solution(fig1, sol)
        assert ok, why
        assert report.total <= 16
        assert report.total >= 8  # cannot beat the relaxation

    def test_single_commodity_single_path(self, path3):
        sol, report = solve_derandomized(path3)
        assert sol.walks == ((0, 1, 2),)
        assert report.total == 2

    def test_two_lp_bound_on_random_instances(self):
        for inst in random_instances("multipath", 60, seed=17, n_max=12, extra_edges=8):
            sol, report = solve_derandomized(inst)
            assert report.total <= 2 * report.lp_objective + 1e-5
            ok, why = validate_solution(inst, sol)
            assert ok, why

    def test_potential_audit(self, fig1, fig1_lp):
        dec = decompose(fig1, fig1_lp)
        pm = path_mass(fig1, dec)
        choices, trace = derandomize_choices(dec, pm)
        # the opening potential is the sampling expectation plus the
        # reconnection bound, recomputed here from scratch
        expected_sampling = sum(
            sum(p.weight * len(p.arcs) for p in dec.paths[i]) for i in range(2)
        )
        bound = 0.0
        for v in set(range(10)) - fig1.terminals:
            prod = 1.0
            for i in range(2):
                prod *= 1.0 - pm[i, v]
            bound += 2.0 * prod
        assert trace[0] == pytest.approx(expected_sampling + bound, abs=1e-9)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert trace[0] <= 2 * fig1_lp.objective + 1e-9
        # ties break toward the lowest path index
        assert choices == [0, 0]

    def test_trace_end_equals_realized_cost(self):
        for inst in random_instances("multipath", 20, seed=29, n_max=10):
            plan = prepare(inst)
            choices, trace = derandomize_choices(plan.decomposition, plan.mass)
            _, report = run_derandomized(plan)
            assert report.total == pytest.approx(trace[-1], abs=1e-6)

    def test_plan_computes_mass_on_first_use(self, fig1):
        plan = prepare(fig1)
        run_trial(plan, 0)
        assert "mass" not in vars(plan)
        run_derandomized(plan)
        assert np.array_equal(vars(plan)["mass"], path_mass(fig1, plan.decomposition))
        assert "dists" not in vars(plan)  # only the ordered join reads it

    def test_plan_run_matches_instance_wrapper(self, fig1):
        for inst in [fig1] + random_instances("multipath", 20, seed=43, n_max=10):
            assert run_derandomized(prepare(inst)) == solve_derandomized(inst)

    def test_sampling_cost_identity(self):
        for inst in random_instances("multipath", 20, seed=31, n_max=10):
            plan = prepare(inst)
            pm = plan.mass
            for i in range(inst.k):
                expected = sum(p.weight * len(p.arcs) for p in plan.decomposition.paths[i])
                telescoped = sum(pm[i, v] for v in range(inst.graph.n))
                assert telescoped == pytest.approx(expected, abs=1e-6)
