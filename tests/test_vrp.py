import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipath_tsp.decomposition import Decomposition, FlowWalk, path_mass
from multipath_tsp.errors import InstanceError
from multipath_tsp.exact import exact_opt
from multipath_tsp.graphs import BidirectedGraph, Graph, bfs_distances
from multipath_tsp.instances import Instance, Solution, validate_solution
from multipath_tsp.lp import EPS_OBJ, solve_lp
from multipath_tsp.multipath import SolverPlan, derandomize_choices, prepare, run_derandomized, run_trial
from multipath_tsp.vrp import run_combiner, solve_combiner, solve_vrp_forest

from conftest import random_instances, shaped_instances


def _depots(graph: Graph, depots: tuple[int, ...]) -> Instance:
    return Instance(graph, tuple((d, d) for d in depots))


class TestForestBaseline:
    def test_requires_equal_endpoints(self, fig1):
        with pytest.raises(InstanceError) as err:
            solve_vrp_forest(fig1)
        assert err.value.code == "not-vrp"

    def test_all_vertices_are_depots(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3]])
        sol = solve_vrp_forest(_depots(g, (0, 1, 2, 3)))
        assert sol.cost == 0
        assert sol.walks == ((0,), (1,), (2,), (3,))

    def test_star_single_depot(self):
        n = 7
        sol = solve_vrp_forest(_depots(Graph(n, [[0, i] for i in range(1, n)]), (0,)))
        assert sol.cost == 2 * (n - 1)

    def test_fig1_depots(self, fig1):
        inst = _depots(fig1.graph, (0, 1))
        sol = solve_vrp_forest(inst)
        assert sol.cost == 2 * (10 - 2)
        opt = exact_opt(inst).cost
        assert sol.cost <= 2 * opt
        ok, why = validate_solution(inst, sol)
        assert ok, why

    def test_forest_edge_count_and_nearest_depot(self):
        for inst in random_instances("vrp", 30, seed=19, n_max=10):
            sol = solve_vrp_forest(inst)
            assert sol.cost == 2 * (inst.graph.n - inst.k)
            ok, why = validate_solution(inst, sol)
            assert ok, why
            # every vertex sits in the walk of a nearest depot
            depots = [d for d, _ in inst.commodities]
            dists = {d: bfs_distances(inst.graph, d) for d in depots}
            for i, d in enumerate(depots):
                for v in sol.walks[i]:
                    assert dists[d][v] == min(dd[v] for dd in dists.values())

    def test_branching_tree_depth_first(self):
        # depot 0 with children 1 and 2, and 3 below 1: lowest child first
        sol = solve_vrp_forest(_depots(Graph(4, [[0, 1], [0, 2], [1, 3]]), (0,)))
        assert sol.walks == ((0, 1, 3, 1, 0, 2, 0),)
        assert sol.cost == 6

    def test_tie_goes_to_lowest_depot_index(self):
        sol = solve_vrp_forest(_depots(Graph(3, [[0, 1], [1, 2]]), (0, 2)))
        assert sol.walks[0] == (0, 1, 0)
        assert sol.walks[1] == (2,)


class TestCombiner:
    def test_all_depot_instances_match_forest(self):
        for inst in random_instances("vrp", 15, seed=37, n_max=9):
            sol, report = solve_combiner(inst)
            assert report.distance_sum == 0
            assert report.vrp_base_cost == report.cost_vrp_branch
            expected = 2 * (inst.graph.n - inst.k)
            assert report.cost_vrp_branch == expected
            assert sol.cost == expected  # both branches tie at the forest cost

    def test_path_graph_multipath_wins(self, path3):
        sol, report = solve_combiner(path3)
        assert report.winner == "multipath"
        assert sol.cost == 2
        assert report.cost_vrp_branch == 2 * 2 + 2  # doubled path plus the appended route

    def test_fig1_both_branches_valid(self, fig1):
        sol, report = solve_combiner(fig1)
        ok, why = validate_solution(fig1, sol)
        assert ok, why
        assert sol.cost == min(report.cost_multipath, report.cost_vrp_branch)
        assert report.distance_sum == sum(bfs_distances(fig1.graph, s)[t] for s, t in fig1.commodities)

    def test_never_worse_than_derandomized(self):
        for inst in random_instances("multipath", 30, seed=53, n_max=10):
            plan = prepare(inst)
            sol, report = run_combiner(plan)
            d_sol, _ = run_derandomized(plan)
            assert sol.cost <= d_sol.cost
            ok, why = validate_solution(inst, sol)
            assert ok, why

    def test_plan_run_matches_instance_wrapper(self, fig1):
        for inst in [fig1] + random_instances("multipath", 20, seed=47, n_max=10):
            assert run_combiner(prepare(inst)) == solve_combiner(inst)

    def test_depot_branch_wins_over_a_costlier_path_solution(self, fig1, monkeypatch):
        import multipath_tsp.vrp as vrp

        real = vrp.run_derandomized

        def padded(plan):
            # the path solver's walks with round trips to a neighbor of the
            # first source: still valid, and dearer than any depot branch
            sol, report = real(plan)
            g = plan.instance.graph
            s = sol.walks[0][0]
            trips = g.n + sum(len(w) for w in sol.walks)
            walk0 = (s, g.adj[s][0]) * trips + sol.walks[0]
            dearer = Solution((walk0,) + sol.walks[1:], sol.cost + 2 * trips)
            assert validate_solution(plan.instance, dearer) == (True, None)
            return dearer, report

        monkeypatch.setattr(vrp, "run_derandomized", padded)
        duplicated = 0
        for inst in [fig1] + random_instances("multipath", 30, seed=61, n_min=2, n_max=10, k_max=5):
            sol, report = run_combiner(prepare(inst))
            assert report.winner == "vrp"
            ok, why = validate_solution(inst, sol)
            assert ok, why
            assert sol.cost == report.cost_vrp_branch == report.vrp_base_cost + report.distance_sum
            sources = {s for s, _ in inst.commodities}
            assert report.vrp_base_cost == 2 * (inst.graph.n - len(sources))
            duplicated += len(sources) < inst.k
        assert duplicated > 0

    def test_duplicate_sources_collapse(self, fig1):
        inst = Instance(fig1.graph, ((0, 2), (0, 3)))
        sol, report = solve_combiner(inst)
        ok, why = validate_solution(inst, sol)
        assert ok, why
        # one depot tree from vertex 0 plus both connection routes
        d = bfs_distances(fig1.graph, 0)
        assert report.cost_vrp_branch == 2 * 9 + d[2] + d[3]
        assert report.vrp_base_cost == 2 * 9


def _walk(dig: BidirectedGraph, vertices: tuple[int, ...], weight: float) -> FlowWalk:
    return FlowWalk(tuple(dig.arcs.index((u, v)) for u, v in zip(vertices, vertices[1:])), vertices, weight)


def _depot_branch_cost(inst: Instance) -> int:
    """D = sum of d(s_i, t_i) plus 2(n - |distinct sources|)."""
    g = inst.graph
    sources = {s for s, _ in inst.commodities}
    return sum(bfs_distances(g, s)[t] for s, t in inst.commodities) + 2 * (g.n - len(sources))


@st.composite
def tree_instance(draw):
    n = draw(st.integers(1, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return Instance(Graph(n, edges), tuple(draw(st.lists(pair, min_size=1, max_size=4, unique=True))))


class TestOpeningPotential:
    """phi0, the derandomized pass's opening potential, against the depot
    branch's cost D."""

    def test_phi0_can_exceed_the_depot_branch(self):
        # the 4-cycle 0-1-2-3-0: vertex 1 is the only non-terminal
        inst = Instance(Graph(4, [[0, 3], [0, 1], [1, 2], [2, 3]]), ((0, 3), (3, 0), (2, 2)))
        dig = BidirectedGraph(inst.graph)
        paths = (
            (_walk(dig, (0, 1, 2, 3), 0.5), _walk(dig, (0, 3), 0.5)),
            (_walk(dig, (3, 2, 1, 0), 0.5), _walk(dig, (3, 0), 0.5)),
            (),
        )
        dec = Decomposition(inst, paths, ((), (), ()))
        # the hand point's flow costs 2 + 2, and so do these walks, so it is an LP optimum
        witness = Solution(((0, 1, 2, 3), (3, 0), (2,)), 4)
        assert validate_solution(inst, witness) == (True, None)
        lp_sol = solve_lp(inst)
        assert lp_sol.objective == pytest.approx(4.0, abs=EPS_OBJ)
        choices, trace = derandomize_choices(dec, path_mass(inst, dec))
        # expected lengths 2 + 2, plus twice Pr[vertex 1 uncovered] = 1/4
        assert trace[0] == pytest.approx(4.5)
        assert _depot_branch_cost(inst) == 1 + 1 + 2 * (4 - 3)
        assert trace[0] > _depot_branch_cost(inst)
        # the pass still ends at the optimum, and the tie goes to the path solver
        assert choices == [1, 0, None]
        sol, report = run_combiner(SolverPlan(inst, lp_sol, dec))
        assert sol.cost == report.cost_multipath == report.cost_vrp_branch == 4
        assert report.winner == "multipath"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tree_instance())
    def test_phi0_at_most_depot_branch_on_trees(self, inst):
        # a tree's paths are unique and shortest, so phi0 <= sum d + 2(n - |T|),
        # and every source is a terminal
        plan = prepare(inst)
        _, trace = derandomize_choices(plan.decomposition, plan.mass)
        assert trace[0] <= _depot_branch_cost(inst) + EPS_OBJ
        assert run_combiner(plan)[1].cost_vrp_branch == _depot_branch_cost(inst)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shaped_instances(), st.integers(0, 2**16))
def test_solvers_on_edge_shapes(inst, seed):
    # stars, complete graphs, paths and trees down to n = 1, with all-depot,
    # shared-source or arbitrary commodities: every solver's output is valid
    # and LP <= OPT <= combiner <= derandomized <= 2 * LP
    plan = prepare(inst)
    lp = plan.lp.objective
    sol_d, rep_d = run_derandomized(plan)
    sol_c, _ = run_combiner(plan)
    sol_t, _ = run_trial(plan, seed)
    for sol in (sol_d, sol_c, sol_t):
        ok, why = validate_solution(inst, sol)
        assert ok, why
    assert rep_d.total <= 2 * lp + EPS_OBJ
    assert sol_c.cost <= sol_d.cost
    opt = exact_opt(inst).cost
    assert lp <= opt + EPS_OBJ
    assert opt <= sol_c.cost
