import pytest

from multipath_tsp.errors import InstanceError
from multipath_tsp.exact import exact_opt
from multipath_tsp.graphs import Graph, bfs_distances
from multipath_tsp.instances import Instance, validate_solution
from multipath_tsp.multipath import prepare, run_derandomized
from multipath_tsp.vrp import run_combiner, solve_combiner, solve_vrp_forest

from conftest import random_instances


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

    def test_duplicate_sources_collapse(self, fig1):
        inst = Instance(fig1.graph, ((0, 2), (0, 3)))
        sol, report = solve_combiner(inst)
        ok, why = validate_solution(inst, sol)
        assert ok, why
        # one depot tree from vertex 0 plus both connection routes
        d = bfs_distances(fig1.graph, 0)
        assert report.cost_vrp_branch == 2 * 9 + d[2] + d[3]
        assert report.vrp_base_cost == 2 * 9
