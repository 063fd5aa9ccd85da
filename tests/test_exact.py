import itertools

import pytest

from multipath_tsp.errors import OracleLimitError
from multipath_tsp.exact import ExactResult, brute_force_cut_check, exact_opt, reconstruct_walks
from multipath_tsp.graphs import Graph, all_pairs_distances
from multipath_tsp.instances import Instance, validate_solution
from multipath_tsp.lp import solve_lp
from multipath_tsp.multipath import solve_derandomized

from conftest import FIG1_EIGHT_EDGE_SOLUTION, random_instances


def exact_by_permutations(inst: Instance) -> int:
    """Independent oracle: enumerate assignments and waypoint permutations."""
    dist = all_pairs_distances(inst.graph)
    free = sorted(set(range(inst.graph.n)) - inst.terminals)
    k = inst.k

    def walk_cost(s, t, assigned):
        if not assigned:
            return dist[s][t]
        best = float("inf")
        for perm in itertools.permutations(assigned):
            cost = dist[s][perm[0]]
            for a, b in zip(perm, perm[1:]):
                cost += dist[a][b]
            cost += dist[perm[-1]][t]
            best = min(best, cost)
        return best

    best_total = float("inf")
    for labels in itertools.product(range(k), repeat=len(free)):
        total = 0
        for i, (s, t) in enumerate(inst.commodities):
            assigned = [free[j] for j in range(len(free)) if labels[j] == i]
            total += walk_cost(s, t, assigned)
            if total >= best_total:
                break
        best_total = min(best_total, total)
    return best_total


def exact_with_one_shared_vertex(inst: Instance) -> int:
    """Relaxation allowing a single free vertex to join two commodities."""
    dist = all_pairs_distances(inst.graph)
    free = sorted(set(range(inst.graph.n)) - inst.terminals)
    k = inst.k

    def walk_cost(s, t, assigned):
        if not assigned:
            return dist[s][t]
        best = float("inf")
        for perm in itertools.permutations(assigned):
            cost = dist[s][perm[0]]
            for a, b in zip(perm, perm[1:]):
                cost += dist[a][b]
            cost += dist[perm[-1]][t]
            best = min(best, cost)
        return best

    best_total = exact_by_permutations(inst)
    for labels in itertools.product(range(k), repeat=len(free)):
        for shared_j, extra_i in itertools.product(range(len(free)), range(k)):
            total = 0
            for i, (s, t) in enumerate(inst.commodities):
                assigned = [free[j] for j in range(len(free)) if labels[j] == i]
                if extra_i == i and free[shared_j] not in assigned:
                    assigned = sorted(assigned + [free[shared_j]])
                total += walk_cost(s, t, assigned)
                if total >= best_total:
                    break
            best_total = min(best_total, total)
    return best_total


class TestExactValues:
    def test_fig1_is_eight_with_witness(self, fig1):
        """The fixture's optimum is 8: the hand-written witness covers every
        vertex with 8 edges, and n - k and the relaxation pin it from below."""
        ok, why = validate_solution(fig1, FIG1_EIGHT_EDGE_SOLUTION)
        assert ok, why
        assert FIG1_EIGHT_EDGE_SOLUTION.cost == fig1.graph.n - fig1.k
        result = exact_opt(fig1)
        assert result.cost == FIG1_EIGHT_EDGE_SOLUTION.cost
        witness = reconstruct_walks(fig1, result)
        ok, why = validate_solution(fig1, witness)
        assert ok, why
        assert witness.cost == 8
        # the relaxation equals the witness cost, so 8 is truly optimal
        assert abs(solve_lp(fig1).objective - 8) <= 1e-6

    def test_path_graph(self, path3):
        assert exact_opt(path3).cost == 2

    def test_star_single_depot(self):
        n = 6
        inst = Instance(Graph(n, [[0, i] for i in range(1, n)]), ((0, 0),))
        assert exact_opt(inst).cost == 2 * (n - 1)

    def test_singleton(self):
        inst = Instance(Graph(1, []), ((0, 0),))
        result = exact_opt(inst)
        assert result.cost == 0
        assert result.orders == ((0,),)


class TestOracleSoundness:
    def test_matches_permutation_oracle(self):
        for inst in random_instances("multipath", 40, seed=61, n_max=7):
            if len(set(range(inst.graph.n)) - inst.terminals) > 5:
                continue
            assert exact_opt(inst).cost == exact_by_permutations(inst)

    def test_reconstruction_validates_and_matches(self):
        for inst in random_instances("multipath", 40, seed=67, n_max=9):
            result = exact_opt(inst)
            sol = reconstruct_walks(inst, result)
            ok, why = validate_solution(inst, sol)
            assert ok, why
            assert sol.cost == result.cost

    def test_sharing_a_vertex_never_helps(self):
        checked = 0
        for inst in random_instances("multipath", 120, seed=71, n_max=6, k_max=2):
            if len(set(range(inst.graph.n)) - inst.terminals) > 4:
                continue
            assert exact_with_one_shared_vertex(inst) == exact_opt(inst).cost
            checked += 1
            if checked >= 50:
                break
        assert checked >= 50

    def test_sandwich(self):
        for inst in random_instances("multipath", 30, seed=73, n_max=9):
            lp = solve_lp(inst)
            opt = exact_opt(inst).cost
            sol, report = solve_derandomized(inst)
            assert lp.objective <= opt + 1e-5
            assert opt <= sol.cost

    def test_limit_errors(self):
        inst = Instance(Graph(13, [[i, i + 1] for i in range(12)]), ((0, 12),))
        with pytest.raises(OracleLimitError, match="instance too large"):
            exact_opt(inst)
        # raising the knob admits it
        assert exact_opt(inst, limit_free=11).cost == 12


def free_count(inst: Instance) -> int:
    return inst.graph.n - len(inst.terminals)


class TestTables:
    """The Held-Karp layers and the partition min-plus steps, against the
    permutation oracle and against optima worked out by hand."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_permutation_oracle_with_many_commodities(self, k):
        # k - 1 partition steps, so the intermediate tables feed later steps
        checked = 0
        for inst in random_instances("multipath", 80, seed=83 + k, n_min=k + 3, n_max=9, k_min=k, k_max=k):
            if inst.k != k or not 2 <= free_count(inst) <= 5:
                continue
            assert exact_opt(inst).cost == exact_by_permutations(inst)
            checked += 1
        assert checked >= 15

    def test_matches_permutation_oracle_all_depot(self):
        checked = 0
        for inst in random_instances("vrp", 60, seed=89, n_min=3, n_max=8, k_max=4):
            if not 1 <= free_count(inst) <= 5:
                continue
            assert all(s == t for s, t in inst.commodities)
            result = exact_opt(inst)
            assert result.cost == exact_by_permutations(inst)
            sol = reconstruct_walks(inst, result)
            ok, why = validate_solution(inst, sol)
            assert ok, why
            assert sol.cost == result.cost
            checked += 1
        assert checked >= 30

    def test_no_free_vertex(self):
        # path 0-1-2: every vertex is a terminal, so each walk is a shortest path
        inst = Instance(Graph(3, [[0, 1], [1, 2]]), ((0, 2), (1, 1)))
        result = exact_opt(inst)
        assert result == ExactResult(2, (frozenset(), frozenset()), ((0, 2), (1,)))

    def test_one_free_vertex(self):
        # path 0-1-2-3: vertex 1 lies on 0's way to 3 (cost 3 in all) but
        # costs the depot at 2 a round trip of 2 (cost 3 + 2)
        inst = Instance(Graph(4, [[0, 1], [1, 2], [2, 3]]), ((0, 3), (2, 2)))
        result = exact_opt(inst)
        assert result == ExactResult(3, (frozenset({1}), frozenset()), ((0, 1, 3), (2,)))
        assert exact_by_permutations(inst) == 3

    def test_unique_optimum_by_hand(self):
        # path 0-1-2-3-4-5-6 with the pendant path 3-7-8. Each commodity must
        # at least join its ends: d(0,3) + d(6,4) + 0 = 5. Vertices 1, 2 lie
        # on 0's shortest way to 3 and 5 on 6's way to 4, for free; vertex 8
        # costs the depot at 7 a round trip of 2, and any other commodity at
        # least 4. So the optimum is 7, with only one assignment and order.
        edges = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [3, 7], [7, 8]]
        inst = Instance(Graph(9, edges), ((0, 3), (6, 4), (7, 7)))
        result = exact_opt(inst)
        assert result.cost == 7
        assert result.assignment == (frozenset({1, 2}), frozenset({5}), frozenset({8}))
        assert result.orders == ((0, 1, 2, 3), (6, 5, 4), (7, 8, 7))
        assert exact_by_permutations(inst) == 7


class TestCutCheck:
    def test_zero_flow_vacuous(self):
        inst = Instance(Graph(2, [[0, 1]]), ((0, 0), (1, 1)))
        sol = solve_lp(inst)
        import numpy as np

        from multipath_tsp.lp import FractionalSolution

        zero = FractionalSolution(inst, sol.digraph, np.zeros_like(sol.flows), np.zeros_like(sol.cover), 0.0)
        ok, witness = brute_force_cut_check(inst, zero)
        assert ok and witness is None

    def test_solver_outputs_pass(self):
        for inst in random_instances("multipath", 20, seed=79, n_max=8):
            sol = solve_lp(inst)
            ok, witness = brute_force_cut_check(inst, sol)
            assert ok, witness
