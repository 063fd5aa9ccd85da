import itertools
import random
import tracemalloc

import numpy as np
import pytest

from multipath_tsp import exact
from multipath_tsp.errors import OracleLimitError
from multipath_tsp.exact import INF, LIMIT_DP, ExactResult, exact_opt, reconstruct_walks
from multipath_tsp.graphs import Graph
from multipath_tsp.instances import Instance, validate_solution
from multipath_tsp.lp import solve_lp
from multipath_tsp.multipath import solve_derandomized

from conftest import FIG1_EIGHT_EDGE_SOLUTION, random_instances
from oracles import brute_force_cut_check, pendant_anchors


def exact_by_permutations(inst: Instance) -> int:
    """Independent oracle: enumerate assignments and waypoint permutations."""
    dist = inst.graph.dists
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
    dist = inst.graph.dists
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


def held_karp_by_loops(dist, s: int, t: int, free: list[int]):
    """Held-Karp one (mask, j, i) triple at a time: the cost of every mask and
    the waypoint order of every mask, taking the lowest i among tied
    predecessors and the lowest j among tied last waypoints."""
    f = len(free)
    best, parent = {}, {}
    for j in range(f):
        best[1 << j, j], parent[1 << j, j] = dist[s][free[j]], None
    for mask in range(1, 1 << f):
        if mask.bit_count() < 2:
            continue
        for j in range(f):
            if not mask >> j & 1:
                continue
            prev = mask ^ 1 << j
            best[mask, j] = INF
            for i in range(f):
                if prev >> i & 1 and best[prev, i] + dist[free[i]][free[j]] < best[mask, j]:
                    best[mask, j], parent[mask, j] = best[prev, i] + dist[free[i]][free[j]], i
    costs, orders = [dist[s][t]], [(s,) if s == t else (s, t)]
    for mask in range(1, 1 << f):
        cost, last = INF, None
        for j in range(f):
            if mask >> j & 1 and best[mask, j] + dist[free[j]][t] < cost:
                cost, last = best[mask, j] + dist[free[j]][t], j
        seq, m, j = [], mask, last
        while j is not None:
            seq.append(free[j])
            m, j = m ^ 1 << j, parent[m, j]
        costs.append(cost)
        orders.append((s, *seq[::-1], t))
    return costs, orders


class TestHeldKarp:
    def test_tables_match_double_loop(self):
        # unit-length BFS metrics on sparse random graphs, so tied walks abound
        rng = random.Random(127)
        for f in range(10):
            for depot in (True, False):
                n = f + (1 if depot else 2)
                s, t = (0, 0) if depot else (0, n - 1)
                edges = [[rng.randrange(v), v] for v in range(1, n)]
                edges += [[u, v] for u, v in itertools.combinations(range(n), 2)
                          if [u, v] not in edges and rng.random() < 0.15]
                dist = Graph(n, edges).dists
                free = [v for v in range(n) if v not in (s, t)]
                cost, order = exact._walk_tables(
                    np.array(dist, dtype=float), s, t, free, exact._popcount_layers(f))
                want_cost, want_order = held_karp_by_loops(dist, s, t, free)
                assert cost.tolist() == want_cost
                assert [order(mask) for mask in range(1 << f)] == want_order


def optimal_assignments(inst: Instance) -> tuple[int, list[tuple[int, ...]]]:
    """Brute force: the optimum and every optimal assignment, each as one
    bitmask over the sorted free vertices per commodity."""
    dist = inst.graph.dists
    free = sorted(set(range(inst.graph.n)) - inst.terminals)
    f, k = len(free), inst.k
    walk = {}
    for i, (s, t) in enumerate(inst.commodities):
        for bits in range(1 << f):
            assigned = [free[j] for j in range(f) if bits >> j & 1]
            walk[i, bits] = min(
                sum(dist[a][b] for a, b in zip((s, *perm), (*perm, t)))
                for perm in itertools.permutations(assigned)
            )
    best, found = float("inf"), []
    for labels in itertools.product(range(k), repeat=f):
        masks = tuple(sum(1 << j for j in range(f) if labels[j] == i) for i in range(k))
        total = sum(walk[i, masks[i]] for i in range(k))
        if total < best:
            best, found = total, []
        if total == best:
            found.append(masks)
    return best, found


class TestTieRule:
    """Among tied optima the oracle returns the kernel's largest assignment,
    compared as free-vertex bitmasks from the last commodity to the first,
    and then places each terminal-free pendant tree with the first commodity
    whose walk holds the vertex the tree hangs from."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_lexicographic_maximum_of_tied_optima(self, k):
        checked = 0
        for inst in random_instances("multipath", 80, seed=101 + k, n_min=k + 3, n_max=9, k_min=k, k_max=k):
            if inst.k != k or not 2 <= free_count(inst) <= 5:
                continue
            best, found = optimal_assignments(inst)
            if len(found) < 2:
                continue
            free = sorted(set(range(inst.graph.n)) - inst.terminals)
            anchors = pendant_anchors(inst.graph, inst.terminals)
            pruned = sum(1 << j for j, v in enumerate(free) if v in anchors)
            # optimal assignments of G, cut to the kernel, are the kernel's optimal ones
            top = max(found, key=lambda masks: tuple(m & ~pruned for m in masks[::-1]))
            kernel = [{free[j] for j in range(len(free)) if (m & ~pruned) >> j & 1} for m in top]
            want = [set(assigned) for assigned in kernel]
            for v, a in anchors.items():
                want[next(i for i, (s, t) in enumerate(inst.commodities) if a in (s, t) or a in kernel[i])].add(v)
            result = exact_opt(inst)
            assert result.cost == best
            assert result.assignment == tuple(map(frozenset, want))
            assert result.assignment in [
                tuple(frozenset(free[j] for j in range(len(free)) if m >> j & 1) for m in masks) for masks in found
            ]
            dist = inst.graph.dists
            total = 0
            for (s, t), assigned, order in zip(inst.commodities, result.assignment, result.orders):
                assert (order[0], order[-1]) == (s, t)
                assert sorted(order[1:-1]) == sorted(assigned)
                total += sum(dist[a][b] for a, b in zip(order, order[1:]))
            assert total == result.cost
            checked += 1
        assert checked >= 10


def cover_step_by_loops(prev: list[float], cost: list[float], f: int) -> list[float]:
    """cur[mask] = min over sub of prev[mask ^ sub] + cost[sub], one pair at a time."""
    cur = []
    for mask in range(1 << f):
        best, sub = INF, mask
        while True:
            best = min(best, prev[mask ^ sub] + cost[sub])
            if sub == 0:
                break
            sub = (sub - 1) & mask
        cur.append(best)
    return cur


def submasks(mask: int) -> list[int]:
    return [sub for sub in range(mask + 1) if sub & mask == sub]


class TestMinPlusStep:
    """The popcount blocks and the chunked min-plus step over them."""

    @pytest.mark.parametrize("chunk", [exact.PAIR_CHUNK, 16])
    def test_step_matches_double_loop(self, chunk, monkeypatch):
        monkeypatch.setattr(exact, "PAIR_CHUNK", chunk)
        rng = random.Random(113)
        for f in range(11):
            prev = [INF if rng.random() < 0.2 else float(rng.randrange(30)) for _ in range(1 << f)]
            cost = [INF if rng.random() < 0.2 else float(rng.randrange(30)) for _ in range(1 << f)]
            got = exact._cover_step(np.array(prev), np.array(cost), f)
            assert got.tolist() == cover_step_by_loops(prev, cost, f)
        # at f = 10 the 3^10 pairs span several chunks; a chunk holds at most
        # `chunk` pairs unless it is one row wider than that
        chunks = list(exact._row_chunks(10))
        assert len(chunks) > 1
        assert all(subs.size <= chunk or len(subs) == 1 for _, subs in chunks)
        assert sum(subs.size for _, subs in chunks) == 3 ** 10

    def test_block_rows_are_the_submasks_of_their_mask(self):
        for f in range(11):
            blocks = exact._submask_blocks(f)
            assert len(blocks) == f + 1
            seen = []
            for p, (masks, subs) in enumerate(blocks):
                assert subs.dtype == np.uint16 and subs.shape == (len(masks), 1 << p)
                for mask, row in zip(masks.tolist(), subs.tolist()):
                    assert mask.bit_count() == p
                    assert row == submasks(mask)
                seen.extend(masks.tolist())
            assert sorted(seen) == list(range(1 << f))


def trees_with_pendants(count: int, seed: int):
    """Random trees on 3 to 9 vertices plus up to 2 extra edges, with 1 to 3
    commodities between random vertices (depots allowed), so most carry
    terminal-free pendant trees."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 9)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, 2)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        commodities = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))}
        yield Instance(Graph(n, sorted(edges)), tuple(sorted(commodities)))


class TestPendantTrees:
    """Terminal-free pendant trees are stripped before the tables and spliced
    back as closed tours that cost 2 per vertex."""

    def test_matches_permutation_oracle(self):
        checked = pruned = 0
        for inst in trees_with_pendants(400, seed=131):
            if free_count(inst) > 6:
                continue
            result = exact_opt(inst)
            assert result.cost == exact_by_permutations(inst)
            sol = reconstruct_walks(inst, result)
            ok, why = validate_solution(inst, sol)
            assert ok, why
            assert sol.cost == result.cost
            checked += 1
            pruned += bool(pendant_anchors(inst.graph, inst.terminals))
        assert checked >= 150 and pruned >= 100

    @pytest.mark.parametrize("edges, commodities, cost, order", [
        # path 0-1-2-3 with leaves 4 on 1 and 5 on 2: the walk crosses the 3
        # path edges, and each leaf needs its edge twice, since the edge is
        # off every 0-3 path
        ([[0, 1], [1, 2], [2, 3], [1, 4], [2, 5]], ((0, 3),), 7, (0, 1, 4, 2, 5, 3)),
        # a star around the depot 0: a closed walk crosses each leaf edge twice
        ([[0, v] for v in range(1, 6)], ((0, 0),), 10, (0, 1, 2, 3, 4, 5, 0)),
        # edge 0-1 once, and the leaf 2 on the sink 1 costs its edge twice
        ([[0, 1], [1, 2]], ((0, 1),), 3, (0, 2, 1)),
    ])
    def test_hand_proven(self, edges, commodities, cost, order):
        inst = Instance(Graph(len(edges) + 1, edges), commodities)
        result = exact_opt(inst)
        assert result.cost == cost
        assert result.orders == (order,)
        assert result.assignment == (frozenset(order) - inst.terminals,)
        sol = reconstruct_walks(inst, result)
        ok, why = validate_solution(inst, sol)
        assert ok, why
        assert sol.cost == cost

    def test_tree_with_one_depot(self):
        # a closed walk from the depot crosses every edge of a tree at least
        # twice, and a depth-first tour crosses each exactly twice
        rng = random.Random(137)
        for n in range(1, 13):
            edges = [[rng.randrange(v), v] for v in range(1, n)]
            inst = Instance(Graph(n, edges), ((rng.randrange(n),) * 2,))
            result = exact_opt(inst, limit_free=11)
            assert result.cost == 2 * (n - 1)
            sol = reconstruct_walks(inst, result)
            ok, why = validate_solution(inst, sol)
            assert ok, why
            assert sol.cost == result.cost

    def test_limit_counts_every_free_vertex(self):
        # 15 free leaves, all stripped, are still refused by the DP limit
        inst = Instance(Graph(16, [[0, v] for v in range(1, 16)]), ((0, 0),))
        assert free_count(inst) == LIMIT_DP + 1
        with pytest.raises(OracleLimitError, match="limit_dp=14"):
            exact_opt(inst, limit_free=LIMIT_DP + 1)


class TestDpLimit:
    def test_largest_admitted_instance(self):
        # path 0-1-...-17 with commodities (0, 17), (3, 3), (9, 9): 14 free
        # vertices. d(0, 17) = 17 bounds the total from below and the path
        # walk attains it; any vertex given to a depot costs it at least 2.
        inst = Instance(Graph(18, [[v, v + 1] for v in range(17)]), ((0, 17), (3, 3), (9, 9)))
        assert free_count(inst) == LIMIT_DP
        tracemalloc.start()
        try:
            result = exact_opt(inst, limit_free=LIMIT_DP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        path = tuple(range(18))
        assert result.cost == 17
        assert result.assignment == (frozenset(path) - {0, 3, 9, 17}, frozenset(), frozenset())
        assert result.orders == (tuple(v for v in path if v not in (3, 9)), (3,), (9,))
        assert peak < 32 * 2 ** 20

    def test_one_more_free_vertex_is_refused(self):
        inst = Instance(Graph(19, [[v, v + 1] for v in range(18)]), ((0, 18), (3, 3), (9, 9)))
        with pytest.raises(OracleLimitError, match="limit_dp=14"):
            exact_opt(inst, limit_free=LIMIT_DP + 1)


class TestCutCheck:
    def test_zero_flow_vacuous(self):
        inst = Instance(Graph(2, [[0, 1]]), ((0, 0), (1, 1)))
        sol = solve_lp(inst)
        from multipath_tsp.lp import FractionalSolution

        zero = FractionalSolution(inst, sol.digraph, np.zeros_like(sol.flows), np.zeros_like(sol.cover), 0.0)
        ok, witness = brute_force_cut_check(inst, zero)
        assert ok and witness is None

    def test_solver_outputs_pass(self):
        for inst in random_instances("multipath", 20, seed=79, n_max=8):
            sol = solve_lp(inst)
            ok, witness = brute_force_cut_check(inst, sol)
            assert ok, witness
