import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipath_tsp.bench import BenchConfig, generate
from multipath_tsp.decomposition import decompose, path_mass
from multipath_tsp.errors import InternalError
from multipath_tsp.graphs import BidirectedGraph, Graph
from multipath_tsp.instances import Instance, Solution, validate_solution
from multipath_tsp.lp import FractionalSolution
from multipath_tsp.multipath import (
    attachment_order,
    chosen_walks,
    derandomize_choices,
    prepare,
    reconnect,
    run_derandomized,
    run_trial,
    sample_paths,
    solve_derandomized,
    solve_randomized,
)
from multipath_tsp.vrp import run_combiner

from conftest import random_instances
from oracles import attachment_order_rescan


@pytest.fixture(scope="module")
def diamond_plan():
    """Two parallel 2-edge routes, each carrying half the flow."""
    inst = Instance(Graph(4, [[0, 1], [0, 2], [1, 3], [2, 3]]), ((0, 3),))
    dig = BidirectedGraph(inst.graph)
    flows = np.zeros((1, dig.num_arcs))
    for u, v in [(0, 1), (1, 3)]:
        flows[0, dig.arcs.index((u, v))] = 0.5
    for u, v in [(0, 2), (2, 3)]:
        flows[0, dig.arcs.index((u, v))] = 0.5
    sol = FractionalSolution(inst, dig, flows, np.zeros((1, 4)), 2.0)
    return inst, decompose(inst, sol)


class TestSampling:
    def test_single_path_always_chosen(self, path3):
        plan = prepare(path3)
        for seed in range(25):
            chosen = sample_paths(plan.decomposition, seed)
            assert chosen == [0]
            walks = chosen_walks(plan.decomposition, chosen)
            assert walks == [(0, 1, 2)]
            # the sampled path alone covers every vertex
            ok, why = validate_solution(path3, Solution((tuple(walks[0]),), 2))
            assert ok, why

    def test_half_half_frequency(self, diamond_plan):
        _, dec = diamond_plan
        assert len(dec.paths[0]) == 2
        hits = sum(sample_paths(dec, seed)[0] == 0 for seed in range(10000))
        assert abs(hits / 10000 - 0.5) <= 0.02

    def test_fig1_second_commodity_frequency(self, fig1, fig1_lp):
        dec = decompose(fig1, fig1_lp)
        target = (1, 8, 5, 6, 3)  # the route through the two lower-left inner vertices
        idx = [p.vertices for p in dec.paths[1]].index(target)
        hits = sum(sample_paths(dec, seed)[1] == idx for seed in range(10000))
        assert abs(hits / 10000 - 0.5) <= 0.02

    def test_depot_commodity_singleton(self):
        inst = Instance(Graph(2, [[0, 1]]), ((0, 1), (1, 1)))
        plan = prepare(inst)
        chosen = sample_paths(plan.decomposition, 0)
        assert chosen[1] is None
        assert chosen_walks(plan.decomposition, chosen)[1] == (1,)

    def test_trial_mean_matches_opening_potential(self):
        # phi0 is the expected cost of one trial when path j is sampled with
        # its weight, so the mean over 400 seeds must sit within 4 standard
        # errors of it on every instance with a split commodity
        cfg = BenchConfig(mode="multipath", n_min=10, n_max=30, k_min=3, k_max=8, extra_edges=30, seed=9)
        split = 0
        for inst_seed in range(7000, 7040):
            plan = prepare(generate(cfg, inst_seed))
            if all(len(paths) <= 1 for paths in plan.decomposition.paths):
                continue
            split += 1
            phi0 = derandomize_choices(plan.decomposition, plan.mass)[1][0]
            costs = np.array([run_trial(plan, seed)[1].total for seed in range(400)])
            se = costs.std(ddof=1) / np.sqrt(len(costs))
            assert abs(costs.mean() - phi0) <= 4 * se + 1e-9, (inst_seed, costs.mean(), phi0, se)
        assert split >= 10

    def test_deterministic_per_seed(self, fig1):
        plan = prepare(fig1)
        a = sample_paths(plan.decomposition, 123)
        b = sample_paths(plan.decomposition, 123)
        assert a == b
        assert chosen_walks(plan.decomposition, a) == chosen_walks(plan.decomposition, b)


class TestReconnect:
    def test_nothing_pending_is_noop(self, path3):
        done = reconnect(path3, [[0, 1, 2]])
        assert done == Solution(((0, 1, 2),), 2)
        ok, why = validate_solution(path3, done)
        assert ok, why

    def test_fig1_two_uncovered_inner_vertices(self, fig1):
        # one concrete sampling outcome: these walks leave vertices 5 and 8 uncovered
        walks = [[0, 4, 6, 2], [1, 9, 7, 4, 3]]
        done = reconnect(fig1, [list(w) for w in walks])
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
        done = reconnect(inst, [[1, 0, 2]])
        assert done.cost == 2 + 2 * (n - 3)
        # one excursion from the center, lowest leaf first, at its first occurrence
        assert done.walks == ((1, 0, 3, 0, 4, 0, 5, 0, 2),)
        ok, why = validate_solution(inst, done)
        assert ok, why

    def test_splice_at_first_occurrence(self):
        g = Graph(4, [[0, 1], [1, 2], [1, 3]])
        inst = Instance(g, ((0, 2),))
        done = reconnect(inst, [[0, 1, 2]])
        assert done.walks == ((0, 1, 3, 1, 2),)

    def test_nested_attachment(self):
        # 3 attaches to the walk at 1, then 4 attaches to 3: one excursion 1-3-4-3-1
        g = Graph(5, [[0, 1], [1, 2], [1, 3], [3, 4]])
        inst = Instance(g, ((0, 2),))
        done = reconnect(inst, [[0, 1, 2]])
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

    def test_certificate_on_generated_instances(self):
        # the family the choice-rule mutants were measured on: a potential
        # that rises, or a cost above the opening potential, would catch them
        cfg = BenchConfig(mode="multipath", seed=5, n_min=6, n_max=20, k_min=1, k_max=5, extra_edges=10)
        for index in range(1000, 1300):
            plan = prepare(generate(cfg, index))
            _, trace = derandomize_choices(plan.decomposition, plan.mass)
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:])), index
            _, report = run_derandomized(plan)
            assert report.total <= trace[0] + 1e-9, index
            assert trace[0] <= 2 * plan.lp.objective + 1e-9, index

    def test_certificate_raises(self, fig1, monkeypatch):
        import multipath_tsp.multipath as mp

        plan = prepare(fig1)
        real = mp.derandomize_choices
        monkeypatch.setattr(mp, "derandomize_choices", lambda dec, mass: (real(dec, mass)[0], [0.0]))
        with pytest.raises(InternalError, match="phi0"):
            run_derandomized(plan)

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

    def test_multipath_solvers_leave_the_distance_table_unbuilt(self):
        # only the ordered join and the exact oracle read `Graph.dists`
        for inst in random_instances("multipath", 10, seed=47, n_max=10):
            plan = prepare(inst)
            run_trial(plan, 0)
            run_derandomized(plan)
            run_combiner(plan)
            assert not hasattr(inst.graph, "_dists")

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


@st.composite
def connected_graph_and_covered(draw):
    n = draw(st.integers(1, 9))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    tree = set(edges)
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    edges += draw(st.permutations(chords))[:draw(st.integers(0, len(chords)))]
    covered = {v for v in range(n) if draw(st.booleans())} or {draw(st.integers(0, n - 1))}
    return Graph(n, edges), frozenset(covered)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(connected_graph_and_covered())
def test_attachment_order_follows_its_rule(case):
    # each step attaches the lowest pending vertex that has a covered neighbor
    # at that moment, via its lowest covered neighbor
    g, covered = case
    steps = attachment_order(g, set(covered))
    now = set(covered)
    for v, w in steps:
        ready = [u for u in range(g.n) if u not in now and any(x in now for x in g.adj[u])]
        assert v == min(ready)
        assert w == min(x for x in g.adj[v] if x in now)
        now.add(v)
    # every uncovered vertex is attached exactly once
    assert sorted(v for v, _ in steps) == sorted(set(range(g.n)) - covered)


def test_attachment_order_equals_the_rescan_on_random_graphs():
    rng = random.Random(71)
    for _ in range(400):
        n = rng.randint(1, 50)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = Graph(n, sorted(edges, key=lambda e: rng.random()))
        covered = set(rng.sample(range(n), rng.randint(1, n)))
        before = set(covered)
        assert attachment_order(g, covered) == attachment_order_rescan(g, covered)
        assert covered == before


def test_attachment_order_on_a_long_path_covered_at_one_end():
    # covered at its last vertex, the path attaches from the top down, so a
    # rescan of the pending vertices in increasing order per step would be
    # quadratic
    n = 4000
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    assert attachment_order(g, {n - 1}) == [(v, v + 1) for v in range(n - 2, -1, -1)]
    assert attachment_order(g, {0}) == [(v, v - 1) for v in range(1, n)]


def test_attachment_order_refuses_an_unreachable_vertex():
    g = Graph(4, [[0, 1], [2, 3]])
    with pytest.raises(InternalError, match="not connected"):
        attachment_order(g, {0})
    with pytest.raises(InternalError, match="not connected"):
        attachment_order_rescan(g, {0})
