"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Shared LP solutions from criteria 1-5 feed the decomposition identity check
of criterion 8, so this module is meant to run as a whole in file order.
"""

import math
import random
import time

import numpy as np
import pytest

from multipath_tsp.bench import BenchConfig, generate, report_json, run_bench
from multipath_tsp.decomposition import decompose
from multipath_tsp.errors import OracleLimitError
from multipath_tsp.exact import brute_force_cut_check, exact_opt, reconstruct_walks
from multipath_tsp.graphs import Graph
from multipath_tsp.instances import Instance, Solution, validate_solution
from multipath_tsp.lp import solve_lp
from multipath_tsp.multipath import prepare, run_derandomized, run_trial
from multipath_tsp.ordered import run_ordered_trial, validate_ordered
from multipath_tsp.parity import min_tjoin, tjoin_brute_force
from multipath_tsp.vrp import run_combiner

from conftest import FIG1_EDGES, FIG1_EIGHT_EDGE_SOLUTION


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def suite():
    return {"lp_solutions": [], "gap_instances": []}


@pytest.fixture(scope="module")
def fig1_instance():
    return Instance(Graph(10, FIG1_EDGES), ((0, 2), (1, 3)))


@pytest.fixture(scope="module")
def instances_300(suite):
    cfg = BenchConfig(mode="multipath", n_min=1, n_max=12, k_min=1, k_max=3,
                      extra_edges=8, depot_fraction=0.35, seed=2024)
    return [generate(cfg, 10_000 + i) for i in range(300)]


def test_criterion_01_fig1_lp_and_exact(suite, fig1_instance):
    """Fixture values: LP objective 8.0, integral optimum 8, under 5s.

    The optimum is proven without the solver: the hand-written 8-edge
    witness is valid, and every solution enters each of the n - k vertices
    that are not sources at least once, so none costs less than 8."""
    n, k = fig1_instance.graph.n, fig1_instance.k
    ok, why = validate_solution(fig1_instance, FIG1_EIGHT_EDGE_SOLUTION)
    assert ok, why
    assert FIG1_EIGHT_EDGE_SOLUTION.cost == n - k == 8
    start = time.time()
    lp_sol = solve_lp(fig1_instance)
    result = exact_opt(fig1_instance)
    elapsed = time.time() - start
    suite["lp_solutions"].append((fig1_instance, lp_sol))
    suite["gap_instances"].append((fig1_instance, lp_sol.objective, result.cost))
    assert abs(lp_sol.objective - 8.0) <= 1e-5
    assert elapsed < 5.0
    witness = reconstruct_walks(fig1_instance, result)
    valid, why = validate_solution(fig1_instance, witness)
    assert valid, why
    report(
        1,
        result.cost == 8 and witness.cost == 8,
        f"LP objective {lp_sol.objective:.6f} (expected 8.0), exact optimum "
        f"{result.cost} (expected 8: witness {FIG1_EIGHT_EDGE_SOLUTION.walks} meets "
        f"the n - k = {n - k} lower bound), reconstructed {witness.cost}-edge "
        f"solution {witness.walks} validated, {elapsed:.2f}s",
    )


def test_criterion_02_deterministic_two_approximation(suite, instances_300):
    start = time.time()
    worst = 0.0
    for inst in instances_300:
        plan = prepare(inst)
        suite["lp_solutions"].append((inst, plan.lp))
        sol, rep = run_derandomized(plan)
        assert rep.total <= 2 * plan.lp.objective + 1e-5, (inst, rep)
        ok, why = validate_solution(inst, sol)
        assert ok, why
        if plan.lp.objective > 0:
            worst = max(worst, rep.total / plan.lp.objective)
        try:
            result = exact_opt(inst)
            suite["gap_instances"].append((inst, plan.lp.objective, result.cost))
        except OracleLimitError:
            pass
    elapsed = time.time() - start
    report(2, elapsed < 300.0,
           f"300 instances, derandomized cost <= 2*LP + 1e-5 on every one "
           f"(worst ratio {worst:.4f}), {elapsed:.1f}s")


def test_criterion_03_integrality_gap_sample(suite, fig1_instance):
    rows = suite["gap_instances"]
    assert len(rows) > 200, "oracle limits excluded too many instances"
    worst = 0.0
    fig1_gap = None
    for inst, lp_value, opt in rows:
        if lp_value <= 0:
            assert opt == 0
            continue
        gap = opt / lp_value
        assert gap <= 2 + 1e-5, (inst, gap)
        assert lp_value <= opt + 1e-5, "relaxation bound violated"
        if fig1_gap is None and inst == fig1_instance:
            fig1_gap = gap
        worst = max(worst, gap)
    fig1_text = "absent" if fig1_gap is None else f"{fig1_gap:.4f}"
    report(3, True,
           f"{len(rows)} oracle-checked instances, max observed OPT/LP gap {worst:.4f} "
           f"(fig1 row {fig1_text})")


def test_criterion_04_randomized_bound(suite):
    cfg = BenchConfig(mode="multipath", n_min=2, n_max=10, k_min=1, k_max=3,
                      extra_edges=6, depot_fraction=0.3, seed=404)
    trials = 500
    worst_margin = -math.inf
    for i in range(30):
        inst = generate(cfg, 40_000 + i)
        plan = prepare(inst)
        suite["lp_solutions"].append((inst, plan.lp))
        costs = []
        for seed in range(trials):
            sol, rep = run_trial(plan, seed)
            ok, why = validate_solution(inst, sol)
            assert ok, why
            costs.append(rep.total)
        mean = sum(costs) / trials
        se = np.std(costs) / math.sqrt(trials)
        margin = mean - 2 * plan.lp.objective - 3 * se
        worst_margin = max(worst_margin, margin)
        assert mean <= 2 * plan.lp.objective + 3 * se + 1e-9, (i, mean, plan.lp.objective, se)
    report(4, True,
           f"30 instances x {trials} seeds, per-instance mean <= 2*LP + 3 SE "
           f"(worst margin {worst_margin:+.3f}), all runs validated")


def test_criterion_05_ordered_bound(suite):
    cfg = BenchConfig(mode="ordered", n_min=3, n_max=12, k_min=2, k_max=4,
                      extra_edges=8, seed=505)
    trials = 200
    bound = 1.7911
    worst_margin = -math.inf
    for i in range(100):
        inst = generate(cfg, 50_000 + i)
        plan = prepare(inst)
        suite["lp_solutions"].append((plan.instance, plan.lp))
        costs = []
        for seed in range(trials):
            sol, rep, join = run_ordered_trial(plan, seed)
            assert join.cost <= plan.lp.objective / 2 + 1e-5, (i, seed, join)
            ok, why = validate_ordered(inst, sol)
            assert ok, (i, seed, why)
            costs.append(sol.cost)
        mean = sum(costs) / trials
        se = np.std(costs) / math.sqrt(trials)
        margin = mean - bound * plan.lp.objective - 3 * se
        worst_margin = max(worst_margin, margin)
        assert mean <= bound * plan.lp.objective + 3 * se + 1e-9, (i, mean, plan.lp.objective, se)
    report(5, True,
           f"100 ordered instances x {trials} seeds, mean <= {bound}*LP + 3 SE "
           f"(worst margin {worst_margin:+.3f}), joins within LP/2, order preserved")


def test_criterion_06_tjoin_exactness():
    rng = random.Random(606)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 8)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        present = {tuple(sorted(e)) for e in edges}
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
        rng.shuffle(candidates)
        budget = min(14, n * (n - 1) // 2) - len(edges)
        edges.extend(candidates[: rng.randint(0, max(0, budget))])
        g = Graph(n, edges)
        size = rng.randrange(0, n + 1)
        size -= size % 2
        odd = tuple(sorted(rng.sample(range(n), size)))
        join = min_tjoin(g, odd)
        best, _ = tjoin_brute_force(g, odd)
        assert join.cost == best, (g.edges, odd, join.cost, best)
        checked += 1
    report(6, True, "200 random graphs (<=14 edges): matching-based join cost equals "
                    "exhaustive enumeration exactly")


def test_criterion_07_separation_soundness():
    cfg = BenchConfig(mode="multipath", n_min=2, n_max=10, k_min=1, k_max=3,
                      extra_edges=6, depot_fraction=0.3, seed=707)
    total_cuts = 0
    for i in range(50):
        inst = generate(cfg, 70_000 + i)
        audit = []

        def observe(sol, cuts):
            audit.append((sol, cuts))

        final = solve_lp(inst, on_round=observe)
        for sol, cuts in audit:
            for cut in cuts:
                crossing = sum(
                    sol.flows[cut.commodity, a]
                    for a, (u, w) in enumerate(sol.digraph.arcs)
                    if u in cut.members and w not in cut.members
                )
                assert crossing < sol.cover[cut.commodity, cut.vertex] - 1e-6, (i, cut)
                total_cuts += 1
        ok, witness = brute_force_cut_check(inst, final)
        assert ok, (i, witness)
    report(7, True, f"50 instances: every emitted cut ({total_cuts} total) was violated by "
                    f"its iterate and every final solution passes full cut enumeration")


def test_criterion_08_decomposition_identity(suite):
    rows = suite["lp_solutions"]
    assert len(rows) >= 430, "criteria 1-5 must run before this check"
    worst_err = 0.0
    for inst, lp_sol in rows:
        dec = decompose(inst, lp_sol)
        num_arcs = lp_sol.digraph.num_arcs
        for i, (s, t) in enumerate(inst.commodities):
            rebuilt = np.zeros(num_arcs)
            for element in dec.paths[i] + dec.cycles[i]:
                for a in element.arcs:
                    rebuilt[a] += element.weight
            err = float(np.abs(rebuilt - lp_sol.flows[i]).max()) if num_arcs else 0.0
            worst_err = max(worst_err, err)
            assert err <= 1e-6, (inst, i, err)
            assert len(dec.paths[i]) + len(dec.cycles[i]) <= num_arcs or num_arcs == 0
            if s != t:
                assert abs(dec.path_weight_sum(i) - 1.0) <= 1e-6, (inst, i)
    report(8, True, f"{len(rows)} LP solutions re-decomposed: per-arc reconstruction error "
                    f"<= 1e-6 (worst {worst_err:.2e}), element counts and weight sums in bounds")


def test_criterion_09_combiner():
    cfg_mixed = BenchConfig(mode="multipath", n_min=2, n_max=10, k_min=1, k_max=3,
                            extra_edges=6, depot_fraction=0.3, seed=909)
    cfg_depot = BenchConfig(mode="vrp", n_min=2, n_max=10, k_min=1, k_max=3,
                            extra_edges=6, seed=919)
    checked_depot = 0
    for i in range(100):
        inst = generate(cfg_depot, 90_000 + i) if i % 10 < 3 else generate(cfg_mixed, 91_000 + i)
        plan = prepare(inst)
        sol, rep = run_combiner(plan)
        ok, why = validate_solution(inst, sol)
        assert ok, (i, why)
        d_sol, _ = run_derandomized(plan)
        assert sol.cost <= d_sol.cost, (i, sol.cost, d_sol.cost)
        if all(s == t for s, t in inst.commodities):
            assert sol.cost == 2 * (inst.graph.n - inst.k), (i, sol.cost)
            checked_depot += 1
    report(9, True, f"100 instances: combiner output valid, never above the derandomized "
                    f"cost, and equal to 2(n-k) on all {checked_depot} all-depot instances")


def test_criterion_10_bench_reproducibility():
    cfg = BenchConfig(mode="multipath", count=8, n_min=3, n_max=9, k_min=1, k_max=3,
                      extra_edges=5, seed=1010, trials=5)
    first = report_json(run_bench(cfg))
    second = report_json(run_bench(cfg))
    report(10, first == second,
           f"two bench runs with a fixed seed produced byte-identical "
           f"{len(first)}-byte reports")
