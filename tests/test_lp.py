import numpy as np
import pytest

from multipath_tsp.errors import OracleLimitError
from multipath_tsp.exact import brute_force_cut_check, exact_opt
from multipath_tsp.graphs import BidirectedGraph, Graph
from multipath_tsp.instances import Instance
from multipath_tsp.lp import (
    EPS_LP,
    EPS_OBJ,
    EPS_SEP,
    FractionalSolution,
    LpModel,
    separate,
    solve_lp,
)

from conftest import random_instances


def crossing_flow(sol, i, members):
    return sum(
        sol.flows[i, a]
        for a, (u, w) in enumerate(sol.digraph.arcs)
        if u in members and w not in members
    )


class TestModelShape:
    def test_fig1_flow_columns(self, fig1):
        model = LpModel(fig1)
        assert model.num_flow_columns == 2 * 34
        # one coverage column per commodity and non-sink vertex
        assert model.num_columns == 68 + 2 * 8

    def test_single_vertex_no_columns(self):
        inst = Instance(Graph(1, []), ((0, 0),))
        model = LpModel(inst)
        assert model.num_columns == 0
        assert solve_lp(inst).objective == 0.0

    def test_depot_commodity_has_no_endpoint_rows(self):
        inst = Instance(Graph(2, [[0, 1]]), ((0, 0),))
        model = LpModel(inst)
        # conservation at both vertices, one coverage cap, one coverage row
        eq_rows = len(model._eq_rows)
        assert eq_rows == 2

    def test_dump_names(self, fig1):
        model = LpModel(fig1)
        text = model.dump_text()
        assert "x_0_0_4" in text
        assert "x_1_4_0" in text
        assert "z_0_0" in text
        assert ">=" in text and "minimize" in text


class TestSolveValues:
    def test_fig1_objective(self, fig1):
        sol = solve_lp(fig1)
        assert sol.objective == pytest.approx(8.0, abs=1e-6)

    def test_path_graph(self, path3):
        assert solve_lp(path3).objective == pytest.approx(2.0, abs=1e-7)

    def test_branch_vertex_tree(self):
        # covering the off-path leaf forces a there-and-back, so LP = 4
        inst = Instance(Graph(4, [[0, 1], [1, 2], [1, 3]]), ((0, 2),))
        assert solve_lp(inst).objective == pytest.approx(4.0, abs=1e-6)

    def test_relaxation_bound(self):
        for idx, inst in enumerate(random_instances("multipath", 40, seed=3, n_max=8)):
            lp = solve_lp(inst)
            opt = exact_opt(inst).cost
            assert lp.objective <= opt + EPS_OBJ, (idx, lp.objective, opt)


class TestSeparation:
    def test_integral_path_clean(self, path3):
        dig = BidirectedGraph(path3.graph)
        flows = np.zeros((1, dig.num_arcs))
        flows[0, dig.arc_id(0, 1)] = 1.0
        flows[0, dig.arc_id(1, 2)] = 1.0
        cover = np.zeros((1, 3))
        cover[0, 0] = cover[0, 1] = 1.0
        sol = FractionalSolution(path3, dig, flows, cover, 2.0)
        assert separate(path3, sol) == []

    def test_fig1_reference_optimum_clean(self, fig1, fig1_lp):
        assert separate(fig1, fig1_lp) == []
        ok, witness = brute_force_cut_check(fig1, fig1_lp)
        assert ok, witness

    def test_detached_cycle_detected(self, detached_cycle_case):
        inst, sol = detached_cycle_case
        cuts = separate(inst, sol)
        assert cuts, "expected violated cuts"
        for cut in cuts:
            assert cut.members == frozenset({2, 3, 4})
            violation = sol.cover[cut.commodity, cut.vertex] - crossing_flow(sol, cut.commodity, cut.members)
            assert violation == pytest.approx(1.0, abs=1e-9)
        ok, witness = brute_force_cut_check(inst, sol)
        assert not ok
        assert witness[0] == 0 and witness[1] in {2, 3, 4}

    def test_emitted_cuts_match_subset_enumeration(self, detached_cycle_case):
        inst, sol = detached_cycle_case
        cuts = separate(inst, sol)
        # every emitted cut must be the cheapest subset for its (i, v)
        others = [v for v in range(5) if v != 1]
        for cut in cuts:
            best = min(
                crossing_flow(sol, cut.commodity, frozenset(m))
                for bits in range(1 << len(others))
                if cut.vertex in (m := {others[j] for j in range(len(others)) if bits >> j & 1})
            )
            assert crossing_flow(sol, cut.commodity, cut.members) == pytest.approx(best, abs=1e-9)


class TestCuttingPlaneLoop:
    def test_audit_rounds(self):
        for inst in random_instances("multipath", 25, seed=9, n_max=9):
            seen = []

            def observe(sol, cuts):
                seen.append((sol, cuts))

            final = solve_lp(inst, on_round=observe)
            objectives = [s.objective for s, _ in seen]
            assert all(b >= a - EPS_LP for a, b in zip(objectives, objectives[1:]))
            # every emitted cut was violated by the iterate that produced it
            for sol, cuts in seen:
                for cut in cuts:
                    assert crossing_flow(sol, cut.commodity, cut.members) < (
                        sol.cover[cut.commodity, cut.vertex] - EPS_SEP
                    )
            # post-solve audit: the final solution separates clean
            assert separate(inst, final) == []
            assert seen[-1][1] == []

    def test_final_solution_satisfies_recorded_cuts(self):
        for inst in random_instances("multipath", 15, seed=21, n_max=9):
            sol = solve_lp(inst)
            for cut in sol.cuts:
                assert crossing_flow(sol, cut.commodity, cut.members) >= (
                    sol.cover[cut.commodity, cut.vertex] - EPS_LP - EPS_SEP
                )

    def test_objective_equals_flow_sum(self, fig1):
        sol = solve_lp(fig1)
        assert sol.objective == pytest.approx(float(sol.flows.sum()), abs=EPS_LP)

    def test_brute_force_check_limit(self):
        inst = Instance(Graph(17, [[i, i + 1] for i in range(16)]), ((0, 16),))
        sol = solve_lp(inst)
        with pytest.raises(OracleLimitError):
            brute_force_cut_check(inst, sol)

    def test_row_stores_match_the_solver_model(self, fig1):
        """Drive the model by hand: every iterate the solver returns must
        satisfy every row kept in `_eq_rows` and `_ge_rows`, and a repeated
        cut must be refused without moving the optimum."""
        for inst in [fig1] + random_instances("multipath", 15, seed=5, n_max=9):
            model = LpModel(inst)
            for _ in range(50):
                flows, cover, obj = model.solve()
                x = np.zeros(model.num_columns)
                for i in range(inst.k):
                    for a in range(model.digraph.num_arcs):
                        x[model.flow_col(i, a)] = flows[i, a]
                    for v in model.cover_vertices:
                        x[model.cover_col(i, v)] = cover[i, v]
                for coefs, b in model._eq_rows:
                    assert abs(sum(val * x[col] for col, val in coefs.items()) - b) <= EPS_LP
                for coefs, b in model._ge_rows:
                    assert sum(val * x[col] for col, val in coefs.items()) >= b - EPS_LP
                sol = FractionalSolution(inst, model.digraph, flows, cover, obj, tuple(model.cuts))
                found = separate(inst, sol)
                if not found:
                    break
                assert all([model.add_cut(cut) for cut in found])
            else:
                pytest.fail("cut loop did not settle within 50 rounds")
            if model.cuts:
                rows = len(model._ge_rows)
                assert model.add_cut(model.cuts[-1]) is False
                assert len(model._ge_rows) == rows
                assert model.solve()[2] == pytest.approx(obj, abs=EPS_LP)

    def test_lazy_loop_reaches_materialized_optimum(self):
        """Solving with every cut row written out up front must agree with
        the cutting-plane loop; certifies separation end to end."""
        import itertools

        from scipy.optimize import linprog

        def full_value(inst):
            model = LpModel(inst)
            ncol = model.num_columns
            if ncol == 0:
                return 0.0
            c = np.zeros(ncol)
            c[: model.num_flow_columns] = 1.0
            ge = list(model._ge_rows)
            n = inst.graph.n
            for i, (_, t) in enumerate(inst.commodities):
                others = [v for v in range(n) if v != t]
                for r in range(1, len(others) + 1):
                    for subset in itertools.combinations(others, r):
                        members = set(subset)
                        for v in subset:
                            if (i, v) not in model._cover_col:
                                continue
                            coefs = {model.cover_col(i, v): -1.0}
                            for a, (x, y) in enumerate(model.digraph.arcs):
                                if x in members and y not in members:
                                    coefs[model.flow_col(i, a)] = 1.0
                            ge.append((coefs, 0.0))

            def dense(rows):
                mat = np.zeros((len(rows), ncol))
                rhs = np.zeros(len(rows))
                for r, (coefs, b) in enumerate(rows):
                    for col, val in coefs.items():
                        mat[r, col] = val
                    rhs[r] = b
                return mat, rhs

            a_eq, b_eq = dense(model._eq_rows)
            a_ub, b_ub = dense(ge)
            res = linprog(c, A_ub=-a_ub, b_ub=-b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=(0, None), method="highs")
            assert res.status == 0, res.message
            return float(res.x[: model.num_flow_columns].sum())

        for inst in random_instances("multipath", 25, seed=47, n_max=6, k_max=2):
            lazy = solve_lp(inst).objective
            assert lazy == pytest.approx(full_value(inst), abs=1e-6)
