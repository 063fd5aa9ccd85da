import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

import multipath_tsp.lp as lp
from multipath_tsp.errors import InternalError, LpError, OracleLimitError
from multipath_tsp.exact import exact_opt
from multipath_tsp.graphs import BidirectedGraph, Graph
from multipath_tsp.instances import Instance
from multipath_tsp.lp import (
    DUAL_EDGE_WEIGHTS,
    EPS_LP,
    EPS_OBJ,
    EPS_SEP,
    CutConstraint,
    FractionalSolution,
    HighsModel,
    LpModel,
    _leaving_arcs,
    separate,
    solve_lp,
)

from conftest import DATA, random_instances
from oracles import brute_force_cut_check


def crossing_flow(sol, i, members):
    return sum(
        sol.flows[i, a]
        for a, (u, w) in enumerate(sol.digraph.arcs)
        if u in members and w not in members
    )


def with_lifts(inst, found):
    """Every cut (i, v, U) found, then (j, v, U) for each other commodity j
    whose sink lies outside U, in (cut, commodity) order."""
    return list(found) + [
        CutConstraint(j, cut.vertex, cut.members)
        for cut in found
        for j, (_, t) in enumerate(inst.commodities)
        if j != cut.commodity and t not in cut.members
    ]


def cover_vertices(inst):
    return [v for v in range(inst.graph.n) if v not in inst.sinks]


def expected_rows(inst, cuts=()):
    """The LP's rows written out from its definition, in the order the model
    must hold them, as ({column: coefficient}, lower, upper).

    Columns: flow of commodity i on arc a at i*num_arcs + a, then z[i, v]
    commodity by commodity over the non-sink vertices in increasing order.
    """
    dig = BidirectedGraph(inst.graph)
    num_arcs = dig.num_arcs
    covered = cover_vertices(inst)

    def x(i, a):
        return i * num_arcs + a

    def z(i, v):
        return inst.k * num_arcs + i * len(covered) + covered.index(v)

    def balance(i, v, b, sign):  # sign * (outflow - inflow) = b
        row = {x(i, a): float(sign) for a in dig.out_arcs[v]}
        row.update({x(i, a): -float(sign) for a in dig.in_arcs[v]})
        return row, b, b

    def escapes(i, v, members):  # x_i(arcs leaving members) - z[i, v] >= 0
        row = {x(i, a): 1.0 for a, (u, w) in enumerate(dig.arcs) if u in members and w not in members}
        row[z(i, v)] = -1.0
        return row, 0.0, math.inf

    eq, ge = [], []
    for i, (s, t) in enumerate(inst.commodities):
        for v in range(inst.graph.n):
            if (s == t or v not in (s, t)) and (dig.out_arcs[v] or dig.in_arcs[v]):
                eq.append(balance(i, v, 0.0, 1))
        if s != t:
            eq.append(balance(i, s, 1.0, 1))
            eq.append(balance(i, t, 1.0, -1))
        # z[i, v] <= outflow of v: the arcs leaving {v} are v's out-arcs
        ge += [escapes(i, v, {v}) for v in covered]
    ge += [({z(i, v): 1.0 for i in range(inst.k)}, 1.0, math.inf) for v in covered]
    ge += [escapes(c.commodity, c.vertex, c.members) for c in cuts]
    return eq + ge


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
        # columns: x on arc (0,1), x on arc (1,0), z at the non-sink vertex 1;
        # conservation at both vertices, one coverage cap, one coverage row
        assert model.rows() == [
            ({0: 1.0, 1: -1.0}, 0.0, 0.0),
            ({1: 1.0, 0: -1.0}, 0.0, 0.0),
            ({2: -1.0, 1: 1.0}, 0.0, math.inf),
            ({2: 1.0}, 1.0, math.inf),
        ]

    def test_dump_text_of_path3(self, path3):
        """Written out by hand from the LP definition. Arcs of 0-1-2 are
        0_1, 1_0, 1_2, 2_1; only the sink 2 lacks a z column. Conservation
        holds at the inner vertex 1 only, then the source row at 0 and the
        sink row at 2; then z <= outflow at 0 and 1; then coverage of 0 and 1."""
        assert LpModel(path3).dump_text() == (
            "minimize\n"
            "  + x_0_0_1 + x_0_1_0 + x_0_1_2 + x_0_2_1\n"
            "subject to\n"
            "  - x_0_0_1 + x_0_1_0 + x_0_1_2 - x_0_2_1 = 0\n"
            "  + x_0_0_1 - x_0_1_0 = 1\n"
            "  + x_0_1_2 - x_0_2_1 = 1\n"
            "  + x_0_0_1 - z_0_0 >= 0\n"
            "  + x_0_1_0 + x_0_1_2 - z_0_1 >= 0\n"
            "  + z_0_0 >= 1\n"
            "  + z_0_1 >= 1\n"
            "bounds: all variables >= 0\n"
        )

    def test_dump_names(self, fig1):
        model = LpModel(fig1)
        text = model.dump_text()
        assert "x_0_0_4" in text
        assert "x_1_4_0" in text
        assert "z_0_0" in text
        assert ">=" in text and "minimize" in text


class TestHighsOptions:
    def test_dual_pricing_is_devex(self, path3):
        _, value = LpModel(path3)._highs.getOptionValue("simplex_dual_edge_weight_strategy")
        assert value == DUAL_EDGE_WEIGHTS == 1

    def test_rejected_option_raises(self, path3, monkeypatch):
        # HiGHS keeps its old setting on an out-of-range value (the range is -1..2)
        monkeypatch.setattr(lp, "DUAL_EDGE_WEIGHTS", 3)
        with pytest.raises(InternalError):
            LpModel(path3)

    def test_rejected_presolve_value_raises(self):
        # HiGHS answers kError for a value outside off, choose and on
        with pytest.raises(InternalError):
            HighsModel(presolve="bogus")

    def test_columns_and_rows_read_back(self):
        # the matching LP's order: empty rows, then columns bringing their entries in CSC form, then rows
        model = HighsModel()
        model._add_rows([([], [], 1.0, 1.0), ([], [], 2.0, 2.0)])
        model._add_cols(np.ones(3), np.array([1.0, 1.0, math.inf]), np.array([0, 2, 3], dtype=np.int32),
                        np.array([0, 1, 1], dtype=np.int32), np.array([1.0, -1.0, 3.0]))
        model._add_rows([([0, 2], [1.0, 2.0], 0.0, math.inf)])
        assert model.rows() == [
            ({0: 1.0}, 1.0, 1.0),
            ({0: -1.0, 1: 3.0}, 2.0, 2.0),
            ({0: 1.0, 2: 2.0}, 0.0, math.inf),
        ]
        assert model._optimum("tiny LP", LpError).tolist() == [1.0, 1.0, 0.0]
        model._add_rows([([0], [1.0], 2.0, math.inf)])  # x0 >= 2 against row 0's x0 = 1: infeasible
        with pytest.raises(LpError, match="tiny LP not optimal"):
            model._optimum("tiny LP", LpError)

    def test_missing_binding_names_the_scipy_version(self):
        # the binding is a private scipy module; where a release lacks it, the
        # package's import says which scipy is installed and which it is tested on
        code = (
            "import sys, scipy\n"
            "sys.modules['scipy.optimize._highspy._core'] = None\n"
            "try:\n"
            "    import multipath_tsp\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(not (f'scipy {scipy.__version__} ' in str(exc) and 'scipy 1.15 and later' in str(exc)))\n"
            "sys.exit(2)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr


def run_python(code):
    """Exit status 0 of `code` in a fresh interpreter, else the failure with its output."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


class TestScipyLoad:
    """lp.py loads scipy's HiGHS binding and assignment solver from their files, never scipy.optimize."""

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # in that interpreter the fig1 LP solves to 8 (proven in tests/conftest.py), and the
        # join of fig1's 0 and 2 is one pair, which the assignment bound certifies
        run_python(
            "import sys\n"
            "import multipath_tsp.cli\n"
            "from multipath_tsp import lp, parity\n"
            "from multipath_tsp.instances import load_instance\n"
            f"inst = load_instance(open({str(DATA / 'fig1.json')!r}).read())\n"
            "assert abs(lp.solve_lp(inst).objective - 8) <= lp.EPS_OBJ\n"
            "calls = []\n"
            "parity.linear_sum_assignment = lambda w: calls.append(w) or lp.linear_sum_assignment(w)\n"
            "def refuse(weight):\n"
            "    raise AssertionError('the assignment bound did not certify the join')\n"
            "parity.odd_set_pairs = refuse\n"
            "assert parity.min_tjoin(inst.graph, [0, 2]).cost == 3 and len(calls) == 1\n"
            "loaded = {'scipy.optimize', 'scipy.optimize._highspy._core', 'scipy.optimize._lsap'} & sys.modules.keys()\n"
            "sys.exit(sorted(loaded) or None)\n"
        )

    @pytest.mark.parametrize("form", [
        "import scipy.optimize._highspy._core as c\nassert c._Highs is lp._Highs",
        "from scipy.optimize._highspy import _core\nassert _core._Highs is lp._Highs",
        "import scipy.optimize._highspy._core\nassert scipy.optimize._highspy._core._Highs is lp._Highs",
        "from scipy.optimize import linear_sum_assignment\nassert linear_sum_assignment is lp.linear_sum_assignment",
        "import scipy.optimize._lsap\nassert scipy.optimize._lsap.linear_sum_assignment is lp.linear_sum_assignment",
        "import scipy.optimize\n"
        "r = scipy.optimize.linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method='highs')\n"
        "assert r.status == 0 and r.fun == 1",
    ])
    def test_scipy_optimize_imports_after_the_package(self, form):
        # the modules lp.py loaded are the ones a later import of scipy.optimize finds
        run_python("import multipath_tsp.lp as lp\n" + form)

    def test_package_reuses_scipy_optimize_imported_first(self):
        run_python(
            "import scipy.optimize\n"
            "from scipy.optimize._highspy import _core\n"
            "from scipy.optimize import linear_sum_assignment\n"
            "import multipath_tsp.lp as lp\n"
            "assert lp._core is _core and lp.linear_sum_assignment is linear_sum_assignment\n"
        )

    def test_scipy_without_the_compiled_files(self, tmp_path):
        # a scipy tree whose compiled modules are not where lp.py looks fails with the coded error
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "0.0"\n')
        run_python(
            "import sys\n"
            f"sys.path.insert(0, {str(tmp_path)!r})\n"
            "try:\n"
            "    import multipath_tsp\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(not ('scipy 0.0 ' in str(exc) and 'scipy 1.15 and later' in str(exc)))\n"
            "sys.exit(2)\n"
        )


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
        flows[0, dig.arcs.index((0, 1))] = 1.0
        flows[0, dig.arcs.index((1, 2))] = 1.0
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
        """Drive the model by hand: the rows read back from HiGHS must equal
        the LP written out from its definition and the cuts added so far
        (before the first solve HiGHS returns them row-wise, after it
        column-wise), every iterate must satisfy them, and a repeated cut
        must be refused without moving the optimum."""
        for inst in [fig1] + random_instances("multipath", 15, seed=5, n_max=9):
            model = LpModel(inst)
            assert model.rows() == expected_rows(inst)
            covered = cover_vertices(inst)
            for _ in range(50):
                flows, cover, obj = model.solve()
                rows = model.rows()
                assert rows == expected_rows(inst, model.cuts)
                x = np.concatenate([flows.ravel(), cover[:, covered].ravel()])
                for coefs, lower, upper in rows:
                    value = sum(val * x[col] for col, val in coefs.items())
                    assert lower - EPS_LP <= value <= upper + EPS_LP
                sol = FractionalSolution(inst, model.digraph, flows, cover, obj, tuple(model.cuts))
                found = separate(inst, sol)
                if not found:
                    break
                assert model.add_cuts(found) == len(found)
            else:
                pytest.fail("cut loop did not settle within 50 rounds")
            if model.cuts:
                assert model.add_cuts([model.cuts[-1]]) == 0
                assert model.rows() == expected_rows(inst, model.cuts)
                assert model.solve()[2] == pytest.approx(obj, abs=EPS_LP)

    def test_lazy_loop_reaches_materialized_optimum(self):
        """Solving with every cut row written out up front, through `linprog`
        on rows built from the LP definition, must agree with the
        cutting-plane loop; certifies separation end to end."""
        from scipy.optimize import linprog

        def full_value(inst):
            num_flow = inst.k * BidirectedGraph(inst.graph).num_arcs
            ncol = num_flow + inst.k * len(cover_vertices(inst))
            if ncol == 0:
                return 0.0
            cuts = []
            for i, (_, t) in enumerate(inst.commodities):
                others = [v for v in range(inst.graph.n) if v != t]
                for r in range(1, len(others) + 1):
                    for subset in itertools.combinations(others, r):
                        members = frozenset(subset)
                        cuts += [CutConstraint(i, v, members) for v in subset if v not in inst.sinks]
            rows = expected_rows(inst, cuts)
            mat = np.zeros((len(rows), ncol))
            for r, (coefs, _, _) in enumerate(rows):
                for col, val in coefs.items():
                    mat[r, col] = val
            lower = np.array([lo for _, lo, _ in rows])
            eq = np.array([lo == up for _, lo, up in rows])
            c = np.zeros(ncol)
            c[:num_flow] = 1.0
            res = linprog(c, A_ub=-mat[~eq], b_ub=-lower[~eq], A_eq=mat[eq], b_eq=lower[eq],
                          bounds=(0, None), method="highs")
            assert res.status == 0, res.message
            return float(res.x[:num_flow].sum())

        for inst in random_instances("multipath", 25, seed=47, n_max=6, k_max=2):
            lazy = solve_lp(inst).objective
            assert lazy == pytest.approx(full_value(inst), abs=1e-6)


class TestLiftedCuts:
    def test_every_row_is_in_the_cut_family(self):
        """Every recorded row (i, v, U) is satisfied by every walk solution:
        v is a non-sink inside U and commodity i's sink lies outside U."""
        for mode in ("multipath", "vrp", "ordered"):
            for inst in random_instances(mode, 15, seed=31, n_max=9):
                sol = solve_lp(inst)
                for cut in sol.cuts:
                    sink = inst.commodities[cut.commodity][1]
                    assert cut.vertex in cut.members, (mode, cut)
                    assert sink not in cut.members, (mode, cut)
                    assert cut.vertex not in inst.sinks, (mode, cut)

    def test_rows_are_each_round_separated_cuts_then_lifts(self):
        """The recorded rows are, round by round, the separated cuts in
        separation order and then their lifts, each row once; `on_round`
        still sees only the separated cuts."""
        for mode in ("multipath", "vrp", "ordered"):
            for inst in random_instances(mode, 10, seed=37, n_max=9):
                expected = []

                def observe(sol, found):
                    assert list(sol.cuts) == expected
                    assert found == separate(inst, sol)
                    expected.extend([c for c in dict.fromkeys(with_lifts(inst, found)) if c not in expected])

                sol = solve_lp(inst, on_round=observe)
                assert list(sol.cuts) == expected

    def test_add_cuts_appends_each_round_in_order(self, fig1):
        """Drive the model by hand: each round appends the separated cuts and
        then their lifts, skipping rows already present (also within the
        same call), and the rows read back equal the LP written out from its
        definition."""
        for inst in [fig1] + random_instances("multipath", 10, seed=41, n_max=9, k_min=2, k_max=4):
            model = LpModel(inst)
            cuts = []
            for _ in range(4):
                flows, cover, obj = model.solve()
                sol = FractionalSolution(inst, model.digraph, flows, cover, obj, tuple(model.cuts))
                found = separate(inst, sol)
                if not found:
                    break
                batch = with_lifts(inst, found) + found[:1]
                new = [c for c in dict.fromkeys(batch) if c not in cuts]
                assert model.add_cuts(batch) == len(new)
                cuts += new
                assert model.cuts == cuts
                assert model.rows() == expected_rows(inst, cuts)
            assert model.add_cuts(cuts) == 0
            assert model.rows() == expected_rows(inst, cuts)

    def test_leaving_arcs_match_the_all_arc_scan(self):
        rng = np.random.default_rng(43)
        for inst in random_instances("multipath", 20, seed=43, n_max=12):
            dig = BidirectedGraph(inst.graph)
            for _ in range(10):
                members = frozenset(np.flatnonzero(rng.random(inst.graph.n) < 0.4).tolist())
                scan = [a for a, (u, w) in enumerate(dig.arcs) if u in members and w not in members]
                assert _leaving_arcs(dig, members) == scan
