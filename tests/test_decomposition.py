import numpy as np
import pytest

from multipath_tsp.decomposition import EPS_DEC, decompose, path_mass
from multipath_tsp.graphs import BidirectedGraph
from multipath_tsp.instances import Instance
from multipath_tsp.graphs import Graph
from multipath_tsp.lp import FractionalSolution, solve_lp

from conftest import random_instances


def reconstruction_error(sol, dec):
    worst = 0.0
    for i in range(sol.instance.k):
        rebuilt = np.zeros(sol.digraph.num_arcs)
        for element in dec.paths[i] + dec.cycles[i]:
            for a in element.arcs:
                rebuilt[a] += element.weight
        worst = max(worst, float(np.abs(rebuilt - sol.flows[i]).max()))
    return worst


def outflow(sol):
    """Per-commodity outflow of every vertex, summed over its out-arcs."""
    out = np.zeros((sol.instance.k, sol.instance.graph.n))
    for v, arcs in enumerate(sol.digraph.out_arcs):
        out[:, v] = sol.flows[:, list(arcs)].sum(axis=1)
    return out


def assert_invariants(inst, sol, dec):
    num_arcs = sol.digraph.num_arcs
    assert reconstruction_error(sol, dec) <= EPS_DEC
    for i, (s, t) in enumerate(inst.commodities):
        assert len(dec.paths[i]) + len(dec.cycles[i]) <= num_arcs
        if s != t:
            assert abs(sum(p.weight for p in dec.paths[i]) - 1.0) <= EPS_DEC
        else:
            assert dec.paths[i] == ()
        for p in dec.paths[i]:
            assert p.vertices[0] == s and p.vertices[-1] == t
            assert len(set(p.vertices)) == len(p.vertices), "path not simple"
            assert p.weight > 0
        for c in dec.cycles[i]:
            assert c.vertices[0] == c.vertices[-1]
            assert c.weight > 0
    pm = path_mass(inst, dec)
    out = outflow(sol)
    for i, (s, t) in enumerate(inst.commodities):
        assert pm[i, t] == 0.0
        for v in range(inst.graph.n):
            assert -1e-12 <= pm[i, v] <= out[i, v] + EPS_DEC
            assert pm[i, v] <= 1.0 + EPS_DEC
        # expected sampled length telescopes into the per-vertex masses
        expected_len = sum(p.weight * len(p.arcs) for p in dec.paths[i])
        assert sum(pm[i, v] for v in range(inst.graph.n)) == pytest.approx(expected_len, abs=EPS_DEC)


class TestHandFlows:
    def test_integral_single_path(self, path3):
        dig = BidirectedGraph(path3.graph)
        flows = np.zeros((1, dig.num_arcs))
        flows[0, dig.arcs.index((0, 1))] = 1.0
        flows[0, dig.arcs.index((1, 2))] = 1.0
        sol = FractionalSolution(path3, dig, flows, np.zeros((1, 3)), 2.0)
        dec = decompose(path3, sol)
        assert len(dec.paths[0]) == 1 and not dec.cycles[0]
        assert dec.paths[0][0].weight == pytest.approx(1.0)
        assert dec.paths[0][0].vertices == (0, 1, 2)

    def test_fig1_reference_split(self, fig1, fig1_lp):
        """Greedy extraction reproduces the reference split of the fixture flows:
        three paths (1/4, 1/4, 1/2) plus one 4-cycle for the first commodity,
        two half-weight paths for the second."""
        dec = decompose(fig1, fig1_lp)
        weights0 = [round(p.weight, 9) for p in dec.paths[0]]
        assert sorted(weights0) == [0.25, 0.25, 0.5]
        assert [p.vertices for p in dec.paths[0]] == [(0, 4, 6, 2), (0, 5, 7, 2), (0, 8, 9, 2)]
        assert len(dec.cycles[0]) == 1
        cyc = dec.cycles[0][0]
        assert cyc.weight == pytest.approx(0.25)
        assert cyc.vertices == (4, 6, 5, 7, 4)
        assert [p.vertices for p in dec.paths[1]] == [(1, 8, 5, 6, 3), (1, 9, 7, 4, 3)]
        assert [p.weight for p in dec.paths[1]] == [pytest.approx(0.5), pytest.approx(0.5)]
        assert_invariants(fig1, fig1_lp, dec)

    def test_zero_flow_depot_commodity(self):
        inst = Instance(Graph(2, [[0, 1]]), ((0, 1), (1, 1)))
        sol = solve_lp(inst)
        dec = decompose(inst, sol)
        assert dec.paths[1] == ()

    def test_detached_cycle_split(self, detached_cycle_case):
        inst, sol = detached_cycle_case
        dec = decompose(inst, sol)
        assert len(dec.paths[0]) == 1
        assert dec.paths[0][0].vertices == (0, 1)
        assert len(dec.cycles[0]) == 1
        assert dec.cycles[0][0].weight == pytest.approx(1.0)
        assert set(dec.cycles[0][0].vertices) == {2, 3, 4}

    def test_source_reentry_caps_path_at_surplus(self):
        """Flow re-entering the source through 3->4->0 must stay behind as a
        cycle, not ride along on the second path and strand a sink-to-source
        remainder."""
        inst = Instance(Graph(5, [[0, 1], [0, 2], [1, 3], [2, 3], [3, 4], [0, 4]]), ((0, 3),))
        dig = BidirectedGraph(inst.graph)
        flows = np.zeros((1, dig.num_arcs))
        for u, v in [(0, 1), (1, 3), (3, 4), (4, 0)]:
            flows[0, dig.arcs.index((u, v))] = 0.5
        for u, v in [(0, 2), (2, 3)]:
            flows[0, dig.arcs.index((u, v))] = 1.0
        sol = FractionalSolution(inst, dig, flows, np.zeros((1, 5)), float(flows.sum()))
        dec = decompose(inst, sol)
        assert [p.vertices for p in dec.paths[0]] == [(0, 1, 3), (0, 2, 3)]
        assert [p.weight for p in dec.paths[0]] == [pytest.approx(0.5), pytest.approx(0.5)]
        assert [c.vertices for c in dec.cycles[0]] == [(0, 2, 3, 4, 0)]
        assert dec.cycles[0][0].weight == pytest.approx(0.5)
        assert_invariants(inst, sol, dec)


class TestPathMass:
    def test_single_path(self, path3):
        dig = BidirectedGraph(path3.graph)
        flows = np.zeros((1, dig.num_arcs))
        flows[0, dig.arcs.index((0, 1))] = 1.0
        flows[0, dig.arcs.index((1, 2))] = 1.0
        sol = FractionalSolution(path3, dig, flows, np.zeros((1, 3)), 2.0)
        pm = path_mass(path3, decompose(path3, sol))
        assert pm[0, 0] == pytest.approx(1.0)
        assert pm[0, 1] == pytest.approx(1.0)
        assert pm[0, 2] == 0.0

    def test_fig1_lower_left_inner_vertex(self, fig1, fig1_lp):
        pm = path_mass(fig1, decompose(fig1, fig1_lp))
        assert pm[0, 8] == pytest.approx(0.5)  # only the half-weight path passes through

    def test_matches_direct_resummation(self, fig1, fig1_lp):
        dec = decompose(fig1, fig1_lp)
        pm = path_mass(fig1, dec)
        for i, (_, t) in enumerate(fig1.commodities):
            for v in range(10):
                expect = sum(p.weight for p in dec.paths[i] if v in p.vertices and v != t)
                assert pm[i, v] == pytest.approx(expect, abs=1e-12)


class TestOnLpSolutions:
    def test_invariants_over_random_instances(self):
        for inst in random_instances("multipath", 50, seed=13, n_max=10):
            sol = solve_lp(inst)
            dec = decompose(inst, sol)
            assert_invariants(inst, sol, dec)

    def test_deterministic(self, fig1):
        sol = solve_lp(fig1)
        d1 = decompose(fig1, sol)
        d2 = decompose(fig1, sol)
        assert d1.paths == d2.paths and d1.cycles == d2.cycles
