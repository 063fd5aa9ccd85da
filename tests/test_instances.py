import json
import pickle

import pytest

from multipath_tsp.errors import InstanceError
from multipath_tsp.graphs import Graph
from multipath_tsp.instances import (
    Instance,
    OrderedInstance,
    Solution,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
    validate_solution,
)

from conftest import DATA, FIG1_NINE_EDGE_SOLUTION


class TestLoading:
    def test_fig1_file(self, fig1):
        inst = load_instance((DATA / "fig1.json").read_text())
        assert isinstance(inst, Instance)
        assert inst.graph.n == 10
        assert inst.graph.num_edges == 17
        assert inst.k == 2
        assert inst == fig1

    def test_round_trip_identity(self, fig1):
        text = (DATA / "fig1.json").read_text()
        inst = load_instance(text)
        assert load_instance(save_instance(inst)) == inst
        assert save_instance(load_instance(save_instance(inst))) == save_instance(inst)

    def test_ordered_round_trip(self):
        inst = load_instance((DATA / "fig1_ordered.json").read_text())
        assert isinstance(inst, OrderedInstance)
        assert inst.order == (0, 2, 1, 3)
        assert load_instance(save_instance(inst)) == inst

    def test_singleton_instance(self):
        inst = load_instance('{"n":1,"edges":[],"commodities":[[0,0]]}')
        assert inst.graph.n == 1 and inst.commodities == ((0, 0),)

    def test_malformed_json(self):
        with pytest.raises(InstanceError) as err:
            load_instance("{nope")
        assert err.value.code == "malformed-json"

    def test_self_loop_code(self):
        with pytest.raises(InstanceError) as err:
            load_instance('{"n":2,"edges":[[0,0]],"commodities":[[0,1]]}')
        assert err.value.code == "self-loop"

    def test_duplicate_edge_code(self):
        with pytest.raises(InstanceError) as err:
            load_instance('{"n":2,"edges":[[0,1],[1,0]],"commodities":[[0,1]]}')
        assert err.value.code == "duplicate-edge"

    def test_duplicate_commodity_code(self):
        with pytest.raises(InstanceError) as err:
            load_instance('{"n":2,"edges":[[0,1]],"commodities":[[0,1],[0,1]]}')
        assert err.value.code == "duplicate-commodity"

    def test_commodity_out_of_range(self):
        with pytest.raises(InstanceError) as err:
            load_instance('{"n":2,"edges":[[0,1]],"commodities":[[0,2]]}')
        assert err.value.code == "index-out-of-range"

    def test_disconnected_code(self):
        with pytest.raises(InstanceError) as err:
            load_instance('{"n":3,"edges":[[0,1]],"commodities":[[0,1]]}')
        assert err.value.code == "disconnected"

    def test_duplicate_terminal_code(self):
        with pytest.raises(InstanceError) as err:
            load_instance('{"n":3,"edges":[[0,1],[1,2]],"order":[0,1,0]}')
        assert err.value.code == "duplicate-terminal"

    def test_schema_code(self):
        with pytest.raises(InstanceError) as err:
            load_instance('{"n":2,"edges":[[0,1]]}')
        assert err.value.code == "schema"

    def test_error_pickle_round_trip(self):
        with pytest.raises(InstanceError) as info:
            load_instance('{"n":2,"edges":[[0,1]],"commodities":[]}')
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is InstanceError
        assert (copy.code, str(copy)) == (info.value.code, str(info.value))

    def test_solution_round_trip(self):
        sol = FIG1_NINE_EDGE_SOLUTION
        assert load_solution(save_solution(sol)) == sol
        payload = json.loads(save_solution(sol))
        assert payload["cost"] == 9


class TestOrderedDerivation:
    def test_derived_commodities_cycle(self):
        inst = OrderedInstance(Graph(4, [[0, 1], [1, 2], [2, 3], [0, 3]]), (0, 2, 3))
        assert inst.commodities == ((0, 2), (2, 3), (3, 0))
        assert inst.k == 3
        assert inst.sinks == {0, 2, 3}
        assert inst.terminals == {0, 2, 3}

    def test_two_terminals_allowed(self):
        inst = OrderedInstance(Graph(2, [[0, 1]]), (0, 1))
        assert inst.commodities == ((0, 1), (1, 0))


class TestValidation:
    def test_nine_edge_solution_ok(self, fig1):
        ok, why = validate_solution(fig1, FIG1_NINE_EDGE_SOLUTION)
        assert ok and why is None

    def test_uncovered_vertex(self, fig1):
        sol = Solution(((0, 5, 7, 2), (1, 8, 9, 7, 4, 3)), 8)  # misses vertex 6
        ok, why = validate_solution(fig1, sol)
        assert not ok and why == "uncovered vertex"

    def test_not_an_edge(self, fig1):
        sol = Solution(((0, 3, 2), (1, 8, 9, 7, 4, 6, 3)), 8)
        ok, why = validate_solution(fig1, sol)
        assert not ok and why == "not an edge"

    def test_wrong_endpoints(self, fig1):
        sol = Solution(((5, 0, 5, 7, 2), FIG1_NINE_EDGE_SOLUTION.walks[1]), 10)
        ok, why = validate_solution(fig1, sol)
        assert not ok and why == "wrong start"

    def test_cost_mismatch(self, fig1):
        sol = Solution(FIG1_NINE_EDGE_SOLUTION.walks, 10)
        ok, why = validate_solution(fig1, sol)
        assert not ok and why == "cost mismatch"

    def test_walk_count(self, fig1):
        sol = Solution((FIG1_NINE_EDGE_SOLUTION.walks[0],), 3)
        ok, why = validate_solution(fig1, sol)
        assert not ok and why == "walk count mismatch"

    def test_singleton_walk_for_depot_commodity(self):
        inst = Instance(Graph(2, [[0, 1]]), ((0, 0), (1, 1)))
        ok, why = validate_solution(inst, Solution(((0,), (1,)), 0))
        assert ok, why


NINE = FIG1_NINE_EDGE_SOLUTION.walks


class TestEveryRejection:
    """Each reason `validate_solution` gives, and which one wins when a
    solution fails several ways: the walk count first, then each walk in order
    (empty, start, end, steps), then coverage, then the cost."""

    @pytest.mark.parametrize("walks, cost, why", [
        (((), NINE[1]), 6, "empty walk"),
        (((0, 5, 7), NINE[1]), 8, "wrong end"),
        (((0, -1, 5, 7, 2), NINE[1]), 10, "not an edge"),
        (((0, 5, 7, 2, 10, 2), NINE[1]), 11, "not an edge"),
        (((0, 5, 5, 7, 2), NINE[1]), 10, "not an edge"),
        # two failures: the first check in the order above wins
        (((5, 0, 3), NINE[1]), 8, "wrong start"),
        (((0, 3, 6), NINE[1]), 8, "wrong end"),
        (((0, 3, 2), (5, 8, 9, 7, 4, 6, 3)), 8, "not an edge"),
        (((0, 5, 7, 2), ()), 3, "empty walk"),
        (((0, 3, 2), (1, 8, 9, 7, 4, 3)), 7, "not an edge"),
        (((0, 5, 7, 2), (1, 8, 9, 7, 4, 3)), 99, "uncovered vertex"),
        (((0, -1, 2),), 2, "walk count mismatch"),
    ])
    def test_reason(self, fig1, walks, cost, why):
        assert validate_solution(fig1, Solution(walks, cost)) == (False, why)

    def test_an_edge_walked_against_its_listed_orientation_is_accepted(self, fig1):
        # fig1 lists [0, 5] and [7, 2]; this walk also steps 5 -> 0 and 2 -> 7
        walks = ((0, 5, 0, 5, 7, 2, 7, 2), NINE[1])
        assert validate_solution(fig1, Solution(walks, 13)) == (True, None)

    def test_an_out_of_range_vertex_never_counts_as_covered(self, fig1):
        # vertex 10 would make up the count of the missed vertex 6, but no
        # edge reaches it
        walks = ((0, 5, 7, 2), (1, 8, 9, 7, 4, 10, 3))
        assert validate_solution(fig1, Solution(walks, 8)) == (False, "not an edge")
