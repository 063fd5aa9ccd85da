import pathlib

import numpy as np
import pytest
from hypothesis import strategies as st

from multipath_tsp.bench import BenchConfig, generate
from multipath_tsp.graphs import BidirectedGraph, Graph
from multipath_tsp.instances import Instance, OrderedInstance, Solution
from multipath_tsp.lp import FractionalSolution

DATA = pathlib.Path(__file__).parent / "data"

FIG1_EDGES = [
    [0, 4], [0, 5], [0, 8], [1, 8], [1, 9], [4, 6], [4, 7], [5, 6], [5, 7],
    [5, 8], [6, 2], [7, 2], [7, 9], [8, 9], [9, 2], [4, 3], [6, 3],
]

# Reference optimal fractional flows on the fig1 fixture: commodity 0 ships
# 1/4 + 1/4 + 1/2 along three paths plus a 1/4 four-cycle, commodity 1 ships
# 1/2 + 1/2 along two paths; total cost 8.
FIG1_FLOWS = {
    0: {
        (0, 4): 0.25, (4, 6): 0.50, (6, 2): 0.25,
        (0, 5): 0.25, (5, 7): 0.50, (7, 2): 0.25,
        (0, 8): 0.50, (8, 9): 0.50, (9, 2): 0.50,
        (6, 5): 0.25, (7, 4): 0.25,
    },
    1: {
        (1, 8): 0.50, (8, 5): 0.50, (5, 6): 0.50, (6, 3): 0.50,
        (1, 9): 0.50, (9, 7): 0.50, (7, 4): 0.50, (4, 3): 0.50,
    },
}

# A valid 9-edge integral solution of the fixture; it is not optimal.
FIG1_NINE_EDGE_SOLUTION = Solution(
    walks=((0, 5, 7, 2), (1, 8, 9, 7, 4, 6, 3)),
    cost=9,
)

# A hand-written optimum of the fixture: two simple paths over FIG1_EDGES
# that cover all 10 vertices with 3 + 5 = 8 edges. It is optimal because
# every vertex that is not a source must be entered along some edge, so any
# solution costs at least n - k = 10 - 2 = 8.
FIG1_EIGHT_EDGE_SOLUTION = Solution(
    walks=((0, 5, 6, 2), (1, 8, 9, 7, 4, 3)),
    cost=8,
)


@pytest.fixture(scope="session")
def fig1() -> Instance:
    return Instance(Graph(10, FIG1_EDGES), ((0, 2), (1, 3)))


@pytest.fixture(scope="session")
def fig1_lp(fig1) -> FractionalSolution:
    """The reference fractional optimum as a FractionalSolution, hand-coded."""
    dig = BidirectedGraph(fig1.graph)
    flows = np.zeros((2, dig.num_arcs))
    for i, arcflows in FIG1_FLOWS.items():
        for (u, v), val in arcflows.items():
            flows[i, dig.arcs.index((u, v))] = val
    cover = np.zeros((2, 10))
    for v in range(10):
        if v in fig1.sinks:
            continue
        for i in range(2):
            cover[i, v] = flows[i, list(dig.out_arcs[v])].sum()
    return FractionalSolution(fig1, dig, flows, cover, float(flows.sum()))


@pytest.fixture(scope="session")
def path3() -> Instance:
    return Instance(Graph(3, [[0, 1], [1, 2]]), ((0, 2),))


@pytest.fixture(scope="session")
def detached_cycle_case() -> tuple[Instance, FractionalSolution]:
    """Flow satisfying all static rows whose coverage at {2,3,4} rides on a
    cycle that never reaches the sink; the cut machinery must reject it."""
    inst = Instance(Graph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [2, 4]]), ((0, 1),))
    dig = BidirectedGraph(inst.graph)
    flows = np.zeros((1, dig.num_arcs))
    for u, v in [(0, 1), (2, 3), (3, 4), (4, 2)]:
        flows[0, dig.arcs.index((u, v))] = 1.0
    cover = np.zeros((1, 5))
    for v in (0, 2, 3, 4):
        cover[0, v] = 1.0
    return inst, FractionalSolution(inst, dig, flows, cover, float(flows.sum()))


def random_instances(mode: str, count: int, seed: int, **overrides):
    defaults = dict(n_min=2, n_max=10, k_min=1, k_max=3, extra_edges=6, depot_fraction=0.3)
    if mode == "ordered":
        defaults.update(n_min=3, k_min=2, k_max=4)
    defaults.update(overrides)
    cfg = BenchConfig(mode=mode, seed=seed, **defaults)
    return [generate(cfg, seed * 7919 + i) for i in range(count)]


@st.composite
def shaped_graphs(draw, n_min: int = 1) -> Graph:
    """A star, complete graph, path or random tree on n_min to 8 vertices,
    relabelled by a drawn permutation."""
    n = draw(st.integers(n_min, 8))
    shape = draw(st.sampled_from(("star", "complete", "path", "tree")))
    if shape == "star":
        edges = [(0, v) for v in range(1, n)]
    elif shape == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif shape == "path":
        edges = [(v - 1, v) for v in range(1, n)]
    else:
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def shaped_instances(draw) -> Instance:
    """`shaped_graphs` with all-depot, shared-source or arbitrary commodities."""
    g = draw(shaped_graphs())
    vertex = st.integers(0, g.n - 1)
    kind = draw(st.sampled_from(("all-depot", "shared-source", "arbitrary")))
    if kind == "all-depot":
        pairs = [(v, v) for v in draw(st.lists(vertex, min_size=1, max_size=5, unique=True))]
    elif kind == "shared-source":
        s = draw(vertex)
        pairs = [(s, t) for t in draw(st.lists(vertex, min_size=1, max_size=5, unique=True))]
    else:
        pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=5, unique=True))
    return Instance(g, tuple(pairs))


@st.composite
def shaped_ordered_instances(draw) -> OrderedInstance:
    """`shaped_graphs` with a cyclic order of 2 to 5 distinct terminals."""
    g = draw(shaped_graphs(n_min=2))
    order = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=min(g.n, 5), unique=True))
    return OrderedInstance(g, tuple(order))
