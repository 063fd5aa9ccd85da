"""Problem instances, solution validation, and the on-disk JSON format.

Instance JSON:  {"n": int, "edges": [[u,v], ...], "commodities": [[s,t], ...]}
Ordered JSON:   {"n": int, "edges": [[u,v], ...], "order": [o1, ..., ok]}
Solution JSON:  {"walks": [[v, ...], ...], "cost": int}

All files are UTF-8 JSON without comments. Loaded objects are immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .errors import InstanceError
from .graphs import Graph, is_connected


class AnyInstance:
    """What every instance type shares: a connected `graph` and its
    `commodities`, from which k, sources, sinks and terminals derive.

    The solvers, the LP and the oracle read only these, so they take either
    type directly.
    """

    graph: Graph
    commodities: tuple[tuple[int, int], ...]

    @cached_property
    def k(self) -> int:
        return len(self.commodities)

    @cached_property
    def sources(self) -> frozenset[int]:
        return frozenset(s for s, _ in self.commodities)

    @cached_property
    def sinks(self) -> frozenset[int]:
        return frozenset(t for _, t in self.commodities)

    @cached_property
    def terminals(self) -> frozenset[int]:
        return self.sources | self.sinks


@dataclass(frozen=True)
class Instance(AnyInstance):
    """A connected unit-cost graph plus k source-sink pairs.

    Pairs must be pairwise distinct as tuples; s_i == t_i is allowed and
    marks a depot-style commodity.
    """

    graph: Graph
    commodities: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.commodities) < 1:
            raise InstanceError("schema", "at least one commodity required")
        seen = set()
        for s, t in self.commodities:
            if not (0 <= s < self.graph.n and 0 <= t < self.graph.n):
                raise InstanceError("index-out-of-range", f"commodity ({s},{t}) outside vertex range")
            if (s, t) in seen:
                raise InstanceError("duplicate-commodity", f"duplicate commodity ({s},{t})")
            seen.add((s, t))
        if not is_connected(self.graph):
            raise InstanceError("disconnected", "instance graph must be connected")


@dataclass(frozen=True)
class OrderedInstance(AnyInstance):
    """A connected unit-cost graph plus a cyclic sequence of distinct
    terminals; commodity i runs from o_i to o_{i+1}, cyclically."""

    graph: Graph
    order: tuple[int, ...]

    def __post_init__(self):
        if len(self.order) < 2:
            raise InstanceError("schema", "ordered instances need at least two terminals")
        seen = set()
        for o in self.order:
            if not 0 <= o < self.graph.n:
                raise InstanceError("index-out-of-range", f"terminal {o} outside vertex range")
            if o in seen:
                raise InstanceError("duplicate-terminal", f"terminal {o} repeated in order")
            seen.add(o)
        if not is_connected(self.graph):
            raise InstanceError("disconnected", "instance graph must be connected")

    @cached_property
    def commodities(self) -> tuple[tuple[int, int], ...]:
        k = len(self.order)
        return tuple((self.order[i], self.order[(i + 1) % k]) for i in range(k))

    def to_instance(self) -> Instance:
        """The same commodities as a plain Instance. Nothing in the package
        needs it; perfbench/make_reference.py still calls it."""
        return Instance(self.graph, self.commodities)


@dataclass(frozen=True)
class Solution:
    """k walks (vertex sequences), one per commodity, plus their edge count."""

    walks: tuple[tuple[int, ...], ...]
    cost: int


def validate_solution(inst: AnyInstance, sol: Solution) -> tuple[bool, str | None]:
    """Check all Solution invariants; returns (ok, first violated condition)."""
    g = inst.graph
    if len(sol.walks) != inst.k:
        return False, "walk count mismatch"
    arcs = g.arcs
    covered: set[int] = set()
    cost = 0
    for walk, (s, t) in zip(sol.walks, inst.commodities):
        if len(walk) == 0:
            return False, "empty walk"
        if walk[0] != s:
            return False, "wrong start"
        if walk[-1] != t:
            return False, "wrong end"
        if not arcs.issuperset(zip(walk, walk[1:])):
            return False, "not an edge"
        covered.update(walk)
        cost += len(walk) - 1
    # every walk vertex is now an edge end or its commodity's source, so in
    # 0..n-1, and the walks cover all n vertices exactly if n are covered
    if len(covered) != g.n:
        return False, "uncovered vertex"
    if cost != sol.cost:
        return False, "cost mismatch"
    return True, None


def read_text(path: str) -> str:
    """A file's contents; bytes that are not UTF-8 are malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InstanceError("malformed-json", f"{path} is not UTF-8 text: {exc}") from exc


def _is_int(x) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError("malformed-json", f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError("schema", "top level must be a JSON object")
    return data


def _parse_graph(data: dict) -> Graph:
    n = data.get("n")
    edges = data.get("edges")
    if not _is_int(n) or not isinstance(edges, list):
        raise InstanceError("schema", 'expected integer "n" and list "edges"')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            raise InstanceError("schema", f"edge entries must be [u, v] integer pairs, got {e!r}")
    return Graph(n, edges)


def load_instance(text: str) -> AnyInstance:
    """Parse instance JSON into an Instance or OrderedInstance."""
    data = _parse_json(text)
    graph = _parse_graph(data)
    if "order" in data:
        if "commodities" in data:
            raise InstanceError("schema", 'give "commodities" or "order", not both')
        order = data["order"]
        if not (isinstance(order, list) and all(_is_int(o) for o in order)):
            raise InstanceError("schema", '"order" must be a list of integers')
        return OrderedInstance(graph, tuple(order))
    commodities = data.get("commodities")
    if not isinstance(commodities, list):
        raise InstanceError("schema", 'expected "commodities" or "order"')
    for c in commodities:
        if not (isinstance(c, list) and len(c) == 2 and all(_is_int(x) for x in c)):
            raise InstanceError("schema", f"commodity entries must be [s, t] integer pairs, got {c!r}")
    return Instance(graph, tuple((c[0], c[1]) for c in commodities))


def save_instance(inst: AnyInstance) -> str:
    data: dict = {"n": inst.graph.n, "edges": [list(e) for e in inst.graph.edges]}
    if isinstance(inst, OrderedInstance):
        data["order"] = list(inst.order)
    else:
        data["commodities"] = [list(c) for c in inst.commodities]
    return json.dumps(data, sort_keys=True)


def load_solution(text: str) -> Solution:
    data = _parse_json(text)
    walks = data.get("walks")
    cost = data.get("cost")
    if not isinstance(walks, list) or not _is_int(cost):
        raise InstanceError("schema", 'expected list "walks" and integer "cost"')
    for w in walks:
        if not (isinstance(w, list) and all(_is_int(v) for v in w)):
            raise InstanceError("schema", "walks must be lists of integers")
    return Solution(tuple(tuple(w) for w in walks), cost)


def save_solution(sol: Solution) -> str:
    return json.dumps({"walks": [list(w) for w in sol.walks], "cost": sol.cost}, sort_keys=True)
