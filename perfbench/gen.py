"""The benchmark's own seeded instance generator.

Each workload is a fixed ladder of base instances, one per rung. A rung
fixes the instance shape (vertex count, commodity or terminal count, extra
edge count); the base instance of a rung is drawn once from the ladder seed
in spec.json, so every run measures the same instances.

Only the program's `Graph`, `Instance` and `OrderedInstance` constructors
are used, so an edit to the program's own generator never changes a
workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from multipath_tsp.graphs import Graph
from multipath_tsp.instances import Instance, OrderedInstance

DEPOT_FRACTION = 0.2  # chance that a multipath or desk commodity has s == t


@dataclass(frozen=True)
class Rung:
    """Shape of one base instance.

    kind: "multipath" (k commodities, each a depot pair s == t with
    probability DEPOT_FRACTION), "ordered" (k terminals in cyclic order),
    "desk" (`n - free` terminals, each used by exactly one commodity) or
    "depot" (`n - free` all-depot commodities).
    """

    kind: str
    n: int
    k: int = 0
    extra: int = 0
    free: int = 0


def _random_graph(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Random spanning tree (each vertex joins a random earlier one) plus `extra` other edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = set(edges)
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    rng.shuffle(missing)
    return edges + missing[:extra]


def _multipath_commodities(rng: random.Random, rung: Rung) -> list[tuple[int, int]]:
    seen: set[tuple[int, int]] = set()
    while len(seen) < rung.k:
        s = rng.randrange(rung.n)
        t = s if rng.random() < DEPOT_FRACTION else rng.randrange(rung.n)
        seen.add((s, t))
    return sorted(seen)


def _desk_commodities(rng: random.Random, rung: Rung) -> list[tuple[int, int]]:
    """Every terminal in exactly one commodity, so `free` vertices stay free."""
    terminals = rng.sample(range(rung.n), rung.n - rung.free)
    if rung.kind == "depot":
        return [(d, d) for d in terminals]
    out: list[tuple[int, int]] = []
    while terminals:
        s = terminals.pop()
        if not terminals or rng.random() < DEPOT_FRACTION:
            out.append((s, s))
        else:
            out.append((s, terminals.pop()))
    return out


@dataclass(frozen=True)
class BaseInstance:
    """Plain data of one base instance: edges plus commodities or order."""

    n: int
    edges: tuple[tuple[int, int], ...]
    pairs: tuple[tuple[int, int], ...]   # commodities; empty for ordered rungs
    order: tuple[int, ...]               # terminal order; empty otherwise


def base_instance(rung: Rung, ladder_seed: int, index: int) -> BaseInstance:
    """Base instance of rung `index`; depends only on the rung and the ladder seed."""
    rng = random.Random(f"ladder/{ladder_seed}/{index}")
    edges = tuple(_random_graph(rng, rung.n, rung.extra))
    if rung.kind == "ordered":
        return BaseInstance(rung.n, edges, (), tuple(rng.sample(range(rung.n), rung.k)))
    if rung.kind == "multipath":
        pairs = _multipath_commodities(rng, rung)
    else:
        pairs = _desk_commodities(rng, rung)
    return BaseInstance(rung.n, edges, tuple(pairs), ())


def build(base: BaseInstance) -> Instance | OrderedInstance:
    """The program's instance for `base`, with its labels as they are."""
    graph = Graph(base.n, base.edges)
    if base.order:
        return OrderedInstance(graph, base.order)
    return Instance(graph, base.pairs)
