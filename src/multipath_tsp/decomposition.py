"""Greedy decomposition of per-commodity flows into weighted paths and cycles.

The walk always follows the lowest-indexed arc with positive residual, which
makes the decomposition deterministic. Whenever the walk revisits a vertex
the enclosed loop is extracted immediately as a cycle (bottleneck weight
subtracted), so emitted paths are simple. A source-to-sink path weighs at
most the source's remaining surplus: when flow re-enters the source through
a cycle, that cycle's mass stays behind as a circulation instead of leaving
an unextractable sink-to-source path. Every extraction zeroes at least one
arc except a path capped by the surplus, which ends the path phase; that
caps the number of elements at the arc count plus one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, InternalError
from .instances import Instance
from .lp import FractionalSolution

EPS_DEC = 1e-6


@dataclass(frozen=True)
class FlowWalk:
    """One decomposition element: an arc walk with its weight.

    Paths run source to sink; cycles are closed (first vertex == last).
    """

    arcs: tuple[int, ...]
    vertices: tuple[int, ...]
    weight: float


@dataclass(frozen=True, eq=False)
class Decomposition:
    instance: Instance
    digraph: object  # BidirectedGraph of the solution this came from
    paths: tuple[tuple[FlowWalk, ...], ...]   # per commodity
    cycles: tuple[tuple[FlowWalk, ...], ...]  # per commodity

    def path_weight_sum(self, i: int) -> float:
        return sum(p.weight for p in self.paths[i])


@dataclass(frozen=True, eq=False)
class PathMass:
    """Per-(commodity, vertex) weight of simple paths passing through, zero at sinks."""

    values: np.ndarray  # shape (k, n)

    def of(self, i: int, v: int) -> float:
        return float(self.values[i, v])

    def total(self, v: int) -> float:
        return float(self.values[:, v].sum())


def _zero_small(residual: np.ndarray) -> None:
    residual[residual < EPS_DEC] = 0.0


def _check_stall(residual: np.ndarray, num_arcs: int) -> None:
    if residual.sum() > EPS_DEC * num_arcs:
        raise DecompositionError("residual not decomposable: greedy walk stalled with leftover mass")
    residual[:] = 0.0


def _extract_commodity(dig, residual: np.ndarray, s: int, t: int):
    """Paths while the source has surplus, then cycles from leftover circulation."""
    num_arcs = dig.num_arcs
    out_arcs = dig.out_arcs
    heads = [v for (_, v) in dig.arcs]
    paths: list[FlowWalk] = []
    cycles: list[FlowWalk] = []

    def pick(v: int) -> int:
        for a in out_arcs[v]:
            if residual[a] > EPS_DEC:
                return a
        return -1

    def surplus() -> float:
        return float(residual[list(out_arcs[s])].sum() - residual[list(dig.in_arcs[s])].sum())

    def subtract(arcs: list[int], cap: float = np.inf) -> float:
        w = min(float(min(residual[a] for a in arcs)), cap)
        for a in arcs:
            residual[a] -= w
        _zero_small(residual)
        return w

    if s != t:
        while surplus() > EPS_DEC:
            walk_v = [s]
            walk_a: list[int] = []
            pos = {s: 0}
            stalled = False
            while True:
                a = pick(walk_v[-1])
                if a == -1:
                    _check_stall(residual, num_arcs)
                    stalled = True
                    break
                w = heads[a]
                if w == t:
                    arcs = walk_a + [a]
                    weight = subtract(arcs, surplus())
                    paths.append(FlowWalk(tuple(arcs), tuple(walk_v + [t]), weight))
                    break
                if w in pos:
                    j = pos[w]
                    loop = walk_a[j:] + [a]
                    weight = subtract(loop)
                    cycles.append(FlowWalk(tuple(loop), tuple(walk_v[j:] + [w]), weight))
                    for dropped in walk_v[j + 1:]:
                        del pos[dropped]
                    walk_v = walk_v[: j + 1]
                    walk_a = walk_a[:j]
                    continue
                walk_v.append(w)
                walk_a.append(a)
                pos[w] = len(walk_v) - 1
            if stalled:
                break
            if len(paths) + len(cycles) > num_arcs + 1:
                raise InternalError("decomposition exceeded the arc-count bound")

    while True:
        start = next((a for a in range(num_arcs) if residual[a] > EPS_DEC), -1)
        if start == -1:
            break
        u = dig.arcs[start][0]
        walk_v = [u, heads[start]]
        walk_a = [start]
        pos = {u: 0, heads[start]: 1}
        closed = False
        while not closed:
            a = pick(walk_v[-1])
            if a == -1:
                _check_stall(residual, num_arcs)
                break
            w = heads[a]
            if w in pos:
                j = pos[w]
                loop = walk_a[j:] + [a]
                weight = subtract(loop)
                cycles.append(FlowWalk(tuple(loop), tuple(walk_v[j:] + [w]), weight))
                closed = True
            else:
                walk_v.append(w)
                walk_a.append(a)
                pos[w] = len(walk_v) - 1
        if not closed:
            break
        if len(paths) + len(cycles) > num_arcs + 1:
            raise InternalError("decomposition exceeded the arc-count bound")

    return tuple(paths), tuple(cycles)


def decompose(inst: Instance, sol: FractionalSolution) -> Decomposition:
    """Split each commodity's flow into weighted simple paths plus cycles."""
    all_paths = []
    all_cycles = []
    for i, (s, t) in enumerate(inst.commodities):
        residual = np.array(sol.flows[i], dtype=float)
        _zero_small(residual)
        paths, cycles = _extract_commodity(sol.digraph, residual, s, t)
        all_paths.append(paths)
        all_cycles.append(cycles)
    return Decomposition(inst, sol.digraph, tuple(all_paths), tuple(all_cycles))


def path_mass(inst: Instance, dec: Decomposition) -> PathMass:
    """Accumulate path weights per vertex; the sink of each commodity stays zero."""
    values = np.zeros((inst.k, inst.graph.n))
    for i in range(inst.k):
        for p in dec.paths[i]:
            for v in p.vertices[:-1]:  # last vertex is the sink
                values[i, v] += p.weight
    return PathMass(values)
