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
from .instances import AnyInstance
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
    instance: AnyInstance
    paths: tuple[tuple[FlowWalk, ...], ...]   # per commodity
    cycles: tuple[tuple[FlowWalk, ...], ...]  # per commodity


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

    # One walk per element: from s toward t while the source has surplus, else
    # from the tail of the lowest positive arc, which is also its first pick.
    # It stops at the first path, loop or stall. A loop leaves the arcs before
    # it untouched, so the next walk from s retraces that prefix; the path
    # phase ends only after a path, when the surplus is read again.
    paths_left = s != t and surplus() > EPS_DEC
    while True:
        if paths_left:
            v, sink = s, t
        else:
            first = next((a for a in range(num_arcs) if residual[a] > EPS_DEC), -1)
            if first == -1:
                break
            v, sink = dig.arcs[first][0], -1
        walk_v = [v]
        walk_a: list[int] = []
        pos = {v: 0}
        while True:
            a = pick(walk_v[-1])
            if a == -1:
                _check_stall(residual, num_arcs)
                return tuple(paths), tuple(cycles)
            w = heads[a]
            if w == sink:
                arcs = walk_a + [a]
                paths.append(FlowWalk(tuple(arcs), tuple(walk_v + [w]), subtract(arcs, surplus())))
                paths_left = surplus() > EPS_DEC
                break
            if w in pos:
                loop = walk_a[pos[w]:] + [a]
                cycles.append(FlowWalk(tuple(loop), tuple(walk_v[pos[w]:] + [w]), subtract(loop)))
                break
            walk_v.append(w)
            walk_a.append(a)
            pos[w] = len(walk_v) - 1
        if len(paths) + len(cycles) > num_arcs + 1:
            raise InternalError("decomposition exceeded the arc-count bound")

    return tuple(paths), tuple(cycles)


def decompose(inst: AnyInstance, sol: FractionalSolution) -> Decomposition:
    """Split each commodity's flow into weighted simple paths plus cycles."""
    all_paths = []
    all_cycles = []
    for i, (s, t) in enumerate(inst.commodities):
        residual = np.array(sol.flows[i], dtype=float)
        _zero_small(residual)
        paths, cycles = _extract_commodity(sol.digraph, residual, s, t)
        all_paths.append(paths)
        all_cycles.append(cycles)
    return Decomposition(inst, tuple(all_paths), tuple(all_cycles))


def path_mass(inst: AnyInstance, dec: Decomposition) -> np.ndarray:
    """(k, n) weight of the simple paths of commodity i through vertex v; the
    sink of each commodity stays zero."""
    values = np.zeros((inst.k, inst.graph.n))
    for i in range(inst.k):
        for p in dec.paths[i]:
            for v in p.vertices[:-1]:  # last vertex is the sink
                values[i, v] += p.weight
    return values
