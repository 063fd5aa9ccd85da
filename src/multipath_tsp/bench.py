"""Random instance generation, the experiment harness, and DOT export.

Reports are plain dicts serialized with sorted keys so a fixed config and
seed produce byte-identical output. Every cost that enters a report is
re-derived from the returned walks after validation, never trusted from
solver internals.
"""

from __future__ import annotations

import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from .errors import GenerationError, InstanceError, OracleLimitError, ToolkitError
from .exact import exact_opt
from .graphs import Graph, is_connected
from .instances import (
    AnyInstance, Instance, OrderedInstance, Solution, load_instance, read_text, validate_solution,
)
from .multipath import prepare, run_derandomized, run_trial
from .ordered import run_ordered_trial
from .vrp import run_combiner, solve_vrp_forest

SCHEMA_VERSION = 1
MAX_GENERATION_RETRIES = 200

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


@dataclass(frozen=True)
class BenchConfig:
    """Instance family and harness parameters; fully determines a report."""

    mode: str = "multipath"          # "multipath" | "ordered" | "vrp"
    count: int = 20
    n_min: int = 2
    n_max: int = 10
    k_min: int = 1
    k_max: int = 3
    extra_edges: int = 4             # extra edges on top of a random spanning tree
    edge_prob: float | None = None   # if set, connected G(n, p) instead
    depot_fraction: float = 0.3      # chance a commodity has equal endpoints
    seed: int = 0
    trials: int = 0                  # randomized runs per instance (0 = skip)
    workers: int = 1
    oracle_limit: int = 10
    inputs: tuple[str, ...] = ()     # instance files overriding generation

    def __post_init__(self):
        limits = {"count": (0, math.inf), "trials": (0, math.inf), "extra_edges": (0, math.inf),
                  "workers": (1, math.inf), "edge_prob": (0, 1), "depot_fraction": (0, 1)}
        for name, (low, high) in limits.items():
            value = getattr(self, name)
            if value is not None and not low <= value <= high:  # NaN fails too
                raise GenerationError(f"invalid setting: {name} = {value} is outside [{low}, {high}]")


def _random_connected_graph(rng: random.Random, n: int, cfg: BenchConfig) -> Graph:
    if n == 1:
        return Graph(1, [])
    if cfg.edge_prob is not None:
        for _ in range(MAX_GENERATION_RETRIES):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < cfg.edge_prob]
            g = Graph(n, edges)
            if is_connected(g):
                return g
        raise GenerationError(f"generation failed: no connected G({n}, {cfg.edge_prob}) in budget")
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    rng.shuffle(missing)
    extra = rng.randint(0, cfg.extra_edges) if cfg.extra_edges > 0 else 0
    edges.extend(missing[:extra])
    return Graph(n, edges)


def _draw(rng: random.Random, lo: int, hi: int, what: str) -> int:
    if lo > hi:
        raise GenerationError(f"generation failed: empty range [{lo}, {hi}] for the {what}")
    return rng.randint(lo, hi)


def generate(cfg: BenchConfig, seed: int) -> AnyInstance:
    """One random connected instance; deterministic per seed."""
    rng = random.Random(seed)
    n = _draw(rng, cfg.n_min, cfg.n_max, "vertex count")
    if cfg.mode == "ordered":
        n = max(n, 2)
    graph = _random_connected_graph(rng, n, cfg)
    if cfg.mode == "ordered":
        k = _draw(rng, max(2, cfg.k_min), max(2, min(cfg.k_max, n)), f"terminal count at n={n}")
        return OrderedInstance(graph, tuple(rng.sample(range(n), k)))
    if cfg.mode == "vrp":
        k = _draw(rng, max(1, cfg.k_min), max(1, min(cfg.k_max, n)), f"depot count at n={n}")
        return Instance(graph, tuple((d, d) for d in rng.sample(range(n), k)))
    if n == 1:
        return Instance(graph, ((0, 0),))
    k = _draw(rng, cfg.k_min, min(cfg.k_max, n * n), f"commodity count at n={n}")
    seen: set[tuple[int, int]] = set()
    for _ in range(MAX_GENERATION_RETRIES * max(1, k)):
        if len(seen) == k:
            break
        s = rng.randrange(n)
        t = s if rng.random() < cfg.depot_fraction else rng.randrange(n)
        seen.add((s, t))
    if len(seen) < k:
        raise GenerationError("generation failed: could not draw distinct commodities")
    return Instance(graph, tuple(sorted(seen)))


def _row_seed(cfg: BenchConfig, index: int) -> int:
    return cfg.seed * 1_000_003 + index


def _checked_cost(inst: AnyInstance, sol: Solution) -> int:
    ok, why = validate_solution(inst, sol)
    if not ok:
        raise ToolkitError(f"solution failed validation: {why}")
    return sum(len(w) - 1 for w in sol.walks)


def _opt(cfg: BenchConfig, inst: AnyInstance) -> int | None:
    """The exact optimum, or None when the instance exceeds the oracle's limits."""
    try:
        return exact_opt(inst, limit_free=cfg.oracle_limit).cost
    except OracleLimitError:
        return None


def _ratio(num: float | None, den: float | None) -> float | None:
    """num / den, 1.0 for a zero denominator, None when either is unknown."""
    if num is None or den is None:
        return None
    return num / den if den > 0 else 1.0


def _multipath_row(cfg: BenchConfig, inst: Instance, row: dict) -> None:
    plan = prepare(inst)
    lp = row["lp"] = plan.lp.objective
    sol_d, _rep = run_derandomized(plan)
    cost_d = _checked_cost(inst, sol_d)
    row["cost_derandomized"] = cost_d
    row["ratio_derand_lp"] = _ratio(cost_d, lp)
    sol_c, crep = run_combiner(plan)
    row["cost_combiner"] = _checked_cost(inst, sol_c)
    row["combiner_winner"] = crep.winner
    opt = row["opt"] = _opt(cfg, inst)
    row["ratio_derand_opt"] = _ratio(cost_d, opt)
    row["gap_opt_lp"] = _ratio(opt, lp)
    if cfg.trials > 0:
        costs = []
        for trial in range(cfg.trials):
            sol_r, _ = run_trial(plan, _row_seed(cfg, row["index"]) * 31 + trial)
            costs.append(_checked_cost(inst, sol_r))
        row["mean_randomized"] = sum(costs) / len(costs)
        row["max_randomized"] = max(costs)


def _ordered_row(cfg: BenchConfig, inst: OrderedInstance, row: dict) -> None:
    plan = prepare(inst)
    lp = row["lp"] = plan.lp.objective
    trials = max(1, cfg.trials)
    costs = []
    max_join = 0
    for trial in range(trials):
        sol, _, join = run_ordered_trial(plan, _row_seed(cfg, row["index"]) * 31 + trial)
        costs.append(_checked_cost(inst, sol))
        max_join = max(max_join, join.cost)
    mean = sum(costs) / len(costs)
    row["mean_cost"] = mean
    row["std_cost"] = math.sqrt(sum((c - mean) ** 2 for c in costs) / len(costs))
    row["mean_ratio"] = _ratio(mean, lp)
    row["max_join"] = max_join
    row["join_bound"] = lp / 2.0
    opt = row["opt"] = _opt(cfg, inst)
    row["gap_opt_lp"] = _ratio(opt, lp)


def _vrp_row(cfg: BenchConfig, inst: Instance, row: dict) -> None:
    cost = row["cost_forest"] = _checked_cost(inst, solve_vrp_forest(inst))
    opt = row["opt"] = _opt(cfg, inst)
    row["ratio_forest_opt"] = _ratio(cost, opt)


def bench_row(cfg: BenchConfig, index: int) -> dict:
    """Compute one report row; isolated so rows can run in worker processes."""
    if cfg.inputs:
        inst = load_instance(read_text(cfg.inputs[index]))
    else:
        inst = generate(cfg, _row_seed(cfg, index))
    row: dict = {
        "index": index,
        "n": inst.graph.n,
        "m": inst.graph.num_edges,
        "k": inst.k,
        "error": None,
    }
    try:
        if isinstance(inst, OrderedInstance):
            _ordered_row(cfg, inst, row)
        elif cfg.mode == "vrp":
            _vrp_row(cfg, inst, row)
        else:
            _multipath_row(cfg, inst, row)
    except ToolkitError as exc:
        row["error"] = str(exc)
    return row


def _aggregate(rows: list[dict]) -> dict:
    skip = {"index", "error", "combiner_winner"}
    numeric: dict[str, list[float]] = {}
    for row in rows:
        for key, val in row.items():
            if key in skip or val is None or isinstance(val, str):
                continue
            numeric.setdefault(key, []).append(float(val))
    return {
        key: {"max": max(vals), "mean": sum(vals) / len(vals)}
        for key, vals in sorted(numeric.items())
    }


def run_bench(cfg: BenchConfig) -> dict:
    """Full report: one row per instance plus per-column aggregates."""
    count = len(cfg.inputs) if cfg.inputs else cfg.count
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(bench_row, [cfg] * count, range(count)))
    else:
        rows = [bench_row(cfg, i) for i in range(count)]
    return {
        "schema": SCHEMA_VERSION,
        "config": asdict(cfg) | {"inputs": list(cfg.inputs)},
        "rows": rows,
        "aggregates": _aggregate(rows),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def format_table(report: dict) -> str:
    rows = report["rows"]
    if not rows:
        return "(no rows)\n"
    columns = ["index", "n", "m", "k"]
    for key in ("lp", "opt", "cost_derandomized", "cost_combiner", "cost_forest",
                "mean_cost", "mean_ratio", "ratio_derand_lp", "gap_opt_lp", "error"):
        if any(key in r for r in rows):
            columns.append(key)
    lines = []
    widths = {}
    table = []
    for row in rows:
        rendered = []
        for col in columns:
            val = row.get(col)
            if isinstance(val, float):
                rendered.append(f"{val:.4f}")
            else:
                rendered.append("-" if val is None else str(val))
        table.append(rendered)
    for j, col in enumerate(columns):
        widths[j] = max(len(col), *(len(r[j]) for r in table))
    lines.append("  ".join(col.ljust(widths[j]) for j, col in enumerate(columns)))
    for rendered in table:
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(rendered)))
    agg = report["aggregates"]
    if agg:
        lines.append("")
        for key in sorted(agg):
            lines.append(f"{key}: max={agg[key]['max']:.6f} mean={agg[key]['mean']:.6f}")
    return "\n".join(lines) + "\n"


def export_dot(inst: AnyInstance, sol) -> str:
    """DOT rendering: walk edges colored per commodity, repeats dashed."""
    g = inst.graph
    usage: dict[int, list[int]] = {}
    counts: dict[int, int] = {}
    for i, walk in enumerate(sol.walks):
        for u, v in zip(walk, walk[1:]):
            if not g.has_edge(u, v):
                raise InstanceError("schema", f"walk {i} steps from {u} to {v}, which is not an edge")
            e = g.edge_id(u, v)
            counts[e] = counts.get(e, 0) + 1
            used_by = usage.setdefault(e, [])
            if i not in used_by:
                used_by.append(i)
        # only a one-vertex walk can get here with a vertex outside the graph
        if not all(0 <= v < g.n for v in walk):
            raise InstanceError("schema", f"walk {i} visits a vertex outside 0..{g.n - 1}")
    if len(sol.walks) != inst.k:
        raise InstanceError("schema", f"{len(sol.walks)} walks given for {inst.k} commodities")
    labels: dict[int, list[str]] = {}
    if isinstance(inst, OrderedInstance):
        for pos, o in enumerate(inst.order):
            labels.setdefault(o, []).append(f"o{pos}")
    else:
        for i, (s, t) in enumerate(inst.commodities):
            labels.setdefault(s, []).append(f"s{i}")
            if t != s:
                labels.setdefault(t, []).append(f"t{i}")
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(g.n):
        tag = f' [label="{v} ({",".join(labels[v])})"]' if v in labels else ""
        lines.append(f"  {v}{tag};")
    for e, (u, v) in enumerate(g.edges):
        if e in usage:
            color = ":".join(_PALETTE[i % len(_PALETTE)] for i in usage[e])
            attrs = [f'color="{color}"', "penwidth=2.0"]
            if counts[e] > 1:
                attrs.append('style="dashed"')
                attrs.append(f'label="x{counts[e]}"')
            lines.append(f"  {u} -- {v} [{', '.join(attrs)}];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
