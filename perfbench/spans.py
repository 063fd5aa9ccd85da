"""Span tracing for the traced benchmark run, from outside the program.

`installed(tracer)` wraps the program's public functions where their callers
bind them (every `multipath_tsp.*` module attribute that is the original
function, or the class attribute for a method) and restores every name on
exit. Each call made while an op is open records a span: name, start, end,
parent span and op id. Spans stay in memory until `dump` writes them.

A target that no longer exists, or a result whose shape changed, makes the
layer metrics that depend on it absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "multipath_tsp"

# (span name, module, attribute path) for every wrapped public name
TARGETS = (
    ("lp.solve_lp", "lp", "solve_lp"),
    ("lp.model_solve", "lp", "LpModel.solve"),
    ("lp.separate", "lp", "separate"),
    ("graphs.min_cut", "graphs", "min_cut"),
    ("graphs.bfs_distances", "graphs", "bfs_distances"),
    ("graphs.shortest_path", "graphs", "shortest_path"),
    ("graphs.all_pairs_distances", "graphs", "all_pairs_distances"),
    ("decomposition.decompose", "decomposition", "decompose"),
    ("multipath.sample_paths", "multipath", "sample_paths"),
    ("multipath.attachment_order", "multipath", "attachment_order"),
    ("multipath.reconnect", "multipath", "reconnect"),
    ("multipath.derandomize_choices", "multipath", "derandomize_choices"),
    ("parity.min_tjoin", "parity", "min_tjoin"),
    ("ordered.extract_ordered_walks", "ordered", "extract_ordered_walks"),
    ("ordered.validate_ordered", "ordered", "validate_ordered"),
    ("vrp.solve_vrp_forest", "vrp", "solve_vrp_forest"),
    ("exact.exact_opt", "exact", "exact_opt"),
    ("instances.validate_solution", "instances", "validate_solution"),
)

BFS_FAMILY = frozenset({"graphs.bfs_distances", "graphs.shortest_path", "graphs.all_pairs_distances"})


def unit(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    if metric.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def _count_cuts(args, out):
    return {"lp.cuts": len(out)}


def _count_columns(args, out):
    return {"lp.columns": args[0].num_columns}


def _count_decomposition(args, out):
    return {
        "decomposition.paths": sum(len(p) for p in out.paths),
        "decomposition.cycles": sum(len(c) for c in out.cycles),
    }


def _count_join(args, out):
    return {"parity.join_edges": out.cost}


# counters read from a wrapped call's arguments and result
COUNTERS = {
    "lp.separate": (_count_cuts, ("lp.cuts",)),
    "lp.model_solve": (_count_columns, ("lp.columns",)),
    "decomposition.decompose": (_count_decomposition, ("decomposition.paths", "decomposition.cycles")),
    "parity.min_tjoin": (_count_join, ("parity.join_edges",)),
}


class Tracer:
    """In-memory spans and counters of one traced run.

    A span is [name, start, end, parent index or -1, op id]. Calls made while
    no op is open (set-up and checks) are not recorded.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()   # span names whose target is gone
        self.broken: set[str] = set()    # counters whose result shape changed
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def op_span(self, op_id: int):
        self.op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    @contextmanager
    def span(self, name: str):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, args, out) -> None:
        fn, names = COUNTERS[name]
        try:
            values = fn(args, out)
        except (AttributeError, TypeError, IndexError):
            self.broken.update(names)
            return
        for key, val in values.items():
            self.counters[key] = self.counters.get(key, 0.0) + val

    def dump(self, path: str, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        data = {
            "names": names,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counters": self.counters,
            "missing": sorted(self.missing),
            "broken": sorted(self.broken),
        } | extra
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def _wrap(tracer: Tracer, name: str, fn):
    has_counter = name in COUNTERS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if has_counter:
            tracer.count(name, args, out)
        return out

    return wrapper


def _package_modules():
    return [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block; always restores."""
    patches: list[tuple[object, str, object]] = []
    try:
        for name, module, path in targets:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                owner = None
            if owner is not None and owner_path:
                owner = getattr(owner, owner_path, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                tracer.missing.add(name)
                continue
            wrapper = _wrap(tracer, name, original)
            if owner_path:
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in _package_modules():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive seconds, self seconds; plus op totals.

    Self time is a span's duration minus the time its child spans cover.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    by_name: dict[str, dict[str, float]] = {}
    bfs_outer = 0
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        row = by_name.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child[i]
        if s[0] in BFS_FAMILY and (s[3] < 0 or spans[s[3]][0] not in BFS_FAMILY):
            bfs_outer += 1
    return {"by_name": by_name, "bfs_outer_calls": bfs_outer}


def layer_metrics(tracer: Tracer, extra_counters: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """The per-layer metrics, normalized per op, and the names that are absent."""
    summary = summarize(tracer)
    by_name = summary["by_name"]
    ops = by_name.get("op", {}).get("calls", 0) or 1
    op_s = by_name.get("op", {}).get("s", 0.0) or 1.0
    counters = dict(tracer.counters) | extra_counters

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def secs(name):
        return by_name.get(name, {}).get("s", 0.0) / ops

    def share(layer):
        return sum(row["self_s"] for name, row in by_name.items() if name.split(".")[0] == layer) / op_s

    model_calls = calls("lp.model_solve")
    min_cut_calls = calls("graphs.min_cut")
    values = {
        "lp.solve_lp.calls_per_op": calls("lp.solve_lp") / ops,
        "lp.solve_lp.s": secs("lp.solve_lp"),
        "lp.model_solve.calls": model_calls / ops,
        "lp.model_solve.s": secs("lp.model_solve"),
        "lp.separate.s": secs("lp.separate"),
        "lp.cuts": counters.get("lp.cuts", 0.0) / ops,
        "lp.columns": counters.get("lp.columns", 0.0) / model_calls if model_calls else 0.0,
        "lp.separate.useful_ratio": counters.get("lp.cuts", 0.0) / min_cut_calls if min_cut_calls else 0.0,
        "lp.share": share("lp"),
        "graphs.min_cut.calls": min_cut_calls / ops,
        "graphs.min_cut.s": secs("graphs.min_cut"),
        "graphs.bfs.calls": summary["bfs_outer_calls"] / ops,
        "decomposition.decompose.s": secs("decomposition.decompose"),
        "decomposition.paths": counters.get("decomposition.paths", 0.0) / ops,
        "decomposition.cycles": counters.get("decomposition.cycles", 0.0) / ops,
        "multipath.sample_paths.s": secs("multipath.sample_paths"),
        "multipath.attachment_order.s": secs("multipath.attachment_order"),
        "multipath.reconnect.s": secs("multipath.reconnect"),
        "multipath.derandomize_choices.s": secs("multipath.derandomize_choices"),
        "parity.min_tjoin.calls": calls("parity.min_tjoin") / ops,
        "parity.min_tjoin.s": secs("parity.min_tjoin"),
        "parity.join_edges": counters.get("parity.join_edges", 0.0) / ops,
        "parity.share": share("parity"),
        "ordered.extract_ordered_walks.s": secs("ordered.extract_ordered_walks"),
        "ordered.validate_ordered.s": secs("ordered.validate_ordered"),
        "vrp.solve_vrp_forest.s": secs("vrp.solve_vrp_forest"),
        "vrp.combiner.vrp_wins": counters.get("vrp.combiner.vrp_wins", 0.0) / ops,
        "exact.exact_opt.s": secs("exact.exact_opt"),
        "exact.free_vertices": counters.get("exact.free_vertices", 0.0) / ops,
        "exact.share": share("exact"),
        "instances.validate_solution.s": secs("instances.validate_solution"),
    }
    depends = {
        "lp.cuts": {"lp.separate"},
        "lp.columns": {"lp.model_solve"},
        "lp.separate.useful_ratio": {"lp.separate", "graphs.min_cut"},
        "decomposition.paths": {"decomposition.decompose"},
        "decomposition.cycles": {"decomposition.decompose"},
        "parity.join_edges": {"parity.min_tjoin"},
    }
    absent = []
    for metric in values:
        needs = depends.get(metric)
        if needs is None:
            base = metric.rsplit(".", 1)[0]
            needs = {base} if base in {t[0] for t in TARGETS} else set()
        if metric == "graphs.bfs.calls" and BFS_FAMILY <= tracer.missing:
            absent.append(metric)
        elif needs & tracer.missing or metric in tracer.broken:
            absent.append(metric)
    for metric in absent:
        values[metric] = 0.0
    return values, absent
