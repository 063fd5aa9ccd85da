"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the program's default test run: they
pin the benchmark's behaviour at the commit that defined it, such as the
number of LP solves in one experiment row.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import multipath_tsp  # noqa: E402
import spans  # noqa: E402
from gen import Rung, base_instance, build  # noqa: E402
from run import measure  # noqa: E402
from workloads import WORKLOADS, load_json  # noqa: E402

SPEC = load_json("spec.json")
REFERENCE = load_json("reference.json")


def _bindings() -> dict:
    """Every attribute of every package module, plus the wrapped method."""
    out = {}
    for mod in spans._package_modules():
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = val
    out[("LpModel", "solve")] = multipath_tsp.lp.LpModel.__dict__["solve"]
    return out


def _one_traced_op(workload_name: str, rung: int, targets=spans.TARGETS):
    workload = WORKLOADS[workload_name](SPEC, REFERENCE, 1)
    item = workload.pass_items(0)[rung]
    tracer = spans.Tracer()
    with spans.installed(tracer, targets):
        with tracer.op_span(0):
            result = workload.op(item)
    return tracer, workload.check(item, result)


def test_every_wrapper_restored_after_traced_run():
    before = _bindings()
    workload = WORKLOADS["desk-oracle"](SPEC, REFERENCE, 1)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        wrapped = _bindings()
        _, outcomes, _, _ = measure(workload, passes=1, tracer=tracer)
    assert all(o.ok for o in outcomes)
    assert _bindings() == before
    assert wrapped != before
    assert {s[0] for s in tracer.spans} >= {"op", "exact.exact_opt", "lp.solve_lp", "lp.model_solve"}


def test_wrappers_restored_when_the_block_raises():
    before = _bindings()
    try:
        with spans.installed(spans.Tracer()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert _bindings() == before


def test_mp_ladder_row_solves_the_lp_three_times():
    tracer, outcome = _one_traced_op("mp-ladder", 0)
    assert outcome.ok, outcome.why
    values, absent = spans.layer_metrics(tracer, outcome.counters)
    assert not absent
    assert values["lp.solve_lp.calls_per_op"] == 3
    assert values["lp.model_solve.calls"] >= 3
    assert values["lp.share"] > 0.5


def test_missing_target_is_absent_not_fatal():
    targets = tuple(t if t[0] != "lp.model_solve" else ("lp.model_solve", "lp", "LpModel.gone") for t in spans.TARGETS)
    tracer, outcome = _one_traced_op("desk-oracle", 0, targets)
    assert outcome.ok, outcome.why
    values, absent = spans.layer_metrics(tracer, outcome.counters)
    assert {"lp.model_solve.calls", "lp.model_solve.s", "lp.columns"} <= set(absent)
    assert values["lp.model_solve.calls"] == 0.0
    assert "lp.solve_lp.calls_per_op" not in absent and values["lp.solve_lp.calls_per_op"] == 1


def _inputs(workload_name: str, seed: int, pass_no: int) -> list:
    """(instance, op seed) per rung, without running any set-up."""
    workload = WORKLOADS[workload_name](SPEC, REFERENCE, seed)
    return [(build(base), workload.op_seed(pass_no, i)) for i, base in enumerate(workload.bases)]


def test_same_seed_same_inputs_other_seed_other_sampling():
    default, held_out = SPEC["default_seed"], SPEC["held_out_seed"]
    for name in SPEC["workloads"]:
        first = _inputs(name, default, 0)
        assert first == _inputs(name, default, 0), name
        for other in (_inputs(name, held_out, 0), _inputs(name, default, 1)):
            assert [a[0] for a in first] == [b[0] for b in other], name
            assert all(a[1] != b[1] for a, b in zip(first, other)), name


def test_ladder_seed_fixes_the_instances():
    for name, wl in SPEC["workloads"].items():
        for i, raw in enumerate(wl["rungs"]):
            rung = Rung(**raw)
            base = base_instance(rung, SPEC["ladder_seed"], i)
            assert base == base_instance(rung, SPEC["ladder_seed"], i)
            assert base != base_instance(rung, SPEC["ladder_seed"] + 1, i), (name, i)
            inst = build(base)
            assert inst.graph.n == rung.n and inst.graph.num_edges == rung.n - 1 + rung.extra
            if rung.kind in ("desk", "depot"):
                assert rung.n - len(inst.terminals) == rung.free


def test_wrong_reference_counts_as_failed_op():
    reference = json.loads(json.dumps(REFERENCE))
    reference["desk-oracle"]["lp"][0] += 1.0
    workload = WORKLOADS["desk-oracle"](SPEC, reference, 1)
    item = workload.pass_items(0)[0]
    outcome = workload.check(item, workload.op(item))
    assert not outcome.ok and "reference" in outcome.why


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(SPEC["workloads"]) == list(WORKLOADS)
    tracer = spans.Tracer()
    values, _ = spans.layer_metrics(tracer, {})
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(per_layer) == set(values) | {"trace.overhead_ratio", "trace.spans_per_op"}
    assert set(SPEC["layers"]) <= set(per_layer)
    assert all(per_layer[name] == spans.unit(name) for name in per_layer)
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert all(metric in e2e for moves in SPEC["layers"].values() for metric, _ in moves)
    assert all(wl in SPEC["workloads"] for moves in SPEC["layers"].values() for _, wl in moves)
