import json

import pytest

import multipath_tsp.multipath as multipath
from multipath_tsp.bench import BenchConfig, bench_row, export_dot, format_table, generate, report_json, run_bench
from multipath_tsp.cli import main
from multipath_tsp.errors import GenerationError
from multipath_tsp.exact import exact_opt, reconstruct_walks
from multipath_tsp.graphs import is_connected
from multipath_tsp.instances import (
    Instance,
    OrderedInstance,
    load_instance,
    load_solution,
)

from conftest import DATA


class TestGenerate:
    def test_singleton_forced_commodity(self):
        cfg = BenchConfig(mode="multipath", n_min=1, n_max=1)
        inst = generate(cfg, 0)
        assert inst.graph.n == 1 and inst.commodities == ((0, 0),)

    def test_tree_mode_zero_extra(self):
        cfg = BenchConfig(mode="multipath", n_min=8, n_max=8, extra_edges=0)
        inst = generate(cfg, 3)
        assert inst.graph.num_edges == inst.graph.n - 1

    def test_self_check_thousand_samples(self):
        cfg = BenchConfig(mode="multipath", n_min=10, n_max=10, k_min=1, k_max=3)
        for i in range(1000):
            inst = generate(cfg, i)
            assert is_connected(inst.graph)

    def test_deterministic_per_seed(self):
        cfg = BenchConfig(mode="ordered", n_min=4, n_max=9, k_min=2, k_max=4)
        assert generate(cfg, 5) == generate(cfg, 5)
        assert isinstance(generate(cfg, 5), OrderedInstance)

    def test_gnp_mode_connected(self):
        cfg = BenchConfig(mode="multipath", n_min=6, n_max=6, edge_prob=0.5)
        for i in range(20):
            inst = generate(cfg, i)
            assert is_connected(inst.graph)

    def test_vrp_mode_distinct_depots(self):
        cfg = BenchConfig(mode="vrp", n_min=5, n_max=8, k_min=2, k_max=4)
        for i in range(20):
            inst = generate(cfg, i)
            assert all(s == t for s, t in inst.commodities)
            assert len({s for s, _ in inst.commodities}) == inst.k

    @pytest.mark.parametrize("mode", ["multipath", "ordered", "vrp"])
    def test_empty_ranges_raise_generation_error(self, mode):
        with pytest.raises(GenerationError):
            generate(BenchConfig(mode=mode, n_min=5, n_max=3), 0)
        # at n = 3 every mode's commodity, terminal or depot range is empty
        with pytest.raises(GenerationError):
            generate(BenchConfig(mode=mode, n_min=3, n_max=3, k_min=5, k_max=2), 0)


class TestRunBench:
    def test_multipath_row_solves_the_lp_once(self, monkeypatch):
        calls = []
        solve_lp = multipath.solve_lp

        def counted(inst, *args, **kwargs):
            calls.append(inst)
            return solve_lp(inst, *args, **kwargs)

        monkeypatch.setattr(multipath, "solve_lp", counted)
        cfg = BenchConfig(mode="multipath", count=1, n_min=6, n_max=6, k_min=2, k_max=2, seed=4, trials=3)
        row = bench_row(cfg, 0)
        assert row["error"] is None
        assert {"cost_derandomized", "cost_combiner", "mean_randomized"} <= set(row)
        assert len(calls) == 1

    def test_multipath_report(self):
        cfg = BenchConfig(mode="multipath", count=6, n_min=3, n_max=8, seed=2, trials=5)
        report = run_bench(cfg)
        assert report["schema"] == 1
        assert len(report["rows"]) == 6
        for row in report["rows"]:
            assert row["error"] is None
            assert row["cost_derandomized"] <= 2 * row["lp"] + 1e-5
            if row["opt"] is not None:
                assert row["gap_opt_lp"] <= 2 + 1e-5
        assert "cost_derandomized" in report["aggregates"]
        assert format_table(report).startswith("index")

    def test_ordered_and_vrp_modes(self):
        for mode in ("ordered", "vrp"):
            cfg = BenchConfig(mode=mode, count=4, n_min=4, n_max=8, k_min=2, k_max=3, seed=4, trials=4)
            report = run_bench(cfg)
            assert all(row["error"] is None for row in report["rows"])

    def test_oracle_limit_blanks_opt(self):
        cfg = BenchConfig(mode="multipath", count=3, n_min=14, n_max=14, k_min=1, k_max=1,
                          extra_edges=0, depot_fraction=1.0, seed=8)
        report = run_bench(cfg)
        for row in report["rows"]:
            assert row["error"] is None
            assert row["opt"] is None and row["gap_opt_lp"] is None
            assert row["lp"] > 0

    def test_byte_identical_reports(self):
        cfg = BenchConfig(mode="multipath", count=5, n_min=3, n_max=9, seed=31, trials=3)
        first = report_json(run_bench(cfg))
        second = report_json(run_bench(cfg))
        assert first == second

    def test_worker_pool_matches_serial(self):
        cfg = BenchConfig(mode="multipath", count=4, n_min=3, n_max=7, seed=11)
        serial = report_json(run_bench(cfg))
        parallel = report_json(run_bench(BenchConfig(**{**cfg.__dict__, "workers": 2})))
        serial_rows = json.loads(serial)["rows"]
        parallel_rows = json.loads(parallel)["rows"]
        assert serial_rows == parallel_rows

    def test_fig1_input_row(self):
        cfg = BenchConfig(inputs=(str(DATA / "fig1.json"),), trials=3, seed=0)
        report = run_bench(cfg)
        row = report["rows"][0]
        assert row["lp"] == pytest.approx(8.0, abs=1e-6)
        assert row["cost_derandomized"] <= 16
        assert row["opt"] == 8  # the fixture's true optimum; see test_exact


class TestExportDot:
    def test_singleton(self):
        inst = Instance.__new__(Instance)
        inst = load_instance('{"n":1,"edges":[],"commodities":[[0,0]]}')
        from multipath_tsp.instances import Solution

        text = export_dot(inst, Solution(((0,),), 0))
        assert "0" in text and "--" not in text

    def test_fig1_exact_solution_counts(self, fig1):
        sol = reconstruct_walks(fig1, exact_opt(fig1))
        text = export_dot(fig1, sol)
        node_lines = [l for l in text.splitlines() if l.strip().rstrip(";").split(" ")[0].isdigit() and "--" not in l]
        edge_lines = [l for l in text.splitlines() if "--" in l]
        highlighted = [l for l in edge_lines if "penwidth" in l]
        assert len(node_lines) == 10
        assert len(edge_lines) == 17
        assert len(highlighted) == sol.cost  # all eight walk edges are distinct

    def test_fig1_nine_edge_solution_counts(self, fig1):
        from conftest import FIG1_NINE_EDGE_SOLUTION

        text = export_dot(fig1, FIG1_NINE_EDGE_SOLUTION)
        highlighted = [l for l in text.splitlines() if "penwidth" in l]
        assert len(highlighted) == 9

    def test_highlighted_edges_exist(self, fig1):
        from multipath_tsp.multipath import solve_randomized

        sol, _ = solve_randomized(fig1, 9)
        text = export_dot(fig1, sol)
        for line in text.splitlines():
            if "--" in line:
                left = int(line.split("--")[0].strip())
                right = int(line.split("--")[1].strip().split(" ")[0].rstrip(";").strip("["))
                assert fig1.graph.has_edge(left, right)

    def test_doubled_edges_marked(self, fig1):
        from multipath_tsp.instances import Solution

        sol = Solution(((0, 4, 0, 5, 7, 2), (1, 8, 9, 7, 4, 6, 3)), 11)
        text = export_dot(fig1, sol)
        assert 'style="dashed"' in text and 'label="x2"' in text


class TestCli:
    def test_lp_and_dump(self, tmp_path, capsys):
        dump = tmp_path / "rows.lp"
        code = main(["lp", "--input", str(DATA / "fig1.json"), "--dump-lp", str(dump)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["objective"] == pytest.approx(8.0, abs=1e-6)
        assert "x_0_0_4" in dump.read_text()

    def test_ordered_input_prints_what_its_commodities_print(self, tmp_path, capsys):
        data = json.loads((DATA / "fig1_ordered.json").read_text())
        order = data.pop("order")
        data["commodities"] = [[order[i], order[(i + 1) % len(order)]] for i in range(len(order))]
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps(data))
        printed = {}
        for name, path in (("ordered", DATA / "fig1_ordered.json"), ("pairs", pairs_file)):
            dump = tmp_path / f"{name}.lp"
            assert main(["lp", "--input", str(path), "--dump-lp", str(dump)]) == 0
            assert main(["decompose", "--input", str(path)]) == 0
            assert main(["exact", "--input", str(path)]) == 0
            printed[name] = (capsys.readouterr().out, dump.read_text())
        assert printed["ordered"] == printed["pairs"]

    def test_solve_multipath_seeded(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        code = main([
            "solve-multipath", "--input", str(DATA / "fig1.json"),
            "--seed", "7", "--report", str(report_file),
        ])
        assert code == 0
        sol = load_solution(capsys.readouterr().out)
        assert sol.cost <= 16
        report = json.loads(report_file.read_text())
        assert report["total"] == sol.cost

    def test_solve_multipath_derandomized(self, capsys):
        code = main(["solve-multipath", "--input", str(DATA / "fig1.json"), "--derandomize"])
        assert code == 0
        sol = load_solution(capsys.readouterr().out)
        assert sol.cost <= 16

    def test_solve_ordered_trials(self, capsys):
        for trials in (8, 1):
            code = main([
                "solve-ordered", "--input", str(DATA / "fig1_ordered.json"),
                "--seed", "0", "--trials", str(trials),
            ])
            assert code == 0
            out = json.loads(capsys.readouterr().out)
            assert out["trials"] == trials and out["mean_cost"] > 0

    def test_solve_ordered_single(self, capsys):
        code = main(["solve-ordered", "--input", str(DATA / "fig1_ordered.json"), "--seed", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report"]["parity"] <= out["report"]["lp_objective"] / 2 + 1e-5

    def test_solve_vrp_requires_depots(self, capsys):
        code = main(["solve-vrp", "--input", str(DATA / "fig1.json")])
        assert code == 2

    def test_solve_vrp_and_combined(self, tmp_path, capsys):
        depot_file = tmp_path / "depots.json"
        depot_file.write_text(
            '{"n":10,"edges":' + json.dumps([list(e) for e in load_instance((DATA / "fig1.json").read_text()).graph.edges])
            + ',"commodities":[[0,0],[1,1]]}'
        )
        assert main(["solve-vrp", "--input", str(depot_file)]) == 0
        sol = load_solution(capsys.readouterr().out)
        assert sol.cost == 16
        assert main(["solve-combined", "--input", str(DATA / "fig1.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cost"] <= 16 and out["combiner"]["winner"] in ("multipath", "vrp")

    def test_exact_command(self, capsys):
        assert main(["exact", "--input", str(DATA / "fig1.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cost"] == 8

    def test_decompose_command(self, capsys):
        assert main(["decompose", "--input", str(DATA / "fig1.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["commodities"]) == 2
        weights = [p["weight"] for p in out["commodities"][0]["paths"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)

    def test_tjoin_command(self, capsys):
        assert main(["tjoin", "--input", str(DATA / "fig1.json"), "--odd", "0,2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cost"] == 3
        assert main(["tjoin", "--input", str(DATA / "fig1.json"), "--odd", "0,2,4"]) == 2

    @pytest.mark.parametrize("odd", ["a,b", "0,1,1,2", "2,2"])
    def test_tjoin_bad_odd_set_is_exit_two(self, odd, capsys):
        assert main(["tjoin", "--input", str(DATA / "fig1.json"), "--odd", odd]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["gen", "--n-min", "5", "--n-max", "3"],
        ["gen", "--mode", "vrp", "--k-min", "5", "--k-max", "6", "--n-min", "3", "--n-max", "3"],
        ["bench", "--count", "1", "--k-min", "5", "--k-max", "2"],
    ])
    def test_empty_generation_range_is_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: generation failed: empty")

    @pytest.mark.parametrize("argv", [
        ["bench", "--count", "-1"],
        ["bench", "--count", "2", "--workers", "0"],
        ["bench", "--count", "2", "--workers", "-1"],
        ["bench", "--count", "2", "--trials", "-1"],
        ["gen", "--extra-edges", "-3"],
        ["gen", "--edge-prob", "1.5"],
        ["gen", "--edge-prob", "-0.1"],
        ["gen", "--depot-fraction", "2"],
        ["gen", "--depot-fraction", "nan"],
        ["solve-ordered", "--input", str(DATA / "fig1_ordered.json"), "--trials", "-1"],
    ])
    def test_out_of_range_setting_is_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: invalid setting: ")

    def test_gen_then_solve(self, tmp_path, capsys):
        out_file = tmp_path / "inst.json"
        assert main(["gen", "--mode", "multipath", "--n-min", "5", "--n-max", "8",
                     "--seed", "3", "--output", str(out_file)]) == 0
        inst = load_instance(out_file.read_text())
        assert is_connected(inst.graph)
        assert main(["solve-multipath", "--input", str(out_file), "--derandomize"]) == 0

    def test_bench_command(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["bench", "--count", "3", "--n-min", "3", "--n-max", "7",
                     "--seed", "5", "--trials", "2", "--output", str(out_file)]) == 0
        table = capsys.readouterr().out
        assert table.startswith("index")
        report = json.loads(out_file.read_text())
        assert report["schema"] == 1 and len(report["rows"]) == 3

    def test_export_dot_command(self, tmp_path, capsys):
        sol_file = tmp_path / "sol.json"
        assert main(["solve-multipath", "--input", str(DATA / "fig1.json"),
                     "--derandomize", "--output", str(sol_file)]) == 0
        assert main(["export-dot", "--input", str(DATA / "fig1.json"),
                     "--solution", str(sol_file)]) == 0
        assert "graph G {" in capsys.readouterr().out

    def test_instance_error_in_worker_is_exit_two(self, capsys):
        # the error is raised in a worker process and must survive pickling back
        assert main(["bench", "--count", "4", "--k-min", "0", "--k-max", "0", "--workers", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: at least one commodity")

    @pytest.mark.parametrize("walk", [[0, 99], [0, 0]])
    def test_export_dot_off_graph_walk_is_exit_two(self, walk, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        sol_file = tmp_path / "sol.json"
        assert main(["gen", "--seed", "3", "--output", str(inst_file)]) == 0
        sol_file.write_text(json.dumps({"walks": [walk], "cost": 1}))
        assert main(["export-dot", "--input", str(inst_file), "--solution", str(sol_file)]) == 2
        assert capsys.readouterr().err.startswith("error: walk 0 steps")

    @pytest.mark.parametrize("walks, message", [
        ([[99]], "walk 0 visits a vertex outside 0..4"),
        ([[0], [99]], "walk 1 visits a vertex outside 0..4"),
        ([[0]], "1 walks given for 2 commodities"),
    ])
    def test_export_dot_bad_walk_list_is_exit_two(self, walks, message, tmp_path, capsys):
        # the generated instance has 5 vertices and 2 commodities
        inst_file = tmp_path / "inst.json"
        sol_file = tmp_path / "sol.json"
        assert main(["gen", "--seed", "3", "--output", str(inst_file)]) == 0
        assert load_instance(inst_file.read_text()).k == 2
        sol_file.write_text(json.dumps({"walks": walks, "cost": 0}))
        assert main(["export-dot", "--input", str(inst_file), "--solution", str(sol_file)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["lp", "export-dot", "bench"])
    def test_non_utf8_file_is_exit_two(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        fig1 = str(DATA / "fig1.json")
        argv = {
            "lp": ["lp", "--input", str(bad)],
            "export-dot": ["export-dot", "--input", fig1, "--solution", str(bad)],
            "bench": ["bench", "--input", str(bad)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err

    @pytest.mark.parametrize("text", [
        '{"n": true, "edges": [], "commodities": [[0, 0]]}',
        '{"n": 3, "edges": [[0, 1], [1, 2]], "order": [true, 2]}',
        '{"n": 3, "edges": [[0, 1], [1, true]], "commodities": [[0, 2]]}',
        '{"n": 3, "edges": [[0, 1], [1, 2]], "commodities": [[false, 2]]}',
    ])
    def test_boolean_instance_field_is_exit_two(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["lp", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "integer" in err

    @pytest.mark.parametrize("text", ['{"walks": [[true], [1]], "cost": 0}', '{"walks": [[0], [1]], "cost": false}'])
    def test_boolean_solution_field_is_exit_two(self, text, tmp_path, capsys):
        bad = tmp_path / "sol.json"
        bad.write_text(text)
        assert main(["export-dot", "--input", str(DATA / "fig1.json"), "--solution", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "integer" in err

    @pytest.mark.parametrize("command", ["lp", "solve-ordered"])
    def test_commodities_and_order_together_is_exit_two(self, command, tmp_path, capsys):
        # ambiguous: one field asks for a multi-path instance, the other for an ordered tour
        bad = tmp_path / "both.json"
        bad.write_text('{"n": 2, "edges": [[0, 1]], "commodities": [[0, 1]], "order": [0, 1]}')
        assert main([command, "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and '"commodities"' in err and '"order"' in err

    def test_missing_file_is_exit_two(self, capsys):
        assert main(["lp", "--input", "/nonexistent/file.json"]) == 2

    def test_malformed_input_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["lp", "--input", str(bad)]) == 2

    def test_oversized_exact_is_exit_two(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        edges = [[i, i + 1] for i in range(13)]
        big.write_text(json.dumps({"n": 14, "edges": edges, "commodities": [[0, 13]]}))
        assert main(["exact", "--input", str(big)]) == 2
