import csv
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from fraction_rounding import fraction_derandomize, fraction_surplus
from hypothesis import given, settings, strategies as st
from mp_reference import grid_payment, rel_err
from sampling import assert_spelled_out

import padd
from padd import cli
from padd.cli import ProblemConfig, main
from padd.instances import convex_cost_demo
from padd.response import SolverConfig

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONFIGS = FIXTURES / "configs"
GRAPHS = FIXTURES / "graphs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_convex_demo_auto(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(CONFIGS / "convex_demo.json"))
        assert code == 0
        assert "convex_closed_form" in out
        assert "seller revenue  16" in out

    def test_concave_demo_auto(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(CONFIGS / "concave_demo.json"))
        assert code == 0
        assert "concave_closed_form" in out
        assert "seller revenue  0" in out

    def test_json_output_reverifies(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(CONFIGS / "convex_demo.json"), "--json")
        assert code == 0
        outcome = padd.EquilibriumOutcome.from_dict(json.loads(out))
        v, c, box = convex_cost_demo()
        assert padd.verify_equilibrium(outcome, v, c, box).passed

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(CONFIGS / "convex_demo.json"), "--csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(padd.EquilibriumOutcome.CSV_FIELDS)
        assert float(rows[1][2]) == 32.0

    def test_dimension_cap_is_precondition_exit(self, capsys):
        code, _, err = run_cli(capsys, "solve", str(CONFIGS / "five_goods.json"), "--mode", "general")
        assert code == 2
        assert "dimension" in err

    def test_missing_file_is_io_exit(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "no_such_config.json")
        assert code == 1

    def test_malformed_json_is_io_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "solve", str(bad))
        assert code == 1

    def test_dimension_mismatch_is_io_exit(self, capsys, tmp_path):
        bad = tmp_path / "mismatch.json"
        bad.write_text(json.dumps({
            "value": {"kind": "power_sum", "coeffs": [1.0, 1.0], "exponents": [0.5, 0.5]},
            "cost": {"kind": "power_sum", "coeffs": [1.0], "exponents": [2.0]},
            "domain": {"upper": [1.0]},
        }))
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == 1
        assert "dimensions disagree" in err

    def test_unknown_expression_kind_is_io_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad_kind.json"
        bad.write_text(json.dumps({
            "value": {"kind": "mystery"},
            "cost": {"kind": "power_sum", "coeffs": [1.0], "exponents": [2.0]},
            "domain": {"upper": [1.0]},
        }))
        code, _, _ = run_cli(capsys, "solve", str(bad))
        assert code == 1


    def test_non_finite_coefficient_is_precondition_exit(self, capsys, tmp_path):
        cfg = json.loads((CONFIGS / "convex_demo.json").read_text())
        cfg["value"]["coeffs"] = [float("inf")]
        bad = tmp_path / "inf_value.json"
        bad.write_text(json.dumps(cfg))
        assert "Infinity" in bad.read_text()
        code, out, err = run_cli(capsys, "solve", str(bad))
        assert code == 2
        assert err.startswith("precondition violated:")
        assert "Traceback" not in err and out == ""

    def test_overflowing_box_is_precondition_exit(self, capsys, tmp_path):
        # the cost x^2 overflows at 1e300: refused, not answered with no trade
        cfg = json.loads((CONFIGS / "convex_demo.json").read_text())
        cfg["domain"]["upper"] = [1e300]
        bad = tmp_path / "huge_box.json"
        bad.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "solve", str(bad))
        assert code == 2
        assert err.startswith("precondition violated:")
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "option",
        [
            {"tie_tol": float("nan")},
            {"grid_points": {"1": 1}},
            {"refine_top_k": 0},
            {"grid_points": [3]},
            {"grid_points": "2001"},
            {"grid_points": {"one": 2001}},
            {"lambda_split": [float("nan"), float("nan")]},
            {"refine_top_k": 2.5},
            {"ray_grid_n": True},
            {"golden_tol": "1e-10"},
        ],
    )
    def test_invalid_solver_option_is_io_exit(self, capsys, tmp_path, option):
        cfg = json.loads((CONFIGS / "convex_demo.json").read_text())
        cfg["solver"].update(option)
        bad = tmp_path / "bad_solver.json"
        bad.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "solve", str(bad))
        assert code == 1
        name = next(iter(option))
        if name in REMOVED_OPTIONS:  # refused by name as an unknown option
            assert err == f"error: unknown solver options: [{name!r}]\n"
            return
        assert err.startswith("error: solver option")
        assert f"option {name} " in err
        assert "Traceback" not in err and out == ""

    def test_removed_seed_option_is_io_exit(self, capsys, tmp_path):
        cfg = json.loads((CONFIGS / "convex_demo.json").read_text())
        cfg["solver"]["seed"] = 0
        bad = tmp_path / "seeded.json"
        bad.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "solve", str(bad))
        assert code == 1
        assert err.startswith("error: unknown solver options: ['seed']")
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "option",
        [{"vertex_enumeration": True}, {"eps_limit": 1e-6}, {"ray_grid_n": 10001}, {"lambda_split": None},
         {"lambda_split": [1.0]}],
    )
    def test_removed_solver_options_are_io_exit(self, capsys, tmp_path, option):
        # corner enumeration follows from the game's shapes, the ray grid is
        # a constant and the outcome derives its split: none can be set, not
        # even to the value that used to be the default
        cfg = json.loads((CONFIGS / "convex_demo.json").read_text())
        cfg["solver"].update(option)
        bad = tmp_path / "removed_option.json"
        bad.write_text(json.dumps(cfg))
        for command, *extra in (["solve"], ["verify"], ["fixed-bundle", "--bundle", "4"]):
            code, out, err = run_cli(capsys, command, str(bad), *extra)
            assert code == 1
            assert err == f"error: unknown solver options: ['{next(iter(option))}']\n"
            assert out == ""


def _linear_graph_game(tmp_path, n):
    """Config of `3 * sum(x)` against the `n`-cycle's graph cost on the unit box."""
    edges = [[i + 1, (i + 1) % n + 1] for i in range(n)]
    cfg = {
        "value": {"kind": "affine", "weights": [3.0] * n, "intercept": 0.0},
        "cost": {"kind": "graph_min_cost", "graph": {"node_count": n, "edges": edges}},
        "domain": {"upper": [1.0] * n},
    }
    path = tmp_path / f"cycle{n}_game.json"
    path.write_text(json.dumps(cfg))
    return path


class TestLinearValueGraphGames:
    """A linear value against a concave cost solves on the box corners,
    with the default solver options."""

    def test_six_goods_solve_and_verify(self, capsys, tmp_path):
        path = _linear_graph_game(tmp_path, 6)
        code, out, err = run_cli(capsys, "solve", str(path), "--json")
        assert code == 0 and err == ""
        outcome = json.loads(out)
        assert outcome["bundle"] == [1.0] * 6 and outcome["payment"] == 6.0
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 0 and err == ""
        assert "verification: all checks passed" in out

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_boundary_trade_splits_over_the_goods_bought(self, capsys, tmp_path, command):
        # sum(x) against the 3-node path's cost trades (1, 0, 1), an
        # independent set that costs nothing: the split is even over goods 1
        # and 3, zero on good 2
        cfg = {
            "value": {"kind": "affine", "weights": [1.0] * 3},
            "cost": {"kind": "graph_min_cost", "graph": {"node_count": 3, "edges": [[1, 2], [2, 3]]}},
            "domain": {"upper": [1.0] * 3},
        }
        path = tmp_path / "path3.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 0 and err == ""
        assert "bundle          1, 0, 1\n" in out
        assert "price split     0.5, 0, 0.5\n" in out
        assert "total payment   0\n" in out and "unit prices     0, 0, 0\n" in out

    def test_mis_reduction_fixture_trades_a_maximum_independent_set(self, capsys):
        # `sum(x)` against the 5-cycle's graph cost: the payment is the cost,
        # 0 on an independent set, so the buyer's surplus is the MIS size
        path = CONFIGS / "mis_reduction.json"
        mis = padd.mis_brute_force(padd.parse_graph_json(json.loads(path.read_text())["cost"]["graph"]))
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 0 and err == "" and mis == 2
        assert "bundle          0, 0, 1, 0, 1\n" in out
        assert "total payment   0\n" in out and f"buyer surplus   {mis}\n" in out
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 0 and err == ""
        assert "verification: all checks passed" in out

    def test_twenty_one_goods_solve_on_the_streamed_corners(self, capsys, tmp_path):
        # the corners are the 2-point grid, streamed in blocks: no cap below the grid's row cap
        code, out, err = run_cli(capsys, "solve", str(_linear_graph_game(tmp_path, 21)), "--json")
        assert code == 0 and err == ""
        outcome = json.loads(out)
        assert outcome["bundle"] == [1.0] * 21 and outcome["payment"] == 21.0

    def test_beyond_the_grid_row_cap_is_precondition_exit(self, capsys, tmp_path):
        # 2^24 corners are more rows than any grid search scans
        code, out, err = run_cli(capsys, "solve", str(_linear_graph_game(tmp_path, 24)))
        assert code == 2 and out == ""
        assert err.startswith("precondition violated:") and "exceeds the 10000000 rows a search scans" in err
        assert "Traceback" not in err


class TestFixedBundle:
    def test_demo_bundle(self, capsys):
        code, out, _ = run_cli(
            capsys, "fixed-bundle", str(CONFIGS / "convex_demo.json"), "--bundle", "4"
        )
        assert code == 0
        assert "total payment   32" in out

    def test_unit_bundle(self, capsys):
        code, out, _ = run_cli(
            capsys, "fixed-bundle", str(CONFIGS / "convex_demo.json"), "--bundle", "1"
        )
        assert code == 0
        assert "total payment   2" in out

    def test_zero_bundle_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "fixed-bundle", str(CONFIGS / "convex_demo.json"), "--bundle", "0"
        )
        assert code == 2

    def test_outside_domain_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "fixed-bundle", str(CONFIGS / "convex_demo.json"), "--bundle", "500"
        )
        assert code == 2

    @pytest.mark.parametrize("config, dim", [("convex_demo.json", 1), ("five_goods.json", 5)])
    def test_wrong_dimension_is_named(self, capsys, config, dim):
        # a 2-good bundle against the 5-good box used to fail in a numpy broadcast
        code, out, err = run_cli(capsys, "fixed-bundle", str(CONFIGS / config), "--bundle", "1,2")
        assert code == 2 and out == ""
        assert err == f"precondition violated: bundle has dimension 2, expected {dim}\n"

    @pytest.mark.parametrize("bundle", ["1e200", "1e154"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_overflowing_commitment_is_precondition_exit(self, capsys, tmp_path, bundle, fmt):
        # the cost overflows at 1e200, its ray payment at 1e154: both printed
        # payment inf and buyer surplus -inf (`--json` wrote `Infinity`)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "value": {"kind": "power_sum", "coeffs": [1.0], "exponents": [0.5]},
            "cost": {"kind": "sum", "children": [
                {"kind": "power_sum", "coeffs": [1.0], "exponents": [2.0]},
                {"kind": "power_sum", "coeffs": [1.0], "exponents": [0.5]},
            ]},
            "domain": {"upper": [1e200]},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "fixed-bundle", str(path), "--bundle", bundle, *fmt)
        assert code == 2 and out == ""
        assert err == "precondition violated: value, cost and payment must be finite at the trade bundle (they overflow there)\n"


class TestHardness:
    def test_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "hardness", str(GRAPHS / "triangle.txt"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_surplus"] == 1
        assert payload["mis_size"] == 1
        assert payload["equal"] is True

    def test_path(self, capsys):
        code, out, _ = run_cli(capsys, "hardness", str(GRAPHS / "path3.txt"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_surplus"] == 2 and payload["mis_size"] == 2

    def test_rounding_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "hardness", str(GRAPHS / "path3.txt"), "--round", "0.5,0.5,0.5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["rounded"]) <= {0.0, 1.0}
        assert payload["rounded_surplus"] >= payload["fractional_surplus"]

    @pytest.mark.parametrize("decimals", [3, None], ids=["3-decimal", "full-precision"])
    def test_integer_rounding_prints_the_fraction_pass(self, capsys, monkeypatch, tmp_path, decimals):
        # a seeded 2,000-node graph of mean degree 4, rounded from a point held in a file
        n = 2000
        rng = np.random.default_rng(n)
        edges = set()
        while len(edges) < 2 * n:
            i, j = sorted(rng.integers(1, n + 1, size=2).tolist())
            if i != j:
                edges.add((i, j))
        graph = tmp_path / "g2000.txt"
        graph.write_text(f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in sorted(edges)))
        x = rng.random(n)
        if decimals is not None:
            x = np.round(x, decimals)
        point = tmp_path / "point.txt"
        point.write_text(",".join(map(repr, x.tolist())))
        argv = ("hardness", str(graph), "--round", f"@{point}", "--json")
        integer = run_cli(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "derandomize", fraction_derandomize)
            m.setattr(cli, "surplus_U", lambda g, x: float(fraction_surplus(g, x)))
            fraction = run_cli(capsys, *argv)
        assert integer == fraction and integer[0] == 0

    @pytest.mark.parametrize("graph, point", [
        ("path3.txt", "0.5,0.5,0.5"),
        ("cycle5.txt", "0.2,0.9,0.4,0.6,0.35"),
        ("triangle.txt", "1,0,0.25"),
    ])
    def test_round_point_from_file_prints_the_inline_output(self, capsys, tmp_path, graph, point):
        held = tmp_path / "point.txt"
        held.write_text(point + "\n")
        for extra in ((), ("--json",)):
            inline = run_cli(capsys, "hardness", str(GRAPHS / graph), "--round", point, *extra)
            from_file = run_cli(capsys, "hardness", str(GRAPHS / graph), "--round", f"@{held}", *extra)
            assert from_file == inline and inline[0] == 0

    def test_round_point_file_missing_is_io_exit(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "hardness", str(GRAPHS / "triangle.txt"), "--round", f"@{tmp_path / 'none.txt'}")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "No such file" in err and "Traceback" not in err

    def test_self_loop_rejected(self, capsys):
        code, _, err = run_cli(capsys, "hardness", str(GRAPHS / "selfloop_bad.txt"))
        assert code == 2
        assert "self-loop" in err

    def test_nan_rounding_point_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "hardness", str(GRAPHS / "triangle.txt"), "--round", "nan,0.5,0.5"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("precondition violated:") and "Traceback" not in err


class TestGraphInputRefusals:
    """Graph files and `graph_min_cost` costs share one parser and its refusals."""

    @pytest.mark.parametrize("i, j", [(1, 2), (2, 1)])
    def test_duplicate_edge_is_precondition_exit(self, capsys, tmp_path, i, j):
        as_text = tmp_path / "dup.txt"
        as_text.write_text(f"3 2\n1 2\n{i} {j}\n")
        as_json = tmp_path / "dup.json"
        as_json.write_text(json.dumps({"node_count": 3, "edges": [[1, 2], [i, j]]}))
        for path in (as_text, as_json):
            code, out, err = run_cli(capsys, "hardness", str(path))
            assert code == 2 and out == ""
            assert err == f"precondition violated: duplicate edge ({i}, {j})\n"

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_node_count_below_one_is_precondition_exit(self, capsys, tmp_path, count):
        graph = tmp_path / "none.txt"
        graph.write_text(f"{count} 0\n")
        code, out, err = run_cli(capsys, "hardness", str(graph))
        assert code == 2 and out == ""
        assert err == "precondition violated: graph needs at least one node\n"

    @pytest.mark.parametrize(
        "graph, says",
        [
            (5, "graph must be a JSON object"),
            ([[1, 2]], "graph must be a JSON object"),
            ({"edges": [[1, 2]]}, "graph field 'node_count' is missing"),
            ({"node_count": 3}, "graph field 'edges' is missing"),
            ({"node_count": 3, "edges": [1, 2]}, "graph field 'edges' must be a list of [i, j] pairs"),
            ({"node_count": 3, "edges": [[1, 2, 3]]}, "graph field 'edges' must be a list of [i, j] pairs"),
        ],
        ids=["number", "list", "no_node_count", "no_edges", "flat_edges", "edge_triple"],
    )
    def test_malformed_json_graph_file_is_named(self, capsys, tmp_path, graph, says):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        code, out, err = run_cli(capsys, "hardness", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {says}\n"

    @pytest.mark.parametrize(
        "graph, field",
        [
            ({"node_count": 3.7, "edges": [[1, 2.9]]}, "node_count"),
            ({"node_count": True, "edges": []}, "node_count"),
            ({"node_count": 3, "edges": [[1, 2.9]]}, "edges"),
        ],
    )
    def test_non_integer_json_field_is_input_exit(self, capsys, tmp_path, graph, field):
        as_graph = tmp_path / "graph.json"
        as_graph.write_text(json.dumps(graph))
        code, out, err = run_cli(capsys, "hardness", str(as_graph))
        assert code == 1 and out == ""
        assert err.startswith(f"error: graph field '{field}' must hold integers")
        cfg = json.loads(_linear_graph_game(tmp_path, 3).read_text())
        cfg["cost"]["graph"] = graph
        as_cost = tmp_path / "game.json"
        as_cost.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "solve", str(as_cost))
        assert code == 1 and out == ""
        assert err.startswith(f"error: graph field '{field}' must hold integers")


class TestNodeCountCheckedBeforeStorage:
    """A huge node count is refused by name, without storage per node: each
    run has a 512 MB address-space cap."""

    def test_hardness_enumeration_cap(self, run_capped, tmp_path):
        graph = tmp_path / "huge.txt"
        graph.write_text("1000000000 0\n")
        proc = run_capped("-m", "padd.cli", "hardness", str(graph))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "precondition violated: enumeration capped at 20 nodes\n"

    def test_graph_cost_against_a_smaller_domain(self, run_capped, tmp_path):
        path = tmp_path / "huge_graph_game.json"
        path.write_text(json.dumps({
            "value": {"kind": "affine", "weights": [1.0], "intercept": 0.0},
            "cost": {"kind": "graph_min_cost", "graph": {"node_count": 100_000, "edges": [[1, 2]]}},
            "domain": {"upper": [1.0]},
        }))
        proc = run_capped("-m", "padd.cli", "solve", str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: config dimensions disagree: value 1, cost 100000, domain 1")


# a general-shape game that reaches every node kind's parser, the box and
# the solver's grids, on small grids
MIXED_GAME = {
    "value": {
        "kind": "sum",
        "children": [
            {"kind": "power_sum", "coeffs": [10.0], "exponents": [0.5]},
            {"kind": "leontief", "anchor": [1.0], "level": 0.5},
        ],
    },
    "cost": {
        "kind": "sum",
        "children": [
            {"kind": "power_sum", "coeffs": [1.0], "exponents": [2.0]},
            {
                "kind": "scale",
                "factor": 2.0,
                "child": {
                    "kind": "min_of_affine",
                    "pieces": [
                        {"kind": "affine", "weights": [1.0], "intercept": 0.0},
                        {"kind": "affine", "weights": [0.0], "intercept": 1.0},
                    ],
                },
            },
        ],
    },
    "domain": {"upper": [3.0]},
    "solver": {"grid_points": {"1": 101}},
}

NODE = ("value", "children", 0)
AFFINE = ("cost", "children", 1, "child", "pieces", 0)
# tolerances and refinement counts that used to be solver options
REMOVED_OPTIONS = (
    "refine_passes", "refine_top_k", "golden_tol", "tie_tol", "bundle_tol", "no_trade_tol", "ray_grid_n", "lambda_split"
)
# (path into MIXED_GAME, the value put there, a text the one stderr line must hold)
MALFORMED = {
    "config_list": ((), [1, 2], "config must be a JSON object"),
    "value_number": (("value",), 5, "'value' must be a JSON object"),
    "domain_list": (("domain",), [3.0], "'domain' must be a JSON object"),
    "solver_list": (("solver",), [], "'solver' must be a JSON object"),
    "kind_list": (NODE + ("kind",), ["power_sum"], "field 'kind' must be a string"),
    "kind_number": (NODE + ("kind",), 1, "field 'kind' must be a string"),
    "kind_unknown": (NODE + ("kind",), "cube", "unknown expression kind"),
    "coeffs_bool": (NODE + ("coeffs",), [True], "field 'coeffs'"),
    "coeffs_string": (NODE + ("coeffs",), ["12"], "field 'coeffs'"),
    "coeffs_nested": (NODE + ("coeffs",), [[10.0]], "field 'coeffs'"),
    "coeffs_null": (NODE + ("coeffs",), None, "field 'coeffs'"),
    "coeffs_nan": (NODE + ("coeffs",), [math.nan], "must be finite"),
    "coeffs_missing": (NODE, {"kind": "power_sum", "exponents": [0.5]}, "field 'coeffs' is missing"),
    "exponents_inf": (NODE + ("exponents",), [math.inf], "must be finite"),
    "exponents_object": (NODE + ("exponents",), {"0": 0.5}, "field 'exponents'"),
    "anchor_string": (("value", "children", 1, "anchor"), "1", "field 'anchor'"),
    "level_bool": (("value", "children", 1, "level"), False, "field 'level'"),
    "level_list": (("value", "children", 1, "level"), [0.5], "field 'level'"),
    "factor_string": (("cost", "children", 1, "factor"), "2", "field 'factor'"),
    "factor_bool": (("cost", "children", 1, "factor"), True, "field 'factor'"),
    "factor_inf": (("cost", "children", 1, "factor"), math.inf, "must be finite"),
    "child_missing": (("cost", "children", 1), {"kind": "scale", "factor": 1.0}, "field 'child' is missing"),
    "child_list": (("cost", "children", 1, "child"), [], "field 'child' must be a JSON object"),
    "graph_list": (("cost", "children", 0), {"kind": "graph_min_cost", "graph": [1, 2]}, "field 'graph' must be a JSON object"),
    "node_count_missing": (
        ("cost", "children", 0), {"kind": "graph_min_cost", "graph": {"edges": []}}, "graph field 'node_count' is missing"
    ),
    "weights_bool": (AFFINE + ("weights",), [True], "field 'weights'"),
    "intercept_string": (AFFINE + ("intercept",), "0", "field 'intercept'"),
    "intercept_nan": (AFFINE + ("intercept",), math.nan, "must be finite"),
    "children_number": (("cost", "children"), 3, "field 'children' must be a list"),
    "child_string": (("cost", "children", 0), "x^2", "'kind' field"),
    "pieces_object": (("cost", "children", 1, "child", "pieces"), {"kind": "affine"}, "field 'pieces' must be a list"),
    "piece_string": (("cost", "children", 1, "child", "pieces", 0), "x", "field 'pieces' must be a list of JSON objects"),
    "upper_bool": (("domain", "upper"), [True], "field 'upper'"),
    "upper_string": (("domain", "upper"), ["3"], "field 'upper'"),
    "upper_nan": (("domain", "upper"), [math.nan], "finite and positive"),
    "upper_empty": (("domain", "upper"), [], "1-d vector"),
    "grid_points_list": (("solver", "grid_points"), [101], "grid_points"),
    "grid_points_bool": (("solver", "grid_points"), {"1": True}, "grid_points"),
    "grid_points_one": (("solver", "grid_points"), {"1": 1}, "grid_points"),
    "ray_grid_n_string": (("solver", "ray_grid_n"), "101", "unknown solver options: ['ray_grid_n']"),
    "ray_grid_n_float": (("solver", "ray_grid_n"), 101.0, "unknown solver options: ['ray_grid_n']"),
    # a removed option is refused by name, whatever its value
    "refine_passes_bool": (("solver", "refine_passes"), True, "unknown solver options: ['refine_passes']"),
    "refine_top_k_zero": (("solver", "refine_top_k"), 0, "unknown solver options: ['refine_top_k']"),
    "golden_tol_nan": (("solver", "golden_tol"), math.nan, "unknown solver options: ['golden_tol']"),
    "tie_tol_string": (("solver", "tie_tol"), "1e-8", "unknown solver options: ['tie_tol']"),
    "bundle_tol_inf": (("solver", "bundle_tol"), math.inf, "unknown solver options: ['bundle_tol']"),
    "no_trade_tol_negative": (("solver", "no_trade_tol"), -1.0, "unknown solver options: ['no_trade_tol']"),
    "lambda_split_string": (("solver", "lambda_split"), "1", "unknown solver options: ['lambda_split']"),
    "lambda_split_bool": (("solver", "lambda_split"), [True], "unknown solver options: ['lambda_split']"),
    "unknown_option": (("solver", "seed"), 0, "unknown solver options"),
    **{
        f"missing_{name}": ((), {k: v for k, v in MIXED_GAME.items() if k != name}, f"error: config is missing the {name!r} field")
        for name in ("value", "cost", "domain")
    },
}


def _game_config(tmp_path, path=None, value=None):
    """MIXED_GAME written to a file, with `value` put at `path` (the whole config for `()`)."""
    cfg = json.loads(json.dumps(MIXED_GAME))
    if path == ():
        cfg = value
    elif path:
        *parents, last = path
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = value
    out = tmp_path / "game.json"
    out.write_text(json.dumps(cfg))  # NaN and Infinity as Python's json writes them
    return out


def assert_one_line_refusal(code, out, err):
    assert code in (1, 2) and out == ""
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    assert err.startswith("error: " if code == 1 else "precondition violated: ")


class TestMalformedConfigs:
    """Every malformed config field exits 1 or 2 with one stderr line naming
    what is wrong, and nothing on stdout."""

    def test_the_well_formed_game_solves(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "solve", str(_game_config(tmp_path)))
        assert code == 0 and err == "" and "trade           yes" in out

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_refused_with_one_line(self, capsys, tmp_path, case):
        path, value, says = MALFORMED[case]
        code, out, err = run_cli(capsys, "solve", str(_game_config(tmp_path, path, value)))
        assert_one_line_refusal(code, out, err)
        assert says in err

    @pytest.mark.parametrize("path, value", [(("solver", "grid_points"), {"1": 2 * 10**10})], ids=["grid_points"])
    def test_oversized_arrays_are_an_input_exit(self, run_capped, tmp_path, path, value):
        # each run has a 512 MB address-space cap, so nothing is really allocated
        config = _game_config(tmp_path, path, value)
        proc = run_capped("-m", "padd.cli", "solve", str(config))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1

    def test_huge_refinement_count_is_refused_at_once(self, run_capped, tmp_path):
        # 10^9 refinement passes used to run without bound; the count is now a
        # constant, so the key is refused before any solving
        cfg = json.loads((CONFIGS / "convex_demo.json").read_text())
        cfg["solver"]["refine_passes"] = 1_000_000_000
        config = tmp_path / "huge_passes.json"
        config.write_text(json.dumps(cfg))
        proc = run_capped("-m", "padd.cli", "solve", str(config), timeout=20)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: unknown solver options: ['refine_passes']\n"

    def test_huge_grid_is_refused_at_once(self, run_capped, tmp_path):
        # 100,000 points per axis in 2 goods is a 10^10-row grid, which used
        # to be scanned for about 25 minutes
        game = {
            "value": {"kind": "min_of_affine", "pieces": [
                {"kind": "affine", "weights": [4.0, 2.0], "intercept": 0.0},
                {"kind": "affine", "weights": [0.0, 0.0], "intercept": 6.0},
            ]},
            "cost": {"kind": "power_sum", "coeffs": [1.0, 1.0], "exponents": [2.0, 2.0]},
            "domain": {"upper": [5.0, 5.0]},
            "solver": {"grid_points": {"1": 2001, "2": 100000}},
        }
        config = tmp_path / "huge_grid.json"
        config.write_text(json.dumps(game))
        proc = run_capped("-m", "padd.cli", "solve", str(config), timeout=20)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "precondition violated: grid of 100000^2 = 10000000000 rows exceeds the 10000000 rows a search scans\n"
        )


class TestHardnessAboveEnumerationCap:
    @pytest.fixture
    def path30(self, tmp_path):
        graph = tmp_path / "path30.txt"
        graph.write_text("30 29\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 30)))
        return str(graph)

    def test_rounding_without_enumeration(self, capsys, path30):
        point = ",".join(["0.5"] * 30)
        code, out, err = run_cli(capsys, "hardness", path30, "--round", point, "--json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert list(payload) == ["nodes", "edges", "rounded", "rounded_surplus", "fractional_surplus"]
        assert payload["nodes"] == 30 and payload["edges"] == 29
        assert set(payload["rounded"]) <= {0.0, 1.0}
        assert payload["rounded_surplus"] >= payload["fractional_surplus"]
        code, out, _ = run_cli(capsys, "hardness", path30, "--round", point)
        assert code == 0
        assert "rounded U" in out and "max surplus" not in out and "mis size" not in out

    def test_enumeration_alone_still_refused(self, capsys, path30):
        code, out, err = run_cli(capsys, "hardness", path30)
        assert code == 2 and out == ""
        assert err.startswith("precondition violated:") and "Traceback" not in err


class TestOverfit:
    def test_reference_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, "overfit", "--epsilon", "0.05", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["rich_revenue"] - 0.1939) < 1e-6
        assert abs(payload["rich_buyer_surplus"] - 7.25) < 1e-6
        assert payload["seller_prefers_augmented"] is True
        # the square-root commitment, as the object that a config would spell it
        assert payload["rich_equilibrium_u"] == {"kind": "power_sum", "coeffs": [1.0], "exponents": [0.5]}
        assert_spelled_out(padd.expr_from_dict(payload["rich_equilibrium_u"]), payload["rich_equilibrium_u"])

    def test_seller_prefers_linear_at_large_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, "overfit", "--epsilon", "0.10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["rich_revenue"] - 0.1439) < 1e-12
        assert payload["seller_prefers_augmented"] is False

    def test_out_of_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "overfit", "--epsilon", "-1")
        assert code == 2

    @pytest.mark.parametrize("command", ["overfit", "reproduce"])
    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_non_finite_epsilon_is_precondition_exit(self, capsys, tmp_path, command, epsilon):
        extra = ["--out", str(tmp_path)] if command == "reproduce" else []
        code, _, err = run_cli(capsys, command, "--epsilon", epsilon, *extra)
        assert code == 2
        assert err == f"precondition violated: epsilon must lie in (0, 0.2439); got {epsilon}\n"
        assert not any(tmp_path.iterdir())


class TestReproduce:
    def test_writes_all_files(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "reproduce", "--out", str(tmp_path))
        assert code == 0
        for name in ("fig2a.csv", "fig2b.csv", "overfit.csv", "hardness_suite.csv"):
            assert (tmp_path / name).exists()

    def test_equilibrium_rows(self, capsys, tmp_path):
        run_cli(capsys, "reproduce", "--out", str(tmp_path))

        def eq_row(name):
            text = (tmp_path / name).read_text().splitlines()
            assert text[0].startswith("# scenario:")
            rows = list(csv.reader(text[1:]))
            header = rows[0]
            row = next(r for r in rows[1:] if r[0] == "equilibrium")
            return dict(zip(header, row))

        a = eq_row("fig2a.csv")
        assert float(a["x"]) == pytest.approx(4.0, abs=1e-6)
        assert float(a["payment"]) == pytest.approx(32.0, abs=1e-6)
        assert float(a["buyer_surplus"]) == pytest.approx(96.0, abs=1e-6)
        assert float(a["seller_revenue"]) == pytest.approx(16.0, abs=1e-6)

        b = eq_row("fig2b.csv")
        assert float(b["x"]) == pytest.approx(16.0, abs=1e-5)
        assert float(b["payment"]) == pytest.approx(4.0, abs=1e-6)
        assert float(b["buyer_surplus"]) == pytest.approx(4.0, abs=1e-6)
        assert float(b["seller_revenue"]) == pytest.approx(0.0, abs=1e-6)

    def test_hardness_suite_identity_column(self, capsys, tmp_path):
        run_cli(capsys, "reproduce", "--out", str(tmp_path))
        text = (tmp_path / "hardness_suite.csv").read_text().splitlines()
        rows = list(csv.reader(text[1:]))
        assert len(rows) - 1 >= 20
        for row in rows[1:]:
            assert row[3] == row[4]
            assert row[5] == "True"


class TestVerifyCommand:
    def test_reports_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(CONFIGS / "concave_demo.json"))
        assert code == 0
        assert "all checks passed" in out
        assert out.count("PASS") == 3

    def test_no_trade_passes_vacuously(self, capsys, tmp_path):
        # v = c = sqrt(x): the payment is at least the cost, so nothing trades
        cfg = json.loads((CONFIGS / "concave_demo.json").read_text())
        cfg["value"] = cfg["cost"]
        path = tmp_path / "no_trade.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 0 and err == ""
        assert "trade           no" in out and out.endswith("\n\nverification: no trade, all checks pass vacuously\n")

    def test_general_cost_with_min_of_affine(self, capsys, tmp_path):
        # x^2 + min(3x, 2) has no closed payment form, so the ray grid prices it
        pieces = [
            {"kind": "affine", "weights": [3.0], "intercept": 0.0},
            {"kind": "affine", "weights": [0.0], "intercept": 2.0},
        ]
        square = {"kind": "power_sum", "coeffs": [1.0], "exponents": [2.0]}
        cost = {"kind": "sum", "children": [square, {"kind": "min_of_affine", "pieces": pieces}]}
        value = {"kind": "power_sum", "coeffs": [20.0], "exponents": [0.5]}
        config = tmp_path / "kinked.json"
        config.write_text(json.dumps({"value": value, "cost": cost, "domain": {"upper": [10.0]}}))

        code, out, _ = run_cli(capsys, "solve", str(config), "--json")
        assert code == 0
        outcome = padd.EquilibriumOutcome.from_dict(json.loads(out))
        assert outcome.method == "general" and outcome.trade
        want = grid_payment(padd.expr_from_dict(cost), outcome.bundle)
        assert rel_err(outcome.payment, want) <= 1e-12

        code, out, _ = run_cli(capsys, "verify", str(config))
        assert code == 0
        assert "verification: all checks passed" in out

    def test_general_cost_on_a_1e154_box_trades(self, capsys, tmp_path):
        # grid rows far out overflow the ray payment: they rank last, silently,
        # and the search still finds the trade near 1.81
        sqrt = {"kind": "power_sum", "coeffs": [1.0], "exponents": [0.5]}
        square = {"kind": "power_sum", "coeffs": [1.0], "exponents": [2.0]}
        game = {
            "value": {"kind": "scale", "factor": 20.0, "child": sqrt},
            "cost": {"kind": "sum", "children": [square, sqrt]},
            "domain": {"upper": [1e154]},
        }
        config = tmp_path / "large_box.json"
        config.write_text(json.dumps(game))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "solve", str(config), "--json")
            assert code == 0 and err == ""
            outcome = padd.EquilibriumOutcome.from_dict(json.loads(out))
            assert outcome.method == "general" and outcome.trade
            assert f"{outcome.bundle[0]:.6g}" == "1.81119"

            code, out, err = run_cli(capsys, "verify", str(config))
        assert code == 0 and err == ""
        assert "bundle          1.81119" in out and "verification: all checks passed" in out

    def test_convex_cost_with_one_piece_min_of_affine(self, capsys, tmp_path):
        # x^2 + min(0.5 x) is convex: its closed payment x . grad c(x) needs
        # the one-piece minimum's batch gradient, the piece's weights
        piece = {"kind": "affine", "weights": [0.5], "intercept": 0.0}
        square = {"kind": "power_sum", "coeffs": [1.0], "exponents": [2.0]}
        cost = {"kind": "sum", "children": [square, {"kind": "min_of_affine", "pieces": [piece]}]}
        value = {"kind": "power_sum", "coeffs": [64.0], "exponents": [0.5]}
        config = tmp_path / "one_piece.json"
        config.write_text(json.dumps({"value": value, "cost": cost, "domain": {"upper": [100.0]}}))

        code, out, err = run_cli(capsys, "solve", str(config), "--json")
        assert code == 0 and err == ""
        outcome = padd.EquilibriumOutcome.from_dict(json.loads(out))
        assert outcome.method == "convex_closed_form" and outcome.trade
        c = padd.expr_from_dict(cost)
        x = outcome.bundle
        assert c.shape is padd.Shape.CONVEX
        assert rel_err(outcome.payment, float(x @ c.grad_max_info(x))) <= 1e-15
        assert rel_err(outcome.payment, x[0] * (2.0 * x[0] + 0.5)) <= 1e-15

        code, out, _ = run_cli(capsys, "verify", str(config))
        assert code == 0
        assert "verification: all checks passed" in out


@st.composite
def solver_configs(draw):
    """`SolverConfig`s over their one field, the grid densities by dimension."""
    return SolverConfig(grid_points=draw(st.dictionaries(st.integers(1, 60), st.integers(2, 10**6), max_size=6)))


def assert_fields_match(config, obj):
    """Each field of the parsed `config` is the one its JSON object `obj` spells out."""
    assert_spelled_out(config.value, obj["value"])
    assert_spelled_out(config.cost, obj["cost"])
    assert config.domain.upper.tolist() == obj["domain"]["upper"]
    assert config.solver.grid_points == {int(d): n for d, n in obj["solver"]["grid_points"].items()}


class TestConfigRoundTrip:
    def test_bundled_configs_parse_field_by_field(self):
        for path in sorted(CONFIGS.glob("*.json")):
            assert_fields_match(ProblemConfig.load(path), json.loads(path.read_text()))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ProblemConfig.from_dict({"value": {}, "cost": {}, "domain": {}, "extra": 1})

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(solver_configs(), st.integers(1, 6))
    def test_solver_config_parses_from_its_json(self, cfg, d):
        obj = {
            "value": {"kind": "power_sum", "coeffs": [1.0] * d, "exponents": [0.5] * d},
            "cost": {"kind": "power_sum", "coeffs": [1.0] * d, "exponents": [2.0] * d},
            "domain": {"upper": [1.0] * d},
            "solver": {"grid_points": {str(k): n for k, n in cfg.grid_points.items()}},
        }
        config = ProblemConfig.from_dict(json.loads(json.dumps(obj)))
        assert config.solver == cfg
        assert_fields_match(config, obj)


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "padd.cli", "overfit", "--epsilon", "0.05"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0.1939" in proc.stdout
