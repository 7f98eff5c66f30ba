import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import padd
from padd.cli import ProblemConfig, main
from padd.instances import convex_cost_demo

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

    @pytest.mark.parametrize(
        "option", [{"tie_tol": float("nan")}, {"grid_points": {"1": 1}}, {"refine_top_k": 0}]
    )
    def test_invalid_solver_option_is_io_exit(self, capsys, tmp_path, option):
        cfg = json.loads((CONFIGS / "convex_demo.json").read_text())
        cfg["solver"].update(option)
        bad = tmp_path / "bad_solver.json"
        bad.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "solve", str(bad))
        assert code == 1
        assert err.startswith("error: solver option")
        assert out == ""


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

    def test_self_loop_rejected(self, capsys):
        code, _, err = run_cli(capsys, "hardness", str(GRAPHS / "selfloop_bad.txt"))
        assert code == 2
        assert "self-loop" in err


class TestOverfit:
    def test_reference_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, "overfit", "--epsilon", "0.05", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["rich_revenue"] - 0.1939) < 1e-6
        assert abs(payload["rich_buyer_surplus"] - 7.25) < 1e-6
        assert payload["seller_prefers_augmented"] is True

    def test_seller_prefers_linear_at_large_epsilon(self, capsys):
        code, out, _ = run_cli(capsys, "overfit", "--epsilon", "0.10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["rich_revenue"] - 0.1439) < 1e-12
        assert payload["seller_prefers_augmented"] is False

    def test_out_of_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "overfit", "--epsilon", "-1")
        assert code == 2


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


class TestConfigRoundTrip:
    def test_bundled_configs_are_byte_identical(self):
        for path in sorted(CONFIGS.glob("*.json")):
            text = path.read_text()
            assert ProblemConfig.from_json_text(text).to_json_text() == text, path.name

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ProblemConfig.from_dict({"value": {}, "cost": {}, "domain": {}, "extra": 1})


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "padd.cli", "overfit", "--epsilon", "0.05"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0.1939" in proc.stdout
