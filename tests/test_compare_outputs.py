"""`scripts/compare_outputs.py`: relative checkout paths, the workload filter
and how a differing op's outputs differ."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_relative_root_from_another_directory(monkeypatch):
    # the child runs inside the checkout, where `<name>` would name `<name>/<name>`
    monkeypatch.chdir(ROOT.parent)
    outputs = compare_outputs.op_outputs(Path(ROOT.name), "graph_hardness", 7)
    assert outputs == compare_outputs.op_outputs(ROOT, "graph_hardness", 7)
    assert list(outputs)[:2] == ["bfm:12", "mis:12"]


def test_workloads_option_runs_only_the_named_workload(capsys):
    assert compare_outputs.main([str(ROOT), str(ROOT), "--seeds", "7", "--workloads", "general_ray"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("general_ray seed 7: ") and lines[0].endswith(" 0 differ")
    assert len(lines) == 2 and lines[1].startswith("0 of ")


def test_unknown_workload_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        compare_outputs.main([str(ROOT), str(ROOT), "--seeds", "7", "--workloads", "general"])
    assert exc.value.code == 2 and "invalid choice: 'general'" in capsys.readouterr().err


def canonical(bundle, method="general", count=3, share="1/3"):
    """An output as `workloads.canon` writes it: floats in hex, fractions as text."""
    return {"__type__": "Outcome", "bundle": {"dtype": "float64", "shape": [len(bundle)], "data": [b.hex() for b in bundle]},
            "method": method, "count": count, "share": share, "trade": True}


def test_largest_relative_difference_walks_the_canonical_output():
    rel = compare_outputs.largest_relative_difference
    base = canonical([1.5, 0.0, 2.0])
    assert rel(base, canonical([1.5, 0.0, 2.0])) == 0.0
    assert math.isclose(rel(base, canonical([1.5, 0.0, 2.0 * (1.0 + 4e-8)])), 4e-8, rel_tol=1e-6)
    assert rel(base, canonical([1.5, 1e-300, 2.0])) == 1.0
    assert rel(base, canonical([1.5, -0.0, 2.0])) == 0.0
    assert rel(base, canonical([1.5, 0.0, math.inf])) == math.inf
    assert rel(canonical([math.nan]), canonical([math.nan])) == 0.0
    assert rel(base, canonical([1.5, 0.0, 2.0], count=4)) == 0.25
    assert rel(base, canonical([1.5, 0.0, 2.0], share="1/4")) == 0.25
    assert rel(base, canonical([1.5, 0.0])) is None
    assert rel(base, canonical([1.5, 0.0, 2.0], method="convex_closed_form")) is None
    assert rel(base, {**base, "extra": 1}) is None


def test_each_differing_op_is_listed_with_how_it_differs(monkeypatch, capsys):
    sides = iter([
        {"same": ["d0", canonical([1.0])], "moved": ["d1", canonical([2.0])], "renamed": ["d2", canonical([1.0])],
         "gone": ["d3", canonical([1.0])]},
        {"same": ["d0", canonical([1.0])], "moved": ["d4", canonical([2.0 * (1.0 + 5e-8)])],
         "renamed": ["d5", canonical([1.0], method="fixed_bundle")]},
    ])
    monkeypatch.setattr(compare_outputs, "op_outputs", lambda root, workload, seed: next(sides))
    assert compare_outputs.main([str(ROOT), str(ROOT), "--seeds", "7", "--workloads", "closed_form"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "closed_form seed 7: 4 ops, 3 differ",
        "  DIFFERS moved: largest relative difference 5e-08",
        "  DIFFERS renamed: structure differs",
        "  DIFFERS gone: structure differs",
        "3 of 4 ops differ",
    ]
