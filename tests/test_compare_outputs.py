"""`scripts/compare_outputs.py`: relative checkout paths and the workload filter."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_relative_root_from_another_directory(monkeypatch):
    # the child runs inside the checkout, where `<name>` would name `<name>/<name>`
    monkeypatch.chdir(ROOT.parent)
    digests = compare_outputs.op_digests(Path(ROOT.name), "graph_hardness", 7)
    assert digests == compare_outputs.op_digests(ROOT, "graph_hardness", 7)
    assert list(digests)[:2] == ["bfm:12", "mis:12"]


def test_workloads_option_runs_only_the_named_workload(capsys):
    assert compare_outputs.main([str(ROOT), str(ROOT), "--seeds", "7", "--workloads", "general_ray"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("general_ray seed 7: ") and lines[0].endswith(" 0 differ")
    assert len(lines) == 2 and lines[1].startswith("0 of ")


def test_unknown_workload_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        compare_outputs.main([str(ROOT), str(ROOT), "--seeds", "7", "--workloads", "general"])
    assert exc.value.code == 2 and "invalid choice: 'general'" in capsys.readouterr().err
