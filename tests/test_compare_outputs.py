"""`scripts/compare_outputs.py` finds a checkout given by a relative path."""

import importlib.util
from pathlib import Path

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
