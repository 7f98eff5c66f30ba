"""`scripts/traffic.py`: the lines of `src/padd` that no shipped path runs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public names that only tests reached, deleted so that no caller can set or call them
DELETED = ("to_json_text", "from_json_text", "expr_to_dict", "GridScan", "ProblemConfig.to_dict",
           "SolverConfig.to_dict", "BoxDomain.to_dict", "BoxDomain.vertices")


def traffic() -> dict[str, str]:
    """{function: its report} from one run of the script in a fresh interpreter, plus the summary under ""."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the script puts its own checkout's src first
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "traffic.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    *rows, summary = proc.stdout.splitlines()
    report = dict(row.split(": ", 1) for row in rows)
    report[""] = summary
    return report


def test_shipped_paths_reach_the_solver_and_no_deleted_name():
    report = traffic()
    assert report[""].endswith(" of them never called") and " functions have lines that never ran, " in report[""]
    assert not [name for name in report if any(d in name for d in DELETED)]
    # every line of `_solve` runs: each search, the box corners among them
    # (`fixtures/configs/mis_reduction.json` plays a linear value against the
    # graph cost), and the outcome assembly
    assert "equilibrium._solve" not in report
    assert "funcs.GraphMinCost.values" not in report
    assert report.get("graphs.parse_graph_json") != "never called"
    assert "gridopt.grid_scan" not in report
