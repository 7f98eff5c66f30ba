"""`scripts/traffic.py`: the lines of `src/padd` that no shipped path runs."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

from padd import equilibrium

ROOT = Path(__file__).resolve().parent.parent

# public names that only tests reached, deleted so that no caller can set or call them
DELETED = ("to_json_text", "from_json_text", "expr_to_dict", "GridScan", "ProblemConfig.to_dict",
           "SolverConfig.to_dict", "BoxDomain.to_dict")


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


def _lines(report: str) -> set[int]:
    out = set()
    for span in report.split(", "):
        a, _, b = span.partition("-")
        out.update(range(int(a), int(b or a) + 1))
    return out


def test_shipped_paths_reach_the_solver_and_no_deleted_name():
    report = traffic()
    assert report[""].endswith(" of them never called") and " functions have lines that never ran, " in report[""]
    assert not [name for name in report if any(d in name for d in DELETED)]
    # every search of `_solve` but the box corners (a linear value against a
    # concave cost, which no fixture, bench op or demo plays) runs, and so
    # does the outcome assembly
    source, first = inspect.getsourcelines(equilibrium._solve)
    needed = {first + i for i, line in enumerate(source)
              if "_maximize_per_good(objective" in line or "_maximize(objective" in line or "_trade_outcome(" in line}
    assert len(needed) == 3
    unrun = report.get("equilibrium._solve")
    if unrun is not None:
        assert unrun != "never called" and not needed & _lines(unrun)
    assert "gridopt.grid_scan" not in report
