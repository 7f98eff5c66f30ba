"""Every demo script runs to completion without writing to stderr."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padd import overfit_scenario

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [p.name for p in DEMOS] == [
        "hardness_reduction.py",
        "payment_geometry.py",
        "pricing_class_overfit.py",
        "worked_equilibria.py",
    ]


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def test_overfit_demo_states_the_switch_it_computes():
    # the printed threshold is a float at which the added price wins, and
    # the next float up is one at which it loses
    first = run_demo(ROOT / "demos" / "pricing_class_overfit.py").stdout.splitlines()[0]
    assert first.startswith("switch threshold: eps <= ") and first.endswith(" for the added price to win")
    eps = float(first.split()[4])
    assert overfit_scenario(eps).seller_prefers_augmented
    assert not overfit_scenario(math.nextafter(eps, 1.0)).seller_prefers_augmented
