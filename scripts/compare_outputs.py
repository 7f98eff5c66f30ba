"""Compare the benchmark op outputs of two checkouts, bit for bit.

    python3 scripts/compare_outputs.py PARENT CHANGE --seeds 7311 8422 9533
    python3 scripts/compare_outputs.py PARENT CHANGE --seeds 7311 --workloads general_ray

PARENT and CHANGE are checkout roots (each holding `src/padd` and
`bench/workloads.py`).  For every workload (all three, or those that
`--workloads` names) and seed, a fresh interpreter per checkout imports
that checkout's `bench/workloads.py` (and so its `src/padd`), runs one
pass over the workload's ops and prints each op's `workloads.digest`, the
sha256 of its output with every float in hex.  The two digest sets are
compared and every op that differs, or exists on one side only, is
listed with the largest relative difference `|a - b| / max(|a|, |b|)`
between corresponding numbers of the two outputs (walking
`workloads.canon`), or "structure differs" when some other part differs
(a key, a length, a string) or the op exists on one side only.  An op
that raises is digested by its error message.

Exit code: 0 when no op differs, 1 when some op differs, 2 when a checkout
cannot be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("closed_form", "general_ray", "graph_hardness")

# runs in the child: argv is (checkout root, workload, seed)
_PASS = r"""
import json, sys
from pathlib import Path
root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import padd, workloads
if Path(padd.__file__).resolve().parent != root / "src" / "padd":
    raise SystemExit(f"imported padd from {padd.__file__}, not from {root}")
wl = workloads.build(sys.argv[2], int(sys.argv[3]))
state, outputs = {}, {}
for op in wl.ops:
    try:
        out = op.run(state)
    except Exception as exc:
        out = f"raised {type(exc).__name__}: {exc}"
    state[op.name] = out
    outputs[op.name] = [workloads.digest(out), workloads.canon(out)]
print(json.dumps(outputs))
"""

# a float as `workloads.canon` writes it (`float.hex`), or an exact fraction
_FLOAT = re.compile(r"-?0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|-?inf|nan")
_FRACTION = re.compile(r"-?\d+/\d+")


class CheckoutError(RuntimeError):
    pass


def op_outputs(root: Path, workload: str, seed: int) -> dict[str, list]:
    """{op name: [digest, canonical output]} of one pass of `workload` at
    `seed` in the checkout `root`.

    A relative `root` is taken from the current directory: the child runs
    in the checkout, so it gets the resolved path."""
    root = Path(root).resolve()
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", _PASS, str(root), workload, str(seed)],
                          cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CheckoutError(f"{root} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def differing_ops(parent: dict[str, list], change: dict[str, list]) -> list[str]:
    """Ops whose digests differ or that only one side has, in the parent's op order."""
    names = list(parent) + [name for name in change if name not in parent]
    return [name for name in names if parent.get(name, [None])[0] != change.get(name, [None])[0]]


def _number(leaf):
    """The number a canonical leaf holds (an int, a hex float or a fraction), or None."""
    if isinstance(leaf, int) and not isinstance(leaf, bool):
        return leaf
    if isinstance(leaf, str) and _FLOAT.fullmatch(leaf):
        return float.fromhex(leaf)
    if isinstance(leaf, str) and _FRACTION.fullmatch(leaf):
        return Fraction(leaf)
    return None


def largest_relative_difference(a, b) -> float | None:
    """The largest `|x - y| / max(|x|, |y|)` over corresponding numbers of
    two canonical outputs (inf where one of an unequal pair is not finite),
    0.0 if they are equal; None when anything but a number differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        parts = [largest_relative_difference(a[key], b[key]) for key in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [largest_relative_difference(x, y) for x, y in zip(a, b)]
    elif a == b and type(a) is type(b):
        return 0.0
    else:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            return None
        if x == y:  # -0.0 and 0.0
            return 0.0
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        return float(abs(x - y) / max(abs(x), abs(y)))
    return None if None in parts else max(parts, default=0.0)


def describe(parent: list | None, change: list | None) -> str:
    """How the outputs of an op that differs differ."""
    rel = None if parent is None or change is None else largest_relative_difference(parent[1], change[1])
    return "structure differs" if rel is None else f"largest relative difference {rel:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS, metavar="NAME")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not (root / "bench" / "workloads.py").is_file() or not (root / "src" / "padd").is_dir():
            print(f"compare_outputs: {root} is not a checkout with src/padd and bench/workloads.py", file=sys.stderr)
            return 2

    total = differ = 0
    try:
        for workload in args.workloads:
            for seed in args.seeds:
                parent = op_outputs(args.parent, workload, seed)
                change = op_outputs(args.change, workload, seed)
                ops = differing_ops(parent, change)
                total += len(parent)
                differ += len(ops)
                print(f"{workload} seed {seed}: {len(parent)} ops, {len(ops)} differ")
                for name in ops:
                    print(f"  DIFFERS {name}: {describe(parent.get(name), change.get(name))}")
    except CheckoutError as exc:
        print(f"compare_outputs: {exc}", file=sys.stderr)
        return 2
    print(f"{differ} of {total} ops differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
