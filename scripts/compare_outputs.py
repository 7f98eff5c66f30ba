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
listed.  An op that raises is digested by its error message.

Exit code: 0 when no op differs, 1 when some op differs, 2 when a checkout
cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
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
state, digests = {}, {}
for op in wl.ops:
    try:
        out = op.run(state)
    except Exception as exc:
        out = f"raised {type(exc).__name__}: {exc}"
    state[op.name] = out
    digests[op.name] = workloads.digest(out)
print(json.dumps(digests))
"""


class CheckoutError(RuntimeError):
    pass


def op_digests(root: Path, workload: str, seed: int) -> dict[str, str]:
    """{op name: digest} of one pass of `workload` at `seed` in the checkout `root`.

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


def differing_ops(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """Ops whose digests differ or that only one side has, in the parent's op order."""
    names = list(parent) + [name for name in change if name not in parent]
    return [name for name in names if parent.get(name) != change.get(name)]


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
                parent = op_digests(args.parent, workload, seed)
                change = op_digests(args.change, workload, seed)
                ops = differing_ops(parent, change)
                total += len(parent)
                differ += len(ops)
                print(f"{workload} seed {seed}: {len(parent)} ops, {len(ops)} differ")
                for name in ops:
                    print(f"  DIFFERS {name}")
    except CheckoutError as exc:
        print(f"compare_outputs: {exc}", file=sys.stderr)
        return 2
    print(f"{differ} of {total} ops differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
