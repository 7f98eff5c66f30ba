"""One workload in one fresh process: build inputs, time passes, check outputs.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints `READY` once padd is imported and the inputs are built, then (unless
`--setup-only`) runs whole passes over the workload until `--seconds` have
gone by, checks every op output outside the timed regions, and prints one
JSON result line. Exits 1 when any op failed its check, 2 on bad usage.
`run.py` starts this script; it is not meant to be timed on its own.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_padd():
    """Import padd from the checkout's `src/`, never from an installed copy."""
    if not (SRC / "padd" / "__init__.py").is_file():
        raise SystemExit(f"worker: no padd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import padd

    if Path(padd.__file__).resolve().parent != (SRC / "padd").resolve():
        raise SystemExit(f"worker: imported padd from {padd.__file__}, not from {SRC}")
    return padd


class OpError(str):
    """Output of an op that raised."""


def run_pass(ops, tracer=None) -> tuple[float, dict, dict]:
    """Run every op once; returns (pass wall time, op seconds, op outputs)."""
    state: dict = {}
    times: dict = {}
    t_pass = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        t0 = perf_counter()
        try:
            out = op.run(state)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            out = OpError(f"{type(exc).__name__}: {exc}")
        times[op.name] = perf_counter() - t0
        state[op.name] = out
    return perf_counter() - t_pass, times, state


def measure(wl, seconds: float, trace: bool, spans_out: Path | None = None) -> dict:
    """Timed passes, then the correctness checks; returns the result record.

    A traced run reduces each pass's spans to layer metrics as soon as the
    pass ends, and keeps the first pass's spans, which it writes to
    `spans_out` at the end.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    patches = tracing.install(tracer) if trace else []
    walls, op_times, states, layers, first_spans = [], [], [], [], None
    try:
        t_start = perf_counter()
        while not walls or perf_counter() - t_start < seconds:
            wall, times, state = run_pass(wl.ops, tracer)
            walls.append(wall)
            op_times.append(times)
            states.append(state)
            if tracer is not None:
                spans = tracer.take()
                layers.append(tracing.layer_metrics(spans))
                if first_spans is None:
                    first_spans = spans
    finally:
        tracing.restore(patches)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    failures: list[dict] = []
    verdicts: dict = {}
    digests: dict = {}
    for i, state in enumerate(states):
        for op in wl.ops:
            out = state[op.name]
            attempted += 1
            key = (op.name, workloads.digest(out))
            if i == 0:
                digests[op.name] = key[1]
            if key not in verdicts:
                if isinstance(out, OpError):
                    verdicts[key] = f"raised {out}"
                else:
                    try:
                        verdicts[key] = op.check(out, state)
                    except Exception as exc:  # a check that cannot read the output fails the op
                        verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
            reason = verdicts[key]
            if reason is None and key[1] != digests[op.name]:
                reason = "output differs from the first pass"
            if reason is not None:
                failed += 1
                failures.append({"pass": i, "op": op.name, "reason": reason})

    category_s = {}
    for kind in workloads.CATEGORIES:
        names = [op.name for op in wl.ops if op.kind == kind]
        category_s[kind] = [sum(times[n] for n in names) for times in op_times]
    result = {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": trace,
        "passes": len(walls),
        "wall_s": walls,
        "category_s": category_s,
        "op_s_median": {op.name: median(t[op.name] for t in op_times) for op in wl.ops},
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if trace:
        result["layers"] = layers
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            spans_out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op", "work"],
                                             "spans": first_spans}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, help="where a traced run writes its first pass's spans")
    args = parser.parse_args(argv)

    import_padd()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(wl, args.seconds, bool(args.trace), args.spans_out)
    print(json.dumps(result), flush=True)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
