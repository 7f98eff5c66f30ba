"""Median, quartiles and spread of benchmark metrics over several runs.

    python3 bench/summarize.py [RECORD.json ...] [--write bench/BENCH_<label>.json --note TEXT ...]

Reads run records written by run.py (default: every bench/out/*-trace*.json),
groups them by workload and trace mode, and prints, per metric, the
median, the first and third quartile and the spread (Q3 - Q1) / median
over the runs, with statistics.quantiles(values, n=4). Per-op medians are
summarized the same way. `--write` stores the summary, with the
environment of the first record and any `--note` lines, as a result file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "min": min(values), "max": max(values)}


def summarize(records: list[dict]) -> dict:
    groups: dict = {}
    for r in records:
        groups.setdefault(f"{r['workload']}/trace{r['trace']}", []).append(r)
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {name: stats([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["result"]["metrics"]}
        for name in runs[0].get("category_metrics", {}):
            metrics[name] = stats([r["category_metrics"][name] for r in runs])
        ops = {name: stats([r["untraced"]["op_s_median"][name] for r in runs])
               for name in runs[0]["untraced"]["op_s_median"]}
        out[key] = {
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": metrics,
            "op_s": ops,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", type=Path)
    parser.add_argument("--write", type=Path, help="store the summary as a result file")
    parser.add_argument("--note", action="append", default=[], help="free-text note to store with --write")
    args = parser.parse_args(argv)
    paths = args.records or sorted((BENCH / "out").glob("*-trace*.json"))
    records = [json.loads(p.read_text()) for p in paths]
    if not records:
        print("no run records", file=sys.stderr)
        return 1
    summary = summarize(records)
    for key, group in summary.items():
        print(f"{key}  seeds {group['seeds']}  correct {group['correct']}  "
              f"failed {group['failed']}/{group['attempted']}")
        for name, s in group["metrics"].items():
            print(f"  {name:46s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}")
    if args.write:
        env = dict(records[0]["environment"])
        env.pop("seed")
        args.write.write_text(json.dumps({"environment": env, "notes": args.note, "groups": summary}, indent=1) + "\n")
        print(f"wrote {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
