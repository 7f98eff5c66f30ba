"""Benchmark of padd: one workload, one seed, one run.

    python3 bench/run.py --workload closed_form|general_ray|graph_hardness \
        --seed N --seconds S --trace 0|1

Run from anywhere; padd is imported from `src/` of the checkout this
file sits in. Each measurement happens in a fresh single-threaded worker
process (`worker.py`) with PADD_THREADS unset and BLAS pinned to one thread.

--trace 0  Nine set-up probes (fresh interpreter to inputs ready), then one
           untraced worker running whole passes for S seconds. Reports the
           end-to-end metrics setup_s, wall_s and peak_rss_mb.
--trace 1  The probes, then an untraced worker and a traced worker for S/2
           seconds each. Reports the per-layer metrics of the traced worker,
           the op-category times and error rate of the untraced one, and
           trace.overhead_s; fails unless both workers' op outputs are
           bit-identical.

Every op output is checked against a closed form or an independent oracle.
The last stdout line is `{"correct", "attempted", "failed", "metrics"}`;
the full record, with the environment, goes to bench/out/. The exit code is
0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 30.0
# one run must end within 180 s: probes, the workers' passes and their checks
WORKER_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PADD_THREADS", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args: list[str], env: dict, timeout: float) -> tuple[float, int, list[str]]:
    """Run one worker; returns (seconds from start to READY, exit code, stdout lines)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env, stdout=subprocess.PIPE)
    chunks: list[bytes] = []
    ready = None
    try:
        fd = proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                left = t0 + timeout - perf_counter()
                if left <= 0:
                    raise BenchError(f"worker {' '.join(args)} ran past {timeout:.0f} s")
                if not sel.select(left):
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                if ready is None and b"READY\n" in b"".join(chunks[:4]):
                    ready = perf_counter() - t0
        rc = proc.wait(timeout=max(1.0, t0 + timeout - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is None:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode} before its inputs were ready")
    return ready, rc, b"".join(chunks).decode().splitlines()


def measure(args: list[str], env: dict, timeout: float) -> tuple[float, int, dict]:
    ready, rc, lines = run_worker(args, env, timeout)
    if rc not in (0, 1) or len(lines) < 2:
        raise BenchError(f"worker {' '.join(args)} exited {rc} without a result")
    return ready, rc, json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def category_metrics(res: dict) -> dict:
    out = {f"op.{kind}_s": median(times) for kind, times in res["category_s"].items()}
    out["op.error_rate"] = res["failed"] / res["attempted"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="padd benchmark: one workload, one seed, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "padd" / "__init__.py").is_file():
        print(f"run.py: no padd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = [run_worker(base + ["--setup-only"], env, PROBE_TIMEOUT_S)[0] for _ in range(SETUP_PROBES)]
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "run_seconds": args.seconds}
    if args.trace == 0:
        ready, rc, res = measure(base + ["--seconds", str(args.seconds)], env, WORKER_TIMEOUT_S)
        setup.append(ready)
        metrics = {
            "setup_s": median(setup),
            "wall_s": median(res["wall_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        attempted, failed, codes = res["attempted"], res["failed"], [rc]
        record["untraced"] = res
        record["category_metrics"] = category_metrics(res)
        mismatched: list[str] = []
    else:
        half = str(args.seconds / 2)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        ready0, rc0, plain = measure(base + ["--seconds", half], env, WORKER_TIMEOUT_S / 2)
        ready1, rc1, traced = measure(base + ["--seconds", half, "--trace", "1", "--spans-out", str(spans)],
                                      env, WORKER_TIMEOUT_S / 2)
        setup += [ready0, ready1]
        mismatched = sorted(op for op, d in plain["digests"].items() if traced["digests"].get(op) != d)
        layers = traced.pop("layers")
        metrics = {name: median(p[name] for p in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = median(traced["wall_s"]) - median(plain["wall_s"])
        metrics.update(category_metrics(plain))
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"] + len(mismatched)
        codes = [rc0, rc1]
        record.update(untraced=plain, traced=traced, layers_per_pass=layers, spans_file=str(spans.relative_to(ROOT)),
                      traced_output_mismatch=mismatched)
        res = plain
    record["setup_s_samples"] = setup
    record["environment"] = {
        "python": res["python"],
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "PADD_THREADS": env.get("PADD_THREADS"),
        "PADD_THREADS_inherited": os.environ.get("PADD_THREADS"),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": args.seed,
    }
    correct = failed == 0 and all(rc == 0 for rc in codes) and not mismatched
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    record["result"] = summary
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for f in (record.get("untraced", {}).get("failures", []) + record.get("traced", {}).get("failures", [])):
        print(f"FAILED {f['op']} (pass {f['pass']}): {f['reason']}", file=sys.stderr)
    for op in mismatched:
        print(f"FAILED {op}: traced output differs from the untraced output", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if correct else 1


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_rate", "per_seller_call")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(3)
