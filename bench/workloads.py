"""Seeded inputs, timed operations and correctness oracles of each workload.

A workload is a list of `Op`s run in order once per pass. An op's `run`
receives the outputs of the earlier ops of the same pass (a verify op
reads the outcome its solve op produced) and returns the op's output.
Its `check` receives that output back, outside the timed region, and
returns None, or the reason the output is wrong. The oracles are closed
forms, or computations that avoid the code path under test: the chord-slope
oracle does not import `raygeom`, and the independent-set oracle is a
plain branching search.

Every op calls padd through a module attribute looked up at call time,
so the timing wrappers of a traced run see it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import padd
import padd.cli
import padd.graphs
import padd.instances

WORKLOADS = ("closed_form", "general_ray", "graph_hardness")

# op kinds whose summed time per pass is reported as `op.<kind>_s`
CATEGORIES = ("solve", "verify", "equivalence", "enumerate", "round")

BENCH_DIR = Path(__file__).resolve().parent
FIXTURES = BENCH_DIR.parent / "fixtures" / "configs"
SCRATCH = BENCH_DIR / "out" / "tmp"

# relative tolerances of the closed-form checks; the solvers reach about
# 1e-7 on these instances (golden-section refinement at golden_tol 1e-10)
RTOL_CLOSED = 1e-6
# payment against the dense chord-slope oracle; the supremum sits at an end
# of the fraction range on every general_ray instance, so grids agree
RTOL_ORACLE = 1e-7


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], str | None]


@dataclass
class Workload:
    name: str
    seed: int
    inputs: dict  # JSON description of everything generated from the seed
    ops: list


# --- canonical form of op outputs -------------------------------------------


def canon(obj):
    """JSON-ready form of an op output that keeps every float bit."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__type__": type(obj).__name__,
                **{f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape), "data": canon(obj.tolist())}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.generic):
        return canon(obj.item())
    if isinstance(obj, float):
        return float.hex(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(canon(obj), sort_keys=True).encode()).hexdigest()


# --- shared checks ----------------------------------------------------------


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _match_outcome(out, bundle, payment, surplus, revenue, rtol=RTOL_CLOSED) -> str | None:
    got_bundle = np.asarray(out.bundle, dtype=float)
    want_bundle = np.asarray(bundle, dtype=float)
    if got_bundle.shape != want_bundle.shape or not all(
        _close(g, w, rtol) for g, w in zip(got_bundle, want_bundle)
    ):
        return f"bundle {got_bundle.tolist()} != {want_bundle.tolist()}"
    for label, got, want in (("payment", out.payment, payment), ("surplus", out.buyer_surplus, surplus),
                             ("revenue", out.seller_revenue, revenue)):
        if not _close(float(got), want, rtol):
            return f"{label} {got!r} != {want!r}"
    return None


def _verified(report, _state) -> str | None:
    if report.passed:
        return None
    failed = [c.name for c in report.checks if not c.passed]
    return f"verify_equilibrium failed: {failed}"


def _equivalent(report, _state) -> str | None:
    if report.equivalent:
        return None
    return (f"pricing classes disagree: bundle {report.bundle_delta:.3g}, payment {report.payment_delta:.3g}, "
            f"surplus {report.surplus_delta:.3g}, revenue {report.revenue_delta:.3g}")


def _solve_verify(name, v, c, box, cfg, check_solve, equivalence=False) -> list[Op]:
    """solve_auto -> verify_equilibrium (-> equivalence_check) on one instance."""
    ops = [
        Op(f"solve:{name}", "solve", lambda s: padd.solve_auto(v, c, box, cfg), check_solve),
        Op(f"verify:{name}", "verify",
           lambda s: padd.verify_equilibrium(s[f"solve:{name}"], v, c, box, cfg=cfg), _verified),
    ]
    if equivalence:
        ops.append(Op(f"equivalence:{name}", "equivalence",
                      lambda s: padd.equivalence_check(v, c, box, cfg), _equivalent))
    return ops


# --- closed_form ------------------------------------------------------------


def suite_reference() -> dict[str, tuple]:
    """Closed-form (bundle, payment, surplus, revenue) of equivalence_suite().

    Convex cost: payment x.grad c(x); concave or linear cost: payment c(x).
    Each bundle maximizes v(x) - payment(x) over the box.
    """
    x_cubic = (4.0 / 3.0) ** 0.4  # 12 sqrt(x) - 1.5 x^3: x^(5/2) = 4/3
    x_pow = 2.0 ** (4.0 / 3.0)  # 6 x^(3/4) - 1.5 x^(3/2): x^(3/4) = 2
    r5 = math.sqrt(5.0)  # 2.5 sqrt(x1) - 0.25 x2 on [0, 5]^2: corner (5, 0)
    return {
        "sqrt_value_square_cost": ((4.0,), 32.0, 96.0, 16.0),
        "quartic_root_value_sqrt_cost": ((16.0,), 4.0, 4.0, 0.0),
        "capped_line_value_square_cost": ((0.81,), 1.3122, 8.1 - 1.3122, 0.6561),
        "sqrt_value_linear_cost": ((64.0,), 32.0, 32.0, 0.0),
        "capped_line_value_linear_cost": ((1.5,), 1.5, 4.5, 0.0),
        "sqrt_value_cubic_cost": ((x_cubic,), 1.5 * x_cubic**3, 12.0 * math.sqrt(x_cubic) - 1.5 * x_cubic**3,
                                  x_cubic**3),
        "anchored_value_square_cost": ((2.0,), 8.0, 8.0, 4.0),
        "power_value_power_cost": ((x_pow,), 6.0, 6.0, 2.0),
        "zero_surplus_no_trade": ((0.0,), 0.0, 0.0, 0.0),
        "two_goods_sqrt_value_square_cost": ((1.0, 1.0), 3.0, 9.0, 1.5),
        "two_goods_mixed_value_concave_cost": ((5.0, 0.0), 0.5 * r5, 2.5 * r5, 0.0),
    }


# The three 1-d fixture configs and their equilibria (bundle, payment,
# surplus, revenue); capped_value_demo is the same game as the suite's.
CLI_DEMOS = {
    "convex_demo": ((4.0,), 32.0, 96.0, 16.0),
    "concave_demo": ((16.0,), 4.0, 4.0, 0.0),
    "capped_value_demo": ((0.81,), 1.3122, 8.1 - 1.3122, 0.6561),
}


def _separable(kind: str, coef: list[float]):
    """Separable power instance on [0, 5]^d with its clipped stationary point.

    convex:  v = sum 8 sqrt(x_i),   c = sum k_i x_i^2, payment sum 2 k_i x_i^2,
             8 sqrt(x) - 2 k x^2 is stationary at x = k^(-2/3).
    concave: v = sum a_i x_i^(1/4), c = sum sqrt(x_i), payment c(x),
             a x^(1/4) - sqrt(x) is stationary at x = (a/2)^4.
    Both per-coordinate objectives rise up to the stationary point and fall
    after it, so the box optimum is the stationary point clipped to 5.
    """
    d = len(coef)
    k = np.asarray(coef)
    box = padd.BoxDomain(np.full(d, 5.0))
    if kind == "convex":
        v = padd.PowerSum((8.0,) * d, (0.5,) * d)
        c = padd.PowerSum(tuple(coef), (2.0,) * d)
        x = np.minimum(k ** (-2.0 / 3.0), 5.0)
        payment = float(np.sum(2.0 * k * x**2))
        value, cost = float(np.sum(8.0 * np.sqrt(x))), float(np.sum(k * x**2))
    else:
        v = padd.PowerSum(tuple(coef), (0.25,) * d)
        c = padd.PowerSum((1.0,) * d, (0.5,) * d)
        x = np.minimum((k / 2.0) ** 4, 5.0)
        payment = cost = float(np.sum(np.sqrt(x)))
        value = float(np.sum(k * x**0.25))
    return v, c, box, (tuple(x), payment, value - payment, payment - cost)


def _cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = padd.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_reproduce(_state) -> dict:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as d:
        res = _cli(["reproduce", "--out", d])
        res["files"] = {p.name: p.read_text() for p in sorted(Path(d).iterdir())}
    # the directory name is random; keep the output comparable across runs
    res["stdout"] = res["stdout"].replace(d, "<out>")
    return res


def _check_cli_solve(ref):
    def check(res, _state):
        if res["rc"] != 0:
            return f"exit {res['rc']}: {res['stderr'].strip()}"
        out = padd.EquilibriumOutcome.from_dict(json.loads(res["stdout"]))
        return _match_outcome(out, *ref)
    return check


def _check_cli_verify(res, _state) -> str | None:
    if res["rc"] != 0:
        return f"exit {res['rc']}: {res['stderr'].strip()}"
    lines = res["stdout"].strip().splitlines()
    if not lines or lines[-1] != "verification: all checks passed":
        return f"verify reported: {lines[-1] if lines else '<nothing>'}"
    return None


def _check_cli_precondition(res, _state) -> str | None:
    if res["rc"] != 2 or not res["stderr"].startswith("precondition violated:") or res["stdout"]:
        return f"expected exit 2 with a named precondition, got {res['rc']}: {res['stderr'].strip()}"
    return None


def _check_cli_reproduce(res, _state) -> str | None:
    if res["rc"] != 0:
        return f"exit {res['rc']}: {res['stderr'].strip()}"
    want = {"fig2a.csv", "fig2b.csv", "overfit.csv", "hardness_suite.csv"}
    if set(res["files"]) != want:
        return f"wrote {sorted(res['files'])}"
    for name, demo in (("fig2a.csv", "convex_demo"), ("fig2b.csv", "concave_demo")):
        rows = list(csv.DictReader(res["files"][name].splitlines()[1:]))
        eq = [r for r in rows if r["row_type"] == "equilibrium"]
        (x,), payment, surplus, revenue = CLI_DEMOS[demo]
        got = [float(eq[0][k]) for k in ("x", "payment", "buyer_surplus", "seller_revenue")] if len(eq) == 1 else []
        if len(got) != 4 or not all(_close(g, w, RTOL_CLOSED) for g, w in zip(got, (x, payment, surplus, revenue))):
            return f"{name} equilibrium row {eq}"
    rows = list(csv.DictReader(res["files"]["hardness_suite.csv"].splitlines()[1:]))
    if not rows or any(r["equal"] != "True" or r["max_surplus"] != r["mis_size"] for r in rows):
        return "hardness_suite.csv has a surplus/MIS mismatch"
    if len(res["files"]["overfit.csv"].splitlines()) < 3:
        return "overfit.csv is empty"
    return None


def closed_form(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    reference = suite_reference()
    for name, v, c, box in padd.instances.equivalence_suite():
        ref = reference[name]
        ops += _solve_verify(name, v, c, box, None,
                             lambda out, s, ref=ref: _match_outcome(out, *ref), equivalence=True)

    separable = {}
    for kind, lo, hi in (("convex", 0.5, 2.0), ("concave", 2.0, 2.9)):
        for d in (3, 4):
            coef = [round(float(t), 3) for t in rng.uniform(lo, hi, d)]
            v, c, box, ref = _separable(kind, coef)
            separable[f"{kind}_{d}d"] = coef
            ops += _solve_verify(f"{kind}_{d}d", v, c, box, None,
                                 lambda out, s, ref=ref: _match_outcome(out, *ref))

    for demo, ref in CLI_DEMOS.items():
        path = str(FIXTURES / f"{demo}.json")
        ops.append(Op(f"cli_solve:{demo}", "solve", lambda s, p=path: _cli(["solve", p, "--json"]),
                      _check_cli_solve(ref)))
        ops.append(Op(f"cli_verify:{demo}", "verify", lambda s, p=path: _cli(["verify", p]), _check_cli_verify))
    five = str(FIXTURES / "five_goods.json")
    ops.append(Op("cli_solve:five_goods", "solve", lambda s: _cli(["solve", five]), _check_cli_precondition))
    ops.append(Op("cli_reproduce", "reproduce", _cli_reproduce, _check_cli_reproduce))
    return Workload("closed_form", seed, {"separable_coefficients": separable}, ops)


# --- general_ray ------------------------------------------------------------


def chord_slope_oracle(c, x, n: int = 20001, eps: float = 1e-6) -> float:
    """max over a in [0, 1 - eps] of (c(x) - c(a x)) / (1 - a), densely sampled."""
    x = np.asarray(x, dtype=float)
    a = np.linspace(0.0, 1.0 - eps, n)
    cx = float(c.values(x[None, :])[0])
    return float(np.max((cx - c.values(a[:, None] * x[None, :])) / (1.0 - a)))


def coarse_scan_best(v, c, box, per_axis: int, n_alpha: int = 2001) -> float:
    """Best v(x) - oracle payment over a coarse grid of non-zero bundles."""
    axes = [np.linspace(0.0, b, per_axis) for b in box.upper]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    pts = pts[np.any(pts > 0, axis=1)]
    return max(float(v.values(p[None, :])[0]) - chord_slope_oracle(c, p, n_alpha) for p in pts)


def _check_general(v, c, box, per_axis):
    def check(out, _state) -> str | None:
        if out.method != "general":
            return f"dispatched to {out.method}, expected the general ray solver"
        x = out.bundle
        if not box.contains(x) or not np.any(x > 0):
            return f"bundle {x.tolist()} outside the box or empty"
        oracle = chord_slope_oracle(c, x)
        if not _close(out.payment, oracle, RTOL_ORACLE):
            return f"payment {out.payment!r} != chord-slope oracle {oracle!r}"
        vx, cx = float(v.values(x[None, :])[0]), float(c.values(x[None, :])[0])
        if not (_close(out.buyer_surplus, vx - out.payment, 1e-12)
                and _close(out.seller_revenue, out.payment - cx, 1e-12)):
            return "payoffs do not add up to value, payment and cost"
        best = coarse_scan_best(v, c, box, per_axis)
        if out.buyer_surplus < best - RTOL_CLOSED * max(1.0, abs(best)):
            return f"surplus {out.buyer_surplus!r} below the coarse-scan best {best!r}"
        return None
    return check


def _check_fixed(v, c, bundle):
    def check(out, _state) -> str | None:
        if out.method != "fixed_bundle" or out.bundle.tolist() != list(bundle):
            return f"fixed bundle {out.bundle.tolist()} != {list(bundle)}"
        oracle = chord_slope_oracle(c, out.bundle)
        if not _close(out.payment, oracle, RTOL_ORACLE):
            return f"payment {out.payment!r} != chord-slope oracle {oracle!r}"
        return None
    return check


def general_ray(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    sq = (0.5,)
    v1 = padd.PowerSum((20.0,), sq)
    box1 = padd.BoxDomain(np.array([10.0]))
    v2 = padd.PowerSum((20.0, 10.0), sq * 2)
    box2 = padd.BoxDomain(np.array([10.0, 10.0]))
    # 101 points per axis, not the default 201: 201^2 takes about 25 s per solve
    cfg2 = padd.SolverConfig(grid_points={1: 2001, 2: 101, 3: 51, 4: 21})
    instances = {
        # x^2 + sqrt(x): neither convex nor concave, so no closed payment form
        "mixed_1d": (v1, padd.Sum([padd.PowerSum((1.0,), (2.0,)), padd.PowerSum((1.0,), sq)]), box1, None, 401),
        "mixed_2d": (v2, padd.Sum([padd.PowerSum((1.0, 1.0), (2.0, 2.0)), padd.PowerSum((1.0, 1.0), sq * 2)]),
                     box2, cfg2, 41),
        # x^2 + min(3x, 2): a general cost that is not a sum of monomials
        "kinked_1d": (v1, padd.Sum([padd.PowerSum((1.0,), (2.0,)),
                                    padd.MinOfAffine([padd.Affine((3.0,), 0.0), padd.Affine((0.0,), 2.0)])]),
                      box1, None, 401),
    }
    ops: list[Op] = []
    bundles = {}
    for name, (v, c, box, cfg, per_axis) in instances.items():
        ops += _solve_verify(name, v, c, box, cfg, _check_general(v, c, box, per_axis))
        bundles[name] = []
        for i in range(2):
            xbar = tuple(round(float(t), 3) for t in rng.uniform(0.5, 9.5, box.dim))
            bundles[name].append(list(xbar))
            ops.append(Op(f"fixed:{name}:{i}", "solve",
                          lambda s, v=v, c=c, xbar=xbar: padd.fixed_bundle_outcome(v, c, np.array(xbar)),
                          _check_fixed(v, c, xbar)))
    return Workload("general_ray", seed, {"fixed_bundles": bundles}, ops)


# --- graph_hardness ---------------------------------------------------------


def mis_oracle(adjacency: np.ndarray) -> int:
    """Maximum independent set size by include/exclude branching on bitmasks."""
    n = adjacency.shape[0]
    nbr = [sum(1 << int(j) for j in np.nonzero(adjacency[i])[0]) for i in range(n)]

    def best(cand: int) -> int:
        if cand == 0:
            return 0
        i = (cand & -cand).bit_length() - 1
        rest = cand & ~(1 << i)
        if nbr[i] & rest == 0:  # isolated in the candidate set: always take it
            return 1 + best(rest)
        return max(best(rest), 1 + best(rest & ~nbr[i]))

    return best((1 << n) - 1)


def _check_enum(g, oracle_key):
    def check(res, state) -> str | None:
        val, arg = res
        want = state.setdefault(oracle_key, mis_oracle(g.adjacency))
        if val != want:
            return f"brute_force_max {val} != independent-set oracle {want}"
        if not np.all((arg == 0) | (arg == 1)):
            return "argmax is not binary"
        if padd.surplus_exact(g, arg) != val:
            return f"surplus_exact(argmax) {padd.surplus_exact(g, arg)} != {val}"
        return None
    return check


def _check_mis(bfm_op, oracle_key, g):
    def check(res, state) -> str | None:
        want = state.setdefault(oracle_key, mis_oracle(g.adjacency))
        if res != want:
            return f"mis_brute_force {res} != independent-set oracle {want}"
        if res != state[bfm_op][0]:
            return f"mis_brute_force {res} != brute_force_max {state[bfm_op][0]}"
        return None
    return check


def _check_round(g, x):
    def check(res, _state) -> str | None:
        if res.shape != x.shape or not np.all((res == 0) | (res == 1)):
            return "rounded point is not binary"
        before, after = padd.surplus_exact(g, x), padd.surplus_exact(g, res)
        if after < before:
            return f"rounding lost surplus: {after} < {before}"
        return None
    return check


def _random_graph_with_edges(d: int, m: int, rng: np.random.Generator):
    """Uniform random graph on d nodes with exactly m edges."""
    ii, jj = np.triu_indices(d, 1)
    pick = np.sort(rng.choice(ii.size, size=m, replace=False))
    return padd.GraphInstance.from_edges(d, zip(ii[pick].tolist(), jj[pick].tolist()))


def graph_hardness(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    graphs = {}
    points = {}
    for d in (12, 16, 20):
        g = padd.graphs.random_graph(d, 0.3, int(rng.integers(2**31)))
        graphs[f"enum_{d}"] = [list(e) for e in g.edges]
        ops.append(Op(f"bfm:{d}", "enumerate", lambda s, g=g: padd.brute_force_max(g),
                      _check_enum(g, f"oracle:{d}")))
        ops.append(Op(f"mis:{d}", "enumerate", lambda s, g=g: padd.mis_brute_force(g),
                      _check_mis(f"bfm:{d}", f"oracle:{d}", g)))
    # Rounding time grows faster than the edge count, so these graphs have a
    # fixed edge count (the G(n, p) mean) with the edges drawn from the seed;
    # sparse at d = 200 (mean degree 4) keeps exact rounding near a second.
    for d, m in ((40, 156), (200, 398)):
        g = _random_graph_with_edges(d, m, rng)
        x = rng.random(d)
        graphs[f"round_{d}"] = [list(e) for e in g.edges]
        points[f"round_{d}"] = [float.hex(float(t)) for t in x]
        ops.append(Op(f"round:{d}", "round", lambda s, g=g, x=x: padd.derandomize(g, x), _check_round(g, x)))
    return Workload("graph_hardness", seed, {"graphs": graphs, "points": points}, ops)


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return globals()[name](seed)
