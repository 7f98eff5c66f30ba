"""Command-line front end.

Subcommands: solve, fixed-bundle, hardness, overfit, reproduce, verify.
Exit codes are stable: 0 success, 1 unreadable/malformed input, 2 a solver
precondition was violated (the message names it).  Numbers print with 6
significant digits; `--json` emits full precision.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concavepricing import OverfitReport, overfit_scenario
from .equilibrium import (
    EquilibriumOutcome,
    fixed_bundle_outcome,
    solve_auto,
    solve_concave,
    solve_convex,
    solve_general,
    verify_equilibrium,
)
from .errors import PreconditionError
from .funcs import MAX_ENUM_DIM, BoxDomain, FunctionExpr, as_bundle, expr_from_dict
from .graphs import GraphInstance, parse_graph_json, parse_graph_text
from .hardness import brute_force_max, derandomize, mis_brute_force, surplus_U
from .instances import SCENARIOS, hardness_corpus
from .response import SolverConfig

__all__ = ["ProblemConfig", "main"]

_SOLVERS = {
    "auto": solve_auto,
    "general": solve_general,
    "convex": solve_convex,
    "concave": solve_concave,
}


@dataclass
class ProblemConfig:
    """One game instance plus solver options, as stored in a JSON file."""

    value: FunctionExpr
    cost: FunctionExpr
    domain: BoxDomain
    solver: SolverConfig

    @classmethod
    def from_dict(cls, obj: dict) -> "ProblemConfig":
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        known = {"value", "cost", "domain", "solver"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for field_name in ("value", "cost", "domain", "solver"):
            if field_name not in obj and field_name != "solver":
                raise ValueError(f"config is missing the {field_name!r} field")
            if not isinstance(obj.get(field_name, {}), dict):
                raise ValueError(f"config field {field_name!r} must be a JSON object")
        config = cls(
            value=expr_from_dict(obj["value"]),
            cost=expr_from_dict(obj["cost"]),
            domain=BoxDomain.from_dict(obj["domain"]),
            solver=SolverConfig.from_dict(obj.get("solver", {})),
        )
        dims = {config.value.dim, config.cost.dim, config.domain.dim}
        if len(dims) != 1:
            raise ValueError(
                f"config dimensions disagree: value {config.value.dim}, "
                f"cost {config.cost.dim}, domain {config.domain.dim}"
            )
        return config

    @classmethod
    def load(cls, path) -> "ProblemConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _fmt_vec(v) -> str:
    return ", ".join(_fmt(x) for x in np.atleast_1d(v))


def _print_outcome(out: EquilibriumOutcome) -> None:
    print(f"method          {out.method}")
    print(f"trade           {'yes' if out.trade else 'no'}")
    print(f"bundle          {_fmt_vec(out.bundle)}")
    print(f"total payment   {_fmt(out.payment)}")
    print(f"price split     {_fmt_vec(out.price_split)}")
    print(f"unit prices     {_fmt_vec(out.unit_prices)}")
    print(f"buyer surplus   {_fmt(out.buyer_surplus)}")
    print(f"seller revenue  {_fmt(out.seller_revenue)}")


def _write_outcome_csv(out: EquilibriumOutcome, stream) -> None:
    w = csv.writer(stream)
    w.writerow(EquilibriumOutcome.CSV_FIELDS)
    w.writerow(out.csv_row())


def _cmd_solve(args) -> int:
    config = ProblemConfig.load(args.config)
    out = _SOLVERS[args.mode](config.value, config.cost, config.domain, config.solver)
    if args.json:
        print(json.dumps(out.to_dict(), indent=2))
    elif args.csv:
        _write_outcome_csv(out, sys.stdout)
    else:
        _print_outcome(out)
    return 0


def _cmd_fixed_bundle(args) -> int:
    config = ProblemConfig.load(args.config)
    bundle = as_bundle([float(t) for t in args.bundle.split(",")], config.domain.dim)
    if not config.domain.contains(bundle):
        raise PreconditionError("bundle lies outside the production box")
    out = fixed_bundle_outcome(config.value, config.cost, bundle)
    if args.json:
        payload = out.to_dict()
        print(json.dumps({key: payload[key] for key in ("payment", "imitative", "buyer_surplus")}, indent=2))
    else:
        print(f"bundle          {_fmt_vec(bundle)}")
        print(f"total payment   {_fmt(out.payment)}")
        print(f"anchored value  anchor = [{_fmt_vec(out.bundle)}], level = {_fmt(out.payment)}")
        print(f"buyer surplus   {_fmt(out.buyer_surplus)}")
    return 0


def _load_graph(path) -> GraphInstance:
    p = Path(path)
    text = p.read_text()
    if p.suffix == ".json":
        return parse_graph_json(json.loads(text))
    return parse_graph_text(text)


def _cmd_hardness(args) -> int:
    g = _load_graph(args.graph)
    payload = {"nodes": g.node_count, "edges": g.edge_count}
    # rounding alone needs no enumeration; without --round a graph above the cap is refused
    enumerate_ = g.node_count <= MAX_ENUM_DIM or not args.round
    if enumerate_:
        val, arg = brute_force_max(g)
        mis = mis_brute_force(g)
        payload.update(max_surplus=val, argmax=[float(v) for v in arg], mis_size=mis, equal=val == mis)
    if args.round:
        point = Path(args.round[1:]).read_text().strip() if args.round.startswith("@") else args.round
        xbar = np.array([float(t) for t in point.split(",")])
        rounded = derandomize(g, xbar)
        payload["rounded"] = [float(v) for v in rounded]
        payload["rounded_surplus"] = surplus_U(g, rounded)
        payload["fractional_surplus"] = surplus_U(g, xbar)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"nodes           {payload['nodes']}")
        print(f"edges           {payload['edges']}")
        if enumerate_:
            print(f"max surplus     {payload['max_surplus']}")
            print(f"argmax          {_fmt_vec(arg)}")
            print(f"mis size        {payload['mis_size']}")
            print(f"equal           {'yes' if payload['equal'] else 'no'}")
        if args.round:
            print(f"rounded         {_fmt_vec(payload['rounded'])}")
            print(f"rounded U       {_fmt(payload['rounded_surplus'])}")
            print(f"fractional U    {_fmt(payload['fractional_surplus'])}")
    return 0


def _cmd_overfit(args) -> int:
    report = overfit_scenario(args.epsilon)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    elif args.csv:
        w = csv.writer(sys.stdout)
        w.writerow(OverfitReport.CSV_FIELDS)
        w.writerows(report.csv_rows())
    else:
        print(f"epsilon                   {_fmt(report.epsilon)}")
        print(f"linear equilibrium        bundle {_fmt(report.linear_bundle)}, payment {_fmt(report.linear_payment)}, revenue {_fmt(report.linear_revenue)}, buyer surplus {_fmt(report.linear_buyer_surplus)}")
        print(f"sqrt vs best linear       price {_fmt(report.sqrt_linear_price)}, bundle {_fmt(report.sqrt_linear_bundle)}, revenue {_fmt(report.sqrt_linear_revenue)}")
        print(f"sqrt vs added price       bundle {_fmt(report.rich_bundle)}, revenue {_fmt(report.rich_revenue)}, buyer surplus {_fmt(report.rich_buyer_surplus)}")
        print(f"seller picks              {report.chosen_price_tag}")
        print(f"revenue decrease holds    {'yes' if report.seller_prefers_augmented else 'no'}")
        print(f"note: {report.note}")
    return 0


def _sample_curve_rows(v, c, u_expr, x_hi: float, n: int = 101):
    """`n` curve rows on `[0, x_hi]`; each curve is one `values` batch, which
    gives every row the bits that `value` gives it alone."""
    xs = np.linspace(0.0, x_hi, n)[:, None]
    columns = [xs[:, 0].tolist()] + [f.values(xs).tolist() for f in (v, c, u_expr)]
    for row in zip(*columns):
        yield ["curve", *map(repr, row), "", "", ""]


def _write_scenario_csv(path: Path, scenario_id: str, title: str) -> None:
    v, c, domain = SCENARIOS[scenario_id]()
    out = solve_auto(v, c, domain)
    with path.open("w", newline="") as fh:
        fh.write(f"# scenario: {scenario_id} — {title}\n")
        w = csv.writer(fh)
        w.writerow(
            ["row_type", "x", "value", "cost", "imitative", "payment", "buyer_surplus", "seller_revenue"]
        )
        x_star = float(out.bundle[0])
        for row in _sample_curve_rows(v, c, out.imitative, 2.5 * x_star):
            w.writerow(row)
        w.writerow(
            [
                "equilibrium",
                repr(x_star),
                repr(v.value(out.bundle)),
                repr(c.value(out.bundle)),
                repr(out.imitative.value(out.bundle)),
                repr(out.payment),
                repr(out.buyer_surplus),
                repr(out.seller_revenue),
            ]
        )


def _cmd_reproduce(args) -> int:
    report = overfit_scenario(args.epsilon)  # refuses a bad epsilon before any file is written
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_scenario_csv(
        out_dir / "fig2a.csv", "fig2a", "convex-cost benchmark: v(x) = 64*sqrt(x), c(x) = x^2"
    )
    _write_scenario_csv(
        out_dir / "fig2b.csv", "fig2b", "concave-cost benchmark: v(x) = 4*x^(1/4), c(x) = sqrt(x)"
    )

    with (out_dir / "overfit.csv").open("w", newline="") as fh:
        fh.write("# scenario: overfit — capped-line value, quadratic cost, augmented pricing class\n")
        w = csv.writer(fh)
        w.writerow(OverfitReport.CSV_FIELDS)
        w.writerows(report.csv_rows())

    with (out_dir / "hardness_suite.csv").open("w", newline="") as fh:
        fh.write("# scenario: hardness — graph surplus maximum vs. maximum independent set\n")
        w = csv.writer(fh)
        w.writerow(["graph", "nodes", "edges", "max_surplus", "mis_size", "equal"])
        for name, g in hardness_corpus():
            val, _ = brute_force_max(g)
            mis = mis_brute_force(g)
            w.writerow([name, g.node_count, g.edge_count, val, mis, val == mis])

    for name in ("fig2a.csv", "fig2b.csv", "overfit.csv", "hardness_suite.csv"):
        print(f"wrote {out_dir / name}")
    return 0


def _cmd_verify(args) -> int:
    config = ProblemConfig.load(args.config)
    out = _SOLVERS[args.mode](config.value, config.cost, config.domain, config.solver)
    report = verify_equilibrium(out, config.value, config.cost, config.domain, config.solver)
    _print_outcome(out)
    print()
    if report.vacuous:
        print("verification: no trade, all checks pass vacuously")
        return 0
    for check in report.checks:
        flag = "PASS" if check.passed else "FAIL"
        extra = f"  ({check.detail})" if check.detail else ""
        print(f"{flag}  {check.name}  worst violation {check.worst_violation:.3e}{extra}")
    print(f"verification: {'all checks passed' if report.passed else 'FAILED'}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first `main` call (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="padd",
        description="Equilibria of posted-price games against a buyer committing to an imitative value function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a game instance from a JSON config")
    p.add_argument("config")
    p.add_argument("--mode", choices=sorted(_SOLVERS), default="auto")
    p.add_argument("--json", action="store_true", help="machine-readable output, full precision")
    p.add_argument("--csv", action="store_true", help="one equilibrium per CSV row")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fixed-bundle", help="optimal commitment for a fixed trade bundle")
    p.add_argument("config")
    p.add_argument("--bundle", required=True, help="comma-separated coordinates")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fixed_bundle)

    p = sub.add_parser("hardness", help="graph surplus maximum vs. maximum independent set")
    p.add_argument("graph", help="graph file: 'd m' header then 1-based edge lines (or .json)")
    p.add_argument("--round", help="comma-separated fractional point to round, or @FILE holding it")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hardness)

    p = sub.add_parser("overfit", help="the enlarged-pricing-class counterexample")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_overfit)

    p = sub.add_parser("reproduce", help="write benchmark CSVs (curves, equilibria, graph suite)")
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("verify", help="solve and check the equilibrium conditions")
    p.add_argument("config")
    p.add_argument("--mode", choices=sorted(_SOLVERS), default="auto")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError, MemoryError) as exc:
        # a MemoryError is an input too large to allocate, e.g. a huge grid
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
