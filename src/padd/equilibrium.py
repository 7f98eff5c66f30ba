"""Outer level of the game: the buyer's optimal commitment.

The buyer chooses the bundle maximizing

    F(x) = v(x) - payment(x),      payment(x) = ray-slope supremum of c at x,

commits to the anchored (Leontief-shaped) value function worth `payment`
at that bundle, and the seller's optimal linear price then trades exactly
there.  `raygeom` alone picks the payment formula from the cost's shape
(closed forms for convex and concave costs, the numeric ray form
otherwise), so the three solvers share one body and differ only in their
shape precondition and method tag: `general`, `convex_closed_form`,
`concave_closed_form` (plus `fixed_bundle` for a caller-chosen bundle).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from numbers import Integral, Real

import numpy as np

from .errors import DimensionError, PreconditionError
from .funcs import (
    Affine,
    BoxDomain,
    FunctionExpr,
    Leontief,
    Shape,
    as_bundle,
)
# golden_max is unused here; bench/tests/test_harness.py expects this module to bind it
from .gridopt import coordinate_refine, golden_max, grid_blocks, grid_density, grid_rows, grid_scan, top_k  # noqa: F401
from .raygeom import DEFAULT_EPS_LIMIT, DEFAULT_GRID_N, ray_payment_batch, ray_payment_floor, ray_slope_sup
from .response import (
    DEFAULT_GOLDEN_TOL,
    DEFAULT_SELLER_GRID,
    DEFAULT_TIE_TOL,
    buyer_best_response,
    seller_optimal_linear_price,
)

__all__ = [
    "SolverConfig",
    "ImitativeValue",
    "EquilibriumOutcome",
    "FixedBundleResult",
    "CheckResult",
    "VerificationReport",
    "solve_general",
    "solve_convex",
    "solve_concave",
    "solve_auto",
    "fixed_bundle_optimal",
    "fixed_bundle_outcome",
    "verify_equilibrium",
]

METHOD_GENERAL = "general"
METHOD_CONVEX = "convex_closed_form"
METHOD_CONCAVE = "concave_closed_form"
METHOD_FIXED = "fixed_bundle"


@dataclass
class SolverConfig:
    """Knobs for the grid solvers and the sampled verification checks."""

    grid_points: dict = field(default_factory=lambda: dict(DEFAULT_SELLER_GRID))
    refine_top_k: int = 3
    refine_passes: int = 2
    golden_tol: float = DEFAULT_GOLDEN_TOL
    tie_tol: float = DEFAULT_TIE_TOL
    bundle_tol: float = 1e-6
    no_trade_tol: float = 1e-12
    ray_grid_n: int = DEFAULT_GRID_N
    eps_limit: float = DEFAULT_EPS_LIMIT
    lambda_split: tuple | None = None
    vertex_enumeration: bool = False

    def __post_init__(self):
        for name in ("golden_tol", "tie_tol", "bundle_tol", "no_trade_tol"):
            tol = getattr(self, name)
            if not (_is_number(tol, Real) and math.isfinite(tol) and tol > 0):
                raise ValueError(f"solver option {name} must be finite and positive")
        for name, least in (("refine_top_k", 1), ("refine_passes", 0), ("ray_grid_n", 2)):
            n = getattr(self, name)
            if not (_is_number(n, Integral) and n >= least):
                raise ValueError(f"solver option {name} must be an integer of at least {least}")
        if not (_is_number(self.eps_limit, Real) and 0.0 < self.eps_limit < 1.0):
            raise ValueError("solver option eps_limit must lie in (0, 1)")
        if not isinstance(self.vertex_enumeration, bool):
            raise ValueError("solver option vertex_enumeration must be true or false")
        if not (
            isinstance(self.grid_points, Mapping)
            and all(_is_number(d, Integral) and _is_number(n, Integral) and n >= 2 for d, n in self.grid_points.items())
        ):
            raise ValueError("solver option grid_points must map integer dimensions to integer point counts of at least 2")

    def points(self, dim: int) -> int:
        return grid_density(self.grid_points, dim)

    def to_dict(self) -> dict:
        return {
            "grid_points": {str(k): int(v) for k, v in self.grid_points.items()},
            "refine_top_k": self.refine_top_k,
            "refine_passes": self.refine_passes,
            "golden_tol": self.golden_tol,
            "tie_tol": self.tie_tol,
            "bundle_tol": self.bundle_tol,
            "no_trade_tol": self.no_trade_tol,
            "ray_grid_n": self.ray_grid_n,
            "eps_limit": self.eps_limit,
            "lambda_split": list(self.lambda_split) if self.lambda_split else None,
            "vertex_enumeration": self.vertex_enumeration,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SolverConfig":
        cfg = cls()
        known = set(cfg.to_dict())
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown solver options: {sorted(unknown)}")
        kwargs = dict(obj)
        if isinstance(kwargs.get("grid_points"), Mapping):
            # JSON object keys are strings; __post_init__ refuses a key that is no integer
            kwargs["grid_points"] = {int(k) if str(k).isdecimal() else k: v for k, v in kwargs["grid_points"].items()}
        if kwargs.get("lambda_split") is not None:
            kwargs["lambda_split"] = tuple(float(v) for v in kwargs["lambda_split"])
        return replace(cfg, **kwargs)


def _is_number(value, kind) -> bool:
    """`value` is a `kind` (`Real` or `Integral`) number; booleans are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(eq=False)
class ImitativeValue:
    """Anchored value function the buyer commits to: worth `payment` at the
    anchor bundle and proportionally less for fractions of it.

    Zero anchor coordinates mark absent goods (boundary equilibria); the
    induced `Leontief` expression then caps the fraction over the support
    only.
    """

    anchor: np.ndarray
    payment: float

    def __post_init__(self):
        self.anchor = as_bundle(self.anchor)
        if self.payment < 0:
            raise PreconditionError("payment must be non-negative")
        if self.payment > 0 and not np.any(self.anchor > 0):
            raise PreconditionError("positive payment needs a non-zero anchor")

    @property
    def support(self) -> np.ndarray:
        return self.anchor > 0

    def to_expr(self) -> FunctionExpr:
        if not np.any(self.support):
            return Affine(np.zeros(self.anchor.size), 0.0)
        return Leontief(tuple(self.anchor), self.payment)

    def value(self, x) -> float:
        return self.to_expr().value(x)

    def to_dict(self) -> dict:
        return {"anchor": [float(a) for a in self.anchor], "payment": float(self.payment)}

    @classmethod
    def from_dict(cls, obj: dict) -> "ImitativeValue":
        return cls(np.asarray(obj["anchor"], dtype=float), float(obj["payment"]))


@dataclass(eq=False)
class EquilibriumOutcome:
    """Full description of a solved game: trade point, payment, payoffs.

    `payment` is the total amount paid for the bundle; `unit_prices` are
    the per-good linear prices induced by the simplex split
    `price_split`, so `unit_prices . bundle == payment`.
    """

    bundle: np.ndarray
    payment: float
    imitative: ImitativeValue
    price_split: np.ndarray
    unit_prices: np.ndarray
    buyer_surplus: float
    seller_revenue: float
    method: str

    @property
    def trade(self) -> bool:
        return bool(np.any(self.bundle > 0))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "trade": self.trade,
            "bundle": [float(v) for v in self.bundle],
            "payment": float(self.payment),
            "price_split": [float(v) for v in self.price_split],
            "unit_prices": [float(v) for v in self.unit_prices],
            "buyer_surplus": float(self.buyer_surplus),
            "seller_revenue": float(self.seller_revenue),
            "imitative": self.imitative.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EquilibriumOutcome":
        return cls(
            bundle=np.asarray(obj["bundle"], dtype=float),
            payment=float(obj["payment"]),
            imitative=ImitativeValue.from_dict(obj["imitative"]),
            price_split=np.asarray(obj["price_split"], dtype=float),
            unit_prices=np.asarray(obj["unit_prices"], dtype=float),
            buyer_surplus=float(obj["buyer_surplus"]),
            seller_revenue=float(obj["seller_revenue"]),
            method=str(obj["method"]),
        )

    CSV_FIELDS = (
        "method",
        "bundle",
        "payment",
        "unit_prices",
        "buyer_surplus",
        "seller_revenue",
    )

    def csv_row(self) -> list:
        return [
            self.method,
            ";".join(repr(float(v)) for v in self.bundle),
            repr(float(self.payment)),
            ";".join(repr(float(v)) for v in self.unit_prices),
            repr(float(self.buyer_surplus)),
            repr(float(self.seller_revenue)),
        ]


@dataclass
class FixedBundleResult:
    """Best commitment when the trade bundle is fixed by the caller."""

    payment: float
    imitative: ImitativeValue
    surplus: float


# --- validation helpers ----------------------------------------------------


def _validate_instance(v: FunctionExpr, c: FunctionExpr, domain: BoxDomain):
    if not (v.dim == c.dim == domain.dim):
        raise DimensionError(
            f"dimensions disagree: value {v.dim}, cost {c.dim}, domain {domain.dim}"
        )
    if v.shape not in (Shape.CONCAVE, Shape.LINEAR):
        raise PreconditionError("true value function must be concave (or linear)")
    zero = np.zeros(domain.dim)
    if abs(v.value(zero)) > 1e-12 or abs(c.value(zero)) > 1e-12:
        raise PreconditionError("value and cost must vanish at the origin")
    # both are monotone, so the upper corner of the box holds their maxima
    corner = domain.upper[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        top = (v.values(corner)[0], c.values(corner)[0])
    if not np.all(np.isfinite(top)):
        raise PreconditionError("value and cost must be finite on the box (they overflow at its upper corner)")


# --- inner maximization ----------------------------------------------------


# grid rows per objective batch when an upper bound prunes the grid
_PRUNE_BLOCK = 64


def _maximize(obj_batch, domain: BoxDomain, cfg: SolverConfig, bound_batch=None):
    """Maximize over the box; returns (bundle, value).

    Grid argmax with lexicographically-smallest tie-breaking, followed by
    cyclic per-coordinate golden refinement of the top cells, in every
    dimension alike, all top cells in one lockstep `coordinate_refine`.
    The grid is scanned in blocks (`gridopt.grid_scan`); since the
    objective gives a row the same bits in any batch, the top cells are
    those of one evaluation of the whole grid, bit for bit.

    `bound_batch`, when given, must be at least `obj_batch` on every row in
    floating point, bit for bit.  The objective is then evaluated only on
    the rows that can reach the top `refine_top_k` (the argmax alone under
    vertex enumeration); see `_pruned_values`.  The result is identical.
    `_solve` passes `v - (c - c(0))` for costs without a closed payment
    form: its a = 0 chord slope `c(x) - c(0)` is the first entry of the
    slope array that the payment maximizes, so with monotone rounding the
    bound holds in floating point.
    """
    if cfg.vertex_enumeration:
        pts = domain.vertices()
        vals = obj_batch(pts) if bound_batch is None else _pruned_values(obj_batch, bound_batch(pts), pts.__getitem__, 1)
        i0 = int(np.nonzero(vals >= vals.max())[0][0])
        return pts[i0].copy(), float(vals[i0])

    n = cfg.points(domain.dim)
    if bound_batch is None:
        _, vals, starts, _ = grid_scan(obj_batch, domain.upper, n, cfg.refine_top_k)
    else:
        rows = partial(grid_rows, domain.upper, n)
        bound = np.concatenate([bound_batch(xs) for _, xs in grid_blocks(domain.upper, n)])
        vals = _pruned_values(obj_batch, bound, rows, cfg.refine_top_k)
        idx = top_k(vals, cfg.refine_top_k)
        vals, starts = vals[idx], rows(idx)

    spacing = domain.upper / (n - 1)
    refined = coordinate_refine(obj_batch, starts, spacing, domain.upper, cfg.refine_passes, cfg.golden_tol)
    candidates = [(float(vals[0]), tuple(starts[0]))]
    candidates += [(float(val), tuple(x)) for val, x in zip(obj_batch(refined), refined)]

    top = max(val for val, _ in candidates)
    near = [xt for val, xt in candidates if val >= top - cfg.no_trade_tol]
    best = min(near)  # lexicographically smallest bundle among ties
    return np.asarray(best, dtype=float), top


def _pruned_values(obj_batch, bound: np.ndarray, rows, k: int) -> np.ndarray:
    """`obj_batch(rows(i))` for every index i that can reach the top `k`;
    -inf elsewhere.

    `bound[i]` bounds the objective at `rows(i)` (`rows` maps an index
    array to its (m, d) rows).  Indices are visited in descending-bound
    order (stable) in blocks of `_PRUNE_BLOCK`, and only their rows are
    made.  A row whose bound is below the k-th best value seen so far is
    strictly below the k-th best value of the whole grid, so it can
    neither enter the stable top-k nor tie the argmax; the walk stops at
    the first block without a row left to evaluate.  NaN bounds sort first
    and are never skipped.  Node values are batch-invariant, so each
    evaluated row gets the bits that the whole-grid evaluation gives it.
    """
    k = min(k, bound.size)
    bound = np.where(np.isnan(bound), np.inf, bound)
    order = np.argsort(-bound, kind="stable")
    vals = np.full(bound.size, -np.inf)
    top = np.full(k, -np.inf)  # the k best values evaluated so far
    for start in range(0, order.size, _PRUNE_BLOCK):
        idx = order[start : start + _PRUNE_BLOCK]
        idx = idx[bound[idx] >= top[0]]
        if idx.size == 0:
            break
        vals[idx] = obj_batch(rows(idx))
        top = np.partition(np.concatenate([top, vals[idx]]), -k)[-k:]
    return vals


# --- outcome assembly ------------------------------------------------------


def _split_for(bundle: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    support = bundle > 0
    if cfg.lambda_split is not None:
        lam = np.asarray(cfg.lambda_split, dtype=float)
        if lam.shape != bundle.shape:
            raise DimensionError("payment split dimension mismatch")
        if np.any(lam < 0) or abs(float(lam.sum()) - 1.0) > 1e-9:
            raise PreconditionError("payment split must lie on the simplex")
        if np.any(lam[~support] > 0):
            raise PreconditionError("payment split puts weight on an absent good")
        return lam
    lam = np.zeros(bundle.size)
    lam[support] = 1.0 / support.sum()
    return lam


def _no_trade(dim: int, method: str) -> EquilibriumOutcome:
    zero = np.zeros(dim)
    return EquilibriumOutcome(
        bundle=zero,
        payment=0.0,
        imitative=ImitativeValue(zero.copy(), 0.0),
        price_split=zero.copy(),
        unit_prices=zero.copy(),
        buyer_surplus=0.0,
        seller_revenue=0.0,
        method=method,
    )


def _trade_outcome(
    v: FunctionExpr,
    c: FunctionExpr,
    bundle: np.ndarray,
    payment: float,
    method: str,
    cfg: SolverConfig,
) -> EquilibriumOutcome:
    bundle = np.where(bundle > 0, bundle, 0.0)
    if not np.any(bundle > 0):
        return _no_trade(bundle.size, method)
    lam = _split_for(bundle, cfg)
    unit = np.zeros(bundle.size)
    support = bundle > 0
    unit[support] = lam[support] * (payment / bundle[support])
    return EquilibriumOutcome(
        bundle=bundle,
        payment=payment,
        imitative=ImitativeValue(bundle.copy(), payment),
        price_split=lam,
        unit_prices=unit,
        buyer_surplus=v.value(bundle) - payment,
        seller_revenue=payment - c.value(bundle),
        method=method,
    )


# --- solvers ---------------------------------------------------------------


def _solve(v: FunctionExpr, c: FunctionExpr, domain: BoxDomain, cfg: SolverConfig, method: str) -> EquilibriumOutcome:
    """Maximize `v(x) - payment(x)` over the box and assemble the outcome."""

    def objective(xs):
        return v.values(xs) - ray_payment_batch(c, xs, cfg.ray_grid_n, cfg.eps_limit)

    def bound(xs):
        # the payment is at least its a = 0 chord slope, c(x) - c(0)
        return v.values(xs) - ray_payment_floor(c, xs)

    # a closed-form payment is its own floor: a bound would only add a full-grid sort
    x, best = _maximize(objective, domain, cfg, bound if c.shape is Shape.GENERAL else None)
    if best <= cfg.no_trade_tol or not np.any(x > 0):
        return _no_trade(domain.dim, method)
    payment = float(ray_payment_batch(c, x[None, :], cfg.ray_grid_n, cfg.eps_limit)[0])
    return _trade_outcome(v, c, x, payment, method, cfg)


def solve_general(v: FunctionExpr, c: FunctionExpr, domain: BoxDomain, cfg: SolverConfig | None = None) -> EquilibriumOutcome:
    """Equilibrium for an arbitrary monotone cost via the ray-slope payment."""
    _validate_instance(v, c, domain)
    return _solve(v, c, domain, cfg or SolverConfig(), METHOD_GENERAL)


def solve_convex(v: FunctionExpr, c: FunctionExpr, domain: BoxDomain, cfg: SolverConfig | None = None) -> EquilibriumOutcome:
    """Convex costs: the payment is `x . grad c(x)` (linear costs: `c(x)`)."""
    _validate_instance(v, c, domain)
    if c.shape not in (Shape.CONVEX, Shape.LINEAR):
        raise PreconditionError(f"cost is not convex (classified {c.shape.value})")
    return _solve(v, c, domain, cfg or SolverConfig(), METHOD_CONVEX)


def solve_concave(v: FunctionExpr, c: FunctionExpr, domain: BoxDomain, cfg: SolverConfig | None = None) -> EquilibriumOutcome:
    """Concave costs: payment equals the cost, seller revenue is zero."""
    _validate_instance(v, c, domain)
    if c.shape not in (Shape.CONCAVE, Shape.LINEAR):
        raise PreconditionError(f"cost is not concave (classified {c.shape.value})")
    return _solve(v, c, domain, cfg or SolverConfig(), METHOD_CONCAVE)


def solve_auto(v: FunctionExpr, c: FunctionExpr, domain: BoxDomain, cfg: SolverConfig | None = None) -> EquilibriumOutcome:
    """Dispatch on the cost's curvature classification.

    Linear costs take the concave route (payment equals cost exactly);
    unresolved curvature falls back to the general ray-slope solver.
    """
    shape = c.shape
    if shape is Shape.CONVEX:
        return solve_convex(v, c, domain, cfg)
    if shape in (Shape.CONCAVE, Shape.LINEAR):
        return solve_concave(v, c, domain, cfg)
    return solve_general(v, c, domain, cfg)


def fixed_bundle_optimal(
    v: FunctionExpr, c: FunctionExpr, xbar, cfg: SolverConfig | None = None
) -> FixedBundleResult:
    """Cheapest commitment that still trades exactly at the bundle `xbar`.

    The payment is the smallest level at which serving all of `xbar` beats
    serving every fraction of it, i.e. the ray-slope supremum.
    """
    cfg = cfg or SolverConfig()
    xbar = as_bundle(xbar, v.dim)
    if np.any(xbar <= 0):
        raise PreconditionError("fixed bundle must be strictly positive in every coordinate")
    payment = ray_slope_sup(c, xbar, cfg.ray_grid_n, cfg.eps_limit).payment
    return FixedBundleResult(
        payment=payment,
        imitative=ImitativeValue(xbar.copy(), payment),
        surplus=v.value(xbar) - payment,
    )


def fixed_bundle_outcome(
    v: FunctionExpr, c: FunctionExpr, xbar, cfg: SolverConfig | None = None
) -> EquilibriumOutcome:
    """Full outcome for a caller-chosen trade bundle (method `fixed_bundle`)."""
    cfg = cfg or SolverConfig()
    res = fixed_bundle_optimal(v, c, xbar, cfg)
    return _trade_outcome(v, c, as_bundle(xbar, v.dim), res.payment, METHOD_FIXED, cfg)


# --- verification ----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_violation: float
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list
    vacuous: bool = False

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_equilibrium(
    outcome: EquilibriumOutcome,
    v: FunctionExpr,
    c: FunctionExpr,
    domain: BoxDomain,
    sample_n: int = 10001,
    cfg: SolverConfig | None = None,
) -> VerificationReport:
    """Check the solved outcome against the defining best-response conditions.

    (a) serving any fraction of the bundle is weakly worse for the seller,
    (b) the buyer's best response to the split unit prices is the bundle,
    (c) re-solving the seller's problem against the committed value
        function recovers the payment.
    No-trade outcomes pass vacuously.
    """
    cfg = cfg or SolverConfig()
    if sample_n < 2:
        raise PreconditionError("fraction feasibility needs at least 2 samples (a = 0 and a = 1)")
    if not outcome.trade:
        return VerificationReport(checks=[], vacuous=True)

    x, p = outcome.bundle, outcome.payment
    checks = []

    alphas = np.linspace(0.0, 1.0, sample_n)
    margins = alphas * p - c.values(alphas[:, None] * x)
    worst = float(margins.max() - margins[-1])  # the last fraction is a = 1, the bundle itself
    tol_a = 1e-9 * max(1.0, abs(p))
    checks.append(
        CheckResult("seller_fraction_feasibility", worst <= tol_a, max(worst, 0.0))
    )

    u_expr = outcome.imitative.to_expr()
    xbr = buyer_best_response(
        u_expr, outcome.unit_prices, domain, c, cfg.tie_tol, cfg.golden_tol, cfg.grid_points
    )
    dev = float(np.max(np.abs(xbr - x)))
    checks.append(
        CheckResult("buyer_best_response_at_split_price", dev <= cfg.bundle_tol, dev)
    )

    sol = seller_optimal_linear_price(u_expr, c, domain, cfg.grid_points, cfg.tie_tol, cfg.golden_tol)
    pay_dev = abs(float(sol.price @ sol.bundle) - p)
    tol_c = 1e-6 * max(1.0, abs(p))
    checks.append(
        CheckResult(
            "seller_reoptimization_recovers_payment",
            bool(sol.verified and pay_dev <= tol_c),
            pay_dev,
            detail="" if sol.verified else "seller search failed to verify a candidate",
        )
    )
    return VerificationReport(checks=checks)
