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
The numeric ray form runs on `raygeom`'s fixed grid, and the outcome
derives its payment split, so the grid densities are the one option read.

That body picks its search from the game's shapes: the box corners (the
2-point grid) for a linear value against a concave cost, one good at a
time when the value and a closed-form cost are sums of one-good terms,
the grid of `_maximize` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
from .gridopt import REFINE_PASSES, REFINE_TOP_K, axis_rows, coordinate_refine, golden_max, grid_blocks, grid_rows
from .gridopt import grid_scan, refine_bracket, top_k
from .raygeom import ray_payment_batch, ray_payment_floor, ray_slope_sup
from .response import SolverConfig, _separable, buyer_best_response, optimal_price_family, seller_optimal_linear_price

__all__ = [
    "EquilibriumOutcome",
    "CheckResult",
    "VerificationReport",
    "solve_general",
    "solve_convex",
    "solve_concave",
    "solve_auto",
    "fixed_bundle_outcome",
    "verify_equilibrium",
]

METHOD_GENERAL = "general"
METHOD_CONVEX = "convex_closed_form"
METHOD_CONCAVE = "concave_closed_form"
METHOD_FIXED = "fixed_bundle"

_NO_TRADE_TOL = 1e-12  # surplus at or below which a solve trades nothing; closer candidates tie
_FRACTION_SAMPLES = 10001  # fractions of the bundle in `verify_equilibrium`'s seller check
_BUNDLE_TOL = 1e-6  # `verify_equilibrium`'s largest coordinate gap to the buyer's response


@dataclass(eq=False)
class EquilibriumOutcome:
    """Full description of a solved game: trade point, payment, payoffs.

    `payment` is the total amount paid for the bundle.  The commitment
    `imitative`, the payment split `price_split` and its unit prices
    (`unit_prices . bundle == payment`) are derived from the two.  Every
    simplex split charges the same total, so the split is a display
    choice: even over the goods bought and zero on the others.
    """

    bundle: np.ndarray
    payment: float
    buyer_surplus: float
    seller_revenue: float
    method: str

    def __post_init__(self):
        self.bundle = as_bundle(self.bundle)
        if not self.payment >= 0:  # NaN too
            raise PreconditionError("payment must be non-negative")
        if self.payment > 0 and not self.trade:
            raise PreconditionError("positive payment needs a non-zero bundle")

    @property
    def trade(self) -> bool:
        return bool(np.any(self.bundle > 0))

    @property
    def imitative(self) -> FunctionExpr:
        """The committed `Leontief`: worth `payment` at the bundle, less on
        fractions of it, capped over the support only (zero without trade)."""
        if not self.trade:
            return Affine(np.zeros(self.bundle.size), 0.0)
        return Leontief(tuple(self.bundle), self.payment)

    @property
    def price_split(self) -> np.ndarray:
        """The even split over the goods bought, zero on the others."""
        support = self.bundle > 0
        lam = np.zeros(self.bundle.size)
        if self.trade:
            lam[support] = 1.0 / support.sum()
        return lam

    @property
    def unit_prices(self) -> np.ndarray:
        """`optimal_price_family` of the split on the support, 0 elsewhere."""
        unit = np.zeros(self.bundle.size)
        support = self.bundle > 0
        if self.trade:
            unit[support] = optimal_price_family(self.bundle[support], self.payment, self.price_split[support])
        return unit

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
            "imitative": {"anchor": [float(v) for v in self.bundle], "payment": float(self.payment)},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EquilibriumOutcome":
        """Read `to_dict`'s form, less the derived `imitative`, `price_split`
        and `unit_prices`."""
        return cls(
            bundle=np.asarray(obj["bundle"], dtype=float),
            payment=float(obj["payment"]),
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
    golden refinement of all top cells in one lockstep `coordinate_refine`.
    The grid is scanned in blocks (`gridopt.grid_scan`); since the
    objective gives a row the same bits in any batch, the top cells are
    those of one evaluation of the whole grid, bit for bit.

    `bound_batch`, when given, must be at least `obj_batch` on every row in
    floating point, bit for bit.  The objective is then evaluated only on
    the rows that can reach the top `REFINE_TOP_K`; see `_pruned_values`.
    The result is identical.
    `_solve` passes `v - ray_payment_floor(c)` for costs without a closed
    payment form: the floor is the larger of the first (a = 0) and last
    entries of the slope array that the payment maximizes, so with
    monotone rounding the bound holds in floating point.
    """
    n = cfg.points(domain.dim)
    if bound_batch is None:
        vals, starts = grid_scan(obj_batch, domain.upper, n, REFINE_TOP_K)
    else:
        rows = partial(grid_rows, domain.upper, n)
        bound = np.concatenate([bound_batch(xs) for _, xs in grid_blocks(domain.upper, n)])
        vals = _pruned_values(obj_batch, bound, rows, REFINE_TOP_K)
        idx = top_k(vals, REFINE_TOP_K)
        vals, starts = vals[idx], rows(idx)

    spacing = domain.upper / (n - 1)
    refined = coordinate_refine(obj_batch, starts, spacing, domain.upper, REFINE_PASSES)
    candidates = [(float(vals[0]), tuple(starts[0]))]
    candidates += [(float(val), tuple(x)) for val, x in zip(obj_batch(refined), refined)]
    best, top = _pick(candidates)
    return np.asarray(best, dtype=float), top


def _pick(candidates):
    """(point, value) of the best of the (value, point) `candidates`: the
    smallest (lexicographically) point within `_NO_TRADE_TOL` of the best."""
    top = max(val for val, _ in candidates)
    return min(x for val, x in candidates if val >= top - _NO_TRADE_TOL), top


def _maximize_per_good(obj_batch, domain: BoxDomain, cfg: SolverConfig):
    """Maximize a separable objective over the box; returns (bundle, value).

    `obj_batch` on the axis row `t * e_i` must be good i's term at t (every
    term vanishes at 0), so each good is a 1-d problem, searched the way
    `_maximize` searches one good: the `cfg.points(1)` grid on `[0,
    upper_i]`, golden refinement of its top `REFINE_TOP_K` points, then
    the smallest t within `_NO_TRADE_TOL` of the good's best (`_pick`).
    One good is `_maximize` itself; else all goods' grids are one objective
    call and each golden step (`REFINE_PASSES` passes of ±1 cell) one call
    for all k * d brackets, and the value is the sum of the goods' bests.
    The d-dimensional density is still required, so the grid and this
    search accept the same games.
    """
    if domain.dim == 1:
        return _maximize(obj_batch, domain, cfg)
    d, n, _ = domain.dim, cfg.points(1), cfg.points(domain.dim)
    upper = domain.upper[:, None]
    ts = np.stack([np.linspace(0.0, b, n) for b in domain.upper])  # (d, n), the 1-d grid rows of each good
    vals = obj_batch(axis_rows(ts, np.arange(d)[:, None], d)).reshape(d, n)
    idx = np.stack([top_k(row, REFINE_TOP_K) for row in vals])
    starts = np.take_along_axis(ts, idx, axis=1)  # (d, k)
    goods_k = np.repeat(np.arange(d), starts.shape[1])  # the good of each of the k * d brackets

    def along(pos):
        return obj_batch(axis_rows(pos, goods_k, d)).reshape(pos.shape)

    t = starts
    for _ in range(REFINE_PASSES):
        lo, hi = refine_bracket(t, upper / (n - 1), upper)
        t = golden_max(along, lo.ravel(), hi.ravel()).reshape(starts.shape)
    refined = along(t.ravel()).reshape(starts.shape)
    picks = [_pick([(vals[i, idx[i, 0]], starts[i, 0]), *zip(refined[i], t[i])]) for i in range(d)]
    return np.array([x for x, _ in picks]), sum(top for _, top in picks)


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


def _no_trade(dim: int, method: str) -> EquilibriumOutcome:
    zero = np.zeros(dim)
    return EquilibriumOutcome(
        bundle=zero,
        payment=0.0,
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
) -> EquilibriumOutcome:
    bundle = np.where(bundle > 0, bundle, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        surplus, revenue = v.value(bundle) - payment, payment - c.value(bundle)
    # both payoffs are finite exactly when the value, the cost and the payment are
    if not np.all(np.isfinite([payment, surplus, revenue])):
        raise PreconditionError("value, cost and payment must be finite at the trade bundle (they overflow there)")
    return EquilibriumOutcome(
        bundle=bundle,
        payment=payment,
        buyer_surplus=surplus,
        seller_revenue=revenue,
        method=method,
    )


# --- solvers ---------------------------------------------------------------


def _solve(v: FunctionExpr, c: FunctionExpr, domain: BoxDomain, cfg: SolverConfig, method: str) -> EquilibriumOutcome:
    """Maximize `v(x) - payment(x)` over the box and assemble the outcome.

    The search depends on the game's shapes only, never on `method`:
    - a concave (or linear) cost is its own payment, so against a linear
      value the objective `v - c` is convex and its maximum sits at a box
      corner: the corners are the 2-point grid, and `grid_scan` streams
      them and keeps the first maximal one in lexicographic order;
    - the closed payment of a separable cost (`x . grad c(x)` or `c(x)`)
      is separable too, so against a separable value `_maximize_per_good`
      solves one good at a time (the cost's shape is tested first, so
      general costs skip the separability check);
    - every other game takes the grid of `_maximize`.
    """

    def objective(xs):
        return v.values(xs) - ray_payment_batch(c, xs)

    def bound(xs):
        # the payment is at least its first and last grid slopes
        return v.values(xs) - ray_payment_floor(c, xs)

    # on a large box a row's payment can overflow: it then ranks last (-inf or NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        if v.shape is Shape.LINEAR and c.shape in (Shape.CONCAVE, Shape.LINEAR):
            vals, rows = grid_scan(objective, domain.upper, 2, 1)
            x, best = rows[0], float(vals[0])
        elif c.shape is not Shape.GENERAL and _separable(v) and _separable(c):
            x, best = _maximize_per_good(objective, domain, cfg)
        else:
            # a closed-form payment is its own floor: a bound would only add a full-grid sort
            x, best = _maximize(objective, domain, cfg, bound if c.shape is Shape.GENERAL else None)
    if best <= _NO_TRADE_TOL or not np.any(x > 0):
        return _no_trade(domain.dim, method)
    payment = float(ray_payment_batch(c, x[None, :])[0])
    return _trade_outcome(v, c, x, payment, method)


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


def fixed_bundle_outcome(v: FunctionExpr, c: FunctionExpr, xbar) -> EquilibriumOutcome:
    """Full outcome for a caller-chosen trade bundle (method `fixed_bundle`).

    Its `imitative` is the cheapest commitment that still trades exactly at
    `xbar`: the payment is the smallest level at which serving all of `xbar`
    beats serving every fraction of it, i.e. the ray-slope supremum.
    """
    xbar = as_bundle(xbar, v.dim)
    if np.any(xbar <= 0):
        raise PreconditionError("fixed bundle must be strictly positive in every coordinate")
    with np.errstate(over="ignore", invalid="ignore"):  # `_trade_outcome` refuses what overflows
        payment = ray_slope_sup(c, xbar)
    return _trade_outcome(v, c, xbar, payment, METHOD_FIXED)


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

    @property
    def vacuous(self) -> bool:
        """No trade: there is nothing to check."""
        return not self.checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_equilibrium(
    outcome: EquilibriumOutcome,
    v: FunctionExpr,
    c: FunctionExpr,
    domain: BoxDomain,
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
    if not outcome.trade:
        return VerificationReport(checks=[])

    x, p = outcome.bundle, outcome.payment
    checks = []

    alphas = np.linspace(0.0, 1.0, _FRACTION_SAMPLES)
    margins = alphas * p - c.values(alphas[:, None] * x)
    worst = float(margins.max() - margins[-1])  # the last fraction is a = 1, the bundle itself
    tol_a = 1e-9 * max(1.0, abs(p))
    checks.append(
        CheckResult("seller_fraction_feasibility", worst <= tol_a, max(worst, 0.0))
    )

    u_expr = outcome.imitative
    xbr = buyer_best_response(u_expr, outcome.unit_prices, domain, c, cfg)
    dev = float(np.max(np.abs(xbr - x)))
    checks.append(
        CheckResult("buyer_best_response_at_split_price", dev <= _BUNDLE_TOL, dev)
    )

    sol = seller_optimal_linear_price(u_expr, c, domain, cfg)
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
