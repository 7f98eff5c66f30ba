"""Richer pricing classes and the over-exploitation effect.

Against a committed concave value function `u`, the best concave pricing
function is `u` itself: the buyer is then indifferent everywhere and the
seller-favoring tie-break sends the trade to `argmax [u(x) - c(x)]`.  As
a consequence the equilibrium under all concave pricing collapses to the
linear-pricing equilibrium (`equivalence_check` tests this numerically on
concrete instances).

`overfit_scenario` instantiates the counterexample in which *enlarging*
the pricing class strictly lowers equilibrium revenue: a capped-line true
value `v(x) = min(10x, 8.1)` with quadratic cost, where adding a single
tangent-line concave price lets the buyer profitably imitate `sqrt(x)`.
All scenario arithmetic is exact (rationals), converted to float only in
the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionError, PreconditionError
from .funcs import (
    Affine,
    BoxDomain,
    FunctionExpr,
    MinOfAffine,
    PowerSum,
    Shape,
    as_bundle,
)
from .equilibrium import (
    EquilibriumOutcome,
    ImitativeValue,
    SolverConfig,
    solve_auto,
)
# golden_max is unused here; bench/tests/test_harness.py expects this module to bind it
from .gridopt import coordinate_refine, golden_max  # noqa: F401
from .raygeom import ray_slope_sup
from .response import _rev_tie, _seller_pick, seller_optimal_linear_price

__all__ = [
    "PricingClass",
    "ConcavePriceResult",
    "EquivalenceReport",
    "OverfitReport",
    "best_concave_price",
    "concave_fop_optimal",
    "equivalence_check",
    "overfit_scenario",
    "overfit_instance",
    "augmented_price_values",
    "seller_best_in_class",
    "OVERFIT_EPS_MAX",
    "OVERFIT_EPS_SWITCH",
]


@dataclass
class PricingClass:
    """A family of pricing functions the seller may choose from.

    `linear_only` is the plain unit-price class, `all_concave` every
    monotone concave function vanishing at 0, and `linear_plus_extra`
    augments the linear class with the explicit `extra` catalog functions.
    """

    tag: str
    extra: tuple = field(default_factory=tuple)

    _TAGS = ("linear_only", "all_concave", "linear_plus_extra")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise PreconditionError(f"pricing class tag must be one of {self._TAGS}")
        self.extra = tuple(self.extra)
        if self.tag != "linear_plus_extra" and self.extra:
            raise PreconditionError("extra pricing functions only belong to linear_plus_extra")
        for p in self.extra:
            if p.shape not in (Shape.CONCAVE, Shape.LINEAR):
                raise PreconditionError("extra pricing functions must be concave")
            if abs(p.value(np.zeros(p.dim))) > 1e-12:
                raise PreconditionError("pricing functions must vanish at the origin")


@dataclass(eq=False)
class ConcavePriceResult:
    """Seller's best concave pricing response to a committed value function."""

    price: FunctionExpr
    bundle: np.ndarray
    revenue: float


def best_concave_price(
    u: FunctionExpr,
    c: FunctionExpr,
    domain: BoxDomain,
    cfg: SolverConfig | None = None,
) -> ConcavePriceResult:
    """Best response in the full concave pricing class: charge `u` itself.

    The trade lands on `argmax [u(x) - c(x)]`; among revenue ties the
    larger payment (then the lexicographically larger bundle) wins, and a
    negative maximum collapses to the zero trade.
    """
    cfg = cfg or SolverConfig()
    if not (u.dim == c.dim == domain.dim):
        raise DimensionError("dimensions disagree")
    if u.shape not in (Shape.CONCAVE, Shape.LINEAR):
        raise PreconditionError("committed value function must be concave")

    n_axis = cfg.points(domain.dim)
    pts = domain.grid(n_axis)
    gap = u.values(pts) - c.values(pts)
    spacing = domain.upper / (n_axis - 1)

    def gap_scalar(x: np.ndarray) -> float:
        return u.value(x) - c.value(x)

    refined = [
        coordinate_refine(gap_scalar, pts[i], spacing, domain.upper, cfg.refine_passes, cfg.golden_tol)
        for i in np.argsort(-gap, kind="stable")[: cfg.refine_top_k]
    ]
    pool = np.vstack([pts[gap >= gap.max() - _rev_tie(gap.max())], refined])
    gaps = u.values(pool) - c.values(pool)
    top = gaps.max()
    if top < 0.0:
        return ConcavePriceResult(price=u, bundle=np.zeros(domain.dim), revenue=0.0)
    bundle = pool[_seller_pick(pool, gaps, _rev_tie(float(top)), u.values)]
    return ConcavePriceResult(price=u, bundle=bundle, revenue=max(float(top), 0.0))


def concave_fop_optimal(
    v: FunctionExpr, c: FunctionExpr, xbar, cfg: SolverConfig | None = None
) -> ImitativeValue:
    """Optimal commitment trading at `xbar` when the seller may price concavely.

    Identical parameters to the linear-pricing fixed-bundle solution: the
    anchored function at level `ray_slope_sup(c, xbar)`.
    """
    cfg = cfg or SolverConfig()
    xbar = as_bundle(xbar, v.dim)
    if np.any(xbar <= 0):
        raise PreconditionError("bundle must be strictly positive in every coordinate")
    payment = ray_slope_sup(c, xbar, cfg.ray_grid_n, cfg.eps_limit).payment
    return ImitativeValue(xbar.copy(), payment)


def seller_best_in_class(
    u: FunctionExpr,
    c: FunctionExpr,
    domain: BoxDomain,
    pricing: PricingClass,
    cfg: SolverConfig | None = None,
) -> tuple[str, np.ndarray, float]:
    """Seller's best pricing response within a class; ties favor linear.

    Returns (chosen tag, trade bundle, revenue) where the tag is "linear",
    "concave", or "extra:<index>".
    """
    cfg = cfg or SolverConfig()
    if pricing.tag == "all_concave":
        res = best_concave_price(u, c, domain, cfg)
        return "concave", res.bundle, res.revenue
    lin = seller_optimal_linear_price(u, c, domain, cfg.grid_points, cfg.tie_tol, cfg.golden_tol)
    best = ("linear", lin.bundle, lin.revenue)
    if pricing.tag == "linear_plus_extra":
        for k, p_expr in enumerate(pricing.extra):
            bundle = _response_to_price_expr(u, p_expr, c, domain, cfg)
            rev = p_expr.value(bundle) - c.value(bundle)
            if rev > best[2] + _rev_tie(best[2]):
                best = (f"extra:{k}", bundle, float(rev))
    return best


def _response_to_price_expr(
    u: FunctionExpr,
    price: FunctionExpr,
    c: FunctionExpr,
    domain: BoxDomain,
    cfg: SolverConfig,
) -> np.ndarray:
    """Buyer's best response to a non-linear pricing function (grid search)."""
    n_axis = cfg.points(domain.dim)
    pts = domain.grid(n_axis)
    util = u.values(pts) - price.values(pts)
    spacing = domain.upper / (n_axis - 1)

    def util_scalar(y: np.ndarray) -> float:
        return u.value(y) - price.value(y)

    def rev_scalar(y: np.ndarray) -> float:
        return price.value(y) - c.value(y)

    x = coordinate_refine(
        util_scalar, pts[int(np.argmax(util))], spacing, domain.upper, cfg.refine_passes, cfg.golden_tol
    )
    # seller tie-break among near-optimal grid bundles
    cands = np.vstack([pts[util >= util.max() - cfg.tie_tol], x[None, :]])
    uvals = u.values(cands) - price.values(cands)
    max_util = float(uvals.max())
    pick = cands[_seller_pick(cands, uvals, cfg.tie_tol, lambda t: price.values(t) - c.values(t))]
    if np.count_nonzero(uvals >= max_util - cfg.tie_tol) > 1:
        # buyer indifference region: polish the seller's revenue inside it
        refined = coordinate_refine(
            rev_scalar, pick, spacing, domain.upper, cfg.refine_passes, cfg.golden_tol
        )
        still_tied = util_scalar(refined) >= max_util - cfg.tie_tol
        if still_tied and rev_scalar(refined) > rev_scalar(pick):
            pick = refined
    return pick


@dataclass(eq=False)
class EquivalenceReport:
    """Linear-pricing equilibrium vs. the all-concave pricing equilibrium."""

    linear: EquilibriumOutcome
    rich_bundle: np.ndarray
    rich_payment: float
    rich_surplus: float
    rich_revenue: float
    bundle_delta: float
    payment_delta: float
    surplus_delta: float
    revenue_delta: float
    bundle_tol: float
    value_tol: float

    @property
    def equivalent(self) -> bool:
        return (
            self.bundle_delta <= self.bundle_tol
            and self.payment_delta <= self.value_tol
            and self.surplus_delta <= self.value_tol
            and self.revenue_delta <= self.value_tol
        )


def equivalence_check(
    v: FunctionExpr,
    c: FunctionExpr,
    domain: BoxDomain,
    cfg: SolverConfig | None = None,
    bundle_tol: float = 1e-3,
    value_tol: float = 1e-4,
) -> EquivalenceReport:
    """Solve under both pricing classes and compare the outcomes.

    The all-concave side maximizes `v(xbar) - payment(xbar)` with the
    anchored commitment from `concave_fop_optimal` and then verifies the
    trade through `best_concave_price`.
    """
    cfg = cfg or SolverConfig()
    # the outer objective v(xbar) - payment(xbar) is shared by both classes
    linear = solve_auto(v, c, domain, cfg)

    if not linear.trade:
        rich_bundle = np.zeros(domain.dim)
        rich_payment = rich_surplus = rich_revenue = 0.0
    else:
        if np.all(linear.bundle > 0):
            commit = concave_fop_optimal(v, c, linear.bundle, cfg)
        else:
            commit = linear.imitative
        u_expr = commit.to_expr()
        res = best_concave_price(u_expr, c, domain, cfg)
        rich_bundle = res.bundle
        rich_payment = u_expr.value(res.bundle)
        rich_surplus = v.value(res.bundle) - rich_payment
        rich_revenue = res.revenue

    return EquivalenceReport(
        linear=linear,
        rich_bundle=rich_bundle,
        rich_payment=rich_payment,
        rich_surplus=rich_surplus,
        rich_revenue=rich_revenue,
        bundle_delta=float(np.max(np.abs(rich_bundle - linear.bundle))),
        payment_delta=abs(rich_payment - linear.payment),
        surplus_delta=abs(rich_surplus - linear.buyer_surplus),
        revenue_delta=abs(rich_revenue - linear.seller_revenue),
        bundle_tol=bundle_tol,
        value_tol=value_tol,
    )


# --- the over-exploitation counterexample ---------------------------------

# Exact scenario constants (see `overfit_instance` for the float instance):
# true value min(10x, 8.1), cost x^2, box [0, 10].
_KINK = Fraction(81, 100)
_CAP = Fraction(81, 10)
_LINEAR_PAYMENT = Fraction(13122, 10000)
_LINEAR_REVENUE = Fraction(6561, 10000)
_AUGMENTED_BASE_REVENUE = Fraction(2439, 10000)  # revenue of the added price at eps = 0
_SQRT_LINEAR_REVENUE = Fraction(3, 16)  # best linear response to sqrt(x)

OVERFIT_EPS_MAX = float(_AUGMENTED_BASE_REVENUE)
OVERFIT_EPS_SWITCH = float(_AUGMENTED_BASE_REVENUE - _SQRT_LINEAR_REVENUE)


def overfit_instance() -> tuple[FunctionExpr, FunctionExpr, BoxDomain]:
    """Capped-line value, quadratic cost, box [0, 10]."""
    v = MinOfAffine([Affine((10.0,), 0.0), Affine((0.0,), 8.1)])
    c = PowerSum((1.0,), (2.0,))
    return v, c, BoxDomain(np.array([10.0]))


def augmented_price_values(epsilon: float, xs: np.ndarray) -> np.ndarray:
    """The added concave price `min(sqrt(x), (5/9)x + 9/20 - eps)`."""
    xs = np.asarray(xs, dtype=float)
    return np.minimum(np.sqrt(xs), (5.0 / 9.0) * xs + (9.0 / 20.0 - epsilon))


@dataclass
class OverfitReport:
    """Two pricing classes side by side on the capped-line instance.

    `rich_*` quantities describe the augmented class when the buyer
    imitates `sqrt(x)` and the seller answers with the added tangent-line
    price; `seller_prefers_augmented` records whether that answer actually
    beats the best linear response, i.e. whether the revenue-decrease
    conclusion instantiates at this epsilon.
    """

    epsilon: float
    linear_bundle: float
    linear_payment: float
    linear_revenue: float
    linear_buyer_surplus: float
    sqrt_linear_price: float
    sqrt_linear_bundle: float
    sqrt_linear_revenue: float
    rich_revenue: float
    rich_buyer_surplus: float
    rich_bundle: float
    rich_equilibrium_u: FunctionExpr
    chosen_price_tag: str
    seller_prefers_augmented: bool
    note: str

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "rich_equilibrium_u"}
        out["rich_equilibrium_u"] = self.rich_equilibrium_u.to_dict()
        return out

    CSV_FIELDS = ("pricing_class", "bundle", "payment", "seller_revenue", "buyer_surplus")

    def csv_rows(self) -> list[list]:
        rich_payment = self.rich_revenue + self.rich_bundle**2
        return [
            [
                "linear",
                repr(self.linear_bundle),
                repr(self.linear_payment),
                repr(self.linear_revenue),
                repr(self.linear_buyer_surplus),
            ],
            [
                "linear_plus_extra",
                repr(self.rich_bundle),
                repr(rich_payment),
                repr(self.rich_revenue),
                repr(self.rich_buyer_surplus),
            ],
        ]


def overfit_scenario(epsilon: float) -> OverfitReport:
    """Work the capped-line counterexample at a given epsilon, exactly.

    The buyer-side search under the augmented class is restricted to the
    two commitments the scenario analyzes: the linear-class optimum
    (anchored at the kink) and `sqrt(x)`; the report's note records this
    restriction.
    """
    eps = Fraction(float(epsilon))
    if not (0 < eps < _AUGMENTED_BASE_REVENUE):
        raise PreconditionError(
            f"epsilon must lie in (0, {float(_AUGMENTED_BASE_REVENUE)}); got {epsilon}"
        )

    rich_revenue = _AUGMENTED_BASE_REVENUE - eps
    prefers_augmented = rich_revenue > _SQRT_LINEAR_REVENUE
    rich_surplus = _CAP - (Fraction(9, 10) - eps)

    if prefers_augmented:
        note = (
            "buyer search restricted to the anchored linear-class optimum and the "
            "square-root commitment; seller picks the added concave price"
        )
        tag = "augmented"
    else:
        note = (
            "added price loses to the best linear response at this epsilon; the "
            "revenue-decrease conclusion does not instantiate"
        )
        tag = "linear"

    return OverfitReport(
        epsilon=float(eps),
        linear_bundle=float(_KINK),
        linear_payment=float(_LINEAR_PAYMENT),
        linear_revenue=float(_LINEAR_REVENUE),
        linear_buyer_surplus=float(_CAP - _LINEAR_PAYMENT),
        sqrt_linear_price=1.0,
        sqrt_linear_bundle=0.25,
        sqrt_linear_revenue=float(_SQRT_LINEAR_REVENUE),
        rich_revenue=float(rich_revenue),
        rich_buyer_surplus=float(rich_surplus),
        rich_bundle=float(_KINK),
        rich_equilibrium_u=PowerSum((1.0,), (0.5,)),
        chosen_price_tag=tag,
        seller_prefers_augmented=prefers_augmented,
        note=note,
    )
