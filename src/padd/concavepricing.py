"""The all-concave pricing class and the over-exploitation effect.

Against a committed concave value function `u`, the best concave pricing
function is `u` itself: the buyer is then indifferent everywhere and the
seller-favoring tie-break sends the trade to `argmax [u(x) - c(x)]`.  As
a consequence the equilibrium under all concave pricing collapses to the
linear-pricing equilibrium.  `equivalence_check` tests this on concrete
instances through `best_concave_price`, which takes the equilibrium's
anchored commitment: there that argmax lies on the anchor's ray, which
`response._ray_pick` searches for the linear seller too, so the check
runs at any number of goods.

`overfit_scenario` works the counterexample in which *enlarging* the
pricing class strictly lowers equilibrium revenue: a capped-line true
value `v(x) = min(10x, 8.1)` with quadratic cost, where adding a single
tangent-line concave price lets the buyer profitably imitate `sqrt(x)`.
Its numbers are asserted in exact rationals, converted to float only in
the report; no pricing-class search computes them.  The tests check its
linear and `sqrt(x)` sides against `solve_auto` and
`seller_optimal_linear_price`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError
from .funcs import BoxDomain, FunctionExpr, PowerSum
from .equilibrium import EquilibriumOutcome, solve_auto
# golden_max is unused here; bench/tests/test_harness.py expects this module to bind it
from .gridopt import golden_max  # noqa: F401
from .response import SolverConfig, _anchored_form, _check_dims, _ray_pick

__all__ = [
    "ConcavePriceResult",
    "EquivalenceReport",
    "OverfitReport",
    "best_concave_price",
    "equivalence_check",
    "overfit_scenario",
    "OVERFIT_EPS_MAX",
    "OVERFIT_EPS_SWITCH",
]


@dataclass(eq=False)
class ConcavePriceResult:
    """Seller's best concave pricing response to a committed value function
    (the price is the committed function itself)."""

    bundle: np.ndarray
    revenue: float


def best_concave_price(u: FunctionExpr, c: FunctionExpr, domain: BoxDomain) -> ConcavePriceResult:
    """Best response in the full concave pricing class to an anchored
    commitment: charge `u` itself.

    The trade lands on `argmax [u(x) - c(x)]`.  For `u` worth `level *
    min(r(x), 1)`, `r(x) = min_i x_i / a_i` over the anchor's support, that
    argmax lies on the anchor's ray: a box bundle x and its projection
    `min(r(x), t_max) * a` have the same value, the projection is no
    larger in any coordinate, so it costs no more, and it lies in the box.
    Ties go to the largest fraction of the anchor (`_ray_pick`), never to
    an off-ray bundle that merely ties, such as one adding goods the cost
    charges nothing for.  The revenue is `u - c` at the returned bundle;
    a negative one collapses to the zero trade.
    """
    _check_dims(u, domain, c)
    anchored = _anchored_form(u)
    if anchored is None:
        raise PreconditionError("committed value function must be an anchored commitment")
    anchor, _ = anchored

    def gap(xs: np.ndarray) -> np.ndarray:
        return u.values(xs) - c.values(xs)

    bundle = _ray_pick(anchor, domain, lambda ts: gap(ts * anchor))
    revenue = float(gap(bundle[None, :])[0])
    if revenue < 0.0:
        return ConcavePriceResult(bundle=np.zeros(domain.dim), revenue=0.0)
    return ConcavePriceResult(bundle=bundle, revenue=revenue)


_EQUIV_BUNDLE_TOL = 1e-3  # largest coordinate gap between equivalent bundles
_EQUIV_VALUE_TOL = 1e-4  # largest payment, surplus and revenue gap of equivalent outcomes


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

    @property
    def equivalent(self) -> bool:
        return (
            self.bundle_delta <= _EQUIV_BUNDLE_TOL
            and self.payment_delta <= _EQUIV_VALUE_TOL
            and self.surplus_delta <= _EQUIV_VALUE_TOL
            and self.revenue_delta <= _EQUIV_VALUE_TOL
        )


def equivalence_check(
    v: FunctionExpr,
    c: FunctionExpr,
    domain: BoxDomain,
    cfg: SolverConfig | None = None,
) -> EquivalenceReport:
    """Solve under both pricing classes and compare the outcomes.

    Both classes share the outer objective `v(xbar) - payment(xbar)` and
    the anchored commitment at its maximizer, so the all-concave side
    commits to the linear outcome's `imitative` and verifies the trade
    through `best_concave_price`.
    """
    cfg = cfg or SolverConfig()
    linear = solve_auto(v, c, domain, cfg)

    if not linear.trade:
        rich_bundle = np.zeros(domain.dim)
        rich_payment = rich_surplus = rich_revenue = 0.0
    else:
        u_expr = linear.imitative
        res = best_concave_price(u_expr, c, domain)
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
    )


# --- the over-exploitation counterexample ---------------------------------

# Exact scenario constants (see `instances.capped_value_demo` for the float instance):
# true value min(10x, 8.1), cost x^2, box [0, 10].
_KINK = Fraction(81, 100)
_CAP = Fraction(81, 10)
_LINEAR_PAYMENT = Fraction(13122, 10000)
_LINEAR_REVENUE = Fraction(6561, 10000)
_AUGMENTED_BASE_REVENUE = Fraction(2439, 10000)  # revenue of the added price at eps = 0
_SQRT_LINEAR_REVENUE = Fraction(3, 16)  # best linear response to sqrt(x)

OVERFIT_EPS_MAX = float(_AUGMENTED_BASE_REVENUE)
# the largest float eps at which the added price wins (the exact switch 564/10000 rounds down to it)
OVERFIT_EPS_SWITCH = float(_AUGMENTED_BASE_REVENUE - _SQRT_LINEAR_REVENUE)


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
    eps = float(epsilon)
    # an infinite or NaN epsilon has no Fraction, so it is refused first
    if not (math.isfinite(eps) and 0 < Fraction(eps) < _AUGMENTED_BASE_REVENUE):
        raise PreconditionError(
            f"epsilon must lie in (0, {float(_AUGMENTED_BASE_REVENUE)}); got {epsilon}"
        )
    eps = Fraction(eps)

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
