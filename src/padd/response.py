"""Inner levels of the pricing game.

`buyer_best_response` solves the buyer's problem `max u(x) - p . x` over
the production box, breaking utility ties in the seller's favor (highest
revenue, then largest bundle).  `seller_optimal_linear_price` searches for
the revenue-maximizing linear price against a reported value function; a
candidate price is kept only when the buyer's best response against it is
self-consistent with the supergradient condition that generated it.

An anchored report, a `Leontief` worth `level * min(min_i x_i / a_i, 1)`,
is one ray problem: against a monotone price, a bundle's projection onto the
anchor's ray has the same value, costs no more and stays in the box.  So
an indifferent buyer, the linear-price seller and the all-concave seller
(`concavepricing.best_concave_price`) all take `_ray_pick`, the
seller-favoured fraction of the anchor, and read no grid density.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .errors import DimensionError, PreconditionError
from .funcs import (
    Affine,
    BoxDomain,
    FunctionExpr,
    Leontief,
    PowerSum,
    Scale,
    Shape,
    Sum,
    _column_sum,
    _is_number,
    as_bundle,
    as_price,
)
from .gridopt import REFINE_PASSES, axis_rows, coordinate_refine, golden_max, grid_blocks, grid_rows, grid_ties

__all__ = [
    "SolverConfig",
    "SellerSolution",
    "buyer_best_response",
    "seller_optimal_linear_price",
    "optimal_price_family",
]

_REV_TIE_REL = 1e-12
_TIE_TOL = 1e-8  # buyer utilities this close to the best tie; the seller breaks the tie


@dataclass
class SolverConfig:
    """The one solver option that no layer can work out from the game.

    `grid_points` (points per axis by dimension; its keys are the only
    dimensions a grid search supports): every grid search, in
    `equilibrium._maximize`, `buyer_best_response`'s fallback and
    `seller_optimal_linear_price`, none of which runs for an anchored
    report; the 1-d density is also each good's grid in
    `equilibrium._maximize_per_good`, which still requires the game's own
    dimension.

    Numerical resolutions are constants of the modules that read them: the
    ray grid in `raygeom`, the refinement schedule in `gridopt`, the
    buyer's utility tie tolerance here, the no-trade threshold and the
    verification tolerances in `equilibrium`, the equivalence tolerances in
    `concavepricing`.  The payment split is no input either: every simplex
    split charges the same total, so an outcome reports the even one.
    """

    grid_points: dict = field(default_factory=lambda: {1: 2001, 2: 201, 3: 51, 4: 21})

    def __post_init__(self):
        if not (
            isinstance(self.grid_points, Mapping)
            and all(_is_number(d, Integral) and _is_number(n, Integral) and n >= 2 for d, n in self.grid_points.items())
        ):
            raise ValueError("solver option grid_points must map integer dimensions to integer point counts of at least 2")

    def points(self, dim: int) -> int:
        """Points per axis for a `dim`-dimensional grid search."""
        try:
            return int(self.grid_points[dim])
        except KeyError:
            raise PreconditionError(f"no grid density configured for dimension {dim}") from None

    @classmethod
    def from_dict(cls, obj: dict) -> "SolverConfig":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown solver options: {sorted(unknown)}")
        kwargs = dict(obj)
        if isinstance(kwargs.get("grid_points"), Mapping):
            # JSON object keys are strings; __post_init__ refuses a key that is no integer
            kwargs["grid_points"] = {int(k) if str(k).isdecimal() else k: v for k, v in kwargs["grid_points"].items()}
        return cls(**kwargs)


@dataclass(eq=False)
class SellerSolution:
    """Outcome of the seller's linear-price optimization.

    `verified` is False only when no candidate price passed the
    best-response feasibility check; the solution then degenerates to the
    zero trade (the finite stand-in for pricing the buyer out).
    """

    price: np.ndarray
    bundle: np.ndarray
    revenue: float
    verified: bool


def _check_dims(u: FunctionExpr, domain: BoxDomain, c: FunctionExpr):
    if not (u.dim == domain.dim == c.dim):
        raise DimensionError(
            f"dimensions disagree: value {u.dim}, domain {domain.dim}, cost {c.dim}"
        )


def _rev_tie(scale: float) -> float:
    return _REV_TIE_REL * max(1.0, abs(scale))


def _seller_pick(rows: np.ndarray, primary: np.ndarray, tol: float, secondary=None) -> int:
    """Index of the seller-favoured row among candidate bundles.

    Keeps the rows within `tol` of the best `primary` key, then (when
    given) those within `_rev_tie` of the best `secondary(rows)` among them
    (the seller's revenue), and returns the lexicographically largest
    survivor; equal survivors go to the last one.
    """
    idx = np.nonzero(primary >= primary.max() - tol)[0]
    if secondary is not None:
        rev = secondary(rows[idx])
        idx = idx[rev >= rev.max() - _rev_tie(float(rev.max()))]
    return int(idx[np.lexsort(rows[idx].T[::-1])[-1]])


def _separable(u: FunctionExpr) -> bool:
    """`u` is a sum of one-coordinate terms that vanish at 0, so `u(t * e_i)`
    is coordinate i's term at t."""
    if isinstance(u, Scale):
        return _separable(u.child)
    if isinstance(u, Sum):
        return all(_separable(ch) for ch in u.children)
    return isinstance(u, PowerSum) or (isinstance(u, Affine) and u.intercept == 0.0)


def _anchored_form(u: FunctionExpr) -> tuple[np.ndarray, float] | None:
    """(anchor, level) of a `Leontief`, `level * min_i(x_i / anchor_i, 1)`
    with zero anchor coordinates for absent goods (equilibrium bundles on
    the boundary); None for every other node, which searches as the
    concave report it is."""
    if isinstance(u, Leontief):
        return np.asarray(u.anchor, dtype=float), u.level
    return None


def _ray_limit(anchor: np.ndarray, domain: BoxDomain) -> float:
    """Largest fraction t <= 1 with `t * anchor` inside the box."""
    support = anchor > 0
    return float(min(1.0, np.min(domain.upper[support] / anchor[support])))


def _ray_pick(anchor: np.ndarray, domain: BoxDomain, rev) -> np.ndarray:
    """The seller-favoured bundle `t * anchor` on the anchor's ray in the box.

    `rev` maps (m, 1) fractions to the m revenues there.  The fraction runs
    over `[0, _ray_limit]`: a 513-point grid picks a cell, one golden pass
    refines it, and the largest fraction among {0, refined, t_max} within
    `_rev_tie` of their best revenue wins.
    """
    t_max = _ray_limit(anchor, domain)
    ts = np.linspace(0.0, t_max, 513)[:, None]
    j = int(np.argmax(rev(ts)))
    t_ref = coordinate_refine(rev, ts[j], [t_max / 512], [t_max], 1)
    cands = np.vstack([[[0.0], [t_max]], t_ref])
    rv = rev(cands)
    return cands[_seller_pick(cands, rv, _rev_tie(float(rv.max())))][0] * anchor


def _utility(u: FunctionExpr, price: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The buyer's `u(x) - price . x` per row; like every node's `values`,
    it gives a row the same bits in any batch (a matrix product may not)."""
    return u.values(xs) - _column_sum(price, xs, 0.0)


def _revenue(price: np.ndarray, c: FunctionExpr, xs: np.ndarray) -> np.ndarray:
    """The seller's `price . x - c(x)` per row, batch-invariant like `_utility`."""
    return _column_sum(price, xs, 0.0) - c.values(xs)


def _finish_ties(cands: np.ndarray, u: FunctionExpr, price: np.ndarray, c: FunctionExpr) -> np.ndarray:
    pick = _seller_pick(cands, _utility(u, price, cands), _TIE_TOL, lambda tied: _revenue(price, c, tied))
    return cands[pick].copy()


def buyer_best_response(
    u: FunctionExpr,
    price,
    domain: BoxDomain,
    c: FunctionExpr,
    cfg: SolverConfig | None = None,
) -> np.ndarray:
    """Bundle maximizing `u(x) - price . x` over the box.

    Among bundles whose utility is within `_TIE_TOL` of the maximum, the one
    maximizing the seller's revenue `price . x - c(x)` is returned (the
    cost enters only through this tie-break); remaining ties go to the
    lexicographically largest bundle.
    """
    cfg = cfg or SolverConfig()
    price = as_price(price, u.dim)
    _check_dims(u, domain, c)
    if u.shape is Shape.GENERAL:
        raise PreconditionError("reported value function must be concave, linear, or convex")

    anchored = _anchored_form(u)
    if anchored is not None:
        # worth level * min(r(x), 1): all of the ray, none of it, or the seller's pick
        anchor, level = anchored
        pay_full = float(price @ anchor)
        if level - pay_full > _TIE_TOL:
            return _ray_limit(anchor, domain) * anchor
        if level - pay_full < -_TIE_TOL:
            return np.zeros(u.dim)
        return _ray_pick(anchor, domain, lambda ts: ts[:, 0] * pay_full - c.values(ts * anchor))
    if u.shape is Shape.CONVEX:
        # convex reports are maximized at a box corner
        return _finish_ties(domain.vertices(), u, price, c)

    if u.dim == 1 or _separable(u):
        # one golden search per coordinate, all in lockstep
        def utility(ts: np.ndarray) -> np.ndarray:
            return u.values(axis_rows(ts, np.arange(u.dim), u.dim)).reshape(ts.shape) - price * ts

        zero = np.zeros(u.dim)
        ts = np.vstack([zero, domain.upper, golden_max(utility, zero, domain.upper)])
        us = utility(ts)
        keep = us >= us.max(axis=0) - _TIE_TOL
        per_coord = [sorted(set(ts[keep[:, i], i].tolist())) for i in range(u.dim)]
        return _finish_ties(np.array(list(itertools.product(*per_coord))), u, price, c)

    n = cfg.points(domain.dim)
    pool = grid_ties(lambda xs: _utility(u, price, xs), domain.upper, n, _TIE_TOL)
    return _finish_ties(pool, u, price, c)


def _consistent_record(u, p, domain, c, cfg, xbr=None):
    """(revenue, response, price) when the buyer's response to `p` (`xbr`,
    computed here unless given) reproduces `p`."""
    if xbr is None:
        xbr = buyer_best_response(u, p, domain, c, cfg)
    p_at = u.grad_max_info(xbr)
    if np.max(np.abs(p_at - p)) > 1e-6 * max(1.0, float(np.max(np.abs(p)))):
        return None
    return float(p_at @ xbr - c.value(xbr)), xbr, p_at


def seller_optimal_linear_price(
    u: FunctionExpr,
    c: FunctionExpr,
    domain: BoxDomain,
    cfg: SolverConfig | None = None,
) -> SellerSolution:
    """Revenue-maximizing linear price against the reported value `u`.

    Candidate prices are supergradients of `u` at candidate rows.  For each
    distinct candidate the buyer's best response is computed and the pair
    (response bundle, supergradient at the response) is kept when provably
    self-consistent; the best-revenue pair wins, falling back to zero trade
    whenever even the best verified revenue is negative.  An anchored `u`
    (a `Leontief`) has one candidate, the supergradient at its
    `_ray_pick`, whose response is that pick: one ray search per call.

    The buyer's response to `p` has `p` in the superdifferential of `u`
    there (Rockafellar, *Convex Analysis*, 1970, Thm 23.5), so a consistent
    record's revenue is the potential `grad_max_info(x) . x - c(x)` at its
    response `x`, smooth or kinked.  Candidate rows, where responses land
    (the box corners for a convex report, else the grid), are tried best
    potential first until it is at most the best revenue.  A 1-d response
    is a golden search that can land a cell off its row, so 1-d rows rank
    by `p . x_next - c(x_prev)` (costs are monotone); separable reports
    reach such responses only through `_refine`.
    """
    cfg = cfg or SolverConfig()
    _check_dims(u, domain, c)
    if u.shape is Shape.GENERAL:
        raise PreconditionError("reported value function must be concave, linear, or convex")
    if abs(u.value(np.zeros(u.dim))) > 1e-12:
        raise PreconditionError("reported value function must vanish at the origin")

    records: list[tuple[float, np.ndarray, np.ndarray]] = []
    best_rev = -np.inf
    seen: set = set()

    def try_price(p: np.ndarray, xbr=None) -> None:
        nonlocal best_rev
        key = tuple(p)
        if key in seen or not np.all(np.isfinite(p)):
            return
        seen.add(key)
        rec = _consistent_record(u, p, domain, c, cfg, xbr)
        if rec is not None:
            records.append(rec)
            best_rev = max(best_rev, rec[0])

    anchored = _anchored_form(u)
    if anchored is not None:
        # every supergradient vertex charges the level for the anchor, so the
        # seller's trade is its pick on the ray, priced at the supergradient
        # there; that price leaves the buyer indifferent along the ray, and
        # the seller-favoured tie response is this same pick
        anchor, level = anchored
        x = _ray_pick(anchor, domain, lambda ts: ts[:, 0] * level - c.values(ts * anchor))
        try_price(u.grad_max_info(x), x)
    else:
        n_axis = cfg.points(domain.dim)
        # candidate rows from index 1 on: row 0 is the origin
        if u.shape is Shape.CONVEX:
            corners = domain.vertices()
            blocks, row = [(1, corners[1:])], lambda j: corners[j + 1]
        else:
            blocks, row = grid_blocks(domain.upper, n_axis, 1), lambda j: grid_rows(domain.upper, n_axis, [j + 1])[0]
        golden = u.dim == 1 and u.shape is not Shape.CONVEX
        cell = domain.upper / (n_axis - 1) if golden else 0.0

        def key_at(xs: np.ndarray) -> np.ndarray:
            # a zero coordinate adds nothing: the 1-d key widens a row by a cell,
            # where a `GRAD_CAP` entry times the cell would outrank every other row
            grads = np.where(xs > 0.0, u.gradient_batch(xs), 0.0)
            return np.einsum("ij,ij->i", grads, np.minimum(xs + cell, domain.upper)) - c.values(np.maximum(xs - cell, 0.0))

        keys = np.concatenate([key_at(xs) for _, xs in blocks])
        for j in np.argsort(-keys):
            if keys[j] <= max(best_rev, 0.0) + 1e-12:
                break
            try_price(u.grad_max_info(row(j)))
        if records:
            _refine(u, c, domain, records, n_axis, cfg, golden)

    if records:
        revs = np.array([r for r, _, _ in records])
        bundles = np.array([b for _, b, _ in records])
        rev, bundle, price = records[_seller_pick(bundles, revs, _rev_tie(float(revs.max())))]
        if rev >= 0.0:
            return SellerSolution(price=price, bundle=bundle, revenue=rev, verified=True)
    zero = np.zeros(u.dim)
    return SellerSolution(price=zero, bundle=zero.copy(), revenue=0.0, verified=bool(records))


def _refine(u, c, domain, records, n_axis, cfg, golden):
    """Coordinate golden refinement of the revenue around the best record;
    appends the refined record to `records` when it is consistent and better.
    A golden-search buyer (`golden`) also weighs the refined bundle, which
    its search stops short of at a kink, within `_TIE_TOL` of its utility."""
    rev0, bundle0, _ = max(records, key=lambda rbp: rbp[0])

    def revenue(xs: np.ndarray) -> np.ndarray:
        # `vecdot` runs each row through the dot of `p @ x`, whose summation
        # order follows the strides: on contiguous gradient rows, as
        # `grad_max_info` gives them, a row keeps the bits of `grad_max_info(x) @ x`
        grads = u.gradient_batch(xs)
        finite = np.all(np.isfinite(grads), axis=1)
        pay = np.vecdot(np.ascontiguousarray(np.where(finite[:, None], grads, 0.0)), xs)
        return np.where(finite, pay - c.values(xs), -np.inf)

    spacing = domain.upper / (n_axis - 1)
    x = coordinate_refine(revenue, bundle0, spacing, domain.upper, REFINE_PASSES)[0]
    if revenue(x[None, :])[0] > rev0:
        p = u.grad_max_info(x)
        xbr = buyer_best_response(u, p, domain, c, cfg)
        if golden:
            xbr = _finish_ties(np.vstack([xbr, x]), u, p, c)
        rec = _consistent_record(u, p, domain, c, cfg, xbr)
        if rec is not None and rec[0] > rev0:
            records.append(rec)


def optimal_price_family(xstar, pstar: float, lam) -> np.ndarray:
    """Unit-price vector `(lam_i * pstar / xstar_i)_i` for a payment split.

    Every simplex split charges total `pstar` for the full bundle `xstar`.
    """
    xstar = as_bundle(xstar)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != xstar.shape:
        raise DimensionError("split weights must match the bundle dimension")
    if np.any(xstar <= 0):
        raise PreconditionError("bundle must be strictly positive in every coordinate")
    if pstar < 0:
        raise PreconditionError("payment must be non-negative")
    if np.any(lam < 0) or abs(float(lam.sum()) - 1.0) > 1e-9:
        raise PreconditionError("split weights must be non-negative and sum to 1")
    with np.errstate(over="ignore"):  # a subnormal amount can cost more per unit than a float holds
        per_unit = pstar / xstar
    # a good with no weight costs nothing per unit, even where that overflowed
    return lam * np.where(np.isinf(per_unit) & (lam == 0.0), 0.0, per_unit)
