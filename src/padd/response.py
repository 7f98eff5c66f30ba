"""Inner levels of the pricing game.

`buyer_best_response` solves the buyer's problem `max u(x) - p . x` over
the production box, breaking utility ties in the seller's favor (highest
revenue, then largest bundle).  `seller_optimal_linear_price` searches for
the revenue-maximizing linear price against a reported value function; a
candidate price is kept only when the buyer's best response against it is
self-consistent with the supergradient condition that generated it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotDifferentiableError, PreconditionError
from .funcs import (
    Affine,
    BoxDomain,
    FunctionExpr,
    Leontief,
    MinOfAffine,
    PowerSum,
    Scale,
    Shape,
    Sum,
    as_bundle,
    as_price,
)
from .gridopt import coordinate_refine, golden_max, grid_density

__all__ = [
    "SellerSolution",
    "buyer_best_response",
    "seller_optimal_linear_price",
    "optimal_price_family",
    "DEFAULT_SELLER_GRID",
]

DEFAULT_TIE_TOL = 1e-8
DEFAULT_GOLDEN_TOL = 1e-10
DEFAULT_SELLER_GRID = {1: 2001, 2: 201, 3: 51, 4: 21}
_REV_TIE_REL = 1e-12


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


def _coord_profile(u: FunctionExpr, i: int):
    """Scalar profile t -> u(t * e_i) for coordinate-separable expressions."""
    if isinstance(u, PowerSum):
        k, b = u.coeffs[i], u.exponents[i]
        return lambda t: k * t**b
    if isinstance(u, Affine):
        if u.intercept != 0.0:
            return None
        w = u.weights[i]
        return lambda t: w * t
    if isinstance(u, Scale):
        inner = _coord_profile(u.child, i)
        if inner is None:
            return None
        s = u.factor
        return lambda t: s * inner(t)
    if isinstance(u, Sum):
        parts = [_coord_profile(ch, i) for ch in u.children]
        if any(p is None for p in parts):
            return None
        return lambda t: sum(p(t) for p in parts)
    return None


def _anchored_form(u: FunctionExpr) -> tuple[np.ndarray, float] | None:
    """Recognize `level * min_i(x_i / anchor_i, 1)` shapes, zeros allowed.

    Anchors with zero coordinates (absent goods) arise from equilibrium
    bundles on the boundary.  Besides `Leontief`, a min of single-coordinate
    affine pieces plus a constant cap is the same function and is
    recognized too.
    """
    if isinstance(u, Leontief):
        return np.asarray(u.anchor, dtype=float), u.level
    if not isinstance(u, MinOfAffine):
        return None
    level = None
    slopes: dict[int, float] = {}
    for piece in u.pieces:
        w = np.asarray(piece.weights)
        nz = np.nonzero(w)[0]
        if nz.size == 0:
            if level is not None:
                return None
            level = piece.intercept
        elif nz.size == 1 and piece.intercept == 0.0:
            i = int(nz[0])
            if i in slopes:
                return None
            slopes[i] = float(w[i])
        else:
            return None
    if level is None or level < 0 or not slopes:
        return None
    anchor = np.zeros(u.dim)
    for i, w in slopes.items():
        if w <= 0:
            return None
        anchor[i] = level / w
    return anchor, float(level)


def _anchored_response(
    anchor: np.ndarray,
    level: float,
    price: np.ndarray,
    domain: BoxDomain,
    c: FunctionExpr,
    tie_tol: float,
    golden_tol: float,
) -> np.ndarray:
    """Best response for an anchored value function, reduced to the fraction."""
    support = anchor > 0
    t_max = float(min(1.0, np.min(domain.upper[support] / anchor[support])))
    pay_full = float(price @ anchor)
    margin = level - pay_full
    if margin > tie_tol:
        return t_max * anchor
    if margin < -tie_tol:
        return np.zeros(anchor.size)
    # indifferent along the whole ray: seller tie-break on revenue
    def rev(ts: np.ndarray) -> np.ndarray:
        return ts[:, 0] * pay_full - c.values(ts * anchor)

    ts = np.linspace(0.0, t_max, 513)[:, None]
    j = int(np.argmax(rev(ts)))
    t_ref = coordinate_refine(
        lambda t: float(rev(t[None, :])[0]), ts[j], [t_max / 512], [t_max], 1, golden_tol
    )
    cands = np.array([[0.0], [t_max], t_ref])
    rv = rev(cands)
    return cands[_seller_pick(cands, rv, _rev_tie(float(rv.max())))][0] * anchor


def _finish_ties(
    cands: np.ndarray,
    u: FunctionExpr,
    price: np.ndarray,
    c: FunctionExpr,
    tie_tol: float,
) -> np.ndarray:
    util = u.values(cands) - cands @ price
    pick = _seller_pick(cands, util, tie_tol, lambda tied: tied @ price - c.values(tied))
    return cands[pick].copy()


def buyer_best_response(
    u: FunctionExpr,
    price,
    domain: BoxDomain,
    c: FunctionExpr,
    tie_tol: float = DEFAULT_TIE_TOL,
    golden_tol: float = DEFAULT_GOLDEN_TOL,
    grid_points: dict | None = None,
) -> np.ndarray:
    """Bundle maximizing `u(x) - price . x` over the box.

    Among bundles whose utility is within `tie_tol` of the maximum, the one
    maximizing the seller's revenue `price . x - c(x)` is returned (the
    cost enters only through this tie-break); remaining ties go to the
    lexicographically largest bundle.
    """
    price = as_price(price, u.dim)
    _check_dims(u, domain, c)
    if u.shape is Shape.GENERAL:
        raise PreconditionError("reported value function must be concave, linear, or convex")

    anchored = _anchored_form(u)
    if anchored is not None:
        return _anchored_response(*anchored, price, domain, c, tie_tol, golden_tol)
    if u.shape is Shape.CONVEX:
        # convex reports are maximized at a box corner
        return _finish_ties(domain.vertices(), u, price, c, tie_tol)

    profiles = [_coord_profile(u, i) for i in range(u.dim)]
    if u.dim == 1 and profiles[0] is None:
        profiles = [lambda t: u.value((t,))]
    if all(p is not None for p in profiles):
        per_coord: list[list[float]] = []
        for i, prof in enumerate(profiles):
            pi, bi = float(price[i]), float(domain.upper[i])
            h = lambda t, _prof=prof, _pi=pi: _prof(t) - _pi * t
            cands = {0.0, bi, float(golden_max(h, 0.0, bi, tol=golden_tol))}
            top = max(h(t) for t in cands)
            per_coord.append(sorted(t for t in cands if h(t) >= top - tie_tol))
        combos = np.array(list(itertools.product(*per_coord)))
        return _finish_ties(combos, u, price, c, tie_tol)

    pts = domain.grid(grid_density(grid_points or DEFAULT_SELLER_GRID, domain.dim))
    return _finish_ties(pts, u, price, c, tie_tol)


def _price_candidate(u: FunctionExpr, x: np.ndarray) -> np.ndarray:
    """Candidate optimal price at a target bundle.

    For concave/linear reports this is the payment-maximizing supergradient;
    for convex reports (used by the manipulation-proofness checks, where the
    buyer imitates a convex cost) the plain gradient is used.
    """
    if u.shape is Shape.CONVEX:
        return u.gradient(x)
    return u.grad_max_info(x).vector


def _consistent_record(u, p, domain, c, grid_points, tie_tol, golden_tol):
    """(revenue, response, price) when the buyer's response to `p` reproduces `p`."""
    xbr = buyer_best_response(u, p, domain, c, tie_tol, golden_tol, grid_points)
    p_at = _price_candidate(u, xbr)
    if np.max(np.abs(p_at - p)) > 1e-6 * max(1.0, float(np.max(np.abs(p)))):
        return None
    return float(p_at @ xbr - c.value(xbr)), xbr, p_at


def seller_optimal_linear_price(
    u: FunctionExpr,
    c: FunctionExpr,
    domain: BoxDomain,
    grid_points: dict | None = None,
    tie_tol: float = DEFAULT_TIE_TOL,
    golden_tol: float = DEFAULT_GOLDEN_TOL,
) -> SellerSolution:
    """Revenue-maximizing linear price against the reported value `u`.

    Candidate prices are supergradients of `u` at grid bundles.  For each
    distinct candidate the buyer's best response is computed and the pair
    (response bundle, supergradient at the response) is kept when provably
    self-consistent; the best-revenue pair wins, falling back to zero trade
    whenever even the best verified revenue is negative.
    """
    _check_dims(u, domain, c)
    if u.shape is Shape.GENERAL:
        raise PreconditionError("reported value function must be concave, linear, or convex")
    if abs(u.value(np.zeros(u.dim))) > 1e-12:
        raise PreconditionError("reported value function must vanish at the origin")

    records: list[tuple[float, np.ndarray, np.ndarray]] = []
    best_rev = -np.inf
    seen: set = set()

    def try_price(p: np.ndarray) -> None:
        nonlocal best_rev
        key = tuple(p)
        if key in seen or not np.all(np.isfinite(p)):
            return
        seen.add(key)
        rec = _consistent_record(u, p, domain, c, grid_points, tie_tol, golden_tol)
        if rec is not None:
            records.append(rec)
            best_rev = max(best_rev, rec[0])

    smooth = False
    anchored = _anchored_form(u)
    if anchored is not None:
        # the supergradient takes only a handful of distinct values
        anchor, level = anchored
        for i in np.nonzero(anchor > 0)[0]:
            p = np.zeros(u.dim)
            p[i] = level / anchor[i]
            try_price(p)
        try_price(np.zeros(u.dim))
    elif isinstance(u, MinOfAffine):
        for piece in u.pieces:
            try_price(np.asarray(piece.weights, dtype=float))
    else:
        n_axis = grid_density(grid_points or DEFAULT_SELLER_GRID, domain.dim)
        pts = domain.grid(n_axis)
        pts = pts[np.any(pts > 0, axis=1)]
        if u.shape in (Shape.CONCAVE, Shape.LINEAR):
            try:
                grads = u.gradient_batch(pts)
                smooth = True
            except (NotImplementedError, NotDifferentiableError):
                smooth = False
        if smooth:
            finite = np.all(np.isfinite(grads), axis=1)
            safe = np.where(finite[:, None], grads, 0.0)
            potential = np.where(
                finite, np.einsum("ij,ij->i", safe, pts) - c.values(pts), -np.inf
            )
            order = np.argsort(-potential)
        else:
            order = np.arange(pts.shape[0])
        for idx in order:
            if smooth and potential[idx] <= max(best_rev, 0.0) + 1e-12:
                break
            try_price(_price_candidate(u, pts[idx]))

    if smooth and records:
        _refine_smooth(u, c, domain, records, n_axis, grid_points, tie_tol, golden_tol)

    if records:
        revs = np.array([r for r, _, _ in records])
        bundles = np.array([b for _, b, _ in records])
        rev, bundle, price = records[_seller_pick(bundles, revs, _rev_tie(float(revs.max())))]
        if rev >= 0.0:
            return SellerSolution(price=price, bundle=bundle, revenue=rev, verified=True)
    zero = np.zeros(u.dim)
    return SellerSolution(price=zero, bundle=zero.copy(), revenue=0.0, verified=bool(records))


def _refine_smooth(u, c, domain, records, n_axis, grid_points, tie_tol, golden_tol):
    """Coordinate golden refinement of the revenue around the best record;
    appends the refined record to `records` when it is consistent and better."""
    rev0, bundle0, _ = max(records, key=lambda rbp: rbp[0])

    def revenue_at(x: np.ndarray) -> float:
        try:
            p = _price_candidate(u, x)
        except NotDifferentiableError:
            return -np.inf
        if not np.all(np.isfinite(p)):
            return -np.inf
        return float(p @ x - c.value(x))

    spacing = domain.upper / (n_axis - 1)
    x = coordinate_refine(revenue_at, bundle0, spacing, domain.upper, 2, golden_tol)
    if revenue_at(x) > rev0:
        rec = _consistent_record(u, _price_candidate(u, x), domain, c, grid_points, tie_tol, golden_tol)
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
    return lam * (pstar / xstar)
