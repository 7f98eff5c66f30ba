"""Geometry along production rays.

The central quantity is the payment level that makes serving the whole
bundle weakly better for the seller than serving any smaller fraction of
it:

    payment(x) = sup over a in [0, 1) of  (c(x) - c(a*x)) / (1 - a)

For convex differentiable costs the supremum is the (unattained) limit
`x . grad c(x)`; for concave costs it is attained at a = 0 and equals
c(x); for anything else it is bracketed numerically on a dense a-grid.

On the numeric path, a cost built only from PowerSum, Affine, Sum and
Scale nodes is a sum of monomials, `c(a*x) = sum_e a^e * W_e(x) + const`
with `W_e(x) = sum_{i: b_i = e} k_i * x_i^e` over its distinct exponents
e.  Each bundle then costs a few weights `W_e(x)`, and its ray costs are
those weights times cached rows `a^e` of the fraction grid; no power is
taken on the grid.  Any other node anywhere in the tree keeps the generic
evaluation `c.values(a*x)` on the `(grid, d)` fractions of x.  The two
differ in rounding only (`a^e * x^e` against `(a*x)^e`): about 1e-15
relative on the ray costs, about 1e-10 relative on the payment, where
dividing by `1 - a` near `a = 1 - eps_limit` amplifies it, as it does on
the generic path.

The a = 0 chord slope is `c(x) - c(0)`, and on the numeric path it is
computed exactly that way as the first entry of the slope array, with c
evaluated by the same code as `ray_payment_floor`, so `ray_payment_floor`
is at most `ray_payment_batch` row by row, bit for bit (rounding is
monotone).  Hence `v(x) - (c(x) - c(0))` bounds the buyer's objective
`v(x) - payment(x)` from above in floating point, which is what lets the
general solver skip grid rows exactly.  The monomial weights are computed
elementwise, so a bundle's payment has the same bits from
`ray_slope_sup` and from any batch of `ray_payment_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionError
from .funcs import Affine, FunctionExpr, PowerSum, Scale, Shape, Sum, as_bundle

__all__ = ["RaySlopeResult", "ray_slope_sup", "bregman"]

DEFAULT_GRID_N = 10001
DEFAULT_EPS_LIMIT = 1e-6


@dataclass
class RaySlopeResult:
    """Value of the ray-slope supremum at one bundle.

    `attained_alpha` is the maximizing fraction when the supremum is
    attained; `is_limit` marks the convex case where it is only approached
    as the fraction tends to 1.
    """

    payment: float
    attained_alpha: float | None
    is_limit: bool


def ray_slope_sup(
    c: FunctionExpr,
    x,
    grid_n: int = DEFAULT_GRID_N,
    eps_limit: float = DEFAULT_EPS_LIMIT,
) -> RaySlopeResult:
    """Largest slope of the chord of `t -> c(t*x)` ending at t = 1.

    Exact closed forms are used when the cost's curvature is known;
    otherwise the supremum is taken over a dense fraction grid whose last
    node doubles as a forward-difference estimate of the limit slope.
    """
    x = as_bundle(x, c.dim)
    if not np.any(x > 0):
        raise PreconditionError("ray-slope supremum is undefined at the zero bundle")

    shape = c.shape
    if shape in (Shape.LINEAR, Shape.CONCAVE):
        # the chord slope is constant (linear) or largest at a = 0 (concave)
        return RaySlopeResult(payment=c.value(x), attained_alpha=0.0, is_limit=False)
    if shape is Shape.CONVEX:
        payment = float(np.dot(x, c.gradient(x)))
        return RaySlopeResult(payment=payment, attained_alpha=None, is_limit=True)

    form = _monomials(c)
    if form is None:
        row, cx = x, c.value(x)
    else:
        rows, costs = _ray_rows(c, form, x[None, :])
        row, cx = rows[0], float(costs[0])
    slopes = _ray_slopes(c, form, row, cx, grid_n, eps_limit)
    i = int(np.argmax(slopes))
    # the last grid node is exactly the forward-difference limit estimate
    if i == grid_n - 1:
        return RaySlopeResult(payment=float(slopes[i]), attained_alpha=None, is_limit=True)
    alphas, _ = _alpha_grid(grid_n, eps_limit)
    return RaySlopeResult(payment=float(slopes[i]), attained_alpha=float(alphas[i]), is_limit=False)


@lru_cache(maxsize=8)
def _alpha_grid(grid_n: int, eps_limit: float) -> tuple[np.ndarray, np.ndarray]:
    """The fraction grid `0, ..., 1 - eps_limit` and `1 - a` on it (shared, read-only)."""
    if grid_n < 2:
        raise PreconditionError("fraction grid needs at least 2 points")
    if not (0.0 < eps_limit < 1.0):
        raise PreconditionError("eps_limit must lie in (0, 1)")
    alphas = np.linspace(0.0, 1.0 - eps_limit, grid_n)
    gaps = 1.0 - alphas
    alphas.flags.writeable = gaps.flags.writeable = False
    return alphas, gaps


@lru_cache(maxsize=16)
def _alpha_powers(grid_n: int, eps_limit: float, exponents: tuple) -> tuple:
    """Rows `a^e` of the fraction grid, one per exponent (shared, read-only)."""
    alphas, _ = _alpha_grid(grid_n, eps_limit)
    rows = tuple(alphas**e for e in exponents)
    for row in rows:
        row.flags.writeable = False
    return rows


@dataclass(frozen=True)
class _Monomials:
    """A cost `sum_e W_e(x) + const`, `W_e(x) = sum_{i: b_i = e} k_i * x_i^e`.

    `exponents` are the distinct exponents e in ascending order and
    `terms[j]` the pairs `(i, k_i)` of `exponents[j]`.  Along a ray
    `c(a*x) = sum_e a^e * W_e(x) + const`.
    """

    const: float
    exponents: tuple
    terms: tuple

    def weights(self, xs: np.ndarray) -> np.ndarray:
        """`W_e` on the rows of `xs`, one column per exponent.

        Elementwise only (no matrix product), so a row gets the same bits
        whatever batch it is evaluated in.
        """
        out = np.empty((xs.shape[0], len(self.exponents)))
        for j, (e, terms) in enumerate(zip(self.exponents, self.terms)):
            w = 0.0
            for i, k in terms:
                w = w + k * xs[:, i] ** e
            out[:, j] = w
        return out

    def costs(self, ws: np.ndarray) -> np.ndarray:
        """c on the rows whose weights are `ws`: the ray cost at a = 1."""
        out = ws[:, 0]
        for j in range(1, ws.shape[1]):
            out = out + ws[:, j]
        return out + self.const if self.const else out

    def ray_costs(self, w: np.ndarray, grid_n: int, eps_limit: float) -> np.ndarray:
        """`c(a*x)` on the fraction grid, from the weights `w` of one bundle x.

        The terms are summed in the order of `costs`, and `a^e <= 1`, so no
        entry exceeds `costs` at x (rounding is monotone).  At a = 0 every
        term is `W_e * 0 = 0`, the same bits as `costs` at the zero bundle.
        """
        rows = _alpha_powers(grid_n, eps_limit, self.exponents)
        out = rows[0] * w[0]
        for wj, row in zip(w[1:], rows[1:]):
            out += row * wj
        if self.const:
            out += self.const
        return out


def _monomials(c: FunctionExpr) -> _Monomials | None:
    """`c` as grouped monomials; None unless every node is PowerSum, Affine, Sum or Scale."""
    groups: dict = {}
    const = 0.0

    def walk(node: FunctionExpr, factor: float) -> bool:
        nonlocal const
        if isinstance(node, Scale):
            return walk(node.child, factor * node.factor)
        if isinstance(node, Sum):
            return all(walk(child, factor) for child in node.children)
        if isinstance(node, PowerSum):
            terms = zip(node.coeffs, node.exponents)
        elif isinstance(node, Affine):
            terms = ((w, 1.0) for w in node.weights)
            const += factor * node.intercept
        else:
            return False
        for i, (k, e) in enumerate(terms):
            groups.setdefault(e, []).append((i, factor * k))
        return True

    if not walk(c, 1.0):
        return None
    exponents = tuple(sorted(groups))
    return _Monomials(const, exponents, tuple(tuple(groups[e]) for e in exponents))


def _ray_rows(c: FunctionExpr, form: _Monomials | None, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row inputs of `_ray_slopes` for the bundles `xs`, and c on them.

    With a monomial `form` the rows are the weights `W_e(x)`, and c is
    summed from them, so each row's bits are independent of the batch.
    """
    if form is None:
        return xs, c.values(xs)
    ws = form.weights(xs)
    return ws, form.costs(ws)


def _ray_slopes(
    c: FunctionExpr, form: _Monomials | None, row: np.ndarray, cx: float, grid_n: int, eps_limit: float
) -> np.ndarray:
    """Chord slopes `(c(x) - c(a*x)) / (1 - a)` of one bundle x on the fraction grid.

    `form` is `_monomials(c)`.  Without it, `row` is x itself and
    `c.values` is evaluated on the `(grid_n, d)` fractions of x.  With it,
    `row` and `cx` come from `_ray_rows`: the ray costs are the bundle's
    few weights times the cached rows `a^e`, never above `cx`, and the
    a = 0 slope is `cx - c(0)`, the same bits as `ray_payment_floor`.
    """
    alphas, gaps = _alpha_grid(grid_n, eps_limit)
    if form is None:
        cvals = c.values(alphas[:, None] * row)
        if np.any(cvals > cx + 1e-12 * max(1.0, abs(cx))):
            raise PreconditionError("cost decreases along the ray; non-monotone cost")
    else:
        cvals = form.ray_costs(row, grid_n, eps_limit)
    np.subtract(cx, cvals, out=cvals)
    cvals /= gaps
    return cvals


def _closed_payments(c: FunctionExpr, xs: np.ndarray) -> np.ndarray | None:
    """Closed-form payments on the rows of `xs`; None when the cost has none."""
    shape = c.shape
    if shape in (Shape.LINEAR, Shape.CONCAVE):
        return c.values(xs)
    if shape is Shape.CONVEX:
        return np.einsum("ij,ij->i", xs, c.gradient_batch(xs))
    return None


def ray_payment_batch(
    c: FunctionExpr,
    xs: np.ndarray,
    grid_n: int = DEFAULT_GRID_N,
    eps_limit: float = DEFAULT_EPS_LIMIT,
) -> np.ndarray:
    """Vectorized `ray_slope_sup(...).payment` over rows of `xs`.

    Rows equal to the zero bundle get payment 0 (no trade).
    """
    xs = np.asarray(xs, dtype=float)
    closed = _closed_payments(c, xs)
    if closed is not None:
        return closed
    _alpha_grid(grid_n, eps_limit)  # refuse a bad grid even when every row is zero
    form = _monomials(c)
    rows, cx = _ray_rows(c, form, xs)
    trade = np.any(xs > 0, axis=1)
    out = np.zeros(xs.shape[0])
    for k in np.nonzero(trade)[0]:
        out[k] = _ray_slopes(c, form, rows[k], cx[k], grid_n, eps_limit).max()
    return out


def ray_payment_floor(c: FunctionExpr, xs: np.ndarray) -> np.ndarray:
    """Row-wise lower bound on `ray_payment_batch(c, xs, ...)`, exact in floating point.

    Without a closed form this is the a = 0 chord slope `c(x) - c(0)`
    (0 on the zero bundle), with c computed as `ray_payment_batch`
    computes it; with one, it is the closed-form payment itself.
    """
    xs = np.asarray(xs, dtype=float)
    closed = _closed_payments(c, xs)
    if closed is not None:
        return closed
    form = _monomials(c)
    _, cx = _ray_rows(c, form, xs)
    _, c0 = _ray_rows(c, form, np.zeros((1, xs.shape[1])))
    return cx - c0[0]


def bregman(f: FunctionExpr, z, x) -> float:
    """`f(z) - f(x) - grad f(x) . (z - x)` for differentiable f."""
    z = as_bundle(z, f.dim)
    x = as_bundle(x, f.dim)
    g = f.gradient(x)
    return f.value(z) - f.value(x) - float(np.dot(g, z - x))
