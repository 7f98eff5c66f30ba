"""Geometry along production rays.

The central quantity is the payment level that makes serving the whole
bundle weakly better for the seller than serving any smaller fraction of
it:

    payment(x) = sup over a in [0, 1) of  (c(x) - c(a*x)) / (1 - a)

For convex differentiable costs the supremum is the (unattained) limit
`x . grad c(x)`; for concave costs it is attained at a = 0 and equals
c(x); for anything else it is the largest slope on the fraction grid
`linspace(0, 1 - 1e-6, GRID_N)`, whose fixed last node `1 - _GRID_GAP`
stands for the limit a -> 1.  The grid is a constant of this module, not
an argument: each function reads `GRID_N` when it is called.

On that grid every catalog cost reduces, per bundle x, to a few scalars
(`_ray_form`): PowerSum and Affine nodes give monomial weights
`W_e(x) = sum_{i: b_i = e} k_i * x_i^e`; GraphMinCost, homogeneous of
degree 1, adds `c_G(x)` to `W_1`; MinOfAffine is `min_k (b_k + a * s_k)`
along the ray, with pieces `(b_k, s_k = w_k . x)`, and Leontief the same
with pieces `(0, level * r(x))` and `(level, 0)`, r the smallest ratio
`x_i / anchor_i` over the anchor's support; Sum and Scale add and scale
these.  The chord slope at fraction a is then

    sum_e W_e * q_e(a)  +  sum_parts factor * max_k (s_k + D_k / (1 - a))

with `q_e(a) = (1 - a^e) / (1 - a) = -expm1(e * log a) / (1 - a)` and
`D_k = c_part(x) - (b_k + s_k) <= 0`, exactly 0 on the active piece.  No
term subtracts two nearly equal costs, so near a = 1 the slopes keep the
six digits that `(c(x) - c(a*x)) / (1 - a)` loses there.  The rows `q_e`
and `1 / (1 - a)` are cached per grid and exponent set, with the largest
`q_e` and the smallest `1 / (1 - a)` in each block of `_BLOCK` columns.

A bundle's payment is the largest slope on its row, but few of the row's
columns are computed.  Scale factors and coefficients are non-negative
(`_ray_form` refuses others), so on a bundle every `W_e >= 0` and every
`D_k <= 0`: each slope term is non-decreasing in `q_e` and non-increasing
in `1 / (1 - a)`, and rounding is monotone (a product by a fixed scalar, a
sum, a max).  So `slopes` at a block's extreme virtual column, its largest
`q_e` and smallest `1 / (1 - a)`, bounds every slope it computes in that
block, exactly.  `ray_payment_batch` computes the block of the largest
bound, then only the blocks whose bound exceeds the best slope found
there; the skipped columns cannot beat it, so the maximum is the whole
row's bit for bit.  A row with a NaN or infinite bound or best is computed
whole, so it keeps the row maximum's NaN or inf.

`ray_payment_batch` is the one payment code path: `_closed_payments`
is the one place that maps a cost's shape to its payment formula, and
`ray_slope_sup` is `ray_payment_batch` on a one-row batch.  The ray
form's scalars, the convex `x . grad c(x)` and the concave payment
`c.values(x)` are all computed elementwise (no matrix product), so any
batch gives a row the bits it has alone.

`ray_payment_floor` is the larger of each row's first (a = 0) and last
slopes, from the same code on the same grid: entries of the row that the
payment maximizes, bit for bit, so `v(x) - floor(x)` bounds the buyer's
objective `v(x) - payment(x)` from above in floating point, which is what
lets the general solver skip grid rows exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionError
from .funcs import FunctionExpr, GraphMinCost, Leontief, MinOfAffine, PowerSum, Scale, Shape, Sum, as_bundle

__all__ = ["ray_slope_sup", "bregman"]

GRID_N = 10001  # points of the fraction grid
# the fraction grid ends at 1 - _GRID_GAP, standing for the limit a -> 1
_GRID_GAP = 1e-6
# fraction-grid columns per block of `ray_payment_batch`'s slope bounds
_BLOCK = 64
# (row, block) pairs evaluated per `slopes` call, which caps its arrays at 2 MB
_PAIRS = 4096


def ray_slope_sup(c: FunctionExpr, x) -> float:
    """Largest slope of the chord of `t -> c(t*x)` ending at t = 1: the
    payment at one non-zero bundle, `ray_payment_batch` on a one-row batch."""
    x = as_bundle(x, c.dim)
    if not np.any(x > 0):
        raise PreconditionError("ray-slope supremum is undefined at the zero bundle")
    return float(ray_payment_batch(c, x[None, :])[0])


@lru_cache(maxsize=16)
def _grid_rows(grid_n: int, exponents: tuple) -> tuple[np.ndarray, ...]:
    """The rows `q_e(a)` and `1 / (1 - a)` of the fraction grid `0, ..., 1 - _GRID_GAP`,
    the columns of its `_BLOCK`-column blocks, and in each block the largest
    `q_e` and the smallest `1 / (1 - a)` (shared, read-only).

    One row `q_e(a) = -expm1(e * log a) / (1 - a)` per exponent; `q_e(0) = 1`
    is set directly, without taking log 0, and `q_1 = 1` exactly.
    """
    alphas = np.linspace(0.0, 1.0 - _GRID_GAP, grid_n)
    gaps = 1.0 - alphas
    qs = np.ones((len(exponents), grid_n))
    log_a = np.log(alphas[1:])
    for q, e in zip(qs, exponents):
        if e != 1.0:
            q[1:] = -np.expm1(e * log_a) / gaps[1:]
    inv = 1.0 / gaps
    # the column indices of each block; the last block repeats the last column
    blocks = np.minimum(np.arange(0, grid_n, _BLOCK)[:, None] + np.arange(_BLOCK), grid_n - 1)
    rows = qs, inv, blocks, qs[:, blocks].max(axis=-1), inv[blocks].min(axis=-1)
    for r in rows:
        r.flags.writeable = False
    return rows


@dataclass(frozen=True)
class _RayForm:
    """A cost along rays: monomial weights plus concave piecewise-linear parts.

    `exponents` are the distinct exponents in ascending order and
    `terms[j]` the pairs `(i, k_i)` of `exponents[j]`; `graphs` holds
    `(factor, node)` of the GraphMinCost nodes, which add to the weight of
    exponent 1; `parts` holds `(factor, node)` of the MinOfAffine
    and Leontief nodes.
    """

    exponents: tuple
    terms: tuple
    graphs: tuple
    parts: tuple

    def scalars(self, xs: np.ndarray) -> list[np.ndarray]:
        """Per-bundle scalars of the rows of `xs`.

        The weights `W_e` (one column per exponent), then `s_k` and `D_k`
        (one column per piece) of each part.  Elementwise only (no matrix
        product), so a row gets the same bits whatever batch it is in.
        """
        ws = np.empty((xs.shape[0], len(self.exponents)))
        for j, (e, terms) in enumerate(zip(self.exponents, self.terms)):
            w = 0.0
            for i, k in terms:
                w = w + k * xs[:, i] ** e
            if e == 1.0:
                for factor, node in self.graphs:
                    w = w + factor * node.values(xs)
            ws[:, j] = w
        out = [ws]
        for _, node in self.parts:
            b, s = _pieces(node, xs)
            t = b + s
            out += [s, t.min(axis=1, keepdims=True) - t]
        return out

    def slopes(self, scalars: list[np.ndarray], qs: np.ndarray, inv: np.ndarray, cols) -> np.ndarray:
        """Chord slopes of the bundles with these `scalars` at the grid columns `cols` of the rows `qs`, `inv`.

        `cols` is one index row for every bundle (one output column per
        index) or one index row per bundle; column 0 is a = 0, where
        `q_e = inv = 1`.
        """
        ws, *sd = scalars
        cols = np.asarray(cols)
        inv = inv[cols]
        out = np.zeros((ws.shape[0], inv.shape[-1]))
        for j, q in enumerate(qs):
            out += ws[:, j, None] * q[cols]
        for (factor, _), s, d in zip(self.parts, sd[0::2], sd[1::2]):
            m = d[:, :1] * inv + s[:, :1]
            for k in range(1, s.shape[1]):
                np.maximum(m, d[:, k, None] * inv + s[:, k, None], out=m)
            out += factor * m
        return out


def _pieces(node: MinOfAffine | Leontief, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intercepts `b` and slopes `s` (one column per piece) with `node(a*x) = min_k (b_k + a * s_k)`."""
    if isinstance(node, Leontief):
        r = None
        for i, a in enumerate(node.anchor):
            if a > 0:
                r = xs[:, i] / a if r is None else np.minimum(r, xs[:, i] / a)
        return np.array([0.0, node.level]), np.stack([node.level * r, np.zeros_like(r)], axis=1)
    s = np.zeros((xs.shape[0], len(node.pieces)))
    for k, piece in enumerate(node.pieces):
        for i, w in enumerate(piece.weights):
            s[:, k] += w * xs[:, i]
    return np.array([piece.intercept for piece in node.pieces]), s


def _ray_form(c: FunctionExpr) -> _RayForm:
    """`c` as monomial weights plus piecewise-linear parts; every catalog tree has one.

    Built on first use and kept on the node, which is immutable.  A
    negative or NaN Scale factor or coefficient is refused by name: the
    block bounds of `ray_payment_batch` rest on their signs.
    """
    form = c.__dict__.get("_ray_form")
    if form is not None:
        return form
    groups: dict = {}
    graphs = []
    parts = []

    def check(what: str, value: float) -> None:
        if not value >= 0.0:  # NaN fails too
            raise PreconditionError(f"the ray form needs a non-negative {what}, got {value!r}")

    def walk(node: FunctionExpr, factor: float) -> None:
        if isinstance(node, Scale):
            check("Scale factor", node.factor)
            walk(node.child, factor * node.factor)
        elif isinstance(node, Sum):
            for child in node.children:
                walk(child, factor)
        elif isinstance(node, (MinOfAffine, Leontief)):
            parts.append((factor, node))
        elif isinstance(node, GraphMinCost):
            groups.setdefault(1.0, [])
            graphs.append((factor, node))
        else:
            terms = zip(node.coeffs, node.exponents) if isinstance(node, PowerSum) else ((w, 1.0) for w in node.weights)
            for i, (k, e) in enumerate(terms):
                check(f"{type(node).__name__} coefficient", k)
                groups.setdefault(e, []).append((i, factor * k))

    walk(c, 1.0)
    exponents = tuple(sorted(groups))
    form = _RayForm(exponents, tuple(tuple(groups[e]) for e in exponents), tuple(graphs), tuple(parts))
    c.__dict__["_ray_form"] = form
    return form


def _closed_payments(c: FunctionExpr, xs: np.ndarray) -> np.ndarray | None:
    """Closed-form payments on the rows of `xs`; None when the cost has none.

    The chord slope is constant (linear) or largest at a = 0 (concave),
    where it is `c(x)`; for convex costs it rises to `x . grad c(x)`.
    """
    shape = c.shape
    if shape in (Shape.LINEAR, Shape.CONCAVE):
        return c.values(xs)
    if shape is Shape.CONVEX:
        return np.einsum("ij,ij->i", xs, c.gradient_batch(xs))
    return None


def ray_payment_batch(c: FunctionExpr, xs: np.ndarray) -> np.ndarray:
    """Payments on the rows of `xs`.

    Exact closed forms are used when the cost's curvature is known;
    otherwise the supremum is taken over the fraction grid, whose last node
    stands for the limit a -> 1, computing only the blocks of columns whose
    exact bound can beat the best slope found.  Rows equal to the zero
    bundle get payment 0 (no trade).
    """
    xs = np.asarray(xs, dtype=float)
    closed = _closed_payments(c, xs)
    if closed is not None:
        return closed
    form = _ray_form(c)
    qs, inv, blocks, qhi, ilo = _grid_rows(GRID_N, form.exponents)
    scalars = form.scalars(xs)
    # each row's block of largest bound first, then only its blocks whose bound exceeds the best slope found
    bound = form.slopes(scalars, qhi, ilo, np.arange(ilo.size))
    top = bound.argmax(axis=1)
    best = form.slopes(scalars, qs, inv, blocks[top]).max(axis=1)
    todo = bound > best[:, None]
    todo[np.arange(top.size), top] = False
    todo[~(np.isfinite(best) & np.isfinite(bound).all(axis=1))] = True  # NaN or inf: the whole row
    rows, ids = np.nonzero(todo)
    for lo in range(0, rows.size, _PAIRS):
        r = rows[lo : lo + _PAIRS]
        slopes = form.slopes([s[r] for s in scalars], qs, inv, blocks[ids[lo : lo + _PAIRS]])
        np.maximum.at(best, r, slopes.max(axis=1))
    return np.where(np.any(xs > 0, axis=1), best, 0.0)


def ray_payment_floor(c: FunctionExpr, xs: np.ndarray) -> np.ndarray:
    """Row-wise lower bound on `ray_payment_batch(c, xs)`, exact in floating point.

    Without a closed form: the larger of the row's a = 0 slope `c(x) - c(0)`
    and its last grid slope (standing for the limit a -> 1), each computed by
    `ray_payment_batch`'s slope code on its grid rows, so bit for bit that
    row's entry (0 on the zero bundle).  With one: the closed-form payment.
    """
    xs = np.asarray(xs, dtype=float)
    closed = _closed_payments(c, xs)
    if closed is not None:
        return closed
    form = _ray_form(c)
    qs, inv, *_ = _grid_rows(GRID_N, form.exponents)
    floor = form.slopes(form.scalars(xs), qs, inv, [0, -1]).max(axis=1)
    return np.where(np.any(xs > 0, axis=1), floor, 0.0)


def bregman(f: FunctionExpr, z, x) -> float:
    """`f(z) - f(x) - grad f(x) . (z - x)` for a convex (or linear) f.

    At z = 0 this is the seller's revenue `x . grad c(x) - c(x)` under a
    convex cost c.
    """
    if f.shape not in (Shape.CONVEX, Shape.LINEAR):
        raise PreconditionError(f"the Bregman divergence needs a convex or linear expression, got {f.shape.value}")
    z = as_bundle(z, f.dim)
    x = as_bundle(x, f.dim)
    g = f.grad_max_info(x)
    return f.value(z) - f.value(x) - float(np.dot(g, z - x))
