"""Geometry along production rays.

The central quantity is the payment level that makes serving the whole
bundle weakly better for the seller than serving any smaller fraction of
it:

    payment(x) = sup over a in [0, 1) of  (c(x) - c(a*x)) / (1 - a)

For convex differentiable costs the supremum is the (unattained) limit
`x . grad c(x)`; for concave costs it is attained at a = 0 and equals
c(x); for anything else it is bracketed numerically on a dense a-grid.

The a = 0 chord slope is `c(x) - c(0)`, and on the numeric path it is
computed exactly that way as the first entry of the slope array, so
`ray_payment_floor` is at most `ray_payment_batch` row by row, bit for bit
(rounding is monotone).  Hence `v(x) - (c(x) - c(0))` bounds the buyer's
objective `v(x) - payment(x)` from above in floating point, which is what
lets the general solver skip grid rows exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .funcs import FunctionExpr, Shape, as_bundle

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
    cx = c.value(x)

    shape = c.shape
    if shape is Shape.LINEAR:
        # chord slope is constant in the fraction
        return RaySlopeResult(payment=cx, attained_alpha=0.0, is_limit=False)
    if shape is Shape.CONCAVE:
        return RaySlopeResult(payment=cx, attained_alpha=0.0, is_limit=False)
    if shape is Shape.CONVEX:
        payment = float(np.dot(x, c.gradient(x)))
        return RaySlopeResult(payment=payment, attained_alpha=None, is_limit=True)

    alphas = _alpha_grid(grid_n, eps_limit)
    cvals = c.values(alphas[:, None] * x)
    if np.any(cvals > cx + 1e-12 * max(1.0, abs(cx))):
        raise PreconditionError("cost decreases along the ray; non-monotone cost")
    slopes = (cx - cvals) / (1.0 - alphas)
    i = int(np.argmax(slopes))
    # the last grid node is exactly the forward-difference limit estimate
    if i == grid_n - 1:
        return RaySlopeResult(payment=float(slopes[i]), attained_alpha=None, is_limit=True)
    return RaySlopeResult(payment=float(slopes[i]), attained_alpha=float(alphas[i]), is_limit=False)


def _alpha_grid(grid_n: int, eps_limit: float) -> np.ndarray:
    """The fraction grid `0, ..., 1 - eps_limit` of the numeric supremum."""
    if grid_n < 2:
        raise PreconditionError("fraction grid needs at least 2 points")
    if not (0.0 < eps_limit < 1.0):
        raise PreconditionError("eps_limit must lie in (0, 1)")
    return np.linspace(0.0, 1.0 - eps_limit, grid_n)


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
    alphas = _alpha_grid(grid_n, eps_limit)
    out = np.empty(xs.shape[0])
    cx = c.values(xs)
    for k in range(xs.shape[0]):
        if not np.any(xs[k] > 0):
            out[k] = 0.0
            continue
        cvals = c.values(alphas[:, None] * xs[k])
        out[k] = np.max((cx[k] - cvals) / (1.0 - alphas))
    return out


def ray_payment_floor(c: FunctionExpr, xs: np.ndarray) -> np.ndarray:
    """Row-wise lower bound on `ray_payment_batch(c, xs, ...)`, exact in floating point.

    Without a closed form this is the a = 0 chord slope `c(x) - c(0)`
    (0 on the zero bundle); with one, it is the closed-form payment itself.
    """
    xs = np.asarray(xs, dtype=float)
    closed = _closed_payments(c, xs)
    if closed is not None:
        return closed
    return c.values(xs) - c.values(np.zeros((1, xs.shape[1])))[0]


def bregman(f: FunctionExpr, z, x) -> float:
    """`f(z) - f(x) - grad f(x) . (z - x)` for differentiable f."""
    z = as_bundle(z, f.dim)
    x = as_bundle(x, f.dim)
    g = f.gradient(x)
    return f.value(z) - f.value(x) - float(np.dot(g, z - x))
