"""Ray payments in 40-digit mpmath arithmetic on the float fraction grid.

An independent reference for the ray-payment kernel of `padd.raygeom`,
which it does not import: every catalog node is evaluated from its own
definition at the scaled bundle `a*x` (the product of two doubles is exact
at 40 digits), and the chord slope `(c(x) - c(a*x)) / (1 - a)` is taken at
the same float fractions `a` that the kernel uses.
"""

import mpmath
import numpy as np

from padd import Affine, GraphMinCost, Leontief, MinOfAffine, PowerSum, Scale, Sum

MP = mpmath.MPContext()
MP.dps = 40


def mp_cost(node, x):
    """`node` at the bundle `x` (a list of mpf)."""
    if isinstance(node, PowerSum):
        return MP.fsum(k * xi ** MP.mpf(e) for k, e, xi in zip(node.coeffs, node.exponents, x))
    if isinstance(node, Affine):
        return MP.fsum(w * xi for w, xi in zip(node.weights, x)) + node.intercept
    if isinstance(node, MinOfAffine):
        return min(mp_cost(p, x) for p in node.pieces)
    if isinstance(node, Leontief):
        return node.level * min(min(xi / a for a, xi in zip(node.anchor, x) if a > 0), 1)
    if isinstance(node, GraphMinCost):
        adj = node.graph.adjacency
        return MP.fsum(min(MP.fsum(x[j] for j in np.nonzero(adj[:, i])[0]), x[i]) for i in range(len(x)))
    if isinstance(node, Sum):
        return MP.fsum(mp_cost(child, x) for child in node.children)
    if isinstance(node, Scale):
        return node.factor * mp_cost(node.child, x)
    raise TypeError(f"not a catalog node: {node!r}")


def chord_slopes(c, x, alphas) -> list:
    """Chord slopes of c at the bundle x for each float fraction in `alphas`."""
    xm = [MP.mpf(float(v)) for v in x]
    cx = mp_cost(c, xm)
    out = []
    for a in alphas:
        am = MP.mpf(float(a))
        out.append((cx - mp_cost(c, [am * v for v in xm])) / (1 - am))
    return out


def grid_payment(c, x, grid_n: int = 10001, eps_limit: float = 1e-6):
    """Largest chord slope at the non-zero bundle x on `linspace(0, 1 - eps_limit, grid_n)`.

    Only the fractions whose float chord slope (from `c.values`) lies within
    1e-6 of the float maximum are evaluated exactly.  Cancellation near
    a = 1 puts the float slopes off by far less than that (about 1e-10
    relative), so the exact maximum is among them.
    """
    x = np.asarray(x, dtype=float)
    alphas = np.linspace(0.0, 1.0 - eps_limit, grid_n)
    cx = float(c.values(x[None, :])[0])
    approx = (cx - c.values(alphas[:, None] * x)) / (1.0 - alphas)
    top = approx.max()
    near = alphas[approx >= top - 1e-6 * (abs(top) + abs(cx))]
    return max(chord_slopes(c, x, near))


def rel_err(got, want) -> float:
    """`|got - want| / |want|` in 40 digits (0 when both are 0)."""
    diff = abs(MP.mpf(float(got)) - want)
    return float(diff / abs(want)) if diff else 0.0
