"""Grid search and 1-d refinement helpers shared by the solvers.

Everything here is deterministic: grids are generated in lexicographic
order, argmax ties resolve by position, and golden-section brackets shrink
by a fixed schedule.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionError

__all__ = ["golden_max", "coordinate_refine", "grid_density"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Maximize a unimodal scalar function on [lo, hi].

    Returns the best of {interior golden-section point, lo, hi}, so exact
    boundary maxima are returned exactly.
    """
    a, b = float(lo), float(hi)
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = (a + b) / 2.0
    else:
        n = min(max_iter, int(math.ceil(math.log(tol / h) / math.log(_INVPHI))))
        c = a + _INVPHI2 * h
        d = a + _INVPHI * h
        yc = f(c)
        yd = f(d)
        for _ in range(n - 1):
            if yc > yd:
                b, d, yd = d, c, yc
                h *= _INVPHI
                c = a + _INVPHI2 * h
                yc = f(c)
            else:
                a, c, yc = c, d, yd
                h *= _INVPHI
                d = a + _INVPHI * h
                yd = f(d)
        x = c if yc > yd else d
    best = max((f(lo), float(lo)), (f(hi), float(hi)), (f(x), float(x)))
    return best[1]


def coordinate_refine(f, x0, spacing, upper, passes: int, tol: float) -> np.ndarray:
    """Refined copy of `x0`: each pass golden-maximizes `f` along every
    coordinate in turn over `[max(0, x_i - spacing_i), min(upper_i, x_i + spacing_i)]`.
    """
    x = np.array(x0, dtype=float)
    for _ in range(passes):
        for i in range(x.size):
            lo = max(0.0, x[i] - spacing[i])
            hi = min(float(upper[i]), x[i] + spacing[i])

            def along(t, _i=i):
                y = x.copy()
                y[_i] = t
                return f(y)

            x[i] = golden_max(along, lo, hi, tol=tol)
    return x


def grid_density(grid_points: dict, dim: int) -> int:
    """Points per axis for a `dim`-dimensional grid; the keys of
    `grid_points` are the only dimensions a grid solver supports."""
    try:
        return int(grid_points[dim])
    except KeyError:
        raise PreconditionError(f"no grid density configured for dimension {dim}") from None
