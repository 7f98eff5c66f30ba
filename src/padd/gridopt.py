"""Grid search and 1-d refinement helpers shared by the solvers.

Everything here is deterministic: grids are generated in lexicographic
order, argmax ties resolve by position, and golden-section brackets shrink
by a fixed schedule.

Grid searches never build the whole `n^d x d` grid.  `grid_blocks` makes
the rows of one block of `_BLOCK` flat indices at a time straight from the
per-axis `linspace`s, and `grid_scan` evaluates the objective block by
block, keeping a running top-k (and, optionally, the rows tied with the
running max); `grid_rows` regenerates any row from its index.  The rows
carry the bits of `BoxDomain.grid`, and every catalog node gives a row the
same bits in any batch, so a scan picks exactly what one evaluation of the
whole grid picks while holding O(block x d) rows, not O(n^d x d).

`golden_max` advances k brackets in lockstep, one objective call for all k
positions per step, and `coordinate_refine` refines k starts at once.  A
bracket keeps the schedule and float operations it has alone, so with an
objective that gives a row the same bits in any batch (as every catalog
node's `values` does), each start gets exactly the bits it gets alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError

__all__ = ["golden_max", "refine_bracket", "coordinate_refine", "axis_rows", "top_k", "grid_rows", "grid_blocks", "grid_scan"]

# grid rows per block of a streamed grid search
_BLOCK = 8192
_MAX_GRID_ROWS = 10**7  # rows of the largest grid a search scans (about 1.5 s at 150 ns a row)

REFINE_TOP_K = 3  # best grid cells that a search refines
REFINE_PASSES = 2  # coordinate passes of a refinement
_GOLDEN_TOL = 1e-10  # bracket width at which a golden search stops
_GOLDEN_MAX_STEPS = 200  # cap on the steps of one golden search

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden(lo: float, hi: float):
    """Golden-section search on one bracket as a generator: it yields each
    position to evaluate, is sent the value there, and returns its pick."""
    a, b = (hi, lo) if hi < lo else (lo, hi)
    h = b - a
    if h <= _GOLDEN_TOL:
        return (a + b) / 2.0
    n = min(_GOLDEN_MAX_STEPS, math.ceil(math.log(_GOLDEN_TOL / h) / math.log(_INVPHI)))
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    yc = yield c
    yd = yield d
    for _ in range(n - 1):
        h *= _INVPHI
        if yc > yd:
            d, yd = c, yc
            c = a + _INVPHI2 * h
            yc = yield c
        else:
            a, c, yc = c, d, yd
            d = a + _INVPHI * h
            yd = yield d
    return c if yc > yd else d


def golden_max(f, lo, hi) -> np.ndarray:
    """Maximize k unimodal functions, one on each bracket `[lo[j], hi[j]]`.

    `f` maps an array of positions whose last axis runs over the k
    brackets to the values there, of the same shape.  Each bracket takes
    its own number of golden-section steps from its own width (a finished
    one re-evaluates its pick while the others go on), and returns the
    best of {interior point, lo, hi}, exact ties to the larger position,
    so exact boundary maxima are returned exactly.  Each step is one call
    of `f` on k positions, and the final comparison one call on (3, k).
    """
    lo = np.array(lo, dtype=float, ndmin=1).tolist()
    hi = np.array(hi, dtype=float, ndmin=1).tolist()
    searches = [_golden(a, b) for a, b in zip(lo, hi)]
    pos, ys, done = [None] * len(lo), [None] * len(lo), [False] * len(lo)
    while not all(done):
        for j, search in enumerate(searches):
            if not done[j]:
                try:
                    pos[j] = search.send(ys[j])
                except StopIteration as stop:
                    pos[j], done[j] = stop.value, True
        if not all(done):
            ys = f(np.array(pos)).tolist()
    ys = f(np.array([lo, hi, pos])).tolist()
    return np.array([max((ys[0][j], lo[j]), (ys[1][j], hi[j]), (ys[2][j], x))[1] for j, x in enumerate(pos)])


def refine_bracket(x, spacing, upper):
    """The refinement bracket `[max(0, x - spacing), min(upper, x + spacing)]`,
    elementwise, with an upper end within 4 ulps of `upper` snapped to it.

    From the grid point next to the upper face, `x + spacing` can round a
    few ulps below `upper`; a golden search on that bracket would return
    the rounded end instead of the face itself.
    """
    hi = x + spacing
    return np.maximum(0.0, x - spacing), np.where(hi >= upper - 4.0 * np.spacing(upper), upper, hi)


def coordinate_refine(f, starts, spacing, upper, passes: int) -> np.ndarray:
    """Refined copies of the rows of `starts` ((k, d)), as a (k, d) array.

    Each pass golden-maximizes the batch objective `f` ((m, d) rows to m
    values) along every coordinate i in turn, over the `refine_bracket`
    of `x_i` for all k rows at once.
    """
    x = np.array(starts, dtype=float, ndmin=2)
    for _ in range(passes):
        for i in range(x.shape[1]):
            lo, hi = refine_bracket(x[:, i], spacing[i], float(upper[i]))

            def along(ts, _i=i):
                ys = np.concatenate([x] * (ts.size // len(x)))
                ys[:, _i] = ts.ravel()
                return f(ys).reshape(ts.shape)

            x[:, i] = golden_max(along, lo, hi)
    return x


@lru_cache(maxsize=16)
def _identity(dim: int) -> np.ndarray:
    """`np.eye(dim)`, shared and read-only."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def axis_rows(ts, axes, dim: int) -> np.ndarray:
    """The rows `t * e_axis`, one per entry of `ts` in C order, as an
    (ts.size, dim) array; `axes` broadcasts to the shape of `ts`."""
    return (np.asarray(ts, dtype=float)[..., None] * _identity(dim)[axes]).reshape(-1, dim)


def top_k(vals: np.ndarray, k: int) -> np.ndarray:
    """`np.argsort(-vals, kind="stable")[:k]`, without sorting every value.

    A partition finds the k-th largest value and only the values at or
    above it are sorted, so ties keep index order and -inf, +inf and NaN
    land where the full sort puts them (it falls back to the full sort
    when the k-th value is NaN).
    """
    neg = -np.asarray(vals)
    if k >= neg.size:
        return np.argsort(neg, kind="stable")[:k]
    kth = np.partition(neg, k - 1)[k - 1]
    if np.isnan(kth):
        return np.argsort(neg, kind="stable")[:k]
    idx = np.nonzero(neg <= kth)[0]
    return idx[np.argsort(neg[idx], kind="stable")[:k]]


def grid_rows(upper, n: int, idx) -> np.ndarray:
    """Rows `idx` (flat lexicographic indices) of the `n`-per-axis grid on
    the box `[0, upper]`, bit for bit `BoxDomain(upper).grid(n)[idx]`."""
    return _rows([np.linspace(0.0, b, n) for b in upper], idx)


def _rows(axes, idx) -> np.ndarray:
    digits = np.unravel_index(np.asarray(idx, dtype=np.intp), tuple(a.size for a in axes))
    return np.stack([a[i] for a, i in zip(axes, digits)], axis=1)


def grid_blocks(upper, n: int, start: int = 0):
    """Yield (first index, rows) for consecutive `_BLOCK`-row blocks of the
    grid, from flat index `start` on.

    A grid of more than `_MAX_GRID_ROWS` rows is refused once its axes are
    made (so an axis too long to allocate stays a `MemoryError`).
    """
    axes = [np.linspace(0.0, b, n) for b in upper]
    total = n ** len(upper)
    if total > _MAX_GRID_ROWS:
        raise PreconditionError(
            f"grid of {n}^{len(upper)} = {total} rows exceeds the {_MAX_GRID_ROWS} rows a search scans"
        )
    for lo in range(start, total, _BLOCK):
        yield lo, _rows(axes, np.arange(lo, min(lo + _BLOCK, total)))


class GridScan(NamedTuple):
    """Result of `grid_scan`: the top-k flat indices (best first, ties by
    index), their values and rows, and the tie pool's rows (or None)."""

    idx: np.ndarray
    vals: np.ndarray
    rows: np.ndarray
    pool: np.ndarray | None


def grid_scan(f, upper, n: int, k: int, pool_tol=None) -> GridScan:
    """Top `k` rows of the batch objective `f` over the grid, block by block.

    The top-k is `top_k` of the whole grid's values: each block's own top
    k is merged into the running one, which only holds lower indices, so
    ties keep index order.  With `pool_tol` (a function of the max), the
    pool holds the rows with `value >= max - pool_tol(max)` in index order;
    `x - pool_tol(x)` must not decrease in x, so that a row dropped under
    a running max is also below the final threshold (a NaN max keeps the
    pool empty, as the whole-grid comparison does).
    """
    idx, vals = np.zeros(0, dtype=np.intp), np.zeros(0)
    pool_idx, pool_vals, top = idx, vals, -np.inf
    for lo, rows in grid_blocks(upper, n):
        v = f(rows)
        best = top_k(v, k)
        idx, vals = np.concatenate([idx, lo + best]), np.concatenate([vals, v[best]])
        best = top_k(vals, k)
        idx, vals = idx[best], vals[best]
        if pool_tol is not None:
            top = np.maximum(top, v.max())
            floor = top - pool_tol(top)
            kept, new = pool_vals >= floor, np.nonzero(v >= floor)[0]
            pool_idx = np.concatenate([pool_idx[kept], lo + new])
            pool_vals = np.concatenate([pool_vals[kept], v[new]])
    pool = None if pool_tol is None else grid_rows(upper, n, pool_idx)
    return GridScan(idx, vals, grid_rows(upper, n, idx), pool)
