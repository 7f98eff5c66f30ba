"""Grid search and 1-d refinement helpers shared by the solvers.

Everything here is deterministic: grids are generated in lexicographic
order, argmax ties resolve by position, and golden-section brackets shrink
by a fixed schedule.

Grid searches never build the whole `n^d x d` grid.  `grid_blocks` makes
the rows of one block of `_BLOCK` flat indices at a time straight from the
per-axis `linspace`s.  `grid_scan` evaluates the objective block by
block, keeping a running top-k, and `grid_ties` keeps the rows within a
tolerance of the running max; `grid_rows` regenerates any row from its
index.  The rows carry the bits of `BoxDomain.grid`, and every catalog
node gives a row the same bits in any batch, so a scan picks exactly what
one evaluation of the whole grid picks while holding O(block x d) rows,
not O(n^d x d).

`golden_max` advances k brackets in lockstep and `coordinate_refine`
refines k starts at once.  Each golden step picks its one new position
from one comparison of values already known, so a call of the objective
can evaluate the next three steps of every bracket under both outcomes
of the comparisons still open (7 positions per bracket), and the steps
are then replayed with the real values: a search of n steps makes
`1 + ceil((n - 1) / 3)` calls instead of one per step.  A bracket keeps
the positions, float operations and comparisons it has alone, so with an
objective that gives a row the same bits in any batch (as every catalog
node's `values` does), each start gets exactly the bits it gets alone,
whatever else shares its calls.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import PreconditionError

__all__ = ["golden_max", "refine_bracket", "coordinate_refine", "axis_rows", "top_k", "grid_rows", "grid_blocks", "grid_scan", "grid_ties"]

# grid rows per block of a streamed grid search
_BLOCK = 8192
_MAX_GRID_ROWS = 10**7  # rows of the largest grid a search scans (about 1.5 s at 150 ns a row)

REFINE_TOP_K = 3  # best grid cells that a search refines
REFINE_PASSES = 2  # coordinate passes of a refinement
_GOLDEN_TOL = 1e-10  # bracket width at which a golden search stops
_GOLDEN_LOOKAHEAD = 3  # golden steps that one objective call evaluates ahead

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(f, lo, hi) -> np.ndarray:
    """Maximize k unimodal functions, one on each bracket `[lo[j], hi[j]]`.

    `f` maps an (m, k) array of positions, column j in bracket j, to the
    values there, of the same shape.  Each bracket takes its own number n
    of golden-section steps from its own width and returns the best of
    {interior point, lo, hi}, exact ties to the larger position, so exact
    boundary maxima are returned exactly.

    A golden step keeps one of the two interior points and evaluates one
    new position, chosen by one comparison of known values.  So the
    first call of `f` evaluates lo, hi and the first two interior
    positions, and each later call evaluates the next `_GOLDEN_LOOKAHEAD`
    steps of every bracket under both outcomes of each comparison still
    open (1 + 2 + 4 positions, see `_lookahead`); the steps are then
    replayed with the real values, and the final comparison reuses stored
    values.  A search of n steps makes `1 + ceil((n - 1) / 3)` calls, and
    a bracket that is done evaluates its c again while the others go on.
    With an `f` that gives a row the same bits in any batch, each bracket
    takes exactly the positions, float operations and comparisons of a
    search that evaluates one position per call on that bracket alone.
    """
    lo = np.array(lo, dtype=float, ndmin=1).tolist()
    hi = np.array(hi, dtype=float, ndmin=1).tolist()
    brackets = []  # per bracket [a, h, c, d, steps left, yc, yd]
    for l, u in zip(lo, hi):
        a, b = (u, l) if u < l else (l, u)
        h = b - a
        if h <= _GOLDEN_TOL:
            brackets.append([a, h, (a + b) / 2.0, (a + b) / 2.0, 0])
        else:
            n = math.ceil(math.log(_GOLDEN_TOL / h) / math.log(_INVPHI))
            brackets.append([a, h, a + _INVPHI2 * h, a + _INVPHI * h, n - 1])
    ylo, yhi, yc, yd = f(np.array([lo, hi, [s[2] for s in brackets], [s[3] for s in brackets]])).tolist()
    for s, y in zip(brackets, zip(yc, yd)):
        s += y
    while (depth := min(_GOLDEN_LOOKAHEAD, max((s[4] for s in brackets), default=0))) > 0:
        trees = []  # per bracket: its points a, c, d and the new positions, the last width, the states
        for a, h, c, d, left, yc, yd in brackets:
            pts = [a, c, d]
            if left > 0:
                program, states = _lookahead(yc > yd, depth)
                widths = []
                for _ in range(depth):
                    h *= _INVPHI
                    widths.append(h)
                for base, level, factor in program:
                    pts.append(pts[base] + factor * widths[level])
            else:
                pts += [c] * ((1 << depth) - 1)
                states = None
            trees.append((pts, h, states))
        ys = f(np.array([pts[3:] for pts, _, _ in trees]).T)
        for s, (pts, h, states), y in zip(brackets, trees, ys.T.tolist()):
            steps = min(depth, s[4])
            s[4] -= depth
            if steps > 0:
                y = [None, s[5], s[6], *y]  # the value at each point
                g = 0
                for level in range(1, steps):
                    _, c, d = states[g]
                    g += (1 << (level - 1)) if y[c] > y[d] else (2 << (level - 1))
                a, c, d = states[g]
                s[:] = pts[a], h, pts[c], pts[d], s[4], y[c], y[d]
    picks = [(yc, c) if yc > yd else (yd, d) for _, _, c, d, _, yc, yd in brackets]
    return np.array([max((y0, l), (y1, u), pick)[1] for y0, l, y1, u, pick in zip(ylo, lo, yhi, hi, picks)])


@lru_cache(maxsize=None)
def _lookahead(low: bool, depth: int):
    """The index program of `depth` golden steps from the points (a, c, d):
    the first step to the low side (`yc > yd`: keep a, c becomes d) if
    `low`, else to the high side (c becomes a, d becomes c), and each
    later step to both sides.

    Points are numbered a, c, d = 0, 1, 2, then the new positions 3, 4, ...
    in level order: level l holds the 2**l nodes after step l + 1, the low
    children of level l - 1 before its high children, so node g (counted
    over all levels) has its low child at g + 2**l and its high child at
    g + 2**(l + 1).  Returns the program, per node (base point, level,
    factor) with the node's position `point[base] + factor * h_l` for the
    width h_l of level l; and the states, per node its (a, c, d) as point
    numbers.
    """
    program = []

    def step(state, low, level):
        a, c, d = state
        program.append((a, level, _INVPHI2) if low else (c, level, _INVPHI))
        new = len(program) + 2
        return (a, new, c) if low else (c, d, new)

    nodes = [step((0, 1, 2), low, 0)]
    states = list(nodes)
    for level in range(1, depth):
        nodes = [step(s, True, level) for s in nodes] + [step(s, False, level) for s in nodes]
        states += nodes
    return tuple(program), tuple(states)


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


def grid_scan(f, upper, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, rows) of the top `k` rows of the batch objective `f` over
    the grid, best first, scanned block by block.

    The top-k is `top_k` of the whole grid's values: each block's own top
    k is merged into the running one, which only holds lower indices, so
    ties keep index order.
    """
    idx, vals = np.zeros(0, dtype=np.intp), np.zeros(0)
    for lo, rows in grid_blocks(upper, n):
        v = f(rows)
        best = top_k(v, k)
        idx, vals = np.concatenate([idx, lo + best]), np.concatenate([vals, v[best]])
        best = top_k(vals, k)
        idx, vals = idx[best], vals[best]
    return vals, grid_rows(upper, n, idx)


def grid_ties(f, upper, n: int, tol: float) -> np.ndarray:
    """The rows of the grid where the batch objective `f` is within `tol` of
    its maximum (`value >= max - tol`), in index order, scanned block by block.

    A row dropped under the running max is also below the final threshold,
    which is never lower; a NaN max keeps the pool empty, as the whole-grid
    comparison does.
    """
    idx, vals, top = np.zeros(0, dtype=np.intp), np.zeros(0), -np.inf
    for lo, rows in grid_blocks(upper, n):
        v = f(rows)
        top = np.maximum(top, v.max())
        floor = top - tol
        kept, new = vals >= floor, np.nonzero(v >= floor)[0]
        idx, vals = np.concatenate([idx[kept], lo + new]), np.concatenate([vals[kept], v[new]])
    return grid_rows(upper, n, idx)
