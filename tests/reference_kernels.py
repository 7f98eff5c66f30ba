"""Oracles for the tiny-batch kernels: the straightforward forms that rebuild
every constant array on each call.

The library caches each node's constant arrays and skips fix-ups that a
batch does not need; these functions recompute everything from the node's
stored tuples, so the library must give the same bits (compared as int64
views, so -0.0 and NaN payloads count).  `golden_max` is the golden search
that evaluates one position per bracket and call, which the library's
three-steps-ahead search must match bit for bit.  `box_vertices` builds
the box corners as one dense matrix, and the corner searches over it are
what the streamed 2-point grid searches must match.
"""

import math

import numpy as np

from padd import equilibrium, gridopt, response
from padd.errors import DimensionError, PreconditionError
from padd.funcs import GRAD_CAP, as_bundle


def column_sum(weights, cols, intercept):
    out = 0.0
    for i, w in enumerate(weights):
        out = out + w * cols[:, i]
    return out + intercept


def power_sum_values(f, xs):
    powers = np.asarray(xs, dtype=float) ** np.asarray(f.exponents)
    return column_sum(f.coeffs, powers, 0.0)


def power_sum_gradient_batch(f, xs):
    xs = np.asarray(xs, dtype=float)
    b = np.asarray(f.exponents)
    k = np.asarray(f.coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = xs ** (b - 1.0)
        g *= k * b
    np.copyto(g, k, where=(xs == 0.0) & (b == 1.0))
    np.copyto(g, 0.0, where=(xs == 0.0) & (b > 1.0))
    np.copyto(g, np.where(k > 0, GRAD_CAP, 0.0), where=(xs == 0.0) & (b < 1.0))
    return g


def power_sum_grad_max_info(f, x):
    x = as_bundle(x, f.dim)
    g = power_sum_gradient_batch(f, x[None, :])[0]
    axis = (x == 0.0) & (np.asarray(f.exponents) < 1.0)
    g[axis] = np.where(np.asarray(f.coeffs)[axis] > 0, GRAD_CAP, 0.0)
    return g


def leontief_values(f, xs):
    xs = np.asarray(xs, dtype=float)
    a = np.asarray(f.anchor)
    ratios = xs[:, a > 0] / a[a > 0]
    return f.level * np.minimum(ratios.min(axis=1), 1.0)


def leontief_grad_max_info(f, x):
    x = as_bundle(x, f.dim)
    a = np.asarray(f.anchor)
    support = np.nonzero(a > 0)[0]
    r = x[support] / a[support]
    r_min = float(r.min())
    verts = []
    if r_min <= 1.0:
        for i in support[r == r_min]:
            v = np.zeros(f.dim)
            v[i] = f.level / a[i]
            verts.append(v)
    if r_min >= 1.0:
        verts.append(np.zeros(f.dim))
    verts = np.asarray(verts)
    scores = verts @ x
    return max(verts[scores == scores.max()], key=tuple).copy()


def min_of_affine_values(f, xs):
    xs = np.asarray(xs, dtype=float)
    return np.min(np.stack([column_sum(p.weights, xs, p.intercept) for p in f.pieces]), axis=0)


def min_of_affine_gradient_batch(f, xs):
    xs = np.asarray(xs, dtype=float)
    pieces = sorted(f.pieces, key=lambda p: p.weights, reverse=True)
    vals = np.stack([column_sum(p.weights, xs, p.intercept) for p in pieces])
    scores = np.stack([column_sum(p.weights, xs, 0.0) for p in pieces])
    scores[vals > vals.min(axis=0)] = -np.inf
    return np.array([p.weights for p in pieces])[np.argmax(scores, axis=0)]


def graph_min_cost_grad_max_info(f, x):
    # term i's pieces are its neighbours' indicator and e_i; at a tie
    # both score x_i and the lexicographically greater one wins, which
    # is the indicator exactly when a neighbour precedes i
    x = as_bundle(x, f.dim).tolist()
    total = [0.0] * f.dim
    for i, js in enumerate(f.graph.neighbors):
        s = 0.0
        for j in js:  # the neighbour sum of `values`, in its order
            s += x[j]
        active = js if s < x[i] or (s == x[i] and js and js[0] < i) else (i,)
        for k in active:
            total[k] += 1.0
    return np.array(total)


def graph_min_cost_gradient_batch(f, xs):
    """One scalar `graph_min_cost_grad_max_info` per row."""
    return np.array([graph_min_cost_grad_max_info(f, x) for x in np.asarray(xs, dtype=float)]).reshape(-1, f.dim)


def _golden(lo, hi):
    """Golden-section search on one bracket as a generator: it yields each
    position to evaluate, is sent the value there, and returns its pick."""
    a, b = (hi, lo) if hi < lo else (lo, hi)
    h = b - a
    if h <= gridopt._GOLDEN_TOL:
        return (a + b) / 2.0
    n = math.ceil(math.log(gridopt._GOLDEN_TOL / h) / math.log(gridopt._INVPHI))
    c, d = a + gridopt._INVPHI2 * h, a + gridopt._INVPHI * h
    yc = yield c
    yd = yield d
    for _ in range(n - 1):
        h *= gridopt._INVPHI
        if yc > yd:
            d, yd = c, yc
            c = a + gridopt._INVPHI2 * h
            yc = yield c
        else:
            a, c, yc = c, d, yd
            d = a + gridopt._INVPHI * h
            yd = yield d
    return c if yc > yd else d


def golden_max(f, lo, hi):
    """`gridopt.golden_max` one golden step per objective call: each step
    evaluates the k brackets' next positions, (k,), a finished bracket
    re-evaluating its pick, and the final comparison is one call on (3, k)."""
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


def axis_rows(ts, axes, dim):
    return (np.asarray(ts, dtype=float)[..., None] * np.eye(dim)[axes]).reshape(-1, dim)


def as_bundle_reference(x, dim=None):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionError(f"bundle must be a 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise DimensionError(f"bundle has dimension {arr.size}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise PreconditionError("bundle coordinates must be finite")
    if np.any(arr < 0):
        raise PreconditionError("bundle coordinates must be non-negative")
    return arr


def sample_curve_rows(v, c, u_expr, x_hi, n=101):
    """The CLI's curve rows, one scalar `value` call per point and curve."""
    for x in np.linspace(0.0, x_hi, n):
        pt = np.array([x])
        yield ["curve", repr(float(x)), repr(v.value(pt)), repr(c.value(pt)), repr(u_expr.value(pt)), "", "", ""]


def box_vertices(upper):
    """The 2^d corners of the box `[0, upper]` as one dense (2^d, d) matrix,
    in lexicographic row order: the 2-point grid, built whole."""
    upper = np.asarray(upper, dtype=float)
    dim = upper.size
    n = 1 << dim
    masks = np.arange(n, dtype=np.int64)
    shifts = np.arange(dim - 1, -1, -1)
    bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(float)
    return bits * upper


def corner_solve(v, c, upper):
    """The bundle of a linear value against a concave or linear cost: the
    first maximal corner of `v - c` (whose payment is `c`), or no trade."""
    corners = box_vertices(upper)
    vals = v.values(corners) - c.values(corners)
    i0 = int(np.nonzero(vals >= vals.max())[0][0])
    x = corners[i0]
    return x if vals[i0] > equilibrium._NO_TRADE_TOL and np.any(x > 0) else np.zeros(x.size)


def corner_response(u, price, upper, c):
    """A convex report's best response: the seller-favoured tie over every corner."""
    return response._finish_ties(box_vertices(upper), u, price, c)


def corner_seller(u, c, domain, cfg):
    """(price, bundle, revenue, verified) of a convex report's seller search
    over the dense corners: the supergradients at the non-origin corners,
    best potential first until it is at most the best consistent revenue,
    then `response._refine` at the configured density and the seller's pick."""
    corners = box_vertices(domain.upper)[1:]
    grads = np.where(corners > 0.0, u.gradient_batch(corners), 0.0)
    keys = np.einsum("ij,ij->i", grads, corners) - c.values(corners)
    records, best_rev, seen = [], -np.inf, set()
    for j in np.argsort(-keys):
        if keys[j] <= max(best_rev, 0.0) + 1e-12:
            break
        p = u.grad_max_info(corners[j])
        if tuple(p) in seen or not np.all(np.isfinite(p)):
            continue
        seen.add(tuple(p))
        rec = response._consistent_record(u, p, domain, c, cfg, corner_response(u, p, domain.upper, c))
        if rec is not None:
            records.append(rec)
            best_rev = max(best_rev, rec[0])
    if records:
        response._refine(u, c, domain, records, cfg.points(domain.dim), cfg, False)
        revs = np.array([r for r, _, _ in records])
        bundles = np.array([b for _, b, _ in records])
        rev, bundle, price = records[response._seller_pick(bundles, revs, response._rev_tie(float(revs.max())))]
        if rev >= 0.0:
            return price, bundle, rev, True
    zero = np.zeros(u.dim)
    return zero, zero.copy(), 0.0, bool(records)
