"""Closed catalog of value, cost, and pricing functions.

Every function the solvers touch is an expression tree built from a fixed
set of node kinds, so evaluation, gradients, supergradient sets, and
convexity/concavity classification are all exact: no numerical
differentiation anywhere in the core formulas.

All expressions are defined on the non-negative orthant, are monotone
non-decreasing, and (apart from affine pieces with a positive intercept)
vanish at the origin.  Nodes are immutable after construction; every
operation here is a pure function, safe to call concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionError, NotDifferentiableError, PreconditionError
from .graphs import GraphInstance, parse_graph_json

__all__ = [
    "Shape",
    "FunctionExpr",
    "PowerSum",
    "Affine",
    "Leontief",
    "MinOfAffine",
    "Sum",
    "Scale",
    "GraphMinCost",
    "BoxDomain",
    "MAX_ENUM_DIM",
    "SupergradientSet",
    "GradMaxResult",
    "as_bundle",
    "as_price",
    "grad_max_info",
    "supergradients",
    "expr_from_dict",
    "expr_to_dict",
    "check_monotone",
    "check_shape_by_sampling",
    "check_supergradient",
]

GRAD_CAP = 1e12
# largest dimension whose 2^d box corners (or graph node subsets) are enumerated
MAX_ENUM_DIM = 20


class Shape(enum.Enum):
    """Curvature classification of an expression."""

    CONVEX = "convex"
    CONCAVE = "concave"
    LINEAR = "linear"
    GENERAL = "general"


def as_bundle(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a goods bundle as a float64 vector.

    Bundles are finite, non-negative, and at least one-dimensional.
    """
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


def _check_finite(what: str, *values: float) -> None:
    """Node parameters must be finite numbers (NaN and infinities are refused)."""
    if not np.all(np.isfinite(values)):
        raise PreconditionError(f"{what} must be finite")


def as_price(p, dim: int | None = None) -> np.ndarray:
    """Validate a per-unit price vector (finite, non-negative)."""
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if arr.ndim != 1:
        raise DimensionError(f"price must be a 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise DimensionError(f"price has dimension {arr.size}, expected {dim}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise PreconditionError("prices must be finite and non-negative")
    return arr


@dataclass(eq=False)
class BoxDomain:
    """Axis-aligned production box `[0, b_1] x ... x [0, b_d]`."""

    upper: np.ndarray

    def __post_init__(self):
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.upper.ndim != 1 or self.upper.size < 1:
            raise DimensionError("box needs a 1-d vector of upper bounds")
        if not np.all(np.isfinite(self.upper)) or np.any(self.upper <= 0):
            raise PreconditionError("box upper bounds must be finite and positive")

    @property
    def dim(self) -> int:
        return self.upper.size

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -tol) and np.all(x <= self.upper + tol))

    def grid(self, points_per_axis: int) -> np.ndarray:
        """All grid points as an (n, d) array in lexicographic row order."""
        axes = [np.linspace(0.0, b, points_per_axis) for b in self.upper]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def vertices(self) -> np.ndarray:
        """The 2^d box corners, in lexicographic row order."""
        if self.dim > MAX_ENUM_DIM:
            raise PreconditionError(f"vertex enumeration capped at dimension {MAX_ENUM_DIM}")
        n = 1 << self.dim
        masks = np.arange(n, dtype=np.int64)
        shifts = np.arange(self.dim - 1, -1, -1)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(float)
        return bits * self.upper

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random((n, self.dim)) * self.upper

    def to_dict(self) -> dict:
        return {"upper": [float(b) for b in self.upper]}

    @classmethod
    def from_dict(cls, obj: dict) -> "BoxDomain":
        return cls(np.asarray(obj["upper"], dtype=float))


@dataclass(eq=False)
class SupergradientSet:
    """Supergradients of a concave expression at a point.

    Either a single gradient (smooth point) or the vertex list of the
    supergradient polytope (kink of a piecewise-linear expression).
    """

    vertices: np.ndarray  # (k, d); k == 1 at smooth points
    is_singleton: bool

    def contains_valid_only(self, f: "FunctionExpr", x, zs: np.ndarray, tol: float = 1e-9) -> bool:
        """Check `f(z) <= f(x) + g . (z - x)` for every vertex on sample points."""
        x = as_bundle(x, f.dim)
        fx = f.value(x)
        fz = f.values(zs)
        for g in self.vertices:
            if np.any(fz > fx + (zs - x) @ g + tol):
                return False
        return True


@dataclass(eq=False)
class GradMaxResult:
    """Payment-maximizing supergradient, with a flag for clamped entries."""

    vector: np.ndarray
    clamped: bool = False


def _lex_greatest(rows: np.ndarray) -> int:
    """Index of the lexicographically greatest row."""
    best = 0
    for i in range(1, rows.shape[0]):
        if tuple(rows[i]) > tuple(rows[best]):
            best = i
    return best


def _pick_grad_max(vertices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """argmax of g . x over the vertex list; ties prefer the lex-greatest vector."""
    scores = vertices @ x
    cand = vertices[scores == scores.max()]  # exact-score ties only
    return cand[_lex_greatest(cand)].copy()


class FunctionExpr:
    """Base class for catalog expression nodes."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def value(self, x) -> float:
        """Evaluation at one bundle: `values` on a one-row batch."""
        return float(self.values(as_bundle(x, self.dim)[None, :])[0])

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an (n, d) array of bundles."""
        raise NotImplementedError

    @cached_property
    def shape(self) -> Shape:
        return self._structural_shape()

    def _structural_shape(self) -> Shape:
        raise NotImplementedError

    def grad_max_info(self, x, cap: float = GRAD_CAP) -> GradMaxResult:
        """See :func:`grad_max_info`."""
        raise NotImplementedError

    def supergradients(self, x) -> SupergradientSet:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        """Exact gradient where the node is differentiable; raises at kinks."""
        raise NotImplementedError

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __call__(self, x) -> float:
        return self.value(x)


@dataclass
class PowerSum(FunctionExpr):
    """`f(x) = sum_i k_i * x_i^{b_i}` with `k_i >= 0`, `b_i > 0`."""

    coeffs: tuple
    exponents: tuple

    def __init__(self, coeffs, exponents):
        c = tuple(float(v) for v in np.atleast_1d(coeffs))
        b = tuple(float(v) for v in np.atleast_1d(exponents))
        if len(c) != len(b) or not c:
            raise DimensionError("coeffs and exponents must have equal positive length")
        _check_finite("coefficients and exponents", *c, *b)
        if any(v < 0 for v in c):
            raise PreconditionError("coefficients must be non-negative")
        if any(v <= 0 for v in b):
            raise PreconditionError("exponents must be positive")
        self.coeffs = c
        self.exponents = b

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return (xs ** np.asarray(self.exponents)) @ np.asarray(self.coeffs)

    def _structural_shape(self) -> Shape:
        b = self.exponents
        if all(v == 1.0 for v in b):
            return Shape.LINEAR
        if all(v <= 1.0 for v in b):
            return Shape.CONCAVE
        if all(v >= 1.0 for v in b):
            return Shape.CONVEX
        return Shape.GENERAL

    def grad_max_info(self, x, cap: float = GRAD_CAP) -> GradMaxResult:
        x = as_bundle(x, self.dim)
        g = np.empty(self.dim)
        clamped = False
        for i, (k, b) in enumerate(zip(self.coeffs, self.exponents)):
            if x[i] == 0.0 and b < 1.0:
                # unbounded at the axis; keep the call total but flag it
                g[i] = cap if k > 0 else 0.0
                clamped = k > 0
            elif x[i] == 0.0 and b > 1.0:
                g[i] = 0.0
            else:
                g[i] = k * b * x[i] ** (b - 1.0)
        return GradMaxResult(g, clamped)

    def supergradients(self, x) -> SupergradientSet:
        return SupergradientSet(self.gradient(x)[None, :], True)

    def gradient(self, x) -> np.ndarray:
        x = as_bundle(x, self.dim)
        g = np.empty(self.dim)
        for i, (k, b) in enumerate(zip(self.coeffs, self.exponents)):
            if x[i] == 0.0:
                if b < 1.0 and k > 0:
                    raise NotDifferentiableError(
                        "gradient unbounded at a zero coordinate for exponent < 1"
                    )
                g[i] = k if b == 1.0 else 0.0
            else:
                g[i] = k * b * x[i] ** (b - 1.0)
        return g

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        b = np.asarray(self.exponents)
        k = np.asarray(self.coeffs)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = k * b * xs ** (b - 1.0)
        # exponent-1 terms are constant; fix 0^0 artifacts explicitly
        g = np.where((xs == 0.0) & (b == 1.0), k, g)
        g = np.where((xs == 0.0) & (b > 1.0), 0.0, g)
        return g

    def to_dict(self) -> dict:
        return {
            "kind": "power_sum",
            "coeffs": list(self.coeffs),
            "exponents": list(self.exponents),
        }


@dataclass
class Affine(FunctionExpr):
    """`f(x) = w . x + intercept` with non-negative weights and intercept."""

    weights: tuple
    intercept: float = 0.0

    def __init__(self, weights, intercept: float = 0.0):
        w = tuple(float(v) for v in np.atleast_1d(weights))
        if not w:
            raise DimensionError("weights must be non-empty")
        _check_finite("weights and intercept", *w, intercept)
        if any(v < 0 for v in w):
            raise PreconditionError("weights must be non-negative")
        if intercept < 0:
            raise PreconditionError("intercept must be non-negative")
        self.weights = w
        self.intercept = float(intercept)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return xs @ np.asarray(self.weights) + self.intercept

    def _structural_shape(self) -> Shape:
        return Shape.LINEAR

    def grad_max_info(self, x, cap: float = GRAD_CAP) -> GradMaxResult:
        as_bundle(x, self.dim)
        return GradMaxResult(np.asarray(self.weights, dtype=float), False)

    def supergradients(self, x) -> SupergradientSet:
        return SupergradientSet(np.asarray(self.weights, dtype=float)[None, :], True)

    def gradient(self, x) -> np.ndarray:
        as_bundle(x, self.dim)
        return np.asarray(self.weights, dtype=float)

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.broadcast_to(np.asarray(self.weights), xs.shape).copy()

    def to_dict(self) -> dict:
        return {
            "kind": "affine",
            "weights": list(self.weights),
            "intercept": self.intercept,
        }


@dataclass
class Leontief(FunctionExpr):
    """`f(x) = level * min(x_i/a_i over a_i > 0, 1)` for a non-negative anchor `a`.

    The value grows with the largest fraction of the anchor bundle that x
    contains and saturates once the whole anchor is covered.  Zero anchor
    coordinates mark absent goods, which the value ignores.
    """

    anchor: tuple
    level: float

    def __init__(self, anchor, level: float):
        a = tuple(float(v) for v in np.atleast_1d(anchor))
        if not a:
            raise DimensionError("anchor must be non-empty")
        _check_finite("anchor and level", *a, level)
        if any(v < 0 for v in a) or not any(v > 0 for v in a):
            raise PreconditionError("anchor coordinates must be non-negative, at least one positive")
        if level < 0:
            raise PreconditionError("level must be non-negative")
        self.anchor = a
        self.level = float(level)

    @property
    def dim(self) -> int:
        return len(self.anchor)

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        a = np.asarray(self.anchor)
        ratios = xs[:, a > 0] / a[a > 0]
        return self.level * np.minimum(ratios.min(axis=1), 1.0)

    def _structural_shape(self) -> Shape:
        return Shape.CONCAVE

    def _active_vertices(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(self.anchor)
        support = np.nonzero(a > 0)[0]
        r = x[support] / a[support]
        r_min = float(r.min())
        verts = []
        if r_min <= 1.0:
            for i in support[r == r_min]:
                v = np.zeros(self.dim)
                v[i] = self.level / a[i]
                verts.append(v)
        if r_min >= 1.0:
            verts.append(np.zeros(self.dim))
        return np.asarray(verts)

    def grad_max_info(self, x, cap: float = GRAD_CAP) -> GradMaxResult:
        x = as_bundle(x, self.dim)
        return GradMaxResult(_pick_grad_max(self._active_vertices(x), x), False)

    def supergradients(self, x) -> SupergradientSet:
        x = as_bundle(x, self.dim)
        verts = self._active_vertices(x)
        return SupergradientSet(verts, verts.shape[0] == 1)

    def gradient(self, x) -> np.ndarray:
        x = as_bundle(x, self.dim)
        verts = self._active_vertices(x)
        if verts.shape[0] != 1:
            raise NotDifferentiableError("kink of the anchored value function")
        return verts[0].copy()

    def to_dict(self) -> dict:
        return {"kind": "leontief", "anchor": list(self.anchor), "level": self.level}


@dataclass
class MinOfAffine(FunctionExpr):
    """Pointwise minimum of affine pieces; piecewise-linear and concave."""

    pieces: tuple

    def __init__(self, pieces: Sequence[Affine]):
        ps = tuple(pieces)
        if not ps:
            raise DimensionError("need at least one affine piece")
        if any(not isinstance(p, Affine) for p in ps):
            raise PreconditionError("pieces must be Affine nodes")
        if len({p.dim for p in ps}) != 1:
            raise DimensionError("pieces must share one dimension")
        self.pieces = ps

    @property
    def dim(self) -> int:
        return self.pieces[0].dim

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.min(np.stack([p.values(xs) for p in self.pieces]), axis=0)

    def _structural_shape(self) -> Shape:
        if len(self.pieces) == 1:
            return Shape.LINEAR
        return Shape.CONCAVE

    def _active_vertices(self, x: np.ndarray) -> np.ndarray:
        # exact breakpoint arithmetic: a piece is active iff it attains the min
        vals = [p.value(x) for p in self.pieces]
        m = min(vals)
        verts = [np.asarray(p.weights, dtype=float) for p, v in zip(self.pieces, vals) if v == m]
        return np.unique(np.asarray(verts), axis=0)

    def grad_max_info(self, x, cap: float = GRAD_CAP) -> GradMaxResult:
        x = as_bundle(x, self.dim)
        return GradMaxResult(_pick_grad_max(self._active_vertices(x), x), False)

    def supergradients(self, x) -> SupergradientSet:
        x = as_bundle(x, self.dim)
        verts = self._active_vertices(x)
        return SupergradientSet(verts, verts.shape[0] == 1)

    def gradient(self, x) -> np.ndarray:
        x = as_bundle(x, self.dim)
        verts = self._active_vertices(x)
        if verts.shape[0] != 1:
            raise NotDifferentiableError("kink between affine pieces")
        return verts[0].copy()

    def to_dict(self) -> dict:
        return {"kind": "min_of_affine", "pieces": [p.to_dict() for p in self.pieces]}


@dataclass
class Sum(FunctionExpr):
    """Sum of child expressions over a shared dimension."""

    children: tuple

    def __init__(self, children: Sequence[FunctionExpr]):
        ch = tuple(children)
        if not ch:
            raise DimensionError("need at least one child")
        if len({c.dim for c in ch}) != 1:
            raise DimensionError("children must share one dimension")
        self.children = ch

    @property
    def dim(self) -> int:
        return self.children[0].dim

    def values(self, xs: np.ndarray) -> np.ndarray:
        out = self.children[0].values(xs)
        for c in self.children[1:]:
            out = out + c.values(xs)
        return out

    def _structural_shape(self) -> Shape:
        shapes = {c.shape for c in self.children}
        if shapes <= {Shape.LINEAR}:
            return Shape.LINEAR
        if shapes <= {Shape.LINEAR, Shape.CONCAVE}:
            return Shape.CONCAVE
        if shapes <= {Shape.LINEAR, Shape.CONVEX}:
            return Shape.CONVEX
        return Shape.GENERAL

    def grad_max_info(self, x, cap: float = GRAD_CAP) -> GradMaxResult:
        # the payment-maximizing supergradient of a sum separates into
        # per-child maximizers (Minkowski sum of the supergradient sets)
        parts = [c.grad_max_info(x, cap) for c in self.children]
        vec = np.sum([p.vector for p in parts], axis=0)
        return GradMaxResult(vec, any(p.clamped for p in parts))

    def supergradients(self, x) -> SupergradientSet:
        sets = [c.supergradients(x) for c in self.children]
        verts = sets[0].vertices
        for s in sets[1:]:
            verts = (verts[:, None, :] + s.vertices[None, :, :]).reshape(-1, self.dim)
            if verts.shape[0] > 1024:
                raise PreconditionError("supergradient vertex enumeration too large")
        verts = np.unique(verts, axis=0)
        return SupergradientSet(verts, verts.shape[0] == 1)

    def gradient(self, x) -> np.ndarray:
        return np.sum([c.gradient(x) for c in self.children], axis=0)

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        out = self.children[0].gradient_batch(xs)
        for c in self.children[1:]:
            out = out + c.gradient_batch(xs)
        return out

    def to_dict(self) -> dict:
        return {"kind": "sum", "children": [c.to_dict() for c in self.children]}


@dataclass
class Scale(FunctionExpr):
    """`f(x) = factor * child(x)` with a non-negative factor."""

    factor: float
    child: FunctionExpr

    def __init__(self, factor: float, child: FunctionExpr):
        _check_finite("scale factor", factor)
        if factor < 0:
            raise PreconditionError("scale factor must be non-negative")
        self.factor = float(factor)
        self.child = child

    @property
    def dim(self) -> int:
        return self.child.dim

    def values(self, xs: np.ndarray) -> np.ndarray:
        return self.factor * self.child.values(xs)

    def _structural_shape(self) -> Shape:
        return self.child.shape

    def grad_max_info(self, x, cap: float = GRAD_CAP) -> GradMaxResult:
        inner = self.child.grad_max_info(x, cap)
        return GradMaxResult(self.factor * inner.vector, inner.clamped)

    def supergradients(self, x) -> SupergradientSet:
        inner = self.child.supergradients(x)
        return SupergradientSet(self.factor * inner.vertices, inner.is_singleton)

    def gradient(self, x) -> np.ndarray:
        return self.factor * self.child.gradient(x)

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        return self.factor * self.child.gradient_batch(xs)

    def to_dict(self) -> dict:
        return {"kind": "scale", "factor": self.factor, "child": self.child.to_dict()}


@dataclass
class GraphMinCost(FunctionExpr):
    """`f(x) = sum_i min(sum_j A_ji x_j, x_i)` for a graph adjacency A.

    Each term is a minimum of two linear functions, so the whole sum is
    concave, monotone, and zero at the origin.
    """

    graph: GraphInstance

    @property
    def dim(self) -> int:
        return self.graph.node_count

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        neigh = xs @ self.graph.adjacency.astype(float)
        return np.minimum(neigh, xs).sum(axis=1)

    def _structural_shape(self) -> Shape:
        return Shape.CONCAVE

    def _term_vertices(self, x: np.ndarray, i: int) -> list[np.ndarray]:
        a = self.graph.adjacency
        col = a[:, i].astype(float)
        s = float(col @ x)
        e = np.zeros(self.dim)
        e[i] = 1.0
        if s < x[i]:
            return [col]
        if s > x[i]:
            return [e]
        return [col, e]

    def grad_max_info(self, x, cap: float = GRAD_CAP) -> GradMaxResult:
        x = as_bundle(x, self.dim)
        total = np.zeros(self.dim)
        for i in range(self.dim):
            total += _pick_grad_max(np.asarray(self._term_vertices(x, i)), x)
        return GradMaxResult(total, False)

    def supergradients(self, x) -> SupergradientSet:
        x = as_bundle(x, self.dim)
        verts = np.zeros((1, self.dim))
        for i in range(self.dim):
            tv = np.asarray(self._term_vertices(x, i))
            verts = (verts[:, None, :] + tv[None, :, :]).reshape(-1, self.dim)
            if verts.shape[0] > 1024:
                raise PreconditionError("supergradient vertex enumeration too large")
        verts = np.unique(verts, axis=0)
        return SupergradientSet(verts, verts.shape[0] == 1)

    def gradient(self, x) -> np.ndarray:
        x = as_bundle(x, self.dim)
        total = np.zeros(self.dim)
        for i in range(self.dim):
            tv = self._term_vertices(x, i)
            if len(tv) != 1:
                raise NotDifferentiableError("kink of the graph cost")
            total += tv[0]
        return total

    def to_dict(self) -> dict:
        return {"kind": "graph_min_cost", "graph": self.graph.to_dict()}


# --- module-level operations with a shape precondition -------------------


def grad_max_info(f: FunctionExpr, x, cap: float = GRAD_CAP) -> GradMaxResult:
    """Supergradient maximizing `g . x`, for concave or linear expressions.

    Ties between polytope vertices are broken toward the lexicographically
    greatest vector.  Entries that blow up at a zero coordinate are clamped
    to `cap` and flagged in the result.
    """
    if f.shape not in (Shape.CONCAVE, Shape.LINEAR):
        raise PreconditionError(
            f"payment-maximizing supergradients need a concave or linear expression, got {f.shape.value}"
        )
    return f.grad_max_info(x, cap)


def supergradients(f: FunctionExpr, x) -> SupergradientSet:
    if f.shape not in (Shape.CONCAVE, Shape.LINEAR):
        raise PreconditionError("supergradient sets are defined for concave expressions")
    return f.supergradients(x)


# --- serialization --------------------------------------------------------

_KINDS = {}


def _register(kind: str, parser):
    _KINDS[kind] = parser


_register("power_sum", lambda d: PowerSum(d["coeffs"], d["exponents"]))
_register("affine", lambda d: Affine(d["weights"], d.get("intercept", 0.0)))
_register("leontief", lambda d: Leontief(d["anchor"], d["level"]))
_register(
    "min_of_affine",
    lambda d: MinOfAffine([_KINDS["affine"](p) for p in d["pieces"]]),
)
_register("sum", lambda d: Sum([expr_from_dict(c) for c in d["children"]]))
_register("scale", lambda d: Scale(d["factor"], expr_from_dict(d["child"])))
_register("graph_min_cost", lambda d: GraphMinCost(parse_graph_json(d["graph"])))


def expr_to_dict(f: FunctionExpr) -> dict:
    return f.to_dict()


def expr_from_dict(obj: dict) -> FunctionExpr:
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise ValueError("expression object needs a 'kind' field") from None
    if kind not in _KINDS:
        raise ValueError(f"unknown expression kind {kind!r}")
    return _KINDS[kind](obj)


# --- sampling-based checkers (used by invariants and tests) ---------------


def check_monotone(f: FunctionExpr, domain: BoxDomain, rng: np.random.Generator, n: int = 200, tol: float = 1e-12) -> bool:
    """Randomized check of coordinate-wise monotonicity: x <= y => f(x) <= f(y)."""
    xs = domain.sample(rng, n)
    ys = xs + rng.random((n, domain.dim)) * (domain.upper - xs)
    return bool(np.all(f.values(xs) <= f.values(ys) + tol))


def check_shape_by_sampling(
    f: FunctionExpr,
    domain: BoxDomain,
    rng: np.random.Generator,
    n: int = 200,
    tol: float = 1e-9,
) -> dict:
    """Midpoint concavity/convexity sampling; returns which directions hold."""
    xs = domain.sample(rng, n)
    ys = domain.sample(rng, n)
    mids = f.values((xs + ys) / 2.0)
    avg = (f.values(xs) + f.values(ys)) / 2.0
    return {
        "concave": bool(np.all(mids >= avg - tol)),
        "convex": bool(np.all(mids <= avg + tol)),
    }


def check_supergradient(
    f: FunctionExpr,
    x,
    g: np.ndarray,
    domain: BoxDomain,
    rng: np.random.Generator,
    n: int = 100,
    tol: float = 1e-9,
) -> bool:
    """Check `f(z) <= f(x) + g . (z - x)` on a domain sample."""
    x = as_bundle(x, f.dim)
    zs = domain.sample(rng, n)
    return bool(np.all(f.values(zs) <= f.value(x) + (zs - x) @ np.asarray(g) + tol))
