"""Closed catalog of value, cost, and pricing functions.

Every function the solvers touch is an expression tree built from a fixed
set of node kinds, so evaluation, gradients, payment-maximizing
supergradients, and convexity/concavity classification are all exact: no
numerical differentiation anywhere in the core formulas.

A node's derivative at a bundle is the gradient where it is smooth and, at
a kink, the supergradient that maximizes `g . x`; an entry that blows up at
a zero coordinate (a `PowerSum` exponent below 1) is `GRAD_CAP`.  Each node
computes it in `gradient_batch`, which gives every row of a batch the bits
that row gets alone, and `grad_max_info` is that batch on one row.

All expressions are defined on the non-negative orthant, are monotone
non-decreasing, and (apart from affine pieces with a positive intercept)
vanish at the origin.  Nodes are immutable after construction; every
operation here is a pure function, safe to call concurrently.  Each node's
constant arrays (exponents, masks, supports, weight matrices) are built on
first use and cached read-only on the node, which relies on that
immutability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import DimensionError, PreconditionError
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
    "as_bundle",
    "as_price",
    "grad_max_info",
    "expr_from_dict",
]

GRAD_CAP = 1e12


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
    arr = np.array(x, dtype=float, ndmin=1, copy=None)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionError(f"bundle must be a 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise DimensionError(f"bundle has dimension {arr.size}, expected {dim}")
    if not np.isfinite(arr).all():
        raise PreconditionError("bundle coordinates must be finite")
    if (arr < 0).any():
        raise PreconditionError("bundle coordinates must be non-negative")
    return arr


def _check_finite(what: str, *values: float) -> None:
    """Node parameters must be finite numbers (NaN and infinities are refused)."""
    if not np.all(np.isfinite(values)):
        raise PreconditionError(f"{what} must be finite")


def as_price(p, dim: int | None = None) -> np.ndarray:
    """Validate a per-unit price vector (finite, non-negative)."""
    arr = np.array(p, dtype=float, ndmin=1, copy=None)
    if arr.ndim != 1:
        raise DimensionError(f"price must be a 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise DimensionError(f"price has dimension {arr.size}, expected {dim}")
    if not np.isfinite(arr).all() or (arr < 0).any():
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

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= 0.0) and np.all(x <= self.upper))

    def grid(self, points_per_axis: int) -> np.ndarray:
        """All grid points as an (n, d) array in lexicographic row order."""
        axes = [np.linspace(0.0, b, points_per_axis) for b in self.upper]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @classmethod
    def from_dict(cls, obj: dict) -> "BoxDomain":
        return cls(np.asarray(_field(obj, "upper", _NUMBERS), dtype=float))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a node's cached constants."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _column_sum(weights, cols: np.ndarray, intercept) -> np.ndarray:
    """`cols @ weights + intercept`, summed column by column, so that a row
    gets the same bits in any batch (a matrix product may not).  Weights
    that are (m, 1) columns, with an (m, 1) intercept, give m such sums,
    one row each."""
    out = 0.0
    for i, w in enumerate(weights):
        out = out + w * cols[:, i]
    return out + intercept


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

    def grad_max_info(self, x) -> np.ndarray:
        """The derivative at one bundle: `gradient_batch` on a one-row batch."""
        return self.gradient_batch(as_bundle(x, self.dim)[None, :])[0]

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        """The derivative (see the module docstring) at each row of an (n, d) batch."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


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

    @cached_property
    def _powers(self) -> tuple[np.ndarray, ...]:
        """Exponents `b`, coefficients `k`, `b - 1`, `k * b`, the masks `b == 1`,
        `b > 1` and `b < 1`, and the entries at a zero coordinate with `b < 1`:
        `GRAD_CAP`, or 0 without a coefficient."""
        b, k = np.array(self.exponents), np.array(self.coeffs)
        return _read_only(b, k, b - 1.0, k * b, b == 1.0, b > 1.0, b < 1.0, np.where(k > 0, GRAD_CAP, 0.0))

    def values(self, xs: np.ndarray) -> np.ndarray:
        return _column_sum(self.coeffs, np.asarray(xs, dtype=float) ** self._powers[0], 0.0)

    def _structural_shape(self) -> Shape:
        b = self.exponents
        if all(v == 1.0 for v in b):
            return Shape.LINEAR
        if all(v <= 1.0 for v in b):
            return Shape.CONCAVE
        if all(v >= 1.0 for v in b):
            return Shape.CONVEX
        return Shape.GENERAL

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        _, k, b_less_1, kb, unit, above, below, cap = self._powers
        with np.errstate(divide="ignore", invalid="ignore"):
            g = xs ** b_less_1
            g *= kb  # in place: the grid's gradients are the solve's largest array
        zero = xs == 0.0
        if zero.any():  # exponent-1 terms are constant; fix 0^0 and unbounded entries explicitly
            np.copyto(g, k, where=zero & unit)
            np.copyto(g, 0.0, where=zero & above)
            np.copyto(g, cap, where=zero & below)
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
        return _column_sum(self.weights, np.asarray(xs, dtype=float), self.intercept)

    def _structural_shape(self) -> Shape:
        return Shape.LINEAR

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

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The anchor's support (ascending indices), its anchor coordinates
        and the slopes `level / a_i` there."""
        a = np.array(self.anchor)
        support = np.flatnonzero(a > 0)
        return _read_only(support, a[support], self.level / a[support])

    def values(self, xs: np.ndarray) -> np.ndarray:
        support, a, _ = self._support
        ratios = np.asarray(xs, dtype=float)[:, support] / a
        return self.level * np.minimum(ratios.min(axis=1), 1.0)

    def _structural_shape(self) -> Shape:
        return Shape.CONCAVE

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        """Per row, the active vertex with the largest `g . x`: `level / a_i`
        times e_i for a coordinate i at the smallest ratio when that ratio is
        at most 1, else 0.  Exact-score ties go to the lexicographically
        greatest vertex: the first with a positive slope, else the first."""
        support, a, slopes = self._support
        cols = np.asarray(xs, dtype=float)[:, support]
        ratios = cols / a
        r_min = ratios.min(axis=1, keepdims=True)
        scores = np.where(ratios == r_min, slopes * cols, -np.inf)
        best = scores == scores.max(axis=1, keepdims=True)
        pick = np.argmax(best * np.where(slopes > 0, 2, 1), axis=1)
        rows = np.flatnonzero(r_min[:, 0] <= 1.0)
        g = np.zeros((cols.shape[0], self.dim))
        g[rows, support[pick[rows]]] = slopes[pick[rows]]
        return g

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

    @cached_property
    def _matrices(self) -> tuple[np.ndarray, ...]:
        """`_column_sum`'s weight columns (one row per piece) and intercepts
        in piece order, the same in descending lexicographic weight order,
        and the weights in that order (one row per piece)."""
        ranked = sorted(self.pieces, key=lambda p: p.weights, reverse=True)
        weights, by_rank = np.array([p.weights for p in self.pieces]), np.array([p.weights for p in ranked])
        return _read_only(weights.T[:, :, None], np.array([[p.intercept] for p in self.pieces]),
                          by_rank.T[:, :, None], np.array([[p.intercept] for p in ranked]), by_rank)

    def values(self, xs: np.ndarray) -> np.ndarray:
        cols, intercepts, *_ = self._matrices
        return _column_sum(cols, np.asarray(xs, dtype=float), intercepts).min(axis=0)

    def _structural_shape(self) -> Shape:
        if len(self.pieces) == 1:
            return Shape.LINEAR
        return Shape.CONCAVE

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        """Per row, the weights with the largest `g . x` among the pieces that
        attain the minimum exactly; ties go to the lexicographically greatest
        (the ranked order, since argmax keeps the first tie).  A value here
        is its score plus the intercept, which differs from `Affine.values`
        at most in the sign of a zero, and no comparison sees that."""
        _, _, cols, intercepts, weights = self._matrices
        scores = _column_sum(cols, np.asarray(xs, dtype=float), 0.0)
        vals = scores + intercepts
        scores[vals > vals.min(axis=0)] = -np.inf
        return weights[np.argmax(scores, axis=0)]

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

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        # the payment-maximizing supergradient of a sum separates into
        # per-child maximizers (Minkowski sum of the supergradient sets)
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

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        return self.factor * self.child.gradient_batch(xs)

    def to_dict(self) -> dict:
        return {"kind": "scale", "factor": self.factor, "child": self.child.to_dict()}


@dataclass
class GraphMinCost(FunctionExpr):
    """`f(x) = sum_i min(sum_{j ~ i} x_j, x_i)` over a graph's nodes.

    Each term is a minimum of two linear functions, so the whole sum is
    concave, monotone, and zero at the origin.
    """

    graph: GraphInstance

    @property
    def dim(self) -> int:
        return self.graph.node_count

    def values(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        total = np.zeros(xs.shape[0])
        for i, js in enumerate(self.graph.neighbors):
            neigh = np.zeros(xs.shape[0])
            for j in js:
                neigh += xs[:, j]
            total += np.minimum(neigh, xs[:, i])
        return total

    def _structural_shape(self) -> Shape:
        return Shape.CONCAVE

    def gradient_batch(self, xs: np.ndarray) -> np.ndarray:
        """Term i's pieces are its neighbours' indicator and e_i.  At a tie
        both score x_i and the lexicographically greater one wins, which is
        the indicator exactly when a neighbour precedes i.  The neighbour
        sums are those of `values`; counts of 1.0 are exact in floats."""
        xs = np.asarray(xs, dtype=float)
        counts = np.zeros(xs.shape)
        for i, js in enumerate(self.graph.neighbors):
            neigh = np.zeros(xs.shape[0])
            for j in js:
                neigh += xs[:, j]
            takes = (neigh < xs[:, i]) | ((neigh == xs[:, i]) & bool(js and js[0] < i))
            counts[:, i] += ~takes
            for j in js:
                counts[:, j] += takes
        return counts

    def to_dict(self) -> dict:
        return {"kind": "graph_min_cost", "graph": self.graph.to_dict()}


# --- module-level operations with a shape precondition -------------------


def grad_max_info(f: FunctionExpr, x) -> np.ndarray:
    """Supergradient maximizing `g . x`, for concave or linear expressions.

    Ties between polytope vertices are broken toward the lexicographically
    greatest vector.  Entries that blow up at a zero coordinate are clamped
    to `GRAD_CAP`.
    """
    if f.shape not in (Shape.CONCAVE, Shape.LINEAR):
        raise PreconditionError(
            f"payment-maximizing supergradients need a concave or linear expression, got {f.shape.value}"
        )
    return f.grad_max_info(x)


# --- serialization --------------------------------------------------------

def _is_number(value, kind=Real) -> bool:
    """`value` is a `kind` (`Real` or `Integral`) number; booleans are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


# (test, description) of a JSON field's value
_NUMBER = (_is_number, "a number")
_NUMBERS = (lambda v: all(map(_is_number, v if isinstance(v, list) else [v])), "a number or a list of numbers")
_LIST = (lambda v: isinstance(v, list), "a list")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")
_OBJECTS = (lambda v: isinstance(v, list) and all(isinstance(p, dict) for p in v), "a list of JSON objects")
_STRING = (lambda v: isinstance(v, str), "a string")


def _field(obj: dict, key: str, kind: tuple, default=None):
    """`obj[key]` of a JSON object (`default` when given and the key is
    absent), refused by the field's name when it is missing or not of the
    `kind` above."""
    if default is None and key not in obj:
        raise ValueError(f"field {key!r} is missing")
    value = obj.get(key, default)
    if not kind[0](value):
        raise ValueError(f"field {key!r} must be {kind[1]}, got {value!r}")
    return value


_KINDS = {
    "power_sum": lambda d: PowerSum(_field(d, "coeffs", _NUMBERS), _field(d, "exponents", _NUMBERS)),
    "affine": lambda d: Affine(_field(d, "weights", _NUMBERS), _field(d, "intercept", _NUMBER, 0.0)),
    "leontief": lambda d: Leontief(_field(d, "anchor", _NUMBERS), _field(d, "level", _NUMBER)),
    "min_of_affine": lambda d: MinOfAffine([_KINDS["affine"](p) for p in _field(d, "pieces", _OBJECTS)]),
    "sum": lambda d: Sum([expr_from_dict(c) for c in _field(d, "children", _LIST)]),
    "scale": lambda d: Scale(_field(d, "factor", _NUMBER), expr_from_dict(_field(d, "child", _OBJECT))),
    "graph_min_cost": lambda d: GraphMinCost(parse_graph_json(_field(d, "graph", _OBJECT))),
}


def expr_from_dict(obj: dict) -> FunctionExpr:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("expression object needs a 'kind' field")
    kind = _field(obj, "kind", _STRING)
    if kind not in _KINDS:
        raise ValueError(f"unknown expression kind {kind!r}")
    return _KINDS[kind](obj)
