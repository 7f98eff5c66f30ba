"""Checks of expression properties, for the tests only.

`sample_box` draws uniform bundles from a box; the checkers test
monotonicity, midpoint concavity/convexity and the supergradient
inequality on such samples.  `assert_spelled_out` checks a parsed node
field by field against the JSON object it was read from.
"""

import dataclasses
import re

import numpy as np

from padd.funcs import BoxDomain, FunctionExpr, as_bundle
from padd.graphs import GraphInstance


def sample_box(domain: BoxDomain, rng: np.random.Generator, n: int) -> np.ndarray:
    """`n` uniform bundles of the box, as an (n, d) array."""
    return rng.random((n, domain.dim)) * domain.upper


def check_monotone(f: FunctionExpr, domain: BoxDomain, rng: np.random.Generator, n: int = 200, tol: float = 1e-12) -> bool:
    """Randomized check of coordinate-wise monotonicity: x <= y => f(x) <= f(y)."""
    xs = sample_box(domain, rng, n)
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
    xs = sample_box(domain, rng, n)
    ys = sample_box(domain, rng, n)
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
    zs = sample_box(domain, rng, n)
    return bool(np.all(f.values(zs) <= f.value(x) + (zs - x) @ np.asarray(g) + tol))


def assert_spelled_out(node, obj: dict) -> None:
    """Each field of `node`, a catalog node or a graph, is the one its JSON
    object `obj` spells out, and a field that `obj` leaves out holds its
    default.  `kind` is the class name in snake case, and graph edge ids
    are 1-based."""
    if isinstance(node, GraphInstance):
        assert (node.node_count, node.edges) == (obj["node_count"], [(i - 1, j - 1) for i, j in obj["edges"]])
        return
    assert re.sub(r"(?<!^)(?=[A-Z])", "_", type(node).__name__).lower() == obj["kind"]
    fields = dataclasses.fields(node)
    assert set(obj) - {"kind"} <= {f.name for f in fields}
    for f in fields:
        got, want = getattr(node, f.name), obj.get(f.name, f.default)
        if isinstance(want, dict):
            assert_spelled_out(got, want)
        elif isinstance(got, tuple) and got and not isinstance(got[0], float):
            assert len(got) == len(want)
            for child, child_obj in zip(got, want):
                assert_spelled_out(child, child_obj)
        else:
            assert got == (tuple(np.atleast_1d(want).tolist()) if isinstance(got, tuple) else want), f.name
