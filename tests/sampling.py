"""Sampling checks of expression properties, for the tests only.

`sample_box` draws uniform bundles from a box; the checkers test
monotonicity, midpoint concavity/convexity and the supergradient
inequality on such samples.
"""

import numpy as np

from padd.funcs import BoxDomain, FunctionExpr, as_bundle


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
