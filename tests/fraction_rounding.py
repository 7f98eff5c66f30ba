"""`Fraction` oracles for the hardness module's integer rounding.

The rounding loop and the surplus in plain rational arithmetic: every
product, sum and comparison is on `Fraction`s, so no scaling argument is
involved.  `padd.hardness` must make the same choices and return the same
values.
"""

from fractions import Fraction

import numpy as np

from padd import RoundingState


def none_active(probs, nodes) -> Fraction:
    """`prod_{j in nodes} (1 - p_j)`, stopping at the first zero factor."""
    out = Fraction(1)
    for j in nodes:
        out *= 1 - probs[j]
        if out == 0:
            break
    return out


def fix_gain(probs, nbrs, k) -> Fraction:
    """`E[U | x_k = 1] - E[U | x_k = 0]`: only the terms of k and its neighbours move.

    `prod_{j ~ k} (1 - p_j) - sum_{i ~ k} p_i * prod_{j ~ i, j != k} (1 - p_j)`.
    """
    gain = none_active(probs, nbrs[k])
    for i in nbrs[k]:
        if probs[i] != 0:
            gain -= probs[i] * none_active(probs, (j for j in nbrs[i] if j != k))
    return gain


def fraction_derandomize(g, xbar) -> np.ndarray:
    """Local-delta rounding in index order, ties to 1, fixed coordinates skipped."""
    probs = RoundingState.from_fractional(g, xbar).probs
    for k in range(g.node_count):
        if probs[k] != 0 and probs[k] != 1:
            probs[k] = Fraction(1) if fix_gain(probs, g.neighbors, k) >= 0 else Fraction(0)
    return np.array([float(p) for p in probs])


def fraction_surplus(g, x) -> Fraction:
    """`U(x) = sum_i [x_i - min(sum_{j ~ i} x_j, x_i)]` in rationals."""
    xf = RoundingState.from_fractional(g, x).probs
    total = Fraction(0)
    for i, js in enumerate(g.neighbors):
        s = sum((xf[j] for j in js), Fraction(0))
        total += xf[i] - min(s, xf[i])
    return total
