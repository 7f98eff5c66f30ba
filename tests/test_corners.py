"""The two corner searches against the dense-vertex oracle, bit for bit.

A linear value against a concave or linear cost (`solve_auto`) and a
convex report's buyer response both maximize over the box corners.  Each
is compared with the same search over `reference_kernels.box_vertices`,
the 2^d corners as one matrix, in d = 1 to 12 with `gridopt._BLOCK`
patched so that the corners straddle blocks.  The seller's price search
refuses the same convex reports by name, in every d.
"""

from unittest import mock

import numpy as np
import pytest

from padd import Affine, BoxDomain, GraphMinCost, PowerSum, PreconditionError, Sum, buyer_best_response, gridopt
from padd import seller_optimal_linear_price, solve_auto
from padd.graphs import random_graph
import reference_kernels as ref

BLOCKS = (4, 7)
CASES = [(d, block) for d in range(1, 13) for block in BLOCKS]


def _game_rng(d, block, salt):
    return np.random.default_rng([d, block, salt])


def _upper(rng, d):
    return rng.choice([0.5, 1.0, 2.0, 3.0], d)


def _weights(rng, d):
    return tuple(float(w) for w in rng.integers(1, 4, d))


def _cost(rng, d, block):
    """A graph cost, a linear cost or a concave power cost, in turn by `d +
    block`: integer weights, so corners tie."""
    kind = (d + block) % 3
    if kind == 0:
        return GraphMinCost(random_graph(d, 0.4, int(rng.integers(1 << 16))))
    if kind == 1:
        return Affine(_weights(rng, d), 0.0)
    return PowerSum(_weights(rng, d), tuple(float(b) for b in rng.choice([0.5, 1.0], d)))


def _convex_report(rng, d, flat=False):
    """A convex `PowerSum` with one good squared, plus an `Affine` term on
    odd draws, and the price at which each good's two corner values tie.

    `flat` zeroes the coefficients of the goods above linear: the report
    is still convex by structure, but every corner has the same
    supergradient, so a corner's price could be consistent.
    """
    k, b = np.array(_weights(rng, d)), rng.choice([1.0, 2.0, 3.0], d)
    b[rng.integers(d)] = 2.0
    if flat:
        k[b > 1.0] = 0.0
    u, w = PowerSum(tuple(k), tuple(b)), np.zeros(d)
    if rng.integers(2):
        w = np.array(_weights(rng, d))
        u = Sum([u, Affine(tuple(w), 0.0)])
    return u, lambda upper: k * upper ** (b - 1.0) + w


@pytest.mark.parametrize("d, block", CASES)
def test_linear_value_solves_on_the_first_maximal_corner(d, block):
    rng = _game_rng(d, block, 0)
    upper = _upper(rng, d)
    v = Affine(_weights(rng, d), 0.0)
    c = _cost(rng, d, block)
    with mock.patch.object(gridopt, "_BLOCK", block):
        out = solve_auto(v, c, BoxDomain(upper))
    x = ref.corner_solve(v, c, upper)
    assert out.bundle.tobytes() == x.tobytes()
    assert out.payment == (float(c.values(x[None, :])[0]) if np.any(x > 0) else 0.0)


@pytest.mark.parametrize("d, block", CASES)
def test_convex_report_responds_with_the_seller_favoured_corner(d, block):
    rng = _game_rng(d, block, 1)
    upper = _upper(rng, d)
    u, tie_price = _convex_report(rng, d)
    # the tie price, exact or a relative 1e-12 off (a tie within `_TIE_TOL` only),
    # on a random half of the goods (ties across the blocks), off it on the rest
    off = rng.random(d) < 0.5
    price = tie_price(upper) * np.where(off, rng.choice([0.5, 1.5], d), 1.0 + rng.choice([-1e-12, 0.0, 1e-12], d))
    c = _cost(rng, d, block)
    with mock.patch.object(gridopt, "_BLOCK", block):
        got = buyer_best_response(u, price, BoxDomain(upper), c)
    assert got.tobytes() == ref.corner_response(u, price, upper, c).tobytes()



# each d with one block size, as the buyer's corner scans straddle blocks
@pytest.mark.parametrize("d, block", [(d, BLOCKS[d % 2]) for d in range(1, 13)])
def test_convex_report_seller_search_is_refused_by_name(d, block):
    rng = _game_rng(d, block, 2)
    domain = BoxDomain(_upper(rng, d))
    # the flat report, whose corner prices could be consistent, and a strict one, whose never are
    reports = [_convex_report(rng, d, flat=True)[0], _convex_report(rng, d)[0]]
    c = _cost(rng, d, block)
    for u in reports:
        with mock.patch.object(gridopt, "_BLOCK", block):
            with pytest.raises(PreconditionError, match="concave or linear report, got convex"):
                seller_optimal_linear_price(u, c, domain)
