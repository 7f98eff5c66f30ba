import math

import numpy as np
import pytest

from padd import (
    Affine,
    PowerSum,
    PreconditionError,
    Scale,
    Sum,
    bregman,
    ray_slope_sup,
)
from padd.raygeom import ray_payment_batch

SQUARE = PowerSum((1.0,), (2.0,))
SQRT = PowerSum((1.0,), (0.5,))


def chord_slope_sup_oracle(c, x, n=10001, eps=1e-6):
    """Independent brute-force supremum of (c(x) - c(a x)) / (1 - a)."""
    x = np.asarray(x, dtype=float)
    cx = c.value(x)
    best = -np.inf
    for a in np.linspace(0.0, 1.0 - eps, n):
        best = max(best, (cx - c.value(a * x)) / (1.0 - a))
    return best


class TestRaySlopeSup:
    def test_square_cost_closed_form(self):
        res = ray_slope_sup(SQUARE, (4.0,))
        assert res.payment == 32.0
        assert res.is_limit and res.attained_alpha is None
        # cross-check against the dense-grid oracle and the unit price
        assert abs(res.payment - chord_slope_sup_oracle(SQUARE, (4.0,))) < 1e-2
        assert res.payment / 4.0 == 8.0

    def test_square_cost_grid_convergence(self):
        # tightening the limit cutoff approaches the closed form from below
        gaps = [
            32.0 - chord_slope_sup_oracle(SQUARE, (4.0,), eps=e)
            for e in (1e-3, 1e-5, 1e-7)
        ]
        assert gaps[0] > gaps[1] > gaps[2] >= 0
        # default cutoff 1e-6 with the default grid meets the 1e-4 agreement
        assert 32.0 - chord_slope_sup_oracle(SQUARE, (4.0,)) < 1e-4

    def test_sqrt_cost_attained_at_zero(self):
        res = ray_slope_sup(SQRT, (16.0,))
        assert res.payment == SQRT.value((16.0,)) == 4.0
        assert res.attained_alpha == 0.0 and not res.is_limit
        assert res.payment / 16.0 == 0.25

    def test_linear_cost_constant_slope(self):
        c = Affine((1.5, 0.5), 0.0)
        x = (2.0, 4.0)
        res = ray_slope_sup(c, x)
        assert res.payment == c.value(x)
        oracle = chord_slope_sup_oracle(c, x, n=101)
        assert math.isclose(res.payment, oracle, rel_tol=1e-12)

    def test_general_shape_uses_grid(self):
        c = Sum([SQUARE, SQRT])  # convex plus concave: unresolved curvature
        x = (4.0,)
        res = ray_slope_sup(c, x)
        oracle = chord_slope_sup_oracle(c, x)
        assert math.isclose(res.payment, oracle, rel_tol=1e-12)
        assert res.payment >= c.value(x) - 1e-12

    def test_revenue_nonnegative(self, rng):
        for c in (SQUARE, SQRT, Affine((2.0,), 0.0), Sum([SQUARE, SQRT])):
            for _ in range(20):
                x = rng.random(1) * 10 + 1e-3
                res = ray_slope_sup(c, x)
                assert res.payment - c.value(x) >= -1e-12

    def test_convex_payment_is_bregman_gap(self, rng):
        for c in (SQUARE, Scale(0.5, PowerSum((1.0,), (3.0,))), PowerSum((1.0, 2.0), (2.0, 1.5))):
            for _ in range(20):
                x = rng.random(c.dim) * 5 + 0.1
                res = ray_slope_sup(c, x)
                gap = res.payment - c.value(x)
                assert abs(gap - bregman(c, np.zeros(c.dim), x)) < 1e-9

    def test_zero_bundle_rejected(self):
        with pytest.raises(PreconditionError):
            ray_slope_sup(SQUARE, (0.0,))


class TestBregman:
    def test_square_between_zero_and_four(self):
        assert bregman(SQUARE, (0.0,), (4.0,)) == 16.0

    def test_self_divergence_zero(self):
        assert bregman(SQUARE, (3.0,), (3.0,)) == 0.0

    def test_direct_arithmetic(self):
        # f(2) - f(4) - f'(4)(2 - 4) = 4 - 16 + 16
        assert bregman(SQUARE, (2.0,), (4.0,)) == 4.0

    def test_nonnegative_for_convex(self, rng):
        for _ in range(50):
            z, x = rng.random(2) * 8
            assert bregman(SQUARE, (z,), (x,)) >= -1e-12

    def test_rejects_kinked_point(self):
        with pytest.raises(PreconditionError):
            bregman(SQRT, (1.0,), (0.0,))


class TestAlphaGridPreconditions:
    MIXED = Sum([SQUARE, SQRT])

    @pytest.mark.parametrize("grid_n,eps_limit", [(1, 1e-6), (0, 1e-6), (11, 0.0), (11, 1.0)])
    def test_batch_and_scalar_share_the_checks(self, grid_n, eps_limit):
        xs = np.array([[1.0], [2.0]])
        with pytest.raises(PreconditionError):
            ray_payment_batch(self.MIXED, xs, grid_n=grid_n, eps_limit=eps_limit)
        with pytest.raises(PreconditionError):
            ray_slope_sup(self.MIXED, xs[0], grid_n=grid_n, eps_limit=eps_limit)

    def test_batch_with_one_point_grid_raises(self):
        with pytest.raises(PreconditionError, match="at least 2 points"):
            ray_payment_batch(self.MIXED, np.array([[1.0]]), grid_n=1)
