import math

import numpy as np
import pytest

from padd import (
    Affine,
    Leontief,
    MinOfAffine,
    PowerSum,
    PreconditionError,
    Scale,
    Shape,
    Sum,
    bregman,
    ray_slope_sup,
)
from padd.raygeom import _monomials, _ray_rows, ray_payment_batch, ray_payment_floor

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


# --- the monomial ray kernel ------------------------------------------------

EXPONENTS = (0.3, 0.5, 1.0, 1.5, 2.0, 3.0)


def random_monomial_tree(rng, d, depth=0):
    """Nested Sum/Scale over PowerSum and Affine leaves (some with an intercept)."""
    r = rng.random()
    if depth < 3 and r < 0.35:
        return Sum([random_monomial_tree(rng, d, depth + 1) for _ in range(rng.integers(1, 4))])
    if depth < 3 and r < 0.55:
        return Scale(float(rng.uniform(0.1, 4.0)), random_monomial_tree(rng, d, depth + 1))
    if r < 0.7:
        return Affine(rng.uniform(0.0, 3.0, d), float(rng.choice([0.0, rng.uniform(0.0, 1.0)])))
    return PowerSum(rng.uniform(0.0, 3.0, d), rng.choice(EXPONENTS, d))


def general_monomial_trees(count=40):
    """Seeded trees of dimension 1-3 whose curvature is unresolved, so the numeric path runs."""
    trees = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        c = random_monomial_tree(rng, d)
        while c.shape is not Shape.GENERAL:
            c = random_monomial_tree(rng, d)
        xs = rng.uniform(0.0, 10.0, (6, d))
        xs[0] = 0.0
        xs[1, 0] = 0.0
        trees.append((c, xs))
    return trees


MONOMIAL_TREES = general_monomial_trees()


def reference_slopes(c, x, cx, grid_n=10001, eps=1e-6):
    """Chord slopes from `c.values` on the fractions of x, as the generic path computes them."""
    alphas = np.linspace(0.0, 1.0 - eps, grid_n)
    return (cx - c.values(alphas[:, None] * x)) / (1.0 - alphas)


def reference_payments(c, xs, grid_n=10001, eps=1e-6):
    cx = c.values(xs)
    return np.array(
        [reference_slopes(c, x, cx[k], grid_n, eps).max() if np.any(x > 0) else 0.0 for k, x in enumerate(xs)]
    )


class TestMonomialRayKernel:
    def test_trees_take_the_monomial_path(self):
        assert all(_monomials(c) is not None for c, _ in MONOMIAL_TREES)
        assert {c.dim for c, _ in MONOMIAL_TREES} == {1, 2, 3}

    @pytest.mark.parametrize("grid_n,eps", [(10001, 1e-6), (101, 1e-3)])
    def test_ray_costs_match_values(self, grid_n, eps):
        alphas = np.linspace(0.0, 1.0 - eps, grid_n)
        for c, xs in MONOMIAL_TREES:
            form = _monomials(c)
            rows, cx = _ray_rows(c, form, xs)
            np.testing.assert_allclose(cx, c.values(xs), rtol=1e-12, atol=0.0)
            for k, x in enumerate(xs):
                want = c.values(alphas[:, None] * x)
                np.testing.assert_allclose(form.ray_costs(rows[k], grid_n, eps), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("grid_n,eps", [(10001, 1e-6), (101, 1e-3)])
    def test_payments_match_reference(self, grid_n, eps):
        for c, xs in MONOMIAL_TREES:
            got = ray_payment_batch(c, xs, grid_n, eps)
            np.testing.assert_allclose(got, reference_payments(c, xs, grid_n, eps), rtol=1e-9, atol=0.0)

    def test_batch_rows_equal_scalar_bit_for_bit(self):
        for c, xs in MONOMIAL_TREES:
            batch = ray_payment_batch(c, xs)
            trade = np.any(xs > 0, axis=1)
            assert not trade[0] and np.all(batch[~trade] == 0.0)
            scalar = [ray_slope_sup(c, x).payment for x in xs[trade]]
            assert np.array(scalar).tobytes() == batch[trade].tobytes()
            one_row = [ray_payment_batch(c, xs[k : k + 1])[0] for k in range(len(xs))]
            assert np.array(one_row).tobytes() == batch.tobytes()

    def test_batch_is_at_least_floor(self):
        # the floor is taken on the whole set, the payments on sub-batches, as the pruning does
        for c, xs in MONOMIAL_TREES:
            floor = ray_payment_floor(c, xs)
            assert np.all(ray_payment_batch(c, xs) >= floor)
            assert np.all(ray_payment_batch(c, xs[2:4]) >= floor[2:4])
            assert floor[0] == 0.0

    def test_floor_is_the_a0_slope(self):
        for c, xs in MONOMIAL_TREES:
            form = _monomials(c)
            rows, cx = _ray_rows(c, form, xs)
            floor = ray_payment_floor(c, xs)
            for k in range(len(xs)):
                cost_at_0 = form.ray_costs(rows[k], 10001, 1e-6)[0]
                assert np.float64(cx[k] - cost_at_0).tobytes() == floor[k].tobytes()


KINKED = Sum([SQUARE, MinOfAffine([Affine((3.0,), 0.0), Affine((0.0,), 2.0)])])
WITH_LEONTIEF = Sum(
    [PowerSum((1.0, 0.5), (2.0, 1.5)), Scale(2.0, Sum([PowerSum((1.0, 1.0), (0.5, 0.5)), Leontief((1.0, 2.0), 3.0)]))]
)


class TestGenericRayFallback:
    @pytest.mark.parametrize("c", [KINKED, WITH_LEONTIEF], ids=["kinked", "leontief"])
    def test_non_monomial_trees_match_reference_bit_for_bit(self, c, rng):
        assert _monomials(c) is None and c.shape is Shape.GENERAL
        xs = rng.uniform(0.0, 10.0, (5, c.dim))
        xs[0] = 0.0
        assert ray_payment_batch(c, xs).tobytes() == reference_payments(c, xs).tobytes()
        for x in xs[1:]:
            want = reference_slopes(c, x, c.value(x)).max()
            assert np.float64(ray_slope_sup(c, x).payment).tobytes() == np.float64(want).tobytes()
        assert np.all(ray_payment_batch(c, xs) >= ray_payment_floor(c, xs))
