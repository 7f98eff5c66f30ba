import math

import numpy as np
import pytest

from padd import (
    Affine,
    BoxDomain,
    DimensionError,
    Leontief,
    MinOfAffine,
    PowerSum,
    PreconditionError,
    Sum,
    buyer_best_response,
    grad_max_info,
    optimal_price_family,
    seller_optimal_linear_price,
)

from padd.graphs import cycle_graph
from padd.hardness import build_cost

SQUARE = PowerSum((1.0,), (2.0,))
SQRT = PowerSum((1.0,), (0.5,))
BOX10 = BoxDomain(np.array([10.0]))
BOX100 = BoxDomain(np.array([100.0]))


class TestBuyerBestResponse:
    def test_anchored_tie_break_at_anchor(self):
        # utility is flat on the whole segment; seller tie-break maximizes
        # 8x - x^2, increasing up to the anchor
        u = Leontief((4.0,), 32.0)
        x = buyer_best_response(u, (8.0,), BOX100, SQUARE)
        assert np.allclose(x, [4.0])
        assert abs(8.0 * x[0] - SQUARE.value(x) - 16.0) < 1e-9

    def test_free_goods_buy_everything(self):
        for u in (SQRT, PowerSum((3.0,), (0.8,)), Affine((2.0,), 0.0)):
            x = buyer_best_response(u, (0.0,), BoxDomain(np.array([7.0])), SQUARE)
            assert np.allclose(x, [7.0])

    def test_sqrt_against_unit_price(self):
        # stationarity 1/(2 sqrt(x)) = p gives x = 1/(4 p^2)
        x = buyer_best_response(SQRT, (1.0,), BOX10, SQUARE)
        assert abs(x[0] - 0.25) < 1e-6

    def test_optimality_on_samples(self, rng):
        cases = [
            (SQRT, (0.7,)),
            (Leontief((4.0,), 32.0), (5.0,)),
            (PowerSum((2.0, 1.0), (0.5, 0.5)), (0.5, 0.25)),
            (MinOfAffine([Affine((10.0,), 0.0), Affine((0.0,), 8.1)]), (3.0,)),
        ]
        for u, price in cases:
            dom = BoxDomain(np.full(u.dim, 10.0))
            x = buyer_best_response(u, price, dom, SQUARE if u.dim == 1 else PowerSum((1.0, 1.0), (2.0, 2.0)))
            p = np.asarray(price)
            best = u.value(x) - float(p @ x)
            zs = dom.sample(rng, 1000)
            utils = u.values(zs) - zs @ p
            assert np.all(utils <= best + 1e-6)

    def test_tie_break_picks_weakly_best_revenue(self, rng):
        u = Leontief((4.0,), 32.0)
        price = np.array([8.0])
        x = buyer_best_response(u, price, BOX100, SQUARE)
        best_util = u.value(x) - float(price @ x)
        rev_x = float(price @ x) - SQUARE.value(x)
        zs = BOX100.sample(rng, 1000)
        utils = u.values(zs) - zs @ price
        tied = zs[utils >= best_util - 1e-8]
        revs = tied @ price - SQUARE.values(tied)
        assert np.all(revs <= rev_x + 1e-6)

    def test_priced_out(self):
        x = buyer_best_response(Leontief((4.0,), 32.0), (9.0,), BOX100, SQUARE)
        assert np.allclose(x, [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            buyer_best_response(SQRT, (1.0, 2.0), BOX10, SQUARE)


def dense_indifferent_fraction(anchor, level, upper, c, n=200001):
    """Largest fraction t of the anchor maximizing the seller's revenue
    `t * level - c(t * anchor)` on a dense grid of [0, t_max]; and the grid."""
    anchor = np.asarray(anchor)
    present = anchor > 0
    t_max = min(1.0, float(np.min(np.asarray(upper)[present] / anchor[present])))
    ts = np.linspace(0.0, t_max, n)
    rev = ts * level - c.values(ts[:, None] * anchor)
    top = rev.max()
    return ts[np.nonzero(rev >= top - 1e-12 * max(1.0, abs(top)))[0][-1]], ts


class TestAnchoredIndifference:
    """Prices that charge exactly the commitment's level leave the buyer
    indifferent along the whole anchor ray; the seller's revenue decides."""

    @pytest.mark.parametrize(
        "anchor, level, price, upper, cost",
        [
            # convex cost: 6t - 20t^2 peaks inside, at t = 0.15
            ((2.0, 4.0), 6.0, (1.5, 0.75), (5.0, 5.0), PowerSum((1.0, 1.0), (2.0, 2.0))),
            # concave costs: the revenue is convex in t, so an endpoint wins
            ((4.0,), 8.0, (2.0,), (10.0,), PowerSum((5.0,), (0.5,))),
            ((4.0,), 8.0, (2.0,), (10.0,), PowerSum((3.0,), (0.5,))),
            # graph cost on an independent set at zero price: all t tie, t_max = 1/2
            ((0.0, 2.0, 0.0, 2.0), 0.0, (0.0,) * 4, (1.0,) * 4, build_cost(cycle_graph(4))),
        ],
        ids=["convex_interior", "concave_zero", "concave_t_max", "graph_all_tie"],
    )
    def test_against_dense_reference(self, anchor, level, price, upper, cost):
        a = np.asarray(anchor)
        x = buyer_best_response(Leontief(anchor, level), price, BoxDomain(np.array(upper)), cost)
        t_ref, ts = dense_indifferent_fraction(anchor, level, upper, cost)
        if t_ref in (ts[0], ts[-1]):  # an endpoint of [0, t_max] is returned exactly
            assert np.array_equal(x, t_ref * a)
        else:
            assert np.max(np.abs(x - t_ref * a)) <= (ts[1] - ts[0]) * a.max()


class TestSellerOptimalLinearPrice:
    def test_against_sqrt_report(self):
        sol = seller_optimal_linear_price(SQRT, SQUARE, BOX10)
        assert sol.verified
        assert abs(sol.price[0] - 1.0) < 1e-3
        assert abs(sol.bundle[0] - 0.25) < 1e-3
        assert abs(sol.revenue - 0.1875) < 1e-4

    def test_against_anchored_report(self):
        sol = seller_optimal_linear_price(Leontief((4.0,), 32.0), SQUARE, BOX100)
        assert sol.verified
        assert np.allclose(sol.price, [8.0])
        assert np.allclose(sol.bundle, [4.0])
        assert abs(sol.revenue - 16.0) < 1e-9

    def test_imitating_concave_cost_forces_zero_trade(self):
        sol = seller_optimal_linear_price(SQRT, SQRT, BOX100)
        assert np.allclose(sol.bundle, [0.0], atol=1e-6)
        assert abs(sol.revenue) < 1e-6

    def test_imitating_convex_cost_forces_zero_trade(self):
        sol = seller_optimal_linear_price(SQUARE, SQUARE, BOX100)
        assert np.allclose(sol.bundle, [0.0], atol=1e-6)
        assert abs(sol.revenue) < 1e-6

    def test_price_matches_supergradient_at_bundle(self):
        for u, c, dom in [
            (SQRT, SQUARE, BOX10),
            (Leontief((4.0,), 32.0), SQUARE, BOX100),
            (Leontief((2.0, 4.0), 6.0), PowerSum((1.0, 1.0), (2.0, 2.0)), BoxDomain(np.array([5.0, 5.0]))),
        ]:
            sol = seller_optimal_linear_price(u, c, dom)
            assert sol.verified and sol.bundle.max() > 0
            assert np.max(np.abs(sol.price - grad_max_info(u, sol.bundle).vector)) < 1e-9

    def test_revenue_definition_holds(self):
        sol = seller_optimal_linear_price(SQRT, SQUARE, BOX10)
        assert math.isclose(sol.revenue, float(sol.price @ sol.bundle) - SQUARE.value(sol.bundle), abs_tol=1e-12)

    def test_rejects_unclassified_report(self):
        mixed = Sum([SQUARE, SQRT])
        with pytest.raises(PreconditionError):
            seller_optimal_linear_price(mixed, SQUARE, BOX10)


class TestGridPointsThreaded:
    REPORT = MinOfAffine([Affine((2.0, 1.0), 0.0), Affine((1.0, 3.0), 0.0), Affine((0.0, 0.0), 4.0)])
    BOX = BoxDomain(np.array([3.0, 2.0]))
    COST = PowerSum((1.0, 2.0), (2.0, 2.0))

    def test_seller_search_uses_configured_grid(self):
        # the non-anchored min-of-affine report needs the grid response, which
        # must use the caller's 11 points per axis rather than the default
        sol = seller_optimal_linear_price(self.REPORT, self.COST, self.BOX, grid_points={2: 11})
        assert sol.verified and sol.revenue > 0
        steps = sol.bundle / (self.BOX.upper / 10)
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_missing_grid_density_is_precondition(self):
        with pytest.raises(PreconditionError, match="dimension 2"):
            buyer_best_response(self.REPORT, (1.0, 1.0), self.BOX, self.COST, grid_points={1: 11})

    def test_anchored_report_needs_no_grid(self):
        u = Leontief((1.0,) * 6, 3.0)
        box, c = BoxDomain(np.ones(6)), PowerSum((0.1,) * 6, (2.0,) * 6)
        assert np.array_equal(buyer_best_response(u, (0.4,) * 6, box, c), np.ones(6))
        sol = seller_optimal_linear_price(u, c, box)
        assert sol.verified and np.array_equal(sol.bundle, np.ones(6))


class TestOptimalPriceFamily:
    def test_single_good(self):
        assert np.allclose(optimal_price_family((4.0,), 32.0, (1.0,)), [8.0])

    def test_degenerate_split(self):
        assert np.allclose(optimal_price_family((2.0, 4.0), 6.0, (1.0, 0.0)), [3.0, 0.0])

    def test_even_split_keeps_payment(self):
        p = optimal_price_family((2.0, 4.0), 6.0, (0.5, 0.5))
        assert np.allclose(p, [1.5, 0.75])
        assert abs(float(p @ np.array([2.0, 4.0])) - 6.0) < 1e-12

    def test_payment_invariance_random_splits(self, rng):
        xstar = np.array([4.0, 2.5, 1.25])
        pstar = 32.0
        for _ in range(50):
            lam = rng.random(3)
            lam /= lam.sum()
            p = optimal_price_family(xstar, pstar, lam)
            assert abs(float(p @ xstar) - pstar) <= 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            optimal_price_family((0.0, 1.0), 5.0, (0.5, 0.5))
        with pytest.raises(PreconditionError):
            optimal_price_family((1.0, 1.0), 5.0, (0.9, 0.9))
        with pytest.raises(DimensionError):
            optimal_price_family((1.0, 1.0), 5.0, (1.0,))


class TestKinkedNonAnchoredReport:
    def test_graph_cost_report_yields_verified_or_zero(self):
        # a concave piecewise-linear report that is neither anchored nor a
        # plain min-of-affine: the generic candidate loop must still return
        # a consistent, non-negative solution
        from padd import GraphMinCost
        from padd.graphs import path_graph

        u = GraphMinCost(path_graph(2))  # 2 * min(x1, x2)
        c = PowerSum((0.1, 0.1), (2.0, 2.0))
        dom = BoxDomain(np.array([3.0, 3.0]))
        sol = seller_optimal_linear_price(u, c, dom)
        assert sol.revenue >= 0.0
        assert math.isclose(
            sol.revenue, float(sol.price @ sol.bundle) - c.value(sol.bundle), abs_tol=1e-9
        )
        if sol.verified and sol.bundle.max() > 0:
            assert np.max(np.abs(grad_max_info(u, sol.bundle).vector - sol.price)) < 1e-6
