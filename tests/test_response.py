import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padd import (
    Affine,
    BoxDomain,
    DimensionError,
    GraphMinCost,
    Leontief,
    MinOfAffine,
    PowerSum,
    PreconditionError,
    Scale,
    SolverConfig,
    Sum,
    best_concave_price,
    buyer_best_response,
    optimal_price_family,
    seller_optimal_linear_price,
)

from padd.graphs import cycle_graph, path_graph
from padd.gridopt import grid_blocks
from padd import gridopt, response
from padd.response import _revenue, _utility
from sampling import sample_box

SQUARE = PowerSum((1.0,), (2.0,))
SQRT = PowerSum((1.0,), (0.5,))
BOX10 = BoxDomain(np.array([10.0]))
BOX100 = BoxDomain(np.array([100.0]))
ZERO_LEVEL_CAP = MinOfAffine([Affine((1.0,), 0.0), Affine((0.0,), 0.0)])  # min(x, 0): no anchored report


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
            zs = sample_box(dom, rng, 1000)
            utils = u.values(zs) - zs @ p
            assert np.all(utils <= best + 1e-6)

    def test_tie_break_picks_weakly_best_revenue(self, rng):
        u = Leontief((4.0,), 32.0)
        price = np.array([8.0])
        x = buyer_best_response(u, price, BOX100, SQUARE)
        best_util = u.value(x) - float(price @ x)
        rev_x = float(price @ x) - SQUARE.value(x)
        zs = sample_box(BOX100, rng, 1000)
        utils = u.values(zs) - zs @ price
        tied = zs[utils >= best_util - 1e-8]
        revs = tied @ price - SQUARE.values(tied)
        assert np.all(revs <= rev_x + 1e-6)

    def test_priced_out(self):
        x = buyer_best_response(Leontief((4.0,), 32.0), (9.0,), BOX100, SQUARE)
        assert np.allclose(x, [0.0])

    def test_zero_level_cap_takes_the_concave_path(self):
        # no cap is an anchored report; the concave search buys nothing at a positive price
        assert response._anchored_form(ZERO_LEVEL_CAP) is None
        assert buyer_best_response(ZERO_LEVEL_CAP, (0.5,), BOX10, SQUARE).tolist() == [0.0]

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
            ((0.0, 2.0, 0.0, 2.0), 0.0, (0.0,) * 4, (1.0,) * 4, GraphMinCost(cycle_graph(4))),
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


@st.composite
def anchored_games(draw):
    """An anchored report on a box of up to 3 goods, some outside the
    anchor's support, some bounds below the anchor (a truncated ray), and a
    cost whose every exponent is at least 1 or every one at most 1."""
    d = draw(st.integers(1, 3))
    anchor = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]), min_size=d, max_size=d).filter(any))
    upper = draw(st.lists(st.sampled_from([0.3, 1.0, 2.0, 5.0]), min_size=d, max_size=d))
    level = draw(st.sampled_from([0.5, 2.0, 6.0, 20.0]))
    exponents = draw(st.sampled_from([(0.5, 0.8, 1.0), (1.0, 1.5, 2.0, 3.0)]))
    coeffs = draw(st.lists(st.sampled_from([0.25, 1.0, 3.0]), min_size=d, max_size=d))
    powers = draw(st.lists(st.sampled_from(exponents), min_size=d, max_size=d))
    return Leontief(anchor, level), PowerSum(coeffs, powers), BoxDomain(np.array(upper))


class TestRayPick:
    """On an anchored report a box bundle and its projection onto the
    anchor's ray have the same value and the projection costs no more, so
    the ray pick is the seller's best over the whole box."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(anchored_games())
    def test_beats_every_row_of_a_dense_box_grid(self, game):
        u, c, box = game
        anchor = np.asarray(u.anchor)

        def gap(xs):
            return u.values(xs) - c.values(xs)

        x = response._ray_pick(anchor, box, lambda ts: gap(ts * anchor))
        assert box.contains(x) and np.all(x[anchor == 0] == 0)
        at_pick = gap(x[None, :])[0]
        best_row = max(gap(rows).max() for _, rows in grid_blocks(box.upper, {1: 20001, 2: 301, 3: 41}[u.dim]))
        assert at_pick >= best_row - 1e-9 * max(1.0, abs(best_row))
        res = best_concave_price(u, c, box)
        assert res.bundle.tolist() == (x if at_pick >= 0.0 else np.zeros(u.dim)).tolist()

    def test_anchored_reports_read_no_grid_density(self, monkeypatch):
        def refuse(cfg, dim):
            raise AssertionError(f"grid density read for dimension {dim}")

        monkeypatch.setattr(SolverConfig, "points", refuse)
        u = Leontief((1.0, 0.0, 2.0, 0.5, 3.0), 4.0)
        c, box = PowerSum((1.0,) * 5, (2.0,) * 5), BoxDomain(np.full(5, 3.0))
        sol = seller_optimal_linear_price(u, c, box)
        assert sol.verified and sol.revenue > 0.0
        res = best_concave_price(u, c, box)
        assert res.revenue > 0.0 and np.max(np.abs(res.bundle - sol.bundle)) <= 1e-6

    def test_a_cap_is_a_concave_report_not_an_anchored_one(self):
        # min(3x, 2) is the function Leontief((2/3,), 2), searched as any concave report
        cap, anchored = MinOfAffine([Affine((3.0,), 0.0), Affine((0.0,), 2.0)]), Leontief((2.0 / 3.0,), 2.0)
        assert response._anchored_form(cap) is None
        with pytest.raises(PreconditionError, match="anchored commitment"):
            best_concave_price(cap, SQUARE, BOX10)
        sol, ref = seller_optimal_linear_price(cap, SQUARE, BOX10), seller_optimal_linear_price(anchored, SQUARE, BOX10)
        assert sol.verified and ref.verified
        assert math.isclose(sol.revenue, ref.revenue, rel_tol=1e-9)


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

    @pytest.mark.parametrize("u, c, box", [
        (SQUARE, SQUARE, BOX100),
        # price 1 sells the whole box for revenue 0.99, which no candidate's
        # response could reproduce: each leaves the corner that priced it
        (SQUARE, Affine((0.01,), 0.0), BoxDomain([1.0])),
        (Sum([PowerSum((1.0, 0.0), (2.0, 3.0)), Affine((1.0, 2.0), 0.0)]), PowerSum((0.5, 0.5), (0.5, 1.0)), BoxDomain([1.0, 2.0])),
    ], ids=["imitating_its_cost", "linear_cost", "two_goods"])
    def test_refuses_a_convex_report_by_name(self, u, c, box):
        with pytest.raises(PreconditionError, match="concave or linear report, got convex"):
            seller_optimal_linear_price(u, c, box)

    def test_price_matches_supergradient_at_bundle(self):
        for u, c, dom in [
            (SQRT, SQUARE, BOX10),
            (Leontief((4.0,), 32.0), SQUARE, BOX100),
            (Leontief((2.0, 4.0), 6.0), PowerSum((1.0, 1.0), (2.0, 2.0)), BoxDomain(np.array([5.0, 5.0]))),
        ]:
            sol = seller_optimal_linear_price(u, c, dom)
            assert sol.verified and sol.bundle.max() > 0
            assert np.max(np.abs(sol.price - u.grad_max_info(sol.bundle))) < 1e-9

    def test_revenue_definition_holds(self):
        sol = seller_optimal_linear_price(SQRT, SQUARE, BOX10)
        assert math.isclose(sol.revenue, float(sol.price @ sol.bundle) - SQUARE.value(sol.bundle), abs_tol=1e-12)

    def test_zero_level_cap_means_no_trade(self):
        sol = seller_optimal_linear_price(ZERO_LEVEL_CAP, SQUARE, BOX10)
        assert sol.bundle.tolist() == [0.0] and sol.price.tolist() == [0.0] and sol.revenue == 0.0

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
        sol = seller_optimal_linear_price(self.REPORT, self.COST, self.BOX, SolverConfig(grid_points={2: 11}))
        assert sol.verified and sol.revenue > 0
        steps = sol.bundle / (self.BOX.upper / 10)
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_missing_grid_density_is_precondition(self):
        with pytest.raises(PreconditionError, match="dimension 2"):
            buyer_best_response(self.REPORT, (1.0, 1.0), self.BOX, self.COST, SolverConfig(grid_points={1: 11}))

    def test_anchored_report_needs_no_grid(self):
        u = Leontief((1.0,) * 6, 3.0)
        box, c = BoxDomain(np.ones(6)), PowerSum((0.1,) * 6, (2.0,) * 6)
        assert np.array_equal(buyer_best_response(u, (0.4,) * 6, box, c), np.ones(6))
        sol = seller_optimal_linear_price(u, c, box)
        assert sol.verified and np.array_equal(sol.bundle, np.ones(6))


class TestBatchInvariantResponseKeys:
    """The grid fallback ranks block rows and `_finish_ties` ranks a few
    candidates by the buyer's utility and the seller's revenue, so both keys
    must give a row the same bits alone as inside an 8,192-row grid block."""

    REPORT = TestGridPointsThreaded.REPORT
    COST = TestGridPointsThreaded.COST

    def test_utility_and_revenue_rows(self, rng):
        upper = np.array([3.0, 2.0])
        price = rng.uniform(0.1, 3.0, 2)
        keys = [
            lambda xs: _utility(self.REPORT, price, xs),
            lambda xs: _revenue(price, self.COST, xs),
        ]
        for key in keys:
            for lo, rows in grid_blocks(upper, 201):
                block = key(rows)
                sample = range(0, len(rows), 7)
                alone = np.array([key(rows[i : i + 1])[0] for i in sample])
                assert alone.tobytes() == block[list(sample)].tobytes(), lo


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


def every_row_revenue(u, c, box, cfg):
    """The best consistent revenue over the price `grad_max_info(x)` of
    every grid row `x`, floored at zero trade: the exhaustive search, one
    buyer response per distinct row price, that the ranked search replaced."""
    best, seen = 0.0, set()
    for _, xs in grid_blocks(box.upper, cfg.points(box.dim), 1):
        for x in xs:
            p = u.grad_max_info(x)
            if tuple(p) in seen or not np.all(np.isfinite(p)):
                continue
            seen.add(tuple(p))
            rec = response._consistent_record(u, p, box, c, cfg)
            if rec is not None:
                best = max(best, rec[0])
    return best


def min_of_affine(rng, d):
    # piece 0 passes through the origin, so the minimum vanishes there
    k = int(rng.integers(2, 4))
    return MinOfAffine([Affine(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], d), float(rng.choice([0.0, 1.0, 2.0])) if j else 0.0) for j in range(k)])


KINKED_REPORTS = {
    "min_of_affine": min_of_affine,
    "sum": lambda rng, d: Sum([PowerSum(rng.uniform(0.2, 2.0, d), rng.choice([0.3, 0.5, 0.8, 1.0], d)), min_of_affine(rng, d)]),
    "scale": lambda rng, d: Scale(float(rng.uniform(0.5, 3.0)), min_of_affine(rng, d)),
    "leontief_in_sum": lambda rng, d: Sum(
        [Leontief(rng.choice([0.5, 1.0, 2.0], d), float(rng.uniform(1.0, 4.0))), PowerSum(rng.uniform(0.2, 2.0, d), rng.choice([0.5, 1.0], d))]
    ),
    "graph": lambda rng, d: Scale(float(rng.uniform(1.0, 3.0)), GraphMinCost(path_graph(d + 1))),
}


class TestRankedSellerSearch:
    """Rows ranked by the potential, with an early stop, against one price
    per grid row: the ranked search keeps every record the exhaustive one
    finds, on kinked reports too."""

    @pytest.mark.parametrize("n", [11, 21])
    @pytest.mark.parametrize("family", sorted(KINKED_REPORTS))
    def test_matches_every_row_price(self, family, n):
        cfg = SolverConfig(grid_points={1: n, 2: n, 3: n})
        for seed in range(6):
            rng = np.random.default_rng(seed)
            d = 1 + seed % 2
            u = KINKED_REPORTS[family](rng, d)
            c = PowerSum(rng.uniform(0.1, 1.0, u.dim), rng.choice([1.0, 1.5, 2.0], u.dim))
            box = BoxDomain(rng.choice([1.0, 2.0, 3.0, 5.0], u.dim))
            if response._anchored_form(u) is not None:
                continue
            sol = seller_optimal_linear_price(u, c, box, cfg)
            oracle = every_row_revenue(u, c, box, cfg)
            assert sol.revenue >= oracle - response._rev_tie(oracle), (seed, u)

    def test_flat_piece_across_a_coarse_cell(self):
        # price 6.4 leaves the buyer indifferent on [0, 0.5], which the one
        # row 0.3 of that price covers only through the widened 1-d key
        # p * 0.6 - c(0): its potential 6.4 * 0.3 - c(0.3) = 1.71 ranks
        # below the 2.1 that the price 1.4 of row 3 earns
        u = Sum([Leontief((0.5,), 2.5), PowerSum((1.4,), (1.0,))])
        c, box, cfg = PowerSum((0.7,), (1.0,)), BoxDomain([3.0]), SolverConfig(grid_points={1: 11})
        oracle = every_row_revenue(u, c, box, cfg)
        assert oracle > 2.3
        assert seller_optimal_linear_price(u, c, box, cfg).revenue >= oracle

    def test_kinked_one_good_optimum_is_analytic(self):
        # sqrt(x) + min(3x, 2) against x^2: the best revenue sits at the kink
        # x = 2/3, priced at the top of the superdifferential there,
        # 1/(2 sqrt(2/3)) + 3; the best grid row, 0.665, earns 1.960513
        u = Sum([SQRT, MinOfAffine([Affine((3.0,), 0.0), Affine((0.0,), 2.0)])])
        sol = seller_optimal_linear_price(u, SQUARE, BoxDomain([5.0]))
        assert sol.verified
        assert abs(sol.revenue - (0.5 * math.sqrt(2.0 / 3.0) + 2.0 - 4.0 / 9.0)) <= 1e-9
        assert abs(sol.bundle[0] - 2.0 / 3.0) <= 1e-9

    def test_kinked_two_good_report_at_the_default_grid(self, monkeypatch):
        # the exhaustive search made one grid response per row, 40,400 of
        # them at 201 points per axis; the ranked one stops after a few
        calls = []
        monkeypatch.setattr(response, "buyer_best_response", lambda *a: calls.append(a) or buyer_best_response(*a))
        u = Sum([PowerSum((2.0, 1.0), (0.5, 0.5)), MinOfAffine([Affine((3.0, 1.0), 0.0), Affine((0.0, 0.0), 2.0)])])
        c, box = PowerSum((1.0, 1.0), (2.0, 2.0)), BoxDomain([3.0, 3.0])
        sol = seller_optimal_linear_price(u, c, box)
        assert len(calls) <= 10
        assert sol.verified and sol.revenue > 2.6
        assert np.max(np.abs(sol.price - u.grad_max_info(sol.bundle))) <= 1e-6 * np.max(sol.price)
        assert sol.revenue == float(sol.price @ sol.bundle) - c.value(sol.bundle)


class TestRefinementObjective:
    """`_refine`'s revenue objective takes one `gradient_batch` per batch,
    and every row keeps the bits of the one-row `grad_max_info(x) @ x - c(x)`
    that the refinement used before; a sum in another order (`einsum`, a
    column sum) differs from `p @ x` in about a third of the rows."""

    @pytest.mark.parametrize("family", sorted(KINKED_REPORTS))
    def test_rows_keep_the_bits_of_one_row_revenue(self, monkeypatch, family):
        batches = []
        refine = response.coordinate_refine

        def recording(f, *args):
            def objective(xs):
                out = f(xs)
                batches.append((u, c, xs.copy(), out))
                return out

            return refine(objective, *args)

        monkeypatch.setattr(response, "coordinate_refine", recording)
        cfg = SolverConfig(grid_points={1: 21, 2: 21, 3: 21, 4: 21})
        for seed in range(6):
            rng = np.random.default_rng(seed)
            u = KINKED_REPORTS[family](rng, 1 + seed % 3)
            c = PowerSum(rng.uniform(0.1, 1.0, u.dim), rng.choice([1.0, 1.5, 2.0], u.dim))
            if response._anchored_form(u) is None:
                seller_optimal_linear_price(u, c, BoxDomain(rng.choice([1.0, 2.0, 3.0, 5.0], u.dim)), cfg)
        assert {xs.shape[1] for _, _, xs, _ in batches} >= {2, 3}
        for u, c, xs, out in batches:
            want = []
            for x in xs:
                p = u.grad_max_info(x)
                want.append(p @ x - c.value(x) if np.all(np.isfinite(p)) else -np.inf)
            assert out.tobytes() == np.array(want).tobytes()


class TestKinkedNonAnchoredReport:
    def test_graph_cost_report_yields_verified_or_zero(self):
        # a concave piecewise-linear report that is neither anchored nor a
        # plain min-of-affine: the ranked search must still return a
        # consistent, non-negative solution
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
            assert np.max(np.abs(u.grad_max_info(sol.bundle) - sol.price)) < 1e-6


class TestGridFallbackTies:
    """A concave report that is neither anchored, convex nor separable takes
    the grid: the buyer's answer is `_finish_ties` of the rows within
    `_TIE_TOL` of the grid's best utility, bit for bit, however the scan's
    blocks cut the grid."""

    CFG = SolverConfig(grid_points={2: 9, 3: 5})
    CASES = [
        # min(x1 + x2, 4) at unit prices: flat (utility 0) on the whole triangle x1 + x2 <= 4
        (MinOfAffine([Affine((1.0, 1.0), 0.0), Affine((0.0, 0.0), 4.0)]), (1.0, 1.0), [4.0, 4.0]),
        (MinOfAffine([Affine((1.0, 2.0, 1.0), 0.0), Affine((0.5, 0.0, 0.0), 3.0), Affine((0.0, 0.0, 0.0), 6.0)]), (1.0, 2.0, 1.0), [3.0, 2.0, 4.0]),
        # 2 * min(x1, x2) at unit prices: flat along the diagonal
        (GraphMinCost(path_graph(2)), (1.0, 1.0), [3.0, 3.0]),
        (GraphMinCost(path_graph(3)), (1.0, 1.0, 1.0), [2.0, 2.0, 2.0]),
        # 2 * min(x1, x2, 1) + x1 + x2 at unit prices: flat on the square [1, 4]^2
        (Sum([Leontief((1.0, 1.0), 2.0), PowerSum((1.0, 1.0), (1.0, 1.0))]), (1.0, 1.0), [4.0, 4.0]),
    ]

    @pytest.mark.parametrize("block", [4, 7])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_the_whole_grid_pool(self, case, block):
        u, price, upper = self.CASES[case]
        price = np.array(price)
        c = PowerSum((0.1,) * u.dim, (2.0,) * u.dim)
        box = BoxDomain(np.array(upper))
        grid = box.grid(self.CFG.points(u.dim))
        utility = _utility(u, price, grid)
        pool = grid[utility >= utility.max() - response._TIE_TOL]
        want = response._finish_ties(pool, u, price, c)
        with mock.patch.object(gridopt, "_BLOCK", block):
            got = buyer_best_response(u, price, box, c, self.CFG)
        assert got.tobytes() == want.tobytes()
        assert len(pool) > block  # the pool straddles blocks
