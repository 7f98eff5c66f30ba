import math
from dataclasses import replace

import numpy as np
import pytest

from padd import (
    Affine,
    MinOfAffine,
    Sum,
    BoxDomain,
    EquilibriumOutcome,
    ImitativeValue,
    Leontief,
    PowerSum,
    PreconditionError,
    Scale,
    Shape,
    SolverConfig,
    bregman,
    fixed_bundle_optimal,
    fixed_bundle_outcome,
    seller_optimal_linear_price,
    solve_auto,
    solve_concave,
    solve_convex,
    solve_general,
    verify_equilibrium,
)
from padd.graphs import cycle_graph, path_graph
from padd.hardness import build_cost
from padd.instances import (
    capped_value_demo,
    concave_cost_demo,
    convex_cost_demo,
    equivalence_suite,
)
from padd import equilibrium
from padd.equilibrium import _maximize
from padd.raygeom import ray_payment_batch, ray_payment_floor, ray_slope_sup
from padd.response import DEFAULT_SELLER_GRID

SQRT = PowerSum((1.0,), (0.5,))


class TestSolveBenchmarks:
    def test_convex_demo_closed_form(self):
        v, c, box = convex_cost_demo()
        out = solve_auto(v, c, box)
        assert out.method == "convex_closed_form"
        assert abs(out.bundle[0] - 4.0) < 1e-6
        assert abs(out.payment - 32.0) < 1e-6
        assert abs(out.unit_prices[0] - 8.0) < 1e-6
        assert abs(out.buyer_surplus - 96.0) < 1e-6
        assert abs(out.seller_revenue - 16.0) < 1e-6
        assert abs(out.seller_revenue - bregman(c, (0.0,), out.bundle)) < 1e-9

    def test_convex_demo_general_mode(self):
        v, c, box = convex_cost_demo()
        out = solve_general(v, c, box)
        assert out.method == "general"
        assert abs(out.bundle[0] - 4.0) < 1e-3
        assert abs(out.payment - 32.0) < 1e-3

    def test_concave_demo(self):
        v, c, box = concave_cost_demo()
        out = solve_auto(v, c, box)
        assert out.method == "concave_closed_form"
        assert abs(out.bundle[0] - 16.0) < 1e-5
        assert abs(out.payment - 4.0) < 1e-6
        assert abs(out.unit_prices[0] - 0.25) < 1e-7
        assert abs(out.buyer_surplus - 4.0) < 1e-6
        assert abs(out.seller_revenue) < 1e-9

    def test_capped_value_demo(self):
        v, c, box = capped_value_demo()
        out = solve_auto(v, c, box)
        assert abs(out.bundle[0] - 0.81) < 1e-4
        assert abs(out.payment - 1.3122) < 1e-4
        assert abs(out.seller_revenue - 0.6561) < 1e-4

    def test_value_equal_cost_no_trade(self):
        box = BoxDomain(np.array([100.0]))
        for f in (SQRT, PowerSum((1.0,), (2.0,)), Affine((2.0,), 0.0)):
            if f.shape in (Shape.CONCAVE, Shape.LINEAR):
                out = solve_auto(f, f, box)
                assert not out.trade
                assert out.buyer_surplus == 0.0 and out.seller_revenue == 0.0
        out = solve_general(SQRT, SQRT, box)
        assert not out.trade

    def test_linear_cost_zero_revenue(self):
        v = Scale(8.0, SQRT)
        c = Affine((0.5,), 0.0)
        out = solve_auto(v, c, BoxDomain(np.array([100.0])))
        assert out.trade
        assert abs(out.payment - c.value(out.bundle)) < 1e-12
        assert abs(out.seller_revenue) < 1e-12

    def test_dimension_cap(self):
        f = PowerSum((1.0,) * 5, (0.5,) * 5)
        c = PowerSum((1.0,) * 5, (2.0,) * 5)
        with pytest.raises(PreconditionError):
            solve_general(f, c, BoxDomain(np.ones(5)))

    def test_multi_good_boundary_support(self):
        # binary equilibrium bundle with a zero coordinate: the anchored
        # commitment projects onto the support
        g = path_graph(3)
        v = Affine((1.0, 1.0, 1.0), 0.0)
        cfg = SolverConfig(vertex_enumeration=True)
        out = solve_concave(v, build_cost(g), BoxDomain(np.ones(3)), cfg)
        assert out.buyer_surplus == 2.0
        assert np.array_equal(out.bundle, [1.0, 0.0, 1.0])
        assert out.imitative.support.tolist() == [True, False, True]
        assert out.unit_prices[1] == 0.0
        assert abs(float(out.unit_prices @ out.bundle) - out.payment) < 1e-12
        u = out.imitative.to_expr()
        assert u.value(out.bundle) == out.payment
        assert u.value(np.zeros(3)) == 0.0


class TestConsistencyAcrossSolvers:
    def test_general_matches_specialized(self):
        for name, v, c, box in equivalence_suite():
            shape = c.shape
            if shape is Shape.CONVEX:
                special = solve_convex(v, c, box)
            elif shape in (Shape.CONCAVE, Shape.LINEAR):
                special = solve_concave(v, c, box)
            else:
                continue
            general = solve_general(v, c, box)
            assert general.trade == special.trade, name
            if not general.trade:
                continue
            assert np.max(np.abs(general.bundle - special.bundle)) < 1e-3, name
            assert abs(general.payment - special.payment) < 1e-4, name
            assert abs(general.buyer_surplus - special.buyer_surplus) < 1e-4, name
            assert abs(general.seller_revenue - special.seller_revenue) < 1e-4, name

    def test_revenue_sign(self):
        for name, v, c, box in equivalence_suite():
            out = solve_auto(v, c, box)
            assert out.seller_revenue >= -1e-9, name
            if c.shape in (Shape.CONCAVE, Shape.LINEAR):
                assert abs(out.seller_revenue) <= 1e-6, name

    def test_imitation_dominates_truth_telling(self):
        for name, v, c, box in equivalence_suite():
            out = solve_auto(v, c, box)
            truth = seller_optimal_linear_price(v, c, box)
            truthful_surplus = v.value(truth.bundle) - float(truth.price @ truth.bundle)
            assert out.buyer_surplus >= truthful_surplus - 1e-6, name

    def test_joint_scaling_invariance(self):
        v, c, box = convex_cost_demo()
        s = 3.5
        sv, sc = Scale(s, v), Scale(s, c)
        cfg = SolverConfig()
        pts = box.grid(cfg.points(1))
        f_base = v.values(pts) - ray_payment_batch(c, pts)
        f_scaled = sv.values(pts) - ray_payment_batch(sc, pts)
        assert np.max(np.abs(f_scaled - s * f_base)) < 1e-9 * max(1.0, s * np.abs(f_base).max())
        assert np.array_equal(np.argmax(f_base), np.argmax(f_scaled))

        base = solve_auto(v, c, box, cfg)
        scaled = solve_auto(sv, sc, box, cfg)
        assert np.max(np.abs(scaled.bundle - base.bundle)) < 1e-6
        for attr in ("payment", "buyer_surplus", "seller_revenue"):
            a, b = getattr(base, attr), getattr(scaled, attr)
            assert abs(b - s * a) < 1e-9 * max(1.0, abs(s * a)), attr

    def test_anchored_round_trip(self):
        # rebuild the commitment from (bundle, payment) and let the seller
        # re-optimize: the same trade and payment come back
        cases = [convex_cost_demo(), concave_cost_demo()]
        cases.append((Scale(8.0, SQRT), Affine((0.5,), 0.0), BoxDomain(np.array([100.0]))))
        cases.append(
            (
                PowerSum((8.0, 4.0), (0.5, 0.5)),
                PowerSum((1.0, 0.5), (2.0, 2.0)),
                BoxDomain(np.array([5.0, 5.0])),
            )
        )
        for v, c, box in cases:
            out = solve_auto(v, c, box)
            assert out.trade
            imit = ImitativeValue(out.bundle.copy(), out.payment)
            sol = seller_optimal_linear_price(imit.to_expr(), c, box)
            assert sol.verified
            assert np.max(np.abs(sol.bundle - out.bundle)) < 1e-6
            assert abs(float(sol.price @ sol.bundle) - out.payment) < 1e-6


class TestOneDimensionalStationaryPoints:
    """1-d solves use the grid plus golden refinement of every dimension and
    still land on the closed-form optimum of v(x) - payment(x)."""

    # name -> (bundle, buyer surplus), each solved by hand
    EXPECTED = {
        "sqrt_value_square_cost": (4.0, 96.0),
        "quartic_root_value_sqrt_cost": (16.0, 4.0),
        "capped_line_value_square_cost": (0.81, 8.1 - 2.0 * 0.81**2),
        "sqrt_value_linear_cost": (64.0, 32.0),
        "capped_line_value_linear_cost": (1.5, 4.5),
        "sqrt_value_cubic_cost": ((4.0 / 3.0) ** 0.4, 12.0 * (4.0 / 3.0) ** 0.2 - 1.5 * (4.0 / 3.0) ** 1.2),
        "anchored_value_square_cost": (2.0, 8.0),
        "power_value_power_cost": (2.0 ** (4.0 / 3.0), 6.0),
        "zero_surplus_no_trade": (0.0, 0.0),
    }

    def test_equivalence_suite_reaches_closed_form(self):
        one_d = [(name, v, c, box) for name, v, c, box in equivalence_suite() if box.dim == 1]
        assert sorted(name for name, *_ in one_d) == sorted(self.EXPECTED)
        for name, v, c, box in one_d:
            out = solve_auto(v, c, box)
            x, surplus = self.EXPECTED[name]
            assert math.isclose(out.bundle[0], x, rel_tol=1e-8, abs_tol=1e-300), name
            assert math.isclose(out.buyer_surplus, surplus, rel_tol=1e-12, abs_tol=1e-300), name


class TestFixedBundle:
    def test_convex_demo_bundle(self):
        v, c, _ = convex_cost_demo()
        res = fixed_bundle_optimal(v, c, (4.0,))
        assert res.payment == 32.0
        assert res.surplus == 96.0
        assert isinstance(res.imitative.to_expr(), Leontief)

    def test_concave_demo_bundle(self):
        v, c, _ = concave_cost_demo()
        res = fixed_bundle_optimal(v, c, (16.0,))
        assert res.payment == 4.0
        assert res.surplus == 4.0

    def test_unit_bundle_cross_checked(self):
        # x * c'(x) = 2 at x = 1; cross-check against the chord-slope oracle
        v, c, _ = convex_cost_demo()
        res = fixed_bundle_optimal(v, c, (1.0,))
        assert res.payment == 2.0
        alphas = np.linspace(0.0, 1.0 - 1e-6, 10001)
        sup = max((c.value((1.0,)) - c.value((a,))) / (1.0 - a) for a in alphas)
        assert abs(res.payment - sup) < 1e-4

    def test_zero_coordinate_rejected(self):
        v, c, _ = convex_cost_demo()
        with pytest.raises(PreconditionError):
            fixed_bundle_optimal(v, c, (0.0,))


class TestVerification:
    def test_benchmarks_pass(self):
        for v, c, box in (convex_cost_demo(), concave_cost_demo()):
            out = solve_auto(v, c, box)
            report = verify_equilibrium(out, v, c, box)
            assert report.passed
            assert [c_.name for c_ in report.checks] == [
                "seller_fraction_feasibility",
                "buyer_best_response_at_split_price",
                "seller_reoptimization_recovers_payment",
            ]

    def test_underpayment_fails_fraction_check(self):
        v, c, box = convex_cost_demo()
        out = solve_auto(v, c, box)
        bad = replace(out, payment=0.9 * out.payment)
        report = verify_equilibrium(bad, v, c, box)
        assert not report.checks[0].passed
        assert report.checks[0].worst_violation > 0

    def test_no_trade_vacuous(self):
        box = BoxDomain(np.array([100.0]))
        out = solve_auto(SQRT, SQRT, box)
        report = verify_equilibrium(out, SQRT, SQRT, box)
        assert report.vacuous and report.passed

    def test_custom_split_respected(self):
        v, c, box = (
            PowerSum((8.0, 4.0), (0.5, 0.5)),
            PowerSum((1.0, 0.5), (2.0, 2.0)),
            BoxDomain(np.array([5.0, 5.0])),
        )
        cfg = SolverConfig(lambda_split=(0.25, 0.75))
        out = solve_auto(v, c, box, cfg)
        assert abs(float(out.unit_prices @ out.bundle) - out.payment) < 1e-12
        report = verify_equilibrium(out, v, c, box, cfg=cfg)
        assert report.passed


class TestVerifyAcceptsSolvedGames:
    """Every game a solver accepts must also be accepted by verification."""

    def test_vertex_enumeration_graph_game(self):
        # 6 goods: beyond the grid densities, but the anchored commitment's
        # best responses need no grid
        cfg = SolverConfig(vertex_enumeration=True)
        v, c, box = Affine((3.0,) * 6, 0.0), build_cost(cycle_graph(6)), BoxDomain(np.ones(6))
        out = solve_auto(v, c, box, cfg)
        assert np.array_equal(out.bundle, np.ones(6)) and out.payment == 6.0
        assert verify_equilibrium(out, v, c, box, cfg=cfg).passed

    @pytest.mark.parametrize(
        "graph", [path_graph(3), cycle_graph(4), cycle_graph(6)], ids=["path3", "cycle4", "cycle6"]
    )
    def test_zero_payment_graph_game(self, graph):
        # unit values against the graph cost: the buyer takes an independent
        # set for free, and the zero commitment must still verify
        n = graph.node_count
        cfg = SolverConfig(vertex_enumeration=True)
        v, c, box = Affine((1.0,) * n), build_cost(graph), BoxDomain(np.ones(n))
        out = solve_auto(v, c, box, cfg)
        assert out.trade and out.payment == 0.0
        assert isinstance(out.imitative.to_expr(), Leontief)
        assert verify_equilibrium(out, v, c, box, cfg=cfg).passed

    def test_five_goods_with_configured_grid(self):
        cfg = SolverConfig(grid_points={**DEFAULT_SELLER_GRID, 5: 7})
        v = PowerSum((8.0,) * 5, (0.5,) * 5)
        c = PowerSum((1.0, 1.5, 2.0, 2.5, 3.0), (2.0,) * 5)
        box = BoxDomain(np.full(5, 5.0))
        out = solve_auto(v, c, box, cfg)
        assert out.method == "convex_closed_form" and out.trade
        assert verify_equilibrium(out, v, c, box, cfg=cfg).passed


class TestOutcomeSerialization:
    def test_round_trip(self):
        v, c, box = convex_cost_demo()
        out = solve_auto(v, c, box)
        back = EquilibriumOutcome.from_dict(out.to_dict())
        assert back.method == out.method
        assert np.array_equal(back.bundle, out.bundle)
        assert back.payment == out.payment
        assert np.array_equal(back.unit_prices, out.unit_prices)

    def test_split_on_absent_good_rejected(self):
        g = path_graph(3)
        v = Affine((1.0, 1.0, 1.0), 0.0)
        cfg = SolverConfig(vertex_enumeration=True, lambda_split=(0.0, 1.0, 0.0))
        with pytest.raises(PreconditionError):
            solve_concave(v, build_cost(g), BoxDomain(np.ones(3)), cfg)


class TestFixedBundleOutcome:
    def test_method_tag_and_verification(self):
        v, c, box = convex_cost_demo()
        out = fixed_bundle_outcome(v, c, (4.0,))
        assert out.method == "fixed_bundle"
        assert out.payment == 32.0 and out.buyer_surplus == 96.0
        assert verify_equilibrium(out, v, c, box).passed

    def test_suboptimal_bundle_still_consistent(self):
        # any positive bundle is supportable; the commitment just earns less
        v, c, box = convex_cost_demo()
        out = fixed_bundle_outcome(v, c, (1.0,))
        assert out.payment == 2.0
        assert verify_equilibrium(out, v, c, box).passed
        assert out.buyer_surplus < solve_auto(v, c, box).buyer_surplus


class TestInstancePreconditions:
    def test_convex_value_rejected(self):
        box = BoxDomain(np.array([10.0]))
        convex_v = PowerSum((1.0,), (2.0,))
        with pytest.raises(PreconditionError):
            solve_general(convex_v, SQRT, box)

    def test_nonvanishing_value_rejected(self):
        box = BoxDomain(np.array([10.0]))
        with pytest.raises(PreconditionError):
            solve_general(Affine((1.0,), 0.5), SQRT, box)

    @pytest.mark.parametrize("solver", [solve_auto, solve_general, solve_convex])
    def test_cost_overflowing_on_the_box_rejected(self, solver):
        # x^2 overflows at 1e300; before this check the solvers returned no trade
        v, c, _ = convex_cost_demo()
        with pytest.raises(PreconditionError, match="finite on the box"):
            solver(v, c, BoxDomain(np.array([1e300])))

    def test_value_overflowing_on_the_box_rejected(self):
        # 1e10 * 1e300 overflows while sqrt(1e300) does not
        with pytest.raises(PreconditionError, match="finite on the box"):
            solve_concave(Affine((1e10,), 0.0), SQRT, BoxDomain(np.array([1e300])))

    def test_wrong_shape_for_specialized_solver(self):
        box = BoxDomain(np.array([10.0]))
        with pytest.raises(PreconditionError):
            solve_convex(SQRT, SQRT, box)  # concave cost into the convex solver
        with pytest.raises(PreconditionError):
            solve_concave(SQRT, PowerSum((1.0,), (2.0,)), box)


class TestGeneralShapeCost:
    def test_mixed_curvature_cost_against_oracle(self):
        # cost x^2 + sqrt(x) is neither convex nor concave; check the
        # solver against a dense 1-d scan of v(x) - chord_sup(x)
        v = Scale(20.0, SQRT)
        c = Sum([PowerSum((1.0,), (2.0,)), SQRT])
        box = BoxDomain(np.array([10.0]))
        out = solve_general(v, c, box)

        alphas = np.linspace(0.0, 1.0 - 1e-6, 4001)

        def payment_oracle(xs, chunk=256):
            # max over alphas of the chord slope (c(x) - c(a x)) / (1 - a), per x
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
            pay = np.empty(xs.size)
            for s in range(0, xs.size, chunk):
                xc = xs[s : s + chunk]
                cx = c.values(xc[:, None])
                cax = c.values((xc[:, None] * alphas).reshape(-1, 1)).reshape(xc.size, -1)
                pay[s : s + chunk] = np.max((cx[:, None] - cax) / (1.0 - alphas), axis=1)
            return pay

        xs = np.linspace(1e-3, 10.0, 4001)
        objective = v.values(xs[:, None]) - payment_oracle(xs)
        i = int(np.argmax(objective))
        assert abs(out.bundle[0] - xs[i]) < 1e-2
        assert abs(out.payment - payment_oracle(out.bundle[0])[0]) < 1e-6
        assert out.buyer_surplus >= objective[i] - 1e-6
        assert out.seller_revenue >= -1e-9

    def test_default_grid_2d_solve_against_oracle(self):
        # the default 201^2 grid, which took about 25 s before the monomial ray path
        v = PowerSum((20.0, 10.0), (0.5, 0.5))
        c = Sum([PowerSum((1.0, 1.0), (2.0, 2.0)), PowerSum((1.0, 1.0), (0.5, 0.5))])
        box = BoxDomain(np.array([10.0, 10.0]))
        cfg = SolverConfig()
        assert cfg.points(2) == 201
        out = solve_general(v, c, box, cfg)
        alphas = np.linspace(0.0, 1.0 - 1e-6, 10001)

        def payment_oracle(x):
            # max over alphas of the chord slope (c(x) - c(a x)) / (1 - a)
            cx = c.values(x[None, :])[0]
            return float(np.max((cx - c.values(alphas[:, None] * x)) / (1.0 - alphas)))

        assert out.method == "general" and out.trade
        assert out.payment == pytest.approx(payment_oracle(out.bundle), rel=1e-7, abs=0.0)
        coarse = BoxDomain(np.array([10.0, 10.0])).grid(11)[1:]
        best = max(v.value(x) - payment_oracle(x) for x in coarse)
        assert out.buyer_surplus >= best
        assert verify_equilibrium(out, v, c, box, cfg=cfg).passed

    def test_method_tag_is_general(self):
        v = Scale(20.0, SQRT)
        c = Sum([PowerSum((1.0,), (2.0,)), SQRT])
        out = solve_general(v, c, BoxDomain(np.array([10.0])))
        assert out.method == "general"


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "option",
        [
            {"tie_tol": float("nan")},
            {"golden_tol": float("inf")},
            {"bundle_tol": 0.0},
            {"no_trade_tol": -1e-12},
            {"grid_points": {1: 1}},
            {"grid_points": {1: 2001, 2: 0}},
            {"refine_top_k": 0},
            {"refine_passes": -1},
            {"ray_grid_n": 1},
            {"eps_limit": 0.0},
            {"eps_limit": 1.0},
        ],
    )
    def test_invalid_option_rejected(self, option):
        with pytest.raises(ValueError, match="solver option"):
            SolverConfig(**option)
        with pytest.raises(ValueError, match="solver option"):
            SolverConfig.from_dict({k: (v if k != "grid_points" else {str(d): n for d, n in v.items()})
                                    for k, v in option.items()})

    def test_defaults_and_round_trip_accepted(self):
        cfg = SolverConfig(refine_passes=0, refine_top_k=1, ray_grid_n=2)
        assert SolverConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def _general_objective(v, c, cfg):
    """The buyer's objective and its upper bound, as `solve_general` builds them."""

    def batch(xs):
        return v.values(xs) - ray_payment_batch(c, xs, cfg.ray_grid_n, cfg.eps_limit)

    def bound(xs):
        return v.values(xs) - ray_payment_floor(c, xs)

    def scalar(x):
        if not np.any(np.asarray(x) > 0):
            return 0.0
        return v.value(x) - ray_slope_sup(c, x, cfg.ray_grid_n, cfg.eps_limit).payment

    return batch, bound, scalar


MIXED_1D = (Scale(20.0, SQRT), Sum([PowerSum((1.0,), (2.0,)), SQRT]), BoxDomain(np.array([10.0])), {1: 2001})
KINKED_1D = (
    Scale(20.0, SQRT),
    Sum([PowerSum((1.0,), (2.0,)), MinOfAffine([Affine((3.0,), 0.0), Affine((0.0,), 2.0)])]),
    BoxDomain(np.array([10.0])),
    {1: 2001},
)
MIXED_2D = (
    PowerSum((20.0, 10.0), (0.5, 0.5)),
    Sum([PowerSum((1.0, 1.0), (2.0, 2.0)), PowerSum((1.0, 1.0), (0.5, 0.5))]),
    BoxDomain(np.array([10.0, 10.0])),
    {2: 21},
)
# sqrt(x) + 0.01 x^2 on [0, 10]: general shape, but every chord slope peaks
# at a = 0, so the upper bound equals the objective on every grid row
TIGHT_1D = (
    PowerSum((3.0,), (0.5,)),
    Sum([SQRT, PowerSum((0.01,), (2.0,))]),
    BoxDomain(np.array([10.0])),
    {1: 2001},
)
# its symmetric 2-d version: mirrored rows tie exactly in the grid top-3
TIGHT_2D = (
    PowerSum((2.0, 2.0), (0.5, 0.5)),
    Sum([PowerSum((1.0, 1.0), (0.5, 0.5)), PowerSum((0.01, 0.01), (2.0, 2.0))]),
    BoxDomain(np.array([10.0, 10.0])),
    {2: 21},
)


class TestPrunedGrid:
    @pytest.mark.parametrize("instance", [MIXED_1D, KINKED_1D, MIXED_2D], ids=["mixed_1d", "kinked_1d", "mixed_2d"])
    @pytest.mark.parametrize(
        "options", [{"refine_top_k": 1}, {"refine_top_k": 3}, {"vertex_enumeration": True}],
        ids=["top1", "top3", "vertices"],
    )
    def test_bound_leaves_maximizer_bit_identical(self, instance, options):
        v, c, box, grid = instance
        cfg = SolverConfig(grid_points=grid, **options)
        batch, bound, scalar = _general_objective(v, c, cfg)
        x_all, best_all = _maximize(batch, scalar, box, cfg)
        x_pruned, best_pruned = _maximize(batch, scalar, box, cfg, bound_batch=bound)
        assert x_pruned.tobytes() == x_all.tobytes()
        assert np.float64(best_pruned).tobytes() == np.float64(best_all).tobytes()

    def test_single_surviving_row_gets_whole_grid_bits(self):
        # a one-row batch can round differently from a many-row one (numpy's
        # matrix-vector route), so a block pruned down to a single row must
        # still see the bits that the whole-grid evaluation gives that row
        v = MIXED_2D[0]
        pts = BoxDomain(np.array([10.0, 10.0])).grid(21)
        full = v.values(pts)
        alone = np.array([v.values(pts[i : i + 1])[0] for i in range(len(pts))])
        order = np.argsort(-full, kind="stable")
        differs = [i for i in order[equilibrium._PRUNE_BLOCK :] if alone[i] != full[i]]
        special = differs[0] if differs else order[-1]
        bound = full.copy()
        bound[order[: equilibrium._PRUNE_BLOCK]] = np.inf  # the first block, best row included
        bound[special] = 1e300  # the only row of the second block not below the best
        vals = equilibrium._pruned_values(v.values, bound, pts, 1)
        seen = np.isfinite(vals)
        assert seen[special] and seen.sum() == equilibrium._PRUNE_BLOCK + 1
        assert vals[seen].tobytes() == full[seen].tobytes()

    @pytest.mark.parametrize("top_k", [1, 2])
    def test_row_whose_bound_ties_the_kth_value_is_evaluated(self, top_k):
        # row 0 is visited after a full block of looser-bounded rows that
        # already hold the k-th value; its bound only equals that value, and
        # it wins the tie on index, so it must still be evaluated
        n = equilibrium._PRUNE_BLOCK + 8
        pts = np.arange(n, dtype=float)[:, None]
        obj = np.linspace(4.0, 3.0, n)
        obj[0] = obj[1] = obj[2] = 5.0
        bound = obj.copy()
        bound[1 : equilibrium._PRUNE_BLOCK + 1] = 7.0
        vals = equilibrium._pruned_values(lambda xs: obj[xs[:, 0].astype(int)], bound, pts, top_k)
        assert vals[0] == 5.0
        assert list(np.argsort(-vals, kind="stable")[:top_k]) == list(np.argsort(-obj, kind="stable")[:top_k])
        assert np.isinf(vals[-1])

    def test_nan_bound_is_never_skipped(self):
        n = 3 * equilibrium._PRUNE_BLOCK
        pts = np.arange(n, dtype=float)[:, None]
        obj = np.linspace(2.0, 1.0, n)
        obj[-1] = 9.0
        bound = obj.copy()
        bound[-1] = np.nan
        vals = equilibrium._pruned_values(lambda xs: obj[xs[:, 0].astype(int)], bound, pts, 1)
        assert vals[-1] == 9.0
        assert np.isinf(vals[n // 2])

    @pytest.mark.parametrize("instance", [MIXED_1D, KINKED_1D, MIXED_2D], ids=["mixed_1d", "kinked_1d", "mixed_2d"])
    def test_bound_is_above_objective(self, instance):
        v, c, box, grid = instance
        cfg = SolverConfig(grid_points=grid)
        batch, bound, _ = _general_objective(v, c, cfg)
        pts = box.grid(cfg.points(box.dim))
        assert np.all(bound(pts) >= batch(pts))

    def test_solve_general_evaluates_fewer_rows_than_the_grid(self, monkeypatch):
        v, c, box, grid = MIXED_1D
        rows = []

        def counting(c_, xs, *args):
            rows.append(len(xs))
            return ray_payment_batch(c_, xs, *args)

        monkeypatch.setattr(equilibrium, "ray_payment_batch", counting)
        out = solve_general(v, c, box)
        assert out.method == "general" and out.trade
        assert 0 < sum(rows) < grid[1]

    @pytest.mark.parametrize("instance", [TIGHT_1D, TIGHT_2D], ids=["tight_1d", "tight_2d"])
    def test_tight_bound_equals_objective(self, instance):
        v, c, box, grid = instance
        cfg = SolverConfig(grid_points=grid)
        batch, bound, _ = _general_objective(v, c, cfg)
        pts = box.grid(cfg.points(box.dim))
        assert np.array_equal(bound(pts), batch(pts))

    @pytest.mark.parametrize(
        "instance,top_k", [(TIGHT_1D, 1), (TIGHT_2D, 2), (TIGHT_2D, 3)], ids=["tight_1d-1", "tight_2d-2", "tight_2d-3"]
    )
    def test_tight_bound_keeps_argmax_and_tie_break(self, instance, top_k):
        v, c, box, grid = instance
        cfg = SolverConfig(grid_points=grid, refine_top_k=top_k)
        batch, bound, scalar = _general_objective(v, c, cfg)
        x_all, best_all = _maximize(batch, scalar, box, cfg)
        x_pruned, best_pruned = _maximize(batch, scalar, box, cfg, bound_batch=bound)
        assert x_pruned.tobytes() == x_all.tobytes()
        assert np.float64(best_pruned).tobytes() == np.float64(best_all).tobytes()

    def test_tight_2d_grid_ties_second_and_third(self):
        # rows 2 and 3 of the stable top-3 are mirror images with equal values,
        # so refine_top_k = 2 cuts through a tie that the pruning must respect
        v, c, box, grid = TIGHT_2D
        cfg = SolverConfig(grid_points=grid)
        batch, _, _ = _general_objective(v, c, cfg)
        pts = box.grid(cfg.points(box.dim))
        vals = batch(pts)
        top = np.argsort(-vals, kind="stable")[:3]
        assert vals[top[1]] == vals[top[2]]
        assert pts[top[1]].tolist() == pts[top[2]][::-1].tolist()
