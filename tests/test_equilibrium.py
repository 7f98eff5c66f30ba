import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padd import (
    Affine,
    MinOfAffine,
    Sum,
    BoxDomain,
    DimensionError,
    EquilibriumOutcome,
    Leontief,
    PowerSum,
    PreconditionError,
    Scale,
    Shape,
    SolverConfig,
    bregman,
    equivalence_check,
    fixed_bundle_outcome,
    optimal_price_family,
    seller_optimal_linear_price,
    solve_auto,
    solve_concave,
    solve_convex,
    solve_general,
    verify_equilibrium,
)
from padd.graphs import cycle_graph, path_graph
from padd.funcs import GraphMinCost
from padd.instances import (
    capped_value_demo,
    concave_cost_demo,
    convex_cost_demo,
    equivalence_suite,
)
from padd import equilibrium, gridopt, response
from padd.equilibrium import _maximize
from padd.raygeom import ray_payment_batch, ray_payment_floor, ray_slope_sup

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

    def test_linear_value_against_convex_cost_stays_on_the_grid(self):
        # only a cost that is its own payment makes v - payment convex: the
        # payment 2x^2 of x^2 leaves 3x - 2x^2 its interior peak at 0.75
        out = solve_auto(Affine((3.0,), 0.0), PowerSum((1.0,), (2.0,)), BoxDomain(np.array([10.0])))
        assert abs(out.bundle[0] - 0.75) < 1e-6 and abs(out.payment - 1.125) < 1e-6

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
        out = solve_concave(v, GraphMinCost(g), BoxDomain(np.ones(3)))
        assert out.buyer_surplus == 2.0
        assert np.array_equal(out.bundle, [1.0, 0.0, 1.0])
        assert out.imitative.anchor == (1.0, 0.0, 1.0)
        assert out.unit_prices[1] == 0.0
        assert abs(float(out.unit_prices @ out.bundle) - out.payment) < 1e-12
        u = out.imitative
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
            sol = seller_optimal_linear_price(Leontief(tuple(out.bundle), out.payment), c, box)
            assert sol.verified
            assert np.max(np.abs(sol.bundle - out.bundle)) < 1e-6
            assert abs(float(sol.price @ sol.bundle) - out.payment) < 1e-6


def separable_games(value_exponent, cost_exponents, dims=(1, 2)):
    """Separable power games `sum a_i x_i^q` against `sum k_i x_i^p` in `dims` goods."""
    coef = st.floats(0.2, 5.0)

    @st.composite
    def games(draw):
        d = draw(st.sampled_from(dims))
        v = PowerSum([draw(coef) for _ in range(d)], (value_exponent,) * d)
        c = PowerSum([draw(coef) for _ in range(d)], [draw(cost_exponents) for _ in range(d)])
        return v, c, BoxDomain([draw(st.floats(1.0, 10.0)) for _ in range(d)])

    return games()


class TestPaperProperties:
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(separable_games(0.5, st.floats(1.2, 3.0)))
    def test_convex_cost_revenue_is_the_bregman_gap(self, game):
        v, c, box = game
        out = solve_auto(v, c, box)
        assert out.method == "convex_closed_form"
        gap = bregman(c, np.zeros(c.dim), out.bundle)
        assert out.seller_revenue == pytest.approx(gap, rel=1e-9, abs=0.0)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(separable_games(0.25, st.floats(0.3, 1.0)))
    def test_concave_cost_revenue_is_zero(self, game):
        v, c, box = game
        out = solve_auto(v, c, box)
        assert out.method == "concave_closed_form"
        assert out.seller_revenue == 0.0


@st.composite
def one_good_power_games(draw, value_exponents, cost_exponents, cost_coef):
    """1-d games `v = a x^p`, `c = b x^q` on `[0, U]`, as (v, c, box, s): the
    stationary point s of v - payment is drawn, and `cost_coef(a, p, q, s)`
    solves b from it, so s lands both inside and beyond the box."""
    a, p, q = draw(st.floats(0.5, 5.0)), draw(value_exponents), draw(cost_exponents)
    s = draw(st.floats(0.05, 40.0))
    v, c = PowerSum((a,), (p,)), PowerSum((cost_coef(a, p, q, s),), (q,))
    return v, c, BoxDomain([draw(st.floats(1.0, 50.0))]), s


class TestOneGoodStationaryPoints:
    """The solved bundle is the stationary point of v - payment, clipped to
    the box: payment `x c'(x) = b q x^q` for convex costs gives
    `x^(q-p) = a p / (b q^2)`, payment `c(x)` for concave costs
    `x^(p-q) = b q / (a p)` (a maximum for p < q)."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(one_good_power_games(st.floats(0.2, 0.8), st.floats(1.2, 3.0), lambda a, p, q, s: a * p / (q * q * s ** (q - p))))
    def test_convex_cost(self, game):
        v, c, box, s = game
        out = solve_auto(v, c, box)
        assert out.method == "convex_closed_form"
        (a,), (p,), (b,), (q,) = v.coeffs, v.exponents, c.coeffs, c.exponents
        assert s ** (q - p) == pytest.approx(a * p / (b * q * q), rel=1e-12)
        assert out.bundle[0] == pytest.approx(min(s, box.upper[0]), rel=1e-6, abs=0.0)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(one_good_power_games(st.floats(0.1, 0.4), st.floats(0.6, 1.0), lambda a, p, q, s: a * p * s ** (p - q) / q))
    def test_concave_cost(self, game):
        v, c, box, s = game
        out = solve_auto(v, c, box)
        assert out.method == "concave_closed_form"
        (a,), (p,), (b,), (q,) = v.coeffs, v.exponents, c.coeffs, c.exponents
        assert s ** (p - q) == pytest.approx(b * q / (a * p), rel=1e-12)
        assert out.bundle[0] == pytest.approx(min(s, box.upper[0]), rel=1e-6, abs=0.0)


CONVEX_COEF = lambda a, p, q, s: a * p / (q * q * s ** (q - p))  # noqa: E731
CONCAVE_COEF = lambda a, p, q, s: a * p * s ** (p - q) / q  # noqa: E731
CONVEX_GOOD = (st.floats(0.2, 0.8), st.floats(1.2, 3.0), CONVEX_COEF)
CONCAVE_GOOD = (st.floats(0.1, 0.4), st.floats(0.6, 1.0), CONCAVE_COEF)


@st.composite
def per_good_power_games(draw, good, dims=(2, 3, 4)):
    """d-good separable games whose good i is a `one_good_power_games` game
    drawn with `good` = (value exponents, cost exponents, cost_coef), as
    (v, c, box, s) with s the goods' stationary points."""
    goods = [draw(one_good_power_games(*good)) for _ in range(draw(st.sampled_from(dims)))]
    v = PowerSum([g[0].coeffs[0] for g in goods], [g[0].exponents[0] for g in goods])
    c = PowerSum([g[1].coeffs[0] for g in goods], [g[1].exponents[0] for g in goods])
    box = BoxDomain([g[2].upper[0] for g in goods])
    return v, c, box, np.array([g[3] for g in goods])


def closed_objective(v, c):
    """`_solve`'s objective `v - payment` at the default ray grid."""
    return lambda xs: v.values(xs) - ray_payment_batch(c, xs)


class TestPerGoodSearch:
    """Separable games with a closed payment form solve one good at a time:
    each coordinate lands on its good's stationary point clipped to the box,
    and the search agrees with the full grid of `_maximize` to 1e-6
    relative in every coordinate (seen: 2e-7) and 1e-12 relative in the
    objective (seen: 3e-16)."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.sampled_from(["convex", "concave"]).flatmap(
        lambda kind: st.tuples(st.just(kind), per_good_power_games(CONVEX_GOOD if kind == "convex" else CONCAVE_GOOD))
    ))
    def test_stationary_points_and_verification(self, case):
        kind, (v, c, box, s) = case
        out = solve_auto(v, c, box)
        assert out.method == f"{kind}_closed_form"
        np.testing.assert_allclose(out.bundle, np.minimum(s, box.upper), rtol=1e-6, atol=0.0)
        assert verify_equilibrium(out, v, c, box).passed

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(st.sampled_from([CONVEX_GOOD, CONCAVE_GOOD]).flatmap(per_good_power_games))
    def test_agrees_with_the_full_grid(self, game):
        v, c, box, _ = game
        cfg = SolverConfig()
        x_grid, best_grid = _maximize(closed_objective(v, c), box, cfg)
        x_good, best_good = equilibrium._maximize_per_good(closed_objective(v, c), box, cfg)
        np.testing.assert_allclose(x_good, x_grid, rtol=1e-6, atol=0.0)
        assert best_good == pytest.approx(best_grid, rel=1e-12, abs=0.0)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.sampled_from([CONVEX_GOOD, CONCAVE_GOOD]).flatmap(lambda good: one_good_power_games(*good)))
    def test_one_good_is_bit_identical_to_the_grid(self, game):
        v, c, box, _ = game
        cfg = SolverConfig()
        for top_k, passes in ((3, 2), (1, 1)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(equilibrium, "REFINE_TOP_K", top_k)
                mp.setattr(equilibrium, "REFINE_PASSES", passes)
                x_grid, best_grid = _maximize(closed_objective(v, c), box, cfg)
                x_good, best_good = equilibrium._maximize_per_good(closed_objective(v, c), box, cfg)
            assert x_good.tobytes() == x_grid.tobytes()
            assert np.float64(best_good).tobytes() == np.float64(best_grid).tobytes()

    @pytest.mark.parametrize("upper", [[1.0], [3.71], [3.71, 2.3], [1.0, 1.0]])
    def test_upper_face_is_exact(self, upper):
        # 100 sqrt(x) - 2 x^2 rises up to x = 12.5^(2/3) = 5.39: the optimum is
        # the upper face, which the refinement from the grid point next to it
        # used to miss by an ulp
        d = len(upper)
        v, c, box = PowerSum((100.0,) * d, (0.5,) * d), PowerSum((1.0,) * d, (2.0,) * d), BoxDomain(upper)
        assert solve_auto(v, c, box).bundle.tolist() == upper
        x_grid, _ = _maximize(closed_objective(v, c), box, SolverConfig())
        assert x_grid.tolist() == upper

    def test_four_good_solve_evaluates_axis_rows_only(self, monkeypatch):
        v, c, box = PowerSum((8.0,) * 4, (0.5,) * 4), PowerSum((1.0, 1.5, 2.0, 2.5), (2.0,) * 4), BoxDomain(np.full(4, 5.0))
        cfg = SolverConfig()
        rows = []
        values = v.values

        def counting(xs):
            rows.append(len(xs))
            return values(xs)

        monkeypatch.setattr(v, "values", counting)
        out = solve_auto(v, c, box, cfg)
        assert out.method == "convex_closed_form" and out.trade
        # golden steps of a bracket of width 2 * spacing; each search's first
        # call evaluates lo, hi, c and d of every bracket, each later call
        # 2**depth - 1 positions of every bracket for its next `depth` steps
        n = cfg.points(1)
        steps = math.ceil(math.log(gridopt._GOLDEN_TOL / (2 * 5.0 / (n - 1))) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
        per_bracket, left = 4, steps - 1
        while left > 0:
            per_bracket += 2 ** min(gridopt._GOLDEN_LOOKAHEAD, left) - 1
            left -= gridopt._GOLDEN_LOOKAHEAD
        brackets = equilibrium.REFINE_TOP_K * 4
        refinement = equilibrium.REFINE_PASSES * brackets * per_bracket + brackets
        # the grid path evaluated all 21^4 = 194,481 grid rows
        assert sum(rows) <= 4 * n + refinement + 8 < 21**4

    @pytest.mark.parametrize(
        "game",
        [
            (Leontief((1.0, 2.0), 3.0), PowerSum((1.0, 1.0), (2.0, 2.0)), "grid"),
            (MinOfAffine([Affine((2.0, 1.0), 0.0), Affine((0.0, 0.0), 3.0)]), PowerSum((1.0, 1.0), (2.0, 2.0)), "grid"),
            (
                PowerSum((20.0, 10.0), (0.5, 0.5)),
                Sum([PowerSum((1.0, 1.0), (2.0, 2.0)), PowerSum((1.0, 1.0), (0.5, 0.5))]),
                "grid",
            ),
            (Affine((3.0, 3.0), 0.0), PowerSum((1.0, 1.0), (0.5, 0.5)), "corners"),
            (PowerSum((8.0, 4.0), (0.5, 0.5)), PowerSum((1.0, 0.5), (2.0, 2.0)), "per_good"),
        ],
        ids=["leontief_value", "min_of_affine_value", "general_cost", "linear_value_concave_cost", "separable"],
    )
    def test_dispatch(self, monkeypatch, game):
        v, c, path = game
        taken = []
        for name in ("_maximize", "_maximize_per_good"):
            search = getattr(equilibrium, name)
            monkeypatch.setattr(
                equilibrium, name, lambda *args, _name=name, _search=search: taken.append(_name) or _search(*args)
            )
        out = solve_general(v, c, BoxDomain([5.0, 5.0]), SolverConfig(grid_points={1: 2001, 2: 21}))
        assert out.trade
        assert taken == {"grid": ["_maximize"], "corners": [], "per_good": ["_maximize_per_good"]}[path]

    def test_five_goods_refused_before_any_objective_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(equilibrium, "ray_payment_batch", lambda *args: calls.append(args))
        v, c = PowerSum((8.0,) * 5, (0.5,) * 5), PowerSum((1.0,) * 5, (2.0,) * 5)
        with pytest.raises(PreconditionError, match="no grid density configured for dimension 5"):
            solve_auto(v, c, BoxDomain(np.full(5, 5.0)))
        assert calls == []


def assert_same_outcome_bits(general, special):
    """Everything but the method tag is bit-identical."""
    assert general.method == "general" and special.method != "general"
    a, b = general.to_dict(), special.to_dict()
    del a["method"], b["method"]
    assert json.dumps(a) == json.dumps(b)  # repr of every float: equal text is equal bits


class TestGeneralSolverAgreesBitForBit:
    def test_equivalence_suite(self):
        for name, v, c, box in equivalence_suite():
            special = solve_convex if c.shape is Shape.CONVEX else solve_concave
            assert_same_outcome_bits(solve_general(v, c, box), special(v, c, box))

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(separable_games(0.5, st.floats(1.0, 3.0), dims=(1, 2, 3, 4)))
    def test_convex_games(self, game):
        v, c, box = game
        assert_same_outcome_bits(solve_general(v, c, box), solve_convex(v, c, box))

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(separable_games(0.25, st.floats(0.3, 1.0), dims=(1, 2, 3, 4)))
    def test_concave_games(self, game):
        v, c, box = game
        assert_same_outcome_bits(solve_general(v, c, box), solve_concave(v, c, box))


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
        res = fixed_bundle_outcome(v, c, (4.0,))
        assert res.payment == 32.0
        assert res.buyer_surplus == 96.0
        assert isinstance(res.imitative, Leontief)

    def test_concave_demo_bundle(self):
        v, c, _ = concave_cost_demo()
        res = fixed_bundle_outcome(v, c, (16.0,))
        assert res.payment == 4.0
        assert res.buyer_surplus == 4.0

    def test_unit_bundle_cross_checked(self):
        # x * c'(x) = 2 at x = 1; cross-check against the chord-slope oracle
        v, c, _ = convex_cost_demo()
        res = fixed_bundle_outcome(v, c, (1.0,))
        assert res.payment == 2.0
        alphas = np.linspace(0.0, 1.0 - 1e-6, 10001)
        sup = max((c.value((1.0,)) - c.value((a,))) / (1.0 - a) for a in alphas)
        assert abs(res.payment - sup) < 1e-4

    def test_zero_coordinate_rejected(self):
        v, c, _ = convex_cost_demo()
        with pytest.raises(PreconditionError):
            fixed_bundle_outcome(v, c, (0.0,))


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

    @pytest.mark.parametrize(
        "coeffs", [(0.628, 0.855, 1.702), (1.923, 0.968, 1.135, 1.742)], ids=["convex_3d", "convex_4d"]
    )
    def test_exactly_feasible_outcome_reports_no_violation(self, coeffs):
        # the fraction a = 1 is the bundle itself, so its margin is the
        # reference: a separate scalar c(x) once rounded to 4.4e-16 here
        d = len(coeffs)
        v, c, box = PowerSum((8.0,) * d, (0.5,) * d), PowerSum(coeffs, (2.0,) * d), BoxDomain(np.full(d, 5.0))
        out = solve_auto(v, c, box)
        check = verify_equilibrium(out, v, c, box).checks[0]
        assert out.method == "convex_closed_form"
        assert check.passed and check.worst_violation == 0.0

    def test_no_trade_vacuous(self):
        box = BoxDomain(np.array([100.0]))
        out = solve_auto(SQRT, SQRT, box)
        report = verify_equilibrium(out, SQRT, SQRT, box)
        assert report.vacuous and report.passed

    def test_even_split_prices_the_payment(self):
        v, c, box = (
            PowerSum((8.0, 4.0), (0.5, 0.5)),
            PowerSum((1.0, 0.5), (2.0, 2.0)),
            BoxDomain(np.array([5.0, 5.0])),
        )
        out = solve_auto(v, c, box)
        assert out.price_split.tolist() == [0.5, 0.5]
        assert abs(float(out.unit_prices @ out.bundle) - out.payment) < 1e-12
        assert verify_equilibrium(out, v, c, box).passed


class TestVerifyAcceptsSolvedGames:
    """Every game a solver accepts must also be accepted by verification."""

    def test_vertex_enumeration_graph_game(self):
        # 6 goods: beyond the grid densities, but a linear value against a
        # concave cost solves on the box corners, and the anchored
        # commitment's best responses need no grid
        v, c, box = Affine((3.0,) * 6, 0.0), GraphMinCost(cycle_graph(6)), BoxDomain(np.ones(6))
        out = solve_auto(v, c, box)
        assert np.array_equal(out.bundle, np.ones(6)) and out.payment == 6.0
        assert verify_equilibrium(out, v, c, box).passed

    @pytest.mark.parametrize(
        "graph", [path_graph(3), cycle_graph(4), cycle_graph(6)], ids=["path3", "cycle4", "cycle6"]
    )
    def test_zero_payment_graph_game(self, graph):
        # unit values against the graph cost: the buyer takes an independent
        # set for free, and the zero commitment must still verify
        n = graph.node_count
        v, c, box = Affine((1.0,) * n), GraphMinCost(graph), BoxDomain(np.ones(n))
        out = solve_auto(v, c, box)
        assert out.trade and out.payment == 0.0
        assert isinstance(out.imitative, Leontief)
        assert verify_equilibrium(out, v, c, box).passed

    def test_five_goods_with_configured_grid(self):
        cfg = SolverConfig(grid_points={**SolverConfig().grid_points, 5: 7})
        v = PowerSum((8.0,) * 5, (0.5,) * 5)
        c = PowerSum((1.0, 1.5, 2.0, 2.5, 3.0), (2.0,) * 5)
        box = BoxDomain(np.full(5, 5.0))
        out = solve_auto(v, c, box, cfg)
        assert out.method == "convex_closed_form" and out.trade
        assert verify_equilibrium(out, v, c, box, cfg=cfg).passed

    def test_fifty_separable_goods_solve_verify_and_match_concave_pricing(self):
        # 8 sqrt(x) - 2 k x^2 is stationary at k^(-2/3); the 50-good density
        # (2 points per axis) only admits the dimension, no grid is scanned
        k = np.linspace(0.5, 2.0, 50)
        v, c, box = PowerSum((8.0,) * 50, (0.5,) * 50), PowerSum(tuple(k), (2.0,) * 50), BoxDomain(np.full(50, 5.0))
        cfg = SolverConfig(grid_points={1: 2001, 50: 2})
        out = solve_auto(v, c, box, cfg)
        assert out.method == "convex_closed_form" and out.trade
        np.testing.assert_allclose(out.bundle, k ** (-2.0 / 3.0), rtol=1e-6, atol=0.0)
        assert verify_equilibrium(out, v, c, box, cfg=cfg).passed
        rep = equivalence_check(v, c, box, cfg)
        assert rep.equivalent and rep.rich_bundle.tolist() == out.bundle.tolist()

    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_ray_searches_per_verification_do_not_grow_with_goods(self, monkeypatch, d):
        # the split-price response and the seller's ray pick, not one per
        # good, even where the seller's price charges the level only to
        # within rounding (here at d = 4)
        v, c, box = PowerSum((8.0,) * d, (0.5,) * d), PowerSum((1.0, 1.5, 2.0, 2.5)[:d], (2.0,) * d), BoxDomain(np.full(d, 5.0))
        out = solve_auto(v, c, box)
        picks = []
        ray_pick = response._ray_pick
        monkeypatch.setattr(response, "_ray_pick", lambda *args: picks.append(args) or ray_pick(*args))
        assert verify_equilibrium(out, v, c, box).passed
        assert len(picks) == 2


SUBNORMALS = [5e-324, 1e-310, 2.2e-308]
METHODS = [equilibrium.METHOD_GENERAL, equilibrium.METHOD_CONVEX, equilibrium.METHOD_CONCAVE, equilibrium.METHOD_FIXED]


@st.composite
def outcomes(draw):
    """Trade and no-trade outcomes with 1-4 goods, signed zeros and
    subnormals in the bundle and the payment."""
    d = draw(st.integers(1, 4))
    coordinate = st.one_of(st.sampled_from([0.0, -0.0, *SUBNORMALS]), st.floats(1e-3, 1e3))
    bundle = np.array(draw(st.lists(coordinate, min_size=d, max_size=d)))
    if np.any(bundle > 0):
        payment = draw(st.one_of(st.sampled_from([0.0, -0.0, *SUBNORMALS]), st.floats(1e-3, 1e3)))
    else:
        payment = draw(st.sampled_from([0.0, -0.0]))
    real = st.one_of(st.sampled_from([0.0, -0.0, *SUBNORMALS]), st.floats(-1e3, 1e3))
    return EquilibriumOutcome(bundle, payment, draw(real), draw(real), draw(st.sampled_from(METHODS)))


class TestOutcomeSerialization:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(outcomes())
    def test_drawn_outcomes_round_trip_through_json_byte_identical(self, out):
        text = json.dumps(out.to_dict())
        back = EquilibriumOutcome.from_dict(json.loads(text))
        assert json.dumps(back.to_dict()) == text
        assert back.trade == out.trade

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(outcomes())
    def test_drawn_split_is_even_over_the_goods_bought(self, out):
        support = out.bundle > 0
        want = np.where(support, 1.0 / max(int(support.sum()), 1), 0.0)
        assert out.price_split.tobytes() == want.tobytes()

    def test_a_subnormal_amount_prices_without_a_warning(self):
        # its unit price overflows to inf; a good with no weight still costs 0
        bundle = np.array([5e-324, 2.0])
        assert EquilibriumOutcome(bundle, 1.0, 0.0, 1.0, "grid").unit_prices.tolist() == [math.inf, 0.25]
        assert optimal_price_family(bundle, 1.0, [0.0, 1.0]).tolist() == [0.0, 0.5]

    def test_round_trip(self):
        v, c, box = convex_cost_demo()
        out = solve_auto(v, c, box)
        back = EquilibriumOutcome.from_dict(out.to_dict())
        assert back.method == out.method
        assert np.array_equal(back.bundle, out.bundle)
        assert back.payment == out.payment
        assert np.array_equal(back.unit_prices, out.unit_prices)

    @staticmethod
    def outcomes():
        # a trade, no trade, a boundary outcome with an absent good, a trade of two goods, a fixed bundle
        v, c, box = convex_cost_demo()
        two = (PowerSum((8.0, 4.0), (0.5, 0.5)), PowerSum((1.0, 0.5), (2.0, 2.0)), BoxDomain(np.array([5.0, 5.0])))
        return {
            "trade": solve_auto(v, c, box),
            "no_trade": solve_auto(SQRT, SQRT, BoxDomain(np.array([100.0]))),
            "boundary": solve_concave(Affine((1.0, 1.0, 1.0), 0.0), GraphMinCost(path_graph(3)), BoxDomain(np.ones(3))),
            "two_goods": solve_auto(*two),
            "fixed_bundle": fixed_bundle_outcome(v, c, (4.0,)),
        }

    @pytest.mark.parametrize("name", ["boundary", "two_goods", "no_trade"])
    def test_dict_round_trip_is_identical(self, name):
        # a trade with an absent good, a trade of every good, no trade
        out = self.outcomes()[name]
        back = EquilibriumOutcome.from_dict(out.to_dict())
        assert back.to_dict() == out.to_dict()
        assert back.price_split.tobytes() == out.price_split.tobytes()

    def test_json_round_trip_is_byte_identical(self):
        for name, out in self.outcomes().items():
            text = json.dumps(out.to_dict())
            assert json.dumps(EquilibriumOutcome.from_dict(json.loads(text)).to_dict()) == text, name

    def test_commitment_is_the_leontief_of_bundle_and_payment(self, rng):
        for name, out in self.outcomes().items():
            xs = rng.uniform(0.0, 2.0 * out.bundle.max() + 1.0, size=(200, out.bundle.size))
            if out.trade:
                want = Leontief(tuple(out.bundle), out.payment).values(xs)
            else:
                want = np.zeros(len(xs))
            assert out.imitative.values(xs).tolist() == want.tolist(), name

    def test_derived_keys_are_not_read(self):
        # a file whose commitment, split or unit prices disagree with its
        # bundle loads the commitment, split and prices of the bundle it traded
        out = self.outcomes()["two_goods"]
        obj = out.to_dict()
        obj["imitative"] = {"anchor": [9.0, 9.0], "payment": 1.0}
        obj["price_split"] = [0.25, 0.75]
        obj["unit_prices"] = [1.0, 2.0]
        assert EquilibriumOutcome.from_dict(obj).to_dict() == out.to_dict()

    @pytest.mark.parametrize(
        "bundle, payment, says",
        [
            ([1.0], -1.0, "payment must be non-negative"),
            ([1.0], math.nan, "payment must be non-negative"),
            ([math.nan], 1.0, "bundle coordinates must be finite"),
            ([0.0, 0.0], 2.0, "positive payment needs a non-zero bundle"),
        ],
        ids=["negative_payment", "nan_payment", "nan_bundle", "payment_without_trade"],
    )
    def test_from_dict_refuses_an_inconsistent_outcome(self, bundle, payment, says):
        obj = self.outcomes()["trade"].to_dict()
        obj.update(bundle=bundle, payment=payment)
        with pytest.raises(PreconditionError, match=says):
            EquilibriumOutcome.from_dict(obj)

    def test_zero_weight_on_an_absent_good_round_trips(self):
        out = self.outcomes()["boundary"]
        assert out.bundle.tolist() == [1.0, 0.0, 1.0] and out.price_split.tolist() == [0.5, 0.0, 0.5]
        obj = out.to_dict()
        obj["price_split"] = [0.5, -0.0, 0.5]
        assert EquilibriumOutcome.from_dict(obj).to_dict()["unit_prices"] == obj["unit_prices"]


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

    @pytest.mark.parametrize("xbar", [1e200, 1e154])
    def test_overflowing_commitment_is_refused(self, xbar):
        # x^2 + sqrt(x) overflows at 1e200; at 1e154 the cost is finite but its
        # ray payment is not (they gave payment inf, or seller revenue NaN)
        c = Sum([PowerSum((1.0,), (2.0,)), SQRT])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="value, cost and payment must be finite at the trade bundle"):
                fixed_bundle_outcome(SQRT, c, (xbar,))


class TestInstancePreconditions:
    def test_dimensions_that_disagree_are_named(self):
        with pytest.raises(DimensionError, match="dimensions disagree: value 1, cost 2, domain 1"):
            solve_auto(SQRT, PowerSum((1.0, 1.0), (2.0, 2.0)), BoxDomain(np.array([10.0])))

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


class TestLargeBoxes:
    def test_a_1e100_box_trades_as_the_small_one_does(self):
        # a golden bracket of width 1e100 runs all its steps down to the tolerance,
        # so the refinement reaches the trade bundle near 1.842 from the grid's first cell
        v, c = Scale(20.0, SQRT), PowerSum((1.0,), (2.0,))
        small = solve_auto(v, c, BoxDomain(np.array([10.0])))
        box = BoxDomain(np.array([1e100]))
        big = solve_auto(v, c, box)
        assert small.trade and big.trade
        assert math.isclose(big.bundle[0], small.bundle[0], rel_tol=1e-6)
        assert abs(big.buyer_surplus - small.buyer_surplus) <= 1e-9
        assert verify_equilibrium(big, v, c, box).passed


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


REMOVED_OPTIONS = {
    "refine_top_k", "refine_passes", "golden_tol", "tie_tol", "bundle_tol", "no_trade_tol",
    "eps_limit", "vertex_enumeration", "ray_grid_n", "lambda_split",
}


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
            {"grid_points": [3]},
            {"grid_points": "2001"},
            {"grid_points": {1: 2001.0}},
            {"grid_points": {1: True}},
            {"refine_top_k": 2.5},
            {"refine_passes": True},
            {"ray_grid_n": "101"},
            {"vertex_enumeration": "false"},
            {"vertex_enumeration": 1},
            {"tie_tol": "1e-8"},
            {"eps_limit": None},
            {"lambda_split": (math.nan, math.nan)},
            {"lambda_split": (math.inf, 0.0)},
            {"lambda_split": (1.5, -0.5)},
            {"lambda_split": (0.5, 0.4)},
        ],
    )
    def test_invalid_option_rejected(self, option):
        (name, value), = option.items()
        if name in REMOVED_OPTIONS:
            # no longer options: tolerances, refinement counts and the ray
            # grid are module constants, the solver derives corner
            # enumeration from the game's shapes and the outcome its split
            with pytest.raises(TypeError):
                SolverConfig(**option)
            with pytest.raises(ValueError, match=rf"unknown solver options: \['{name}'\]"):
                SolverConfig.from_dict({name: value})
            return
        with pytest.raises(ValueError, match=f"solver option {name} "):
            SolverConfig(**option)
        if isinstance(value, dict):  # JSON object keys are strings
            value = {str(d): n for d, n in value.items()}
        with pytest.raises(ValueError, match=f"solver option {name} "):
            SolverConfig.from_dict({name: value})

    def test_non_integer_grid_dimension_rejected(self):
        with pytest.raises(ValueError, match="solver option grid_points "):
            SolverConfig.from_dict({"grid_points": {"1.5": 2001}})

    def test_grid_points_is_the_one_field(self):
        assert [f.name for f in fields(SolverConfig)] == ["grid_points"]
        assert SolverConfig().grid_points == {1: 2001, 2: 201, 3: 51, 4: 21}

    def test_defaults_and_round_trip_accepted(self):
        for cfg in (SolverConfig(), SolverConfig(grid_points={1: 3, 7: 2})):
            obj = {"grid_points": {str(d): n for d, n in cfg.grid_points.items()}}  # JSON object keys are strings
            assert SolverConfig.from_dict(json.loads(json.dumps(obj))) == cfg
        assert SolverConfig.from_dict({}) == SolverConfig()


def _general_objective(v, c):
    """The buyer's objective and its upper bound, as `solve_general` builds them."""

    def batch(xs):
        return v.values(xs) - ray_payment_batch(c, xs)

    def bound(xs):
        return v.values(xs) - ray_payment_floor(c, xs)

    return batch, bound


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


class TestDefaultRayGrid:
    """Solves and fixed bundles pay the ray-slope supremum on `raygeom`'s
    own grid, which no option changes."""

    @pytest.mark.parametrize("instance", [MIXED_1D, KINKED_1D, MIXED_2D], ids=["mixed_1d", "kinked_1d", "mixed_2d"])
    def test_payments_are_the_default_grid_supremum(self, instance):
        v, c, box, grid = instance
        out = solve_general(v, c, box, SolverConfig(grid_points=grid))
        assert out.trade and np.all(out.bundle > 0)
        assert out.payment == float(ray_payment_batch(c, out.bundle[None, :])[0])
        assert fixed_bundle_outcome(v, c, out.bundle).payment == ray_slope_sup(c, out.bundle)


class TestPrunedGrid:
    @pytest.mark.parametrize("instance", [MIXED_1D, KINKED_1D, MIXED_2D], ids=["mixed_1d", "kinked_1d", "mixed_2d"])
    @pytest.mark.parametrize("top_k", [1, 3], ids=["top1", "top3"])
    def test_bound_leaves_maximizer_bit_identical(self, monkeypatch, instance, top_k):
        v, c, box, grid = instance
        monkeypatch.setattr(equilibrium, "REFINE_TOP_K", top_k)
        cfg = SolverConfig(grid_points=grid)
        batch, bound = _general_objective(v, c)
        x_all, best_all = _maximize(batch, box, cfg)
        x_pruned, best_pruned = _maximize(batch, box, cfg, bound_batch=bound)
        assert x_pruned.tobytes() == x_all.tobytes()
        assert np.float64(best_pruned).tobytes() == np.float64(best_all).tobytes()

    def test_single_surviving_row_gets_whole_grid_bits(self):
        # a block pruned down to a single row is evaluated as a one-row batch,
        # and must still see the bits that the whole-grid evaluation gives
        # that row: node values may not depend on the batch around a row
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
        vals = equilibrium._pruned_values(v.values, bound, pts.__getitem__, 1)
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
        vals = equilibrium._pruned_values(lambda xs: obj[xs[:, 0].astype(int)], bound, pts.__getitem__, top_k)
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
        vals = equilibrium._pruned_values(lambda xs: obj[xs[:, 0].astype(int)], bound, pts.__getitem__, 1)
        assert vals[-1] == 9.0
        assert np.isinf(vals[n // 2])

    @pytest.mark.parametrize("instance", [MIXED_1D, KINKED_1D, MIXED_2D], ids=["mixed_1d", "kinked_1d", "mixed_2d"])
    def test_bound_is_above_objective(self, instance):
        v, c, box, grid = instance
        cfg = SolverConfig(grid_points=grid)
        batch, bound = _general_objective(v, c)
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
        # one block of grid rows, then only the golden refinement's small batches
        assert rows[0] == equilibrium._PRUNE_BLOCK and max(rows[1:]) < equilibrium._PRUNE_BLOCK
        assert sum(rows) < grid[1]

    @pytest.mark.parametrize(
        "instance,grid",
        [(MIXED_1D, {1: 2001}), (KINKED_1D, {1: 2001}), (MIXED_2D, {2: 101})],
        ids=["mixed_1d", "kinked_1d", "mixed_2d"],
    )
    def test_end_slope_floor_leaves_one_block_of_grid_rows(self, monkeypatch, instance, grid):
        # the last slope bounds these payments tightly; the a = 0 slope alone
        # leaves 587 to 1,107 rows to evaluate
        v, c, box, _ = instance
        evaluated = []
        pruned_values = equilibrium._pruned_values

        def counting(obj_batch, bound, rows, k):
            def obj(xs):
                evaluated.append(len(xs))
                return obj_batch(xs)

            return pruned_values(obj, bound, rows, k)

        monkeypatch.setattr(equilibrium, "_pruned_values", counting)
        out = solve_general(v, c, box, SolverConfig(grid_points=grid))
        assert out.trade
        assert evaluated == [equilibrium._PRUNE_BLOCK]

    @pytest.mark.parametrize("instance", [TIGHT_1D, TIGHT_2D], ids=["tight_1d", "tight_2d"])
    def test_tight_bound_equals_objective(self, instance):
        v, c, box, grid = instance
        cfg = SolverConfig(grid_points=grid)
        batch, bound = _general_objective(v, c)
        pts = box.grid(cfg.points(box.dim))
        assert np.array_equal(bound(pts), batch(pts))

    @pytest.mark.parametrize(
        "instance,top_k", [(TIGHT_1D, 1), (TIGHT_2D, 2), (TIGHT_2D, 3)], ids=["tight_1d-1", "tight_2d-2", "tight_2d-3"]
    )
    def test_tight_bound_keeps_argmax_and_tie_break(self, monkeypatch, instance, top_k):
        v, c, box, grid = instance
        monkeypatch.setattr(equilibrium, "REFINE_TOP_K", top_k)
        cfg = SolverConfig(grid_points=grid)
        batch, bound = _general_objective(v, c)
        x_all, best_all = _maximize(batch, box, cfg)
        x_pruned, best_pruned = _maximize(batch, box, cfg, bound_batch=bound)
        assert x_pruned.tobytes() == x_all.tobytes()
        assert np.float64(best_pruned).tobytes() == np.float64(best_all).tobytes()

    def test_tight_2d_grid_ties_second_and_third(self):
        # rows 2 and 3 of the stable top-3 are mirror images with equal values,
        # so REFINE_TOP_K = 2 cuts through a tie that the pruning must respect
        v, c, box, grid = TIGHT_2D
        cfg = SolverConfig(grid_points=grid)
        batch, _ = _general_objective(v, c)
        pts = box.grid(cfg.points(box.dim))
        vals = batch(pts)
        top = np.argsort(-vals, kind="stable")[:3]
        assert vals[top[1]] == vals[top[2]]
        assert pts[top[1]].tolist() == pts[top[2]][::-1].tolist()
