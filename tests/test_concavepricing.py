import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from padd import (
    Affine,
    BoxDomain,
    Leontief,
    MinOfAffine,
    PowerSum,
    PreconditionError,
    Scale,
    best_concave_price,
    equivalence_check,
    fixed_bundle_outcome,
    overfit_scenario,
    solve_auto,
)
from padd.concavepricing import OVERFIT_EPS_MAX, OVERFIT_EPS_SWITCH
from padd.instances import capped_value_demo, convex_cost_demo, equivalence_suite
from sampling import sample_box

SQUARE = PowerSum((1.0,), (2.0,))
SQRT = PowerSum((1.0,), (0.5,))
BOX100 = BoxDomain(np.array([100.0]))


class TestBestConcavePrice:
    def test_anchored_commitment_trades_at_anchor(self):
        # u - c is zero at 0 and at the anchor; the payment tie-break
        # picks the trade over the empty bundle
        u = Leontief((16.0,), 4.0)
        res = best_concave_price(u, SQRT, BOX100)
        assert np.allclose(res.bundle, [16.0])
        assert abs(res.revenue) < 1e-12

    @pytest.mark.parametrize(
        "u",
        [Affine((0.0,), 0.0), PowerSum((1.0,), (0.5,)), MinOfAffine([Affine((1.0,), 0.0), Affine((0.0,), 0.0)])],
        ids=["zero", "sqrt", "zero_level_cap"],
    )
    def test_refuses_a_report_that_is_no_anchored_commitment(self, u):
        # min(x, 0) has the capped-line form, but its zero level anchors at the origin
        with pytest.raises(PreconditionError, match="^committed value function must be an anchored commitment$"):
            best_concave_price(u, SQRT, BOX100)

    def test_anchored_report_trades_at_its_anchor(self):
        res = best_concave_price(Leontief((4.0,), 32.0), SQUARE, BOX100)
        assert np.allclose(res.bundle, [4.0])
        assert abs(res.revenue - 16.0) < 1e-9

    def test_revenue_is_the_gap_at_the_returned_bundle(self):
        # the revenue is u - c at the bundle itself, not the best gap of the
        # candidate pool (which read 1.1e-16 for a bundle whose gap is 0)
        checked = 0
        for name, v, c, box in equivalence_suite():
            out = solve_auto(v, c, box)
            if out.trade:
                u = out.imitative
                res = best_concave_price(u, c, box)
                assert res.revenue == max(u.value(res.bundle) - c.value(res.bundle), 0.0), name
                checked += 1
        assert checked == 10


class TestFopIdentity:
    def test_concave_cost_examples(self):
        out = fixed_bundle_outcome(Scale(4.0, PowerSum((1.0,), (0.25,))), SQRT, (16.0,))
        assert out.payment == 4.0 and out.bundle.tolist() == [16.0]
        out = fixed_bundle_outcome(Scale(64.0, SQRT), SQUARE, (4.0,))
        assert out.payment == 32.0
        out = fixed_bundle_outcome(Scale(2.0, SQRT), Affine((1.5,), 0.0), (2.0,))
        assert out.payment == 3.0  # linear cost: payment equals the cost


class TestEquivalence:
    def test_suite_agrees(self):
        suite = equivalence_suite()
        assert len(suite) >= 10
        for name, v, c, box in suite:
            rep = equivalence_check(v, c, box)
            assert rep.equivalent, (name, rep)

    @pytest.mark.parametrize(
        "kind,coef",
        [
            ("convex", (1.268, 1.926, 0.716)),
            ("convex", (0.638, 1.4, 1.593, 0.782)),
            ("concave", (2.368, 2.495, 2.025)),
            ("concave", (2.506, 2.135, 2.389, 2.602)),
        ],
        ids=["convex_3d", "convex_4d", "concave_3d", "concave_4d"],
    )
    def test_separable_games_in_three_and_four_goods(self, kind, coef):
        # the rich side must follow the committed anchor's ray: raising one
        # coordinate at a time never raises min_i x_i / anchor_i
        d = len(coef)
        if kind == "convex":
            v, c = PowerSum((8.0,) * d, (0.5,) * d), PowerSum(coef, (2.0,) * d)
        else:
            v, c = PowerSum(coef, (0.25,) * d), PowerSum((1.0,) * d, (0.5,) * d)
        rep = equivalence_check(v, c, BoxDomain(np.full(d, 5.0)))
        assert rep.linear.trade and rep.equivalent, rep
        assert rep.rich_bundle.tolist() == rep.linear.bundle.tolist()

    def test_no_trade_instance(self):
        rep = equivalence_check(SQRT, SQRT, BOX100)
        assert rep.equivalent
        assert not rep.linear.trade and rep.rich_revenue == 0.0

    def test_commitment_feasibility_sampled(self, rng):
        # the committed value never gives the seller a strictly better
        # bundle than the intended one
        for v, c, box in (convex_cost_demo(), capped_value_demo()):
            from padd import solve_auto

            out = solve_auto(v, c, box)
            u = fixed_bundle_outcome(v, c, out.bundle).imitative
            at_bundle = u.value(out.bundle) - c.value(out.bundle)
            zs = sample_box(box, rng, 1000)
            gaps = u.values(zs) - c.values(zs)
            assert np.all(gaps <= at_bundle + 1e-9)


class TestOverfitScenario:
    def test_reference_epsilon(self):
        r = overfit_scenario(0.05)
        assert abs(r.linear_bundle - 0.81) < 1e-12
        assert abs(r.linear_payment - 1.3122) < 1e-12
        assert abs(r.linear_revenue - 0.6561) < 1e-12
        assert abs(r.sqrt_linear_revenue - 0.1875) < 1e-15
        assert abs(r.rich_revenue - 0.1939) < 1e-6
        assert abs(r.rich_buyer_surplus - 7.25) < 1e-6
        assert r.chosen_price_tag == "augmented" and r.seller_prefers_augmented
        assert r.rich_revenue < r.linear_revenue
        assert r.rich_buyer_surplus > r.linear_buyer_surplus

    def test_rich_revenue_closed_form_exact(self):
        for eps in (0.01, 0.05, 0.12, 0.2):
            r = overfit_scenario(eps)
            expected = float(Fraction(2439, 10000) - Fraction(eps))
            assert r.rich_revenue == expected

    def test_large_epsilon_flags_linear_preference(self):
        r = overfit_scenario(0.10)
        assert abs(r.rich_revenue - 0.1439) < 1e-12
        assert r.chosen_price_tag == "linear"
        assert not r.seller_prefers_augmented
        r = overfit_scenario(0.2)
        assert abs(r.rich_revenue - 0.0439) < 1e-12
        assert not r.seller_prefers_augmented

    def test_switch_threshold(self):
        assert abs(OVERFIT_EPS_SWITCH - 0.0564) < 1e-15
        assert overfit_scenario(OVERFIT_EPS_SWITCH - 1e-4).seller_prefers_augmented
        assert not overfit_scenario(OVERFIT_EPS_SWITCH + 1e-4).seller_prefers_augmented

    def test_epsilon_range_enforced(self):
        for bad in (-1.0, 0.0, 0.2439, 0.3):
            with pytest.raises(PreconditionError):
                overfit_scenario(bad)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.floats(0.0, OVERFIT_EPS_MAX, exclude_min=True, exclude_max=True))
    @example(OVERFIT_EPS_SWITCH)
    @example(math.nextafter(OVERFIT_EPS_SWITCH, 1.0))
    @example(5e-324)
    def test_family_over_epsilon(self, eps):
        r = overfit_scenario(eps)
        assert r.rich_revenue < r.linear_revenue
        assert r.rich_buyer_surplus > r.linear_buyer_surplus
        # the switch 564/10000 rounds down to OVERFIT_EPS_SWITCH, so the
        # seller still prefers the added price at that float itself
        assert r.seller_prefers_augmented == (eps <= OVERFIT_EPS_SWITCH)
        assert r.seller_prefers_augmented == (Fraction(eps) < Fraction(2439, 10000) - Fraction(3, 16))
        # the added price min(sqrt(x), 5x/9 + 9/20 - eps) at the kink, less the cost x^2
        x = Fraction(81, 100)
        root = Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
        assert root * root == x
        price = min(root, Fraction(5, 9) * x + Fraction(9, 20) - Fraction(eps))
        assert price == Fraction(9, 10) - Fraction(eps)
        assert r.rich_revenue == float(price - x * x)

    def test_csv_rows(self):
        rows = overfit_scenario(0.05).csv_rows()
        assert rows[0][0] == "linear" and rows[1][0] == "linear_plus_extra"
        assert float(rows[0][3]) == overfit_scenario(0.05).linear_revenue
