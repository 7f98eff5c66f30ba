import json
import math

import numpy as np
import pytest

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
    Shape,
    Sum,
    expr_from_dict,
    expr_to_dict,
    grad_max_info,
    supergradients,
)
from padd.funcs import check_monotone, check_shape_by_sampling, check_supergradient
from padd.graphs import clique_graph, path_graph


def catalog_instances():
    return [
        PowerSum((64.0,), (0.5,)),
        PowerSum((1.0,), (2.0,)),
        PowerSum((4.0,), (0.25,)),
        PowerSum((2.0, 3.0), (0.5, 1.0)),
        Affine((1.0, 1.0), 0.0),
        Leontief((4.0,), 32.0),
        Leontief((2.0, 4.0), 6.0),
        MinOfAffine([Affine((10.0,), 0.0), Affine((0.0,), 8.1)]),
        Sum([PowerSum((1.0,), (0.5,)), Affine((0.25,), 0.0)]),
        Scale(3.0, PowerSum((1.0,), (0.5,))),
        GraphMinCost(clique_graph(3)),
        GraphMinCost(path_graph(4)),
    ]


def domain_for(f):
    return BoxDomain(np.full(f.dim, 10.0))


class TestEvaluate:
    def test_sqrt_value_at_four(self):
        assert PowerSum((64.0,), (0.5,)).value((4.0,)) == 128.0

    def test_zero_bundle_normalization(self):
        for f in catalog_instances():
            assert f.value(np.zeros(f.dim)) == 0.0

    def test_leontief_halfway(self):
        assert Leontief((4.0,), 32.0).value((2.0,)) == 16.0

    def test_leontief_at_anchor_and_fractions(self):
        u = Leontief((2.0, 4.0), 6.0)
        assert u.value((2.0, 4.0)) == 6.0
        for beta in np.linspace(0.0, 1.0, 11):
            expected = beta * 6.0
            assert math.isclose(u.value((2.0 * beta, 4.0 * beta)), expected, rel_tol=1e-14, abs_tol=1e-14)

    def test_scale_exactness(self):
        f = PowerSum((2.0, 3.0), (0.5, 1.0))
        g = Scale(1.7, f)
        for x in [(0.3, 2.0), (5.0, 0.0), (1.0, 1.0)]:
            assert g.value(x) == 1.7 * f.value(x)

    def test_batch_matches_scalar(self, rng):
        for f in catalog_instances():
            xs = domain_for(f).sample(rng, 50)
            batch = f.values(xs)
            for i in range(50):
                assert math.isclose(batch[i], f.value(xs[i]), rel_tol=1e-12, abs_tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            PowerSum((1.0,), (2.0,)).value((1.0, 2.0))

    def test_negative_coordinate(self):
        with pytest.raises(PreconditionError):
            PowerSum((1.0,), (2.0,)).value((-1.0,))


class TestClassify:
    def test_structural_rules(self):
        assert PowerSum((1.0,), (2.0,)).shape is Shape.CONVEX
        assert PowerSum((1.0,), (0.5,)).shape is Shape.CONCAVE
        assert Affine((1.0, 1.0), 0.0).shape is Shape.LINEAR
        assert GraphMinCost(clique_graph(3)).shape is Shape.CONCAVE
        assert MinOfAffine([Affine((1.0,), 0.0), Affine((0.0,), 2.0)]).shape is Shape.CONCAVE
        assert Leontief((1.0,), 1.0).shape is Shape.CONCAVE
        assert Sum([PowerSum((1.0,), (0.5,)), Affine((1.0,), 0.0)]).shape is Shape.CONCAVE
        assert Sum([PowerSum((1.0,), (2.0,)), PowerSum((1.0,), (0.5,))]).shape is Shape.GENERAL
        assert PowerSum((1.0, 1.0), (0.5, 2.0)).shape is Shape.GENERAL

    def test_sampling_agrees_with_flag(self, rng):
        for f in catalog_instances():
            flags = check_shape_by_sampling(f, domain_for(f), rng, n=200)
            shape = f.shape
            if shape is Shape.CONCAVE:
                assert flags["concave"]
            elif shape is Shape.CONVEX:
                assert flags["convex"]
            elif shape is Shape.LINEAR:
                assert flags["concave"] and flags["convex"]

    def test_monotone_everywhere(self, rng):
        for f in catalog_instances():
            assert check_monotone(f, domain_for(f), rng)


class TestGradMax:
    def test_leontief_interior_segment(self, rng):
        # supergradient of the 8x segment on [0, 4]
        f = Leontief((4.0,), 32.0)
        g = grad_max_info(f, (2.0,)).vector
        assert np.allclose(g, [8.0])
        assert check_supergradient(f, (2.0,), g, domain_for(f), rng)

    def test_power_sum_derivative(self):
        g = grad_max_info(PowerSum((64.0,), (0.5,)), (16.0,)).vector
        assert np.allclose(g, [8.0])

    def test_leontief_active_coordinate(self, rng):
        # fractions 1/2 < 4/4: coordinate 1 is active with entry level/anchor_1
        f = Leontief((2.0, 4.0), 6.0)
        g = grad_max_info(f, (1.0, 4.0)).vector
        assert np.allclose(g, [3.0, 0.0])
        assert check_supergradient(f, (1.0, 4.0), g, domain_for(f), rng)

    def test_supergradient_inequality_everywhere(self, rng):
        for f in catalog_instances():
            if f.shape not in (Shape.CONCAVE, Shape.LINEAR):
                continue
            dom = domain_for(f)
            for x in dom.sample(rng, 10):
                g = grad_max_info(f, x).vector
                if not np.all(np.isfinite(g)) or np.any(np.abs(g) >= 1e12):
                    continue
                assert check_supergradient(f, x, g, dom, rng, n=100, tol=1e-9)

    def test_clamped_at_axis(self):
        res = grad_max_info(PowerSum((1.0,), (0.5,)), (0.0,))
        assert res.clamped and res.vector[0] == 1e12

    def test_flat_region_above_anchor(self):
        g = grad_max_info(Leontief((2.0,), 5.0), (3.0,)).vector
        assert np.allclose(g, [0.0])

    def test_rejects_convex(self):
        with pytest.raises(PreconditionError):
            grad_max_info(PowerSum((1.0,), (2.0,)), (1.0,)).vector


class TestSupergradientSets:
    def test_min_of_affine_kink(self, rng):
        # breakpoint at x = 2 is exact in binary arithmetic: 2 * 2 == 4
        f = MinOfAffine([Affine((2.0,), 0.0), Affine((0.0,), 4.0)])
        s = supergradients(f, (2.0,))
        assert s.vertices.shape[0] == 2
        dom = BoxDomain(np.array([10.0]))
        assert s.contains_valid_only(f, (2.0,), dom.sample(rng, 200))

    def test_smooth_point_is_singleton(self):
        s = supergradients(PowerSum((1.0,), (0.5,)), (4.0,))
        assert s.is_singleton
        assert np.allclose(s.vertices, [[0.25]])

    def test_leontief_anchor_vertices(self, rng):
        f = Leontief((2.0, 4.0), 6.0)
        s = supergradients(f, (2.0, 4.0))
        # both coordinate slopes plus the flat cap
        assert s.vertices.shape[0] == 3
        dom = domain_for(f)
        assert s.contains_valid_only(f, (2.0, 4.0), dom.sample(rng, 200))


class TestGradient:
    def test_kink_raises(self):
        with pytest.raises(PreconditionError):
            MinOfAffine([Affine((2.0,), 0.0), Affine((0.0,), 4.0)]).gradient((2.0,))

    def test_unbounded_at_zero_raises(self):
        with pytest.raises(PreconditionError):
            PowerSum((1.0,), (0.5,)).gradient((0.0,))

    def test_batch_matches_scalar(self, rng):
        f = Sum([PowerSum((2.0, 1.0), (0.5, 2.0)), Affine((0.5, 0.5), 0.0)])
        xs = domain_for(f).sample(rng, 20) + 0.1
        batch = f.gradient_batch(xs)
        for i in range(20):
            assert np.allclose(batch[i], f.gradient(xs[i]), rtol=1e-13)


class TestSerialization:
    def test_round_trip_bit_faithful(self):
        for f in catalog_instances():
            blob = json.dumps(expr_to_dict(f))
            back = expr_from_dict(json.loads(blob))
            assert expr_to_dict(back) == expr_to_dict(f)
            assert json.dumps(expr_to_dict(back)) == blob

    def test_round_trip_preserves_values(self, rng):
        for f in catalog_instances():
            back = expr_from_dict(json.loads(json.dumps(expr_to_dict(f))))
            xs = domain_for(f).sample(rng, 20)
            assert np.array_equal(back.values(xs), f.values(xs))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            expr_from_dict({"kind": "mystery"})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(PreconditionError):
            PowerSum((-1.0,), (0.5,))
        with pytest.raises(PreconditionError):
            Leontief((0.0,), 1.0)
        with pytest.raises(PreconditionError):
            Scale(-2.0, Affine((1.0,), 0.0))


class TestLeontiefAbsentGoods:
    """Zero anchor coordinates are absent goods: the value ignores them."""

    U = Leontief((2.0, 0.0, 4.0), 6.0)

    def test_values_ignore_absent_coordinate(self):
        xs = np.array([[1.0, 0.0, 2.0], [1.0, 9.0, 2.0], [2.0, 0.0, 1.0], [4.0, 3.0, 8.0], [0.0, 5.0, 0.0]])
        assert np.array_equal(self.U.values(xs), [3.0, 3.0, 1.5, 6.0, 0.0])
        assert self.U.value((1.0, 7.0, 2.0)) == 3.0

    def test_grad_max_prices_only_present_goods(self):
        assert np.array_equal(grad_max_info(self.U, (1.0, 5.0, 4.0)).vector, [3.0, 0.0, 0.0])
        assert np.array_equal(grad_max_info(self.U, (2.0, 5.0, 1.0)).vector, [0.0, 0.0, 1.5])
        # at the anchor both present goods score the level; the lex-greatest wins
        assert np.array_equal(grad_max_info(self.U, (2.0, 0.0, 4.0)).vector, [3.0, 0.0, 0.0])
        assert np.array_equal(grad_max_info(self.U, (3.0, 1.0, 5.0)).vector, [0.0, 0.0, 0.0])

    def test_json_round_trip(self):
        blob = json.dumps(expr_to_dict(self.U))
        back = expr_from_dict(json.loads(blob))
        assert back.anchor == (2.0, 0.0, 4.0) and back.level == 6.0
        xs = BoxDomain(np.full(3, 5.0)).sample(np.random.default_rng(3), 50)
        assert np.array_equal(back.values(xs), self.U.values(xs))

    def test_all_zero_or_negative_anchor_refused(self):
        with pytest.raises(PreconditionError):
            Leontief((0.0, 0.0), 1.0)
        with pytest.raises(PreconditionError):
            expr_from_dict({"kind": "leontief", "anchor": [0.0, 0.0], "level": 1.0})
        with pytest.raises(PreconditionError):
            Leontief((1.0, -1.0), 1.0)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "build",
        [
            lambda t: PowerSum((t,), (0.5,)),
            lambda t: PowerSum((1.0,), (t,)),
            lambda t: Affine((t, 1.0), 0.0),
            lambda t: Affine((1.0,), t),
            lambda t: Leontief((t,), 1.0),
            lambda t: Leontief((1.0,), t),
            lambda t: Scale(t, Affine((1.0,), 0.0)),
            lambda t: BoxDomain(np.array([1.0, t])),
        ],
        ids=[
            "power_sum_coeff",
            "power_sum_exponent",
            "affine_weight",
            "affine_intercept",
            "leontief_anchor",
            "leontief_level",
            "scale_factor",
            "box_upper",
        ],
    )
    def test_rejected_with_named_precondition(self, build, bad):
        with pytest.raises(PreconditionError, match="finite"):
            build(bad)

    def test_from_dict_rejects_infinity(self):
        with pytest.raises(PreconditionError, match="finite"):
            expr_from_dict(json.loads('{"kind": "power_sum", "coeffs": [Infinity], "exponents": [0.5]}'))
