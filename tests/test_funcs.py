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
)
from padd import funcs
from padd.funcs import GRAD_CAP, FunctionExpr
from padd.graphs import clique_graph, cycle_graph, path_graph, random_graph
from sampling import assert_spelled_out, check_monotone, check_shape_by_sampling, check_supergradient, sample_box


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


SQRT_OBJ = {"kind": "power_sum", "coeffs": [1.0], "exponents": [0.5]}

# the JSON object of each `catalog_instances()` node, in order, spelled out by hand
CATALOG_OBJECTS = [
    {"kind": "power_sum", "coeffs": [64.0], "exponents": [0.5]},
    {"kind": "power_sum", "coeffs": [1.0], "exponents": [2.0]},
    {"kind": "power_sum", "coeffs": [4.0], "exponents": [0.25]},
    {"kind": "power_sum", "coeffs": [2.0, 3.0], "exponents": [0.5, 1.0]},
    {"kind": "affine", "weights": [1.0, 1.0], "intercept": 0.0},
    {"kind": "leontief", "anchor": [4.0], "level": 32.0},
    {"kind": "leontief", "anchor": [2.0, 4.0], "level": 6.0},
    {"kind": "min_of_affine", "pieces": [{"kind": "affine", "weights": [10.0]}, {"kind": "affine", "weights": [0.0], "intercept": 8.1}]},
    {"kind": "sum", "children": [SQRT_OBJ, {"kind": "affine", "weights": [0.25]}]},
    {"kind": "scale", "factor": 3.0, "child": SQRT_OBJ},
    {"kind": "graph_min_cost", "graph": {"node_count": 3, "edges": [[1, 2], [1, 3], [2, 3]]}},
    {"kind": "graph_min_cost", "graph": {"node_count": 4, "edges": [[1, 2], [2, 3], [3, 4]]}},
]


NODE_METHODS = {"dim", "values", "_structural_shape", "gradient_batch"}


def test_each_node_class_defines_the_node_methods():
    # `FunctionExpr` has no stubs for them: a node class is whole on its own
    nodes = [v for v in vars(funcs).values() if isinstance(v, type) and issubclass(v, FunctionExpr) and v is not FunctionExpr]
    assert {cls.__name__ for cls in nodes} == {"PowerSum", "Affine", "Leontief", "MinOfAffine", "Sum", "Scale", "GraphMinCost"}
    assert [cls.__name__ for cls in nodes if not NODE_METHODS <= set(vars(cls))] == []
    assert NODE_METHODS.isdisjoint(vars(FunctionExpr))


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
            xs = sample_box(domain_for(f), rng, 50)
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
        g = f.grad_max_info((2.0,))
        assert np.allclose(g, [8.0])
        assert check_supergradient(f, (2.0,), g, domain_for(f), rng)

    def test_power_sum_derivative(self):
        g = PowerSum((64.0,), (0.5,)).grad_max_info((16.0,))
        assert np.allclose(g, [8.0])

    def test_leontief_active_coordinate(self, rng):
        # fractions 1/2 < 4/4: coordinate 1 is active with entry level/anchor_1
        f = Leontief((2.0, 4.0), 6.0)
        g = f.grad_max_info((1.0, 4.0))
        assert np.allclose(g, [3.0, 0.0])
        assert check_supergradient(f, (1.0, 4.0), g, domain_for(f), rng)

    def test_supergradient_inequality_everywhere(self, rng):
        for f in catalog_instances():
            if f.shape not in (Shape.CONCAVE, Shape.LINEAR):
                continue
            dom = domain_for(f)
            for x in sample_box(dom, rng, 10):
                g = f.grad_max_info(x)
                if not np.all(np.isfinite(g)) or np.any(np.abs(g) >= 1e12):
                    continue
                assert check_supergradient(f, x, g, dom, rng, n=100, tol=1e-9)

    def test_clamped_at_axis(self):
        # the derivative is unbounded there, so the entry takes the cap, in a batch too
        assert PowerSum((1.0,), (0.5,)).gradient_batch(np.zeros((1, 1)))[0, 0] == GRAD_CAP
        assert PowerSum((1.0,), (0.5,)).grad_max_info((0.0,)).tolist() == [1e12]

    def test_flat_region_above_anchor(self):
        g = Leontief((2.0,), 5.0).grad_max_info((3.0,))
        assert np.allclose(g, [0.0])

    @pytest.mark.parametrize("graph", [clique_graph(4), path_graph(5), cycle_graph(6), random_graph(12, 0.3, 2)],
                             ids=["clique4", "path5", "cycle6", "random12"])
    def test_graph_cost_matches_dense_term_vertices(self, graph):
        # each term min(neighbour sum, x_i) is a min of the neighbours'
        # indicator and e_i: take the active one, and at a tie the one of
        # the two length-n vectors that is lexicographically greater
        n, rng = graph.node_count, np.random.default_rng(5)
        points = [rng.integers(0, 2, n).astype(float) for _ in range(20)]
        points += [rng.integers(0, 3, n) / 2.0 for _ in range(20)] + [rng.random(n) for _ in range(20)]
        for x in [np.zeros(n), np.ones(n), *points]:
            want = np.zeros(n)
            for i, js in enumerate(graph.neighbors):
                col, e = np.zeros(n), np.zeros(n)
                col[list(js)], e[i] = 1.0, 1.0
                s = math.fsum(x[j] for j in js)
                want += col if s < x[i] else e if s > x[i] else max(col, e, key=tuple)
            assert GraphMinCost(graph).grad_max_info(x).tolist() == want.tolist(), x


def random_convex_tree(rng, d, depth=0):
    """Nested Sum/Scale over convex PowerSum, Affine and one-piece MinOfAffine leaves."""
    r = rng.random()
    if depth < 3 and r < 0.35:
        return Sum([random_convex_tree(rng, d, depth + 1) for _ in range(rng.integers(1, 4))])
    if depth < 3 and r < 0.55:
        return Scale(float(rng.uniform(0.1, 4.0)), random_convex_tree(rng, d, depth + 1))
    if r < 0.7:
        return Affine(rng.uniform(0.0, 3.0, d), float(rng.uniform(0.0, 1.0)))
    if r < 0.8:
        return MinOfAffine([Affine(rng.uniform(0.0, 3.0, d), float(rng.uniform(0.0, 1.0)))])
    return PowerSum(rng.uniform(0.0, 3.0, d), rng.choice((1.0, 1.5, 2.0, 3.0), d))


class TestGradient:
    def test_kinked_batch_rows_carry_the_scalar_bits(self):
        # every row of a kinked node's batch is its scalar derivative, kinks
        # included: there it is the supergradient that maximizes g . x
        f = MinOfAffine([Affine((2.0,), 0.0), Affine((0.0,), 4.0)])
        assert f.gradient_batch(np.array([[1.0], [2.0], [3.0]])).tolist() == [[2.0], [2.0], [0.0]]
        assert f.grad_max_info((2.0,)).tolist() == [2.0]
        rng = np.random.default_rng(1)
        nodes = [
            MinOfAffine([Affine((2.0, 1.0), 0.0), Affine((1.0, 3.0), 0.0), Affine((0.0, 0.0), 4.0)]),
            MinOfAffine([Affine((1.0, 1.0), 0.0), Affine((1.0, 1.0), 1.0), Affine((0.5, 2.0), 0.0)]),
            Leontief((2.0, 4.0), 6.0),
            Leontief((1.0, 0.0, 2.0), 3.0),
            GraphMinCost(cycle_graph(4)),
            GraphMinCost(random_graph(6, 0.4, 3)),
        ]
        for f in nodes:
            # half-integer bundles land on the kinks: tied pieces, tied anchor
            # ratios, neighbour sums equal to the node's own coordinate
            xs = np.vstack([np.zeros(f.dim), rng.integers(0, 9, (80, f.dim)) / 2.0, rng.random((40, f.dim)) * 5.0])
            batch = f.gradient_batch(xs)
            assert batch.shape == xs.shape
            for x, row in zip(xs, batch):
                assert f.grad_max_info(x).tobytes() == row.tobytes(), (f, x)
        assert MinOfAffine([Affine((1.0,))]).gradient_batch(np.zeros((0, 1))).shape == (0, 1)
        assert Leontief((1.0,), 1.0).gradient_batch(np.zeros((0, 1))).shape == (0, 1)

    def test_min_of_affine_takes_the_payment_maximizing_active_piece(self):
        # on half-integer bundles and small integer weights every sum is
        # exact, so the active pieces are those of the exact minimum
        rng = np.random.default_rng(2)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            pieces = [Affine(rng.integers(0, 4, d) / 2.0, float(rng.integers(0, 3)) if j else 0.0) for j in range(k)]
            f = MinOfAffine(pieces)
            for x in rng.integers(0, 7, (20, d)) / 2.0:
                vals = [math.fsum(np.multiply(p.weights, x)) + p.intercept for p in pieces]
                active = [p.weights for p, v in zip(pieces, vals) if v == min(vals)]
                score = max(math.fsum(np.multiply(w, x)) for w in active)
                want = max(w for w in active if math.fsum(np.multiply(w, x)) == score)
                assert f.grad_max_info(x).tolist() == list(want), (pieces, x)

    def test_batch_matches_scalar(self, rng):
        f = Sum([PowerSum((2.0, 1.0), (0.5, 2.0)), Affine((0.5, 0.5), 0.0)])
        xs = sample_box(domain_for(f), rng, 20) + 0.1
        batch = f.gradient_batch(xs)
        for i in range(20):
            assert np.allclose(batch[i], f.grad_max_info(xs[i]), rtol=1e-13)

    def test_power_sum_scalar_gradients_carry_the_batch_bits(self):
        # Python's scalar powers differed from numpy's in the last ulp on 277
        # of these bundles, so a supergradient price need not carry the bits
        # of the batch potential that ranked its bundle; convex trees (the
        # seller's prices against a convex report) carry them too, and so do
        # sums and scalings of kinked nodes, on their kinks as well
        rng = np.random.default_rng(0)
        trees = [(PowerSum((1.5, 2.0, 0.7), (1.5, 0.3, 3.0)), rng.random((2000, 3)) * 5.0)]
        trees.append((Sum([PowerSum((1.0,), (2.0,)), MinOfAffine([Affine((0.5,), 0.0)])]), rng.random((50, 1)) * 5.0))
        while len(trees) < 42:
            d = int(rng.integers(1, 5))
            f = random_convex_tree(rng, d)
            if f.shape is Shape.CONVEX:
                xs = rng.random((50, d)) * 5.0
                xs[rng.random((50, d)) < 0.2] = 0.0
                trees.append((f, xs))
        assert {type(f).__name__ for f, _ in trees[2:]} >= {"Sum", "Scale"}
        kinks = np.vstack([rng.integers(0, 9, (60, 2)) / 2.0, rng.random((60, 2)) * 5.0])
        kinked = MinOfAffine([Affine((2.0, 1.0), 0.0), Affine((1.0, 3.0), 0.0), Affine((0.0, 0.0), 4.0)])
        trees.append((Sum([kinked, Leontief((1.0, 2.0), 3.0), PowerSum((1.0, 2.0), (1.0, 1.0))]), kinks))
        trees.append((Scale(2.5, Sum([GraphMinCost(path_graph(2)), Scale(0.5, kinked)])), kinks))
        trees.append((Sum([PowerSum((1.0, 2.0), (0.5, 0.3)), kinked]), kinks[np.all(kinks > 0, axis=1)]))
        for f, xs in trees:
            for x, row in zip(xs, f.gradient_batch(xs)):
                assert f.grad_max_info(x).tobytes() == row.tobytes()

    def test_power_sum_zero_coordinates(self):
        f = PowerSum((1.0, 0.0, 2.0, 3.0), (0.5, 0.5, 1.0, 2.0))
        assert f.grad_max_info((4.0, 0.0, 0.0, 0.0)).tolist() == [0.25, 0.0, 2.0, 0.0]
        assert f.grad_max_info((0.0, 1.0, 1.0, 1.0)).tolist() == [1e12, 0.0, 2.0, 6.0]
        assert f.grad_max_info((0.0, 0.0, 0.0, 0.0)).tolist() == [1e12, 0.0, 2.0, 0.0]


class TestSerialization:
    def test_each_parsed_field_is_the_one_its_object_spells_out(self):
        assert len(CATALOG_OBJECTS) == len(catalog_instances())
        for obj, f in zip(CATALOG_OBJECTS, catalog_instances()):
            assert_spelled_out(f, obj)
            assert_spelled_out(expr_from_dict(json.loads(json.dumps(obj))), obj)

    def test_parsed_node_computes_the_bits_of_the_constructed_one(self, rng):
        for obj, f in zip(CATALOG_OBJECTS, catalog_instances()):
            back = expr_from_dict(obj)
            xs = sample_box(domain_for(f), rng, 20)
            assert back.values(xs).tobytes() == f.values(xs).tobytes()
            assert back.gradient_batch(xs).tobytes() == f.gradient_batch(xs).tobytes()

    @pytest.mark.parametrize("obj", [
        {"kind": "power_sum", "coeffs": [1.0], "exponents": [2.0]},
        {"kind": "affine", "weights": [1.0], "intercept": 0.0},
        {"kind": "scale", "factor": 3.0, "child": SQRT_OBJ},
        {"kind": "sum", "children": [SQRT_OBJ, SQRT_OBJ]},
        {"kind": "graph_min_cost", "graph": {"node_count": 4, "edges": [[1, 2], [2, 3]]}},
    ], ids=["exponent", "kind", "factor", "child", "edges"])
    def test_checker_catches_a_field_that_differs(self, obj):
        sqrt = PowerSum((1.0,), (0.5,))
        f = {"power_sum": sqrt, "affine": PowerSum((1.0,), (1.0,)), "scale": Scale(2.0, sqrt),
             "sum": Sum([sqrt, Affine((0.25,), 0.0)]), "graph_min_cost": GraphMinCost(path_graph(4))}[obj["kind"]]
        with pytest.raises(AssertionError):
            assert_spelled_out(f, obj)

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
        assert np.array_equal(self.U.grad_max_info((1.0, 5.0, 4.0)), [3.0, 0.0, 0.0])
        assert np.array_equal(self.U.grad_max_info((2.0, 5.0, 1.0)), [0.0, 0.0, 1.5])
        # at the anchor both present goods score the level; the lex-greatest wins
        assert np.array_equal(self.U.grad_max_info((2.0, 0.0, 4.0)), [3.0, 0.0, 0.0])
        assert np.array_equal(self.U.grad_max_info((3.0, 1.0, 5.0)), [0.0, 0.0, 0.0])

    def test_json_object_parses_field_by_field(self):
        obj = {"kind": "leontief", "anchor": [2.0, 0.0, 4.0], "level": 6.0}
        back = expr_from_dict(obj)
        assert_spelled_out(back, obj)
        xs = sample_box(BoxDomain(np.full(3, 5.0)), np.random.default_rng(3), 50)
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
