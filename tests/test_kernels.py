"""The tiny-batch kernels give the bits of the straightforward forms in
`reference_kernels`, on every row and in any batch.

Floats are compared as int64 views, so a -0.0 that turns into 0.0 (or a
changed NaN) fails.
"""

import math

import numpy as np
import pytest
import reference_kernels as ref
from hypothesis import given, settings, strategies as st

from padd import Affine, BoxDomain, GraphMinCost, Leontief, MinOfAffine, PowerSum, Scale, SolverConfig, Sum, as_bundle
from padd import seller_optimal_linear_price
from padd.cli import _sample_curve_rows
from padd.errors import DimensionError, PreconditionError
from padd.gridopt import axis_rows
from padd.graphs import GraphInstance, cycle_graph, random_graph, star_graph
from padd.instances import SCENARIOS
from padd.equilibrium import solve_auto


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# exponents below, at and above 1; coefficients and weights with exact and signed zeros
exponents = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]), st.floats(0.05, 4.0))
weights = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(0.0, 10.0))
coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0]), st.floats(0.0, 10.0))


def leaves(d):
    power = st.builds(PowerSum, st.lists(weights, min_size=d, max_size=d), st.lists(exponents, min_size=d, max_size=d))
    affine = st.builds(Affine, st.lists(weights, min_size=d, max_size=d), weights)
    anchor = st.lists(st.one_of(st.just(0.0), st.floats(0.1, 5.0)), min_size=d, max_size=d).filter(lambda a: any(a))
    leontief = st.builds(Leontief, anchor, weights)
    pieces = st.lists(affine, min_size=1, max_size=4)
    return st.one_of(power, affine, leontief, st.builds(MinOfAffine, pieces))


def trees(d):
    return st.recursive(
        leaves(d),
        lambda kids: st.one_of(st.builds(Sum, st.lists(kids, min_size=1, max_size=3)),
                               st.builds(Scale, weights, kids)),
        max_leaves=5,
    )


@st.composite
def tree_and_rows(draw, nodes=trees):
    d = draw(st.integers(1, 4))
    f = draw(nodes(d))
    n = draw(st.integers(1, 12))
    xs = np.array(draw(st.lists(st.lists(coordinates, min_size=d, max_size=d), min_size=n, max_size=n)))
    return f, xs


def ref_values(f, xs):
    if isinstance(f, PowerSum):
        return ref.power_sum_values(f, xs)
    if isinstance(f, Leontief):
        return ref.leontief_values(f, xs)
    if isinstance(f, MinOfAffine):
        return ref.min_of_affine_values(f, xs)
    if isinstance(f, Affine):
        return ref.column_sum(f.weights, xs, f.intercept)
    if isinstance(f, Scale):
        return f.factor * ref_values(f.child, xs)
    out = ref_values(f.children[0], xs)
    for c in f.children[1:]:
        out = out + ref_values(c, xs)
    return out


def ref_gradient(f, xs):
    if isinstance(f, PowerSum):
        return ref.power_sum_gradient_batch(f, xs)
    if isinstance(f, Leontief):
        return np.array([ref.leontief_grad_max_info(f, x) for x in xs]).reshape(-1, f.dim)
    if isinstance(f, MinOfAffine):
        return ref.min_of_affine_gradient_batch(f, xs)
    if isinstance(f, Affine):
        return np.broadcast_to(np.asarray(f.weights), xs.shape).copy()
    if isinstance(f, Scale):
        return f.factor * ref_gradient(f.child, xs)
    out = ref_gradient(f.children[0], xs)
    for c in f.children[1:]:
        out = out + ref_gradient(c, xs)
    return out


class TestNodeKernels:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(tree_and_rows())
    def test_values_match_the_reference_in_every_batch(self, case):
        f, xs = case
        with np.errstate(divide="ignore", invalid="ignore"):  # a 0 * inf coefficient is NaN in both
            want = ref_values(f, xs)
            assert same_bits(f.values(xs), want)
            for r in range(len(xs)):
                assert same_bits(f.values(xs[r : r + 1]), want[r : r + 1])
                assert same_bits(f.value(xs[r]), want[r])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(tree_and_rows())
    def test_gradient_batch_matches_the_reference_in_every_batch(self, case):
        f, xs = case
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = ref_gradient(f, xs)
            assert same_bits(f.gradient_batch(xs), want)
            for r in range(len(xs)):
                assert same_bits(f.gradient_batch(xs[r : r + 1]), want[r : r + 1])

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(tree_and_rows())
    def test_power_sum_and_leontief_grad_max_info_match_the_reference(self, case):
        f, xs = case
        nodes = [f]
        while nodes:  # every PowerSum and Leontief node of the tree
            node = nodes.pop()
            nodes += list(getattr(node, "children", ())) + ([node.child] if isinstance(node, Scale) else [])
            oracle = {PowerSum: ref.power_sum_grad_max_info, Leontief: ref.leontief_grad_max_info}.get(type(node))
            if oracle is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    for x in xs:
                        assert same_bits(node.grad_max_info(x), oracle(node, x))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(tree_and_rows(), st.sampled_from([0.0, -0.0]))
    def test_zero_scale_gives_zero_rows(self, case, zero):
        child, xs = case
        got = Scale(zero, child).gradient_batch(xs)
        assert got.shape == xs.shape and not got.any()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(tree_and_rows(), st.sampled_from([0.0, -0.0]))
    def test_zero_scale_batch_rows_are_grad_max_info_bytes(self, case, zero):
        child, xs = case
        f = Scale(zero, child)
        got = f.gradient_batch(xs)
        for r, x in enumerate(xs):
            assert same_bits(got[r], f.grad_max_info(x))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(tree_and_rows())
    def test_batch_rows_are_grad_max_info_bytes(self, case):
        f, xs = case
        got = f.gradient_batch(xs)
        for r, x in enumerate(xs):
            one = f.grad_max_info(x)
            assert same_bits(got[r], one)
            assert one.tobytes() == f.gradient_batch(x[None])[0].tobytes()

    @pytest.mark.parametrize("f, x, want", [
        (Sum([PowerSum((-0.0,), (2.0,))]), 1.0, -0.0),
        (Sum([Leontief((1.0,), -0.0)]), 0.0, -0.0),
        (Sum([PowerSum((-0.0,), (2.0,)), Leontief((1.0,), -0.0)]), 0.5, -0.0),
        (Sum([PowerSum((-0.0,), (2.0,)), Leontief((1.0,), 0.0)]), 0.5, 0.0),
    ])
    def test_sums_of_signed_zeros_keep_the_batch_sign(self, f, x, want):
        # a sum adds its children's entries from the first child on, so an
        # entry that is -0.0 in every child stays -0.0, in one row as in many
        assert same_bits(f.grad_max_info((x,)), np.array([want]))
        assert same_bits(f.gradient_batch(np.array([[x], [x]])), np.array([[want], [want]]))

    @pytest.mark.parametrize("anchor, level", [
        ((3.0, 7.0), 2.9), ((2.0, 4.0), 6.0), ((1.0, 1.0, 1.0), 2.0), ((0.0, 2.0, 1.0), 3.0),
        ((2.0, 0.0), 1.5), ((2.0, 3.0), 0.0), ((2.0, 3.0), -0.0), ((5.0, 0.5), 5e-324),
    ])
    def test_leontief_batch_matches_the_reference_on_ties(self, anchor, level):
        f = Leontief(anchor, level)
        a = np.array(anchor)
        ts = np.linspace(0.0, 1.5, 301)  # every support ratio tied, exactly 1 at t = 1
        xs = np.vstack([ts[:, None] * a, np.zeros(f.dim), -0.0 * a, a, a + 0.5, a * 1.25, a + np.arange(f.dim)])
        want = np.array([ref.leontief_grad_max_info(f, x) for x in xs])
        assert same_bits(f.gradient_batch(xs), want)
        for x, row in zip(xs, want):
            assert same_bits(f.grad_max_info(x), row)

    def test_leontief_ties_go_to_the_largest_score_then_the_first(self):
        f = Leontief((3.0, 7.0), 2.9)
        xs = np.linspace(0.0, 1.0, 2001)[:, None] * np.array([3.0, 7.0])
        tied = xs[xs[:, 0] / 3.0 == xs[:, 1] / 7.0]
        scores = (2.9 / np.array([3.0, 7.0])) * tied
        got = f.gradient_batch(tied)
        # the ratios tie, but `level / a_i * x_i` can differ in the last bit
        assert (scores[:, 1] > scores[:, 0]).any() and (scores[:, 1] < scores[:, 0]).any()
        assert np.array_equal(got[:, 1] > 0, scores[:, 1] > scores[:, 0])
        assert f.grad_max_info((3.0, 7.0)).tolist() == [2.9 / 3.0, 0.0]  # ratio exactly 1
        assert f.grad_max_info((3.5, 7.0)).tolist() == [0.0, 2.9 / 7.0]
        assert f.grad_max_info((3.5, 7.5)).tolist() == [0.0, 0.0]  # above 1
        assert f.grad_max_info((0.0, 0.0)).tolist() == [2.9 / 3.0, 0.0]
        assert Leontief((0.0, 2.0), 3.0).grad_max_info((0.0, 1.0)).tolist() == [0.0, 1.5]  # zero anchor coordinate
        assert same_bits(Leontief((2.0,), -0.0).grad_max_info((1.0,)), np.array([-0.0]))
        assert same_bits(Leontief((2.0,), -0.0).grad_max_info((3.0,)), np.array([0.0]))

    def test_seller_price_against_a_leontief_sum_keeps_its_bits(self):
        u = Sum([Leontief((2, 3), 4), PowerSum((1, 1), (0.5, 0.5))])
        res = seller_optimal_linear_price(u, PowerSum((0.5, 0.5), (2, 2)), BoxDomain([4, 4]))
        assert res.verified
        assert res.bundle.tolist() == [0.8, 1.2]
        assert res.price.tolist() == [0.5590169943749475, 1.7897687979209718]
        assert res.revenue == 1.5549361530051238

    def test_zero_scale_over_a_root_at_zero_gives_zero_rows(self):
        f = Scale(0.0, PowerSum((1.0, 1.0), (0.5, 0.5)))
        xs = np.array([[0.0, 1.0], [0.0, 0.0], [4.0, 0.0]])
        assert same_bits(f.gradient_batch(xs), np.zeros((3, 2)))
        assert Scale(2.0, f.child).gradient_batch(xs)[0, 0] == 2e12  # other factors scale the cap

    def test_seller_search_under_a_zero_scale_raises_no_warning(self):
        # under error::RuntimeWarning, 0 * inf in the batch used to raise here
        u = Sum([Scale(0, PowerSum((1, 1), (0.5, 0.5))), PowerSum((2, 2), (0.5, 0.5))])
        res = seller_optimal_linear_price(u, PowerSum((1, 1), (2, 2)), BoxDomain([4, 4]), SolverConfig(grid_points={2: 21}))
        assert res.verified and res.revenue > 0.0

    def test_power_sum_zero_fix_ups_run_only_with_a_zero(self):
        f = PowerSum((2.0, 3.0, 0.0), (0.5, 1.0, 2.0))
        xs = np.array([[1.0, 2.0, 3.0], [0.0, -0.0, 0.0], [4.0, 0.0, 0.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert same_bits(f.gradient_batch(xs), ref.power_sum_gradient_batch(f, xs))
        assert f.gradient_batch(xs)[1].tolist() == [1e12, 3.0, 0.0]

    def test_cached_constants_are_read_only(self):
        nodes = [PowerSum((1.0, 2.0), (0.5, 2.0)), Leontief((0.0, 2.0), 3.0),
                 MinOfAffine([Affine((1.0, 0.0)), Affine((0.0, 1.0), 1.0)])]
        for node in nodes:
            node.values(np.ones((2, 2)))
            cached = [v for v in vars(node).values() if isinstance(v, tuple)]
            arrays = [a for t in cached for a in t if isinstance(a, np.ndarray)]
            assert arrays and not any(a.flags.writeable for a in arrays), node


class TestGraphGradientBatch:
    """The batch (and `grad_max_info`, its one-row case) against
    the scalar rule, one row at a time."""

    @staticmethod
    def tied_rows(g, rng, n):
        # small integers make neighbour sums tie x_i often; the ties fall on
        # both sides of i since neighbours run below and above it
        xs = rng.integers(0, 3, size=(n, g.node_count)).astype(float)
        xs[: n // 4] = 0.0
        xs[n // 4 : n // 3] = -0.0
        half = rng.random((n, g.node_count)) < 0.3
        xs[half] += 0.5
        return xs

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 5, 9, 14):
            for p in (0.15, 0.5, 0.9):
                f = GraphMinCost(random_graph(n, p, seed))
                xs = self.tied_rows(f.graph, rng, 200)
                assert same_bits(f.gradient_batch(xs), ref.graph_min_cost_gradient_batch(f, xs)), (n, p)

    @pytest.mark.parametrize(
        "g", [cycle_graph(4), star_graph(7), GraphInstance(5, [(1, 3)]), GraphInstance(1, [])],
        ids=["cycle4", "star7", "isolated", "single"],
    )
    def test_tie_rule_on_each_side(self, g):
        f = GraphMinCost(g)
        xs = self.tied_rows(g, np.random.default_rng(1), 300)
        assert same_bits(f.gradient_batch(xs), ref.graph_min_cost_gradient_batch(f, xs))
        for x in xs[:100]:  # all-zero rows first: every term ties, a node with a lower neighbour takes the indicator
            assert same_bits(f.grad_max_info(x), ref.graph_min_cost_grad_max_info(f, x))

    def test_ties_on_inexact_neighbour_sums(self):
        # the centre's x is its neighbour sum added in `values`' order, which
        # other orders of the same floats often miss in the last bit
        g = star_graph(7)
        f = GraphMinCost(g)
        xs = np.random.default_rng(3).random((500, g.node_count))
        for x in xs:
            x[0] = 0.0
            for j in g.neighbors[0]:
                x[0] += x[j]
        assert same_bits(f.gradient_batch(xs), ref.graph_min_cost_gradient_batch(f, xs))

    def test_empty_batch(self):
        f = GraphMinCost(cycle_graph(4))
        assert f.gradient_batch(np.zeros((0, 4))).shape == (0, 4)


class TestGridAndValidation:
    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_axis_rows_match_the_reference(self, dim, data):
        n = data.draw(st.integers(1, 8))
        ts = np.array(data.draw(st.lists(coordinates, min_size=n, max_size=n)))
        axes = np.array(data.draw(st.lists(st.integers(0, dim - 1), min_size=n, max_size=n)))
        assert same_bits(axis_rows(ts, axes, dim), ref.axis_rows(ts, axes, dim))
        grid = ts.reshape(1, -1)
        assert same_bits(axis_rows(grid, axes[None, :], dim), ref.axis_rows(grid, axes[None, :], dim))

    @pytest.mark.parametrize(
        "x, dim",
        [((4.0,), None), (3.0, None), ([1.0, -0.0], 2), (np.array([2.0, 0.5]), None), ([[1.0]], None), ([], None),
         ([1.0, 2.0], 3), ([math.nan], None), ([math.inf], None), ([-1e-300], None), ([1, 2], 2)],
    )
    def test_as_bundle_matches_the_reference(self, x, dim):
        try:
            want = ref.as_bundle_reference(x, dim)
        except (DimensionError, PreconditionError) as exc:
            with pytest.raises(type(exc), match=str(exc).replace("(", r"\(").replace(")", r"\)")):
                as_bundle(x, dim)
            return
        got = as_bundle(x, dim)
        assert same_bits(got, want)
        if isinstance(x, np.ndarray):
            assert got is x  # no copy of a float vector, as before


class TestCurveRows:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_batched_rows_equal_the_scalar_rows(self, scenario):
        v, c, domain = SCENARIOS[scenario]()
        out = solve_auto(v, c, domain)
        x_hi = 2.5 * float(out.bundle[0])
        assert list(_sample_curve_rows(v, c, out.imitative, x_hi)) == list(
            ref.sample_curve_rows(v, c, out.imitative, x_hi))

    @settings(derandomize=True, deadline=None)
    @given(trees(1), trees(1), st.floats(0.0, 50.0), st.integers(1, 40))
    def test_batched_rows_equal_the_scalar_rows_on_random_curves(self, v, c, x_hi, n):
        u = Leontief((max(x_hi, 1.0) / 2,), 3.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert list(_sample_curve_rows(v, c, u, x_hi, n)) == list(ref.sample_curve_rows(v, c, u, x_hi, n))
