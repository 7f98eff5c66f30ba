import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mp_reference import chord_slopes, grid_payment, rel_err
from padd import (
    Affine,
    BoxDomain,
    GraphMinCost,
    GraphInstance,
    Leontief,
    MinOfAffine,
    PowerSum,
    PreconditionError,
    Scale,
    Shape,
    SolverConfig,
    Sum,
    bregman,
    ray_slope_sup,
)
from padd.equilibrium import REFINE_TOP_K, _maximize, _pruned_values
from padd import raygeom
from padd.graphs import random_graph
from padd.raygeom import _BLOCK, _RayForm, _end_table, _grid_rows, _ray_form, ray_payment_batch, ray_payment_floor

SQUARE = PowerSum((1.0,), (2.0,))
SQRT = PowerSum((1.0,), (0.5,))
# the ray kernel's fraction grid of n points is linspace(0, 1 - GAP, n)
GAP = 1e-6


def grid_id(grid_n):
    """Test id of the n-point fraction grid: its size and its gap below 1."""
    return f"{grid_n}-{GAP:g}"


def ray_grid(grid_n):
    """Context in which the ray payment functions use the `grid_n`-point fraction grid."""
    return mock.patch.object(raygeom, "GRID_N", grid_n)


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
        pay = ray_slope_sup(SQUARE, (4.0,))
        assert pay == 32.0
        # the a -> 1 limit: above every grid chord, within 1e-2 of the best one
        oracle = chord_slope_sup_oracle(SQUARE, (4.0,))
        assert 0 < pay - oracle < 1e-2
        assert pay / 4.0 == 8.0

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
        pay = ray_slope_sup(SQRT, (16.0,))
        assert pay == SQRT.value((16.0,)) == 4.0
        # the a = 0 chord is the grid's best one
        assert pay == chord_slope_sup_oracle(SQRT, (16.0,), n=101)
        assert pay / 16.0 == 0.25

    def test_linear_cost_constant_slope(self):
        c = Affine((1.5, 0.5), 0.0)
        x = (2.0, 4.0)
        pay = ray_slope_sup(c, x)
        assert pay == c.value(x)
        oracle = chord_slope_sup_oracle(c, x, n=101)
        assert math.isclose(pay, oracle, rel_tol=1e-12)

    def test_general_shape_uses_grid(self):
        c = Sum([SQUARE, SQRT])  # convex plus concave: unresolved curvature
        x = (4.0,)
        pay = ray_slope_sup(c, x)
        # the best slope sits at the last grid node, which stands for the limit a -> 1
        assert pay == slope_rows(c, np.array([x]))[0, -1]
        assert rel_err(pay, grid_payment(c, x)) <= 1e-13
        assert pay >= c.value(x) - 1e-12

    def test_revenue_nonnegative(self, rng):
        for c in (SQUARE, SQRT, Affine((2.0,), 0.0), Sum([SQUARE, SQRT])):
            for _ in range(20):
                x = rng.random(1) * 10 + 1e-3
                assert ray_slope_sup(c, x) - c.value(x) >= -1e-12

    def test_convex_payment_is_bregman_gap(self, rng):
        for c in (SQUARE, Scale(0.5, PowerSum((1.0,), (3.0,))), PowerSum((1.0, 2.0), (2.0, 1.5))):
            for _ in range(20):
                x = rng.random(c.dim) * 5 + 0.1
                gap = ray_slope_sup(c, x) - c.value(x)
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


def fractions(grid_n=10001):
    """The fraction grid of the ray kernel."""
    return np.linspace(0.0, 1.0 - GAP, grid_n)


def reference_slopes(c, x, cx, grid_n=10001):
    """Float chord slopes from `c.values` on the fractions of x (they lose about 1e-10 near a = 1)."""
    alphas = fractions(grid_n)
    return (cx - c.values(alphas[:, None] * x)) / (1.0 - alphas)


def reference_payments(c, xs, grid_n=10001):
    cx = c.values(xs)
    return np.array(
        [reference_slopes(c, x, cx[k], grid_n).max() if np.any(x > 0) else 0.0 for k, x in enumerate(xs)]
    )


def slope_rows(c, xs, grid_n=10001):
    """The kernel's chord slopes of each row of `xs` on the whole fraction grid."""
    form = _ray_form(c)
    scalars = form.scalars(xs)
    qs, inv, *_ = _grid_rows(grid_n, form.exponents)
    return np.vstack([form.slopes([s[k : k + 1] for s in scalars], qs, inv, np.arange(grid_n)) for k in range(len(xs))])


def assert_floor_is_the_larger_end_slope(c, xs):
    """The floor is the larger of each row's first and last slopes on the grid, bit for bit."""
    trade = np.any(xs > 0, axis=1)
    for grid_n in (2, 11, 101, 10001):
        with ray_grid(grid_n):
            floor = ray_payment_floor(c, xs)
        rows = slope_rows(c, xs, grid_n)
        ends = np.maximum(rows[:, 0], rows[:, -1])
        assert np.all(floor[~trade] == 0.0)
        assert floor[trade].tobytes() == ends[trade].tobytes()


def assert_batch_scalar_one_row_bit_identical(c, xs):
    batch = ray_payment_batch(c, xs)
    trade = np.any(xs > 0, axis=1)
    assert np.all(batch[~trade] == 0.0)
    scalar = [ray_slope_sup(c, x) for x in xs[trade]]
    assert np.array(scalar).tobytes() == batch[trade].tobytes()
    one_row = [ray_payment_batch(c, xs[k : k + 1])[0] for k in range(len(xs))]
    assert np.array(one_row).tobytes() == batch.tobytes()


# fractions at which the slope rows are compared with exact arithmetic
SAMPLED = (0, 1, 7, 50, -30, -2, -1)


class TestMonomialRayKernel:
    def test_trees_take_the_monomial_path(self):
        assert all(_ray_form(c).parts == () == _ray_form(c).graphs for c, _ in MONOMIAL_TREES)
        assert {c.dim for c, _ in MONOMIAL_TREES} == {1, 2, 3}

    @pytest.mark.parametrize("grid_n", [10001, 101], ids=grid_id)
    def test_ray_costs_match_values(self, grid_n):
        # the ray costs enter the kernel only through their chords, so the
        # slopes are compared with exact chord slopes of the costs' definitions
        alphas = fractions(grid_n)[list(SAMPLED)]
        for c, xs in MONOMIAL_TREES:
            rows = slope_rows(c, xs, grid_n)[:, list(SAMPLED)]
            for x, row in zip(xs, rows):
                want = chord_slopes(c, x, alphas)
                assert max(rel_err(got, w) for got, w in zip(row, want)) <= 1e-13

    @pytest.mark.parametrize("grid_n", [10001, 101], ids=grid_id)
    def test_payments_match_reference(self, grid_n):
        for c, xs in MONOMIAL_TREES:
            with ray_grid(grid_n):
                got = ray_payment_batch(c, xs)
            np.testing.assert_allclose(got, reference_payments(c, xs, grid_n), rtol=1e-9, atol=0.0)

    def test_batch_rows_equal_scalar_bit_for_bit(self):
        for c, xs in MONOMIAL_TREES:
            assert_batch_scalar_one_row_bit_identical(c, xs)

    def test_batch_is_at_least_floor(self):
        # the floor is taken on the whole set, the payments on sub-batches, as the pruning does
        for c, xs in MONOMIAL_TREES:
            floor = ray_payment_floor(c, xs)
            assert np.all(ray_payment_batch(c, xs) >= floor)
            assert np.all(ray_payment_batch(c, xs[2:4]) >= floor[2:4])
            assert floor[0] == 0.0

    def test_floor_is_the_larger_end_slope(self):
        for c, xs in MONOMIAL_TREES:
            assert_floor_is_the_larger_end_slope(c, xs)


# --- every node kind ---------------------------------------------------------


def random_leaf(rng, d, graph):
    kind = rng.integers(5)
    if kind == 0:
        return PowerSum(rng.uniform(0.0, 3.0, d), rng.choice(EXPONENTS, d))
    if kind == 1:
        return Affine(rng.uniform(0.0, 3.0, d), float(rng.uniform(0.0, 1.0)))
    if kind == 2:
        pieces = [Affine(rng.uniform(0.0, 3.0, d), float(rng.uniform(0.0, 2.0))) for _ in range(rng.integers(1, 4))]
        return MinOfAffine(pieces)
    if kind == 3:
        anchor = rng.uniform(0.5, 5.0, d) * (rng.random(d) < 0.6)  # zero coordinates are absent goods
        anchor[rng.integers(d)] = rng.uniform(0.5, 5.0)
        return Leontief(anchor, float(rng.uniform(0.5, 5.0)))
    return GraphMinCost(graph)


def random_tree(rng, d, graph, depth=0):
    """Nested Sum/Scale over leaves of the five other node kinds."""
    r = rng.random()
    if depth < 2 and r < 0.3:
        return Sum([random_tree(rng, d, graph, depth + 1) for _ in range(rng.integers(2, 4))])
    if depth < 2 and r < 0.45:
        return Scale(float(rng.uniform(0.1, 3.0)), random_tree(rng, d, graph, depth + 1))
    return random_leaf(rng, d, graph)


def general_trees(count=30):
    """Seeded trees of dimension 1-6 over all seven node kinds, of unresolved curvature."""
    trees = []
    for seed in range(count):
        rng = np.random.default_rng(1000 + seed)
        d = int(rng.integers(1, 7))
        edges = [(i, j) for i in range(d) for j in range(i + 1, d) if rng.random() < 0.5]
        graph = GraphInstance.from_edges(d, edges)
        c = Sum([PowerSum(rng.uniform(0.01, 0.3, d), rng.choice((1.5, 2.0, 3.0), d)), random_tree(rng, d, graph)])
        while c.shape is not Shape.GENERAL:
            c = Sum([c, random_tree(rng, d, graph)])
        xs = rng.uniform(0.0, 10.0, (5, d))
        xs[0] = 0.0
        xs[1, 0] = 0.0
        trees.append((c, xs))
    return trees


GENERAL_TREES = general_trees()
KINKED = Sum([SQUARE, MinOfAffine([Affine((3.0,), 0.0), Affine((0.0,), 2.0)])])
WITH_LEONTIEF = Sum(
    [PowerSum((1.0, 0.5), (2.0, 1.5)), Scale(2.0, Sum([PowerSum((1.0, 1.0), (0.5, 0.5)), Leontief((1.0, 2.0), 3.0)]))]
)
PATH3 = GraphInstance.from_edges(3, [(0, 1), (1, 2)])
WITH_GRAPH = Sum([PowerSum((1.0, 1.0, 1.0), (2.0, 2.0, 2.0)), Scale(3.0, GraphMinCost(PATH3))])
# its chord slope peaks inside the fraction range for bundles near x = 1.3
INTERIOR = Sum([PowerSum((3.0,), (1.5,)), MinOfAffine([Affine((3.0,), 0.0), Affine((1.0,), 2.0)])])
FIXED_TREES = {"kinked": KINKED, "leontief": WITH_LEONTIEF, "graph": WITH_GRAPH, "interior": INTERIOR}


def node_kinds(c):
    children = getattr(c, "children", ()) or ([c.child] if isinstance(c, Scale) else [])
    return {type(c).__name__}.union(*(node_kinds(ch) for ch in children))


class TestRayFormAllNodes:
    def test_every_catalog_tree_has_a_form(self):
        kinds = set().union(*(node_kinds(c) for c, _ in GENERAL_TREES))
        assert kinds == {"PowerSum", "Affine", "MinOfAffine", "Leontief", "GraphMinCost", "Sum", "Scale"}
        for c, _ in GENERAL_TREES:
            form = _ray_form(c)
            assert form.exponents == tuple(sorted(form.exponents))
        assert len(_ray_form(WITH_GRAPH).graphs) == 1 and len(_ray_form(KINKED).parts) == 1

    def test_payments_match_mpmath(self):
        for c, xs in GENERAL_TREES:
            with ray_grid(101):
                got = ray_payment_batch(c, xs)
            assert got[0] == 0.0
            for x, pay in zip(xs[1:], got[1:]):
                assert rel_err(pay, grid_payment(c, x, 101)) <= 1e-13

    @pytest.mark.parametrize("name", sorted(FIXED_TREES))
    def test_fixed_trees_match_mpmath_at_default_grid(self, name, rng):
        c = FIXED_TREES[name]
        assert c.shape is Shape.GENERAL
        xs = rng.uniform(0.0, 3.0, (4, c.dim))
        xs[0] = 0.0
        for x, pay in zip(xs[1:], ray_payment_batch(c, xs)[1:]):
            assert rel_err(pay, grid_payment(c, x)) <= 1e-13
        assert_batch_scalar_one_row_bit_identical(c, xs)
        assert_floor_is_the_larger_end_slope(c, xs)

    def test_attained_fraction_is_the_exact_argmax(self):
        alphas = fractions(101)
        want = chord_slopes(INTERIOR, (1.3,), alphas)
        i = max(range(len(alphas)), key=want.__getitem__)
        with ray_grid(101):
            pay = ray_slope_sup(INTERIOR, (1.3,))
        slopes = slope_rows(INTERIOR, np.array([[1.3]]), 101)[0]
        assert 0 < i < 100 and int(np.argmax(slopes)) == i and pay == slopes[i]
        assert rel_err(pay, want[i]) <= 1e-13

    def test_batch_scalar_and_one_row_bit_identical(self):
        for c, xs in GENERAL_TREES:
            with ray_grid(101):
                assert_batch_scalar_one_row_bit_identical(c, xs)

    def test_floor_is_the_larger_end_slope_and_below_sub_batches(self):
        for c, xs in GENERAL_TREES:
            assert_floor_is_the_larger_end_slope(c, xs)
            floor = ray_payment_floor(c, xs)
            with ray_grid(101):
                assert np.all(ray_payment_batch(c, xs[1:3]) >= floor[1:3])
                assert np.all(ray_payment_batch(c, xs[3:]) >= floor[3:])


def shaped_monomial_trees(shape, count=12):
    """Seeded monomial trees of dimension 1-4 with the given curvature class."""
    trees = []
    seed = 0
    while len(trees) < count:
        rng = np.random.default_rng(5000 + seed)
        seed += 1
        d = int(rng.integers(1, 5))
        c = random_monomial_tree(rng, d)
        if c.shape is not shape:
            continue
        xs = rng.uniform(0.0, 10.0, (8, d))
        xs[1, 0] = 0.0
        xs[2] = rng.uniform(0.0, 1e-3, d)
        trees.append((c, xs[np.any(xs > 0, axis=1)]))
    return trees


class TestOnePaymentPerShape:
    @pytest.mark.parametrize("shape", list(Shape), ids=[s.value for s in Shape])
    def test_scalar_equals_one_row_batch_bit_for_bit(self, shape):
        for c, xs in shaped_monomial_trees(shape):
            for x in xs:
                with ray_grid(101):
                    pay = ray_slope_sup(c, x)
                    assert np.float64(pay).tobytes() == ray_payment_batch(c, x[None, :])[0].tobytes()
                if shape is Shape.CONVEX:
                    # the a -> 1 limit x . grad c(x), which the unit prices charge
                    assert math.isclose(pay, float(x @ c.grad_max_info(x)), rel_tol=1e-13)
                elif shape is not Shape.GENERAL:
                    assert pay == c.value(x)  # the a = 0 chord

    @pytest.mark.parametrize("shape", list(Shape), ids=[s.value for s in Shape])
    def test_elementwise_payments_agree_in_any_batch(self, shape):
        # c(x), x . grad c(x) and the ray form avoid matrix products, so a
        # row's payment does not depend on the batch around it
        for c, xs in shaped_monomial_trees(shape):
            with ray_grid(101):
                batch = ray_payment_batch(c, xs)
                scalar = [ray_slope_sup(c, x) for x in xs]
            assert np.array(scalar).tobytes() == batch.tobytes()

    @pytest.mark.parametrize("grid_n", [10001, 101], ids=grid_id)
    def test_every_node_kind_scalar_equals_batch(self, grid_n):
        kinds, shapes = set(), set()
        for c, xs in INVARIANCE_TREES:
            kinds |= node_kinds(c)
            shapes.add(c.shape)
            xs = xs[np.any(xs > 0, axis=1)][:30]
            with ray_grid(grid_n):
                scalar = [ray_slope_sup(c, x) for x in xs]
                assert np.array(scalar).tobytes() == ray_payment_batch(c, xs).tobytes()
        assert kinds == {"PowerSum", "Affine", "MinOfAffine", "Leontief", "GraphMinCost", "Sum", "Scale"}
        assert shapes == set(Shape)


# --- batch invariance -------------------------------------------------------


def subtrees(c):
    children = getattr(c, "children", ()) or ([c.child] if isinstance(c, Scale) else [])
    yield c
    for ch in children:
        yield from subtrees(ch)


def invariance_trees(count=40):
    """Seeded trees of dimension 1-6 over all seven node kinds and of any
    curvature, each with 257 bundles (zeros and a zero coordinate included)."""
    trees = []
    for seed in range(count):
        rng = np.random.default_rng(7000 + seed)
        d = int(rng.integers(1, 7))
        edges = [(i, j) for i in range(d) for j in range(i + 1, d) if rng.random() < 0.5]
        c = random_tree(rng, d, GraphInstance.from_edges(d, edges))
        xs = rng.uniform(0.0, 10.0, (257, d))
        xs[0] = 0.0
        xs[1, 0] = 0.0
        trees.append((c, xs))
    return trees


INVARIANCE_TREES = invariance_trees()


def assert_rows_batch_invariant(f, xs):
    """`f` gives every row of `xs` the same bits alone as in the whole batch."""
    whole = f(xs)
    alone = np.array([f(xs[i : i + 1])[0] for i in range(len(xs))])
    assert alone.tobytes() == whole.tobytes()


class TestBatchInvariance:
    def test_values_of_every_node_kind_and_nested_tree(self):
        kinds = set()
        for c, xs in INVARIANCE_TREES:
            for node in subtrees(c):
                kinds.add(type(node).__name__)
                assert_rows_batch_invariant(node.values, xs)
        assert kinds == {"PowerSum", "Affine", "MinOfAffine", "Leontief", "GraphMinCost", "Sum", "Scale"}

    def test_graph_cost_values_on_a_larger_graph(self, rng):
        # a 12-node graph cost summed by a matrix product rounds some lone rows differently
        for seed in range(5):
            c = GraphMinCost(random_graph(12, 0.5, seed))
            assert_rows_batch_invariant(c.values, rng.uniform(0.0, 10.0, (300, 12)))

    def test_gradient_batch(self, rng):
        for shape in Shape:
            for c, xs in shaped_monomial_trees(shape):
                ys = np.vstack([xs, rng.uniform(0.0, 10.0, (250, c.dim))])
                assert_rows_batch_invariant(c.gradient_batch, ys)

    def test_ray_payment_batch_and_floor(self):
        for c, xs in INVARIANCE_TREES[:20]:
            with ray_grid(101):
                assert_rows_batch_invariant(lambda ys: ray_payment_batch(c, ys), xs[:40])
            assert_rows_batch_invariant(lambda ys: ray_payment_floor(c, ys), xs)


# --- block bounds on the fraction grid --------------------------------------


FLAT = Sum([Affine((1.0,), 0.0), Scale(1e-10, KINKED)])


def block_trees(count=40):
    """Seeded general-shape trees of dimension 1-4 over all seven node kinds,
    and bundles that include the zero bundle, a zero coordinate and rows
    scaled by 1e-7 and 1e7."""
    trees = []
    for seed in range(count):
        rng = np.random.default_rng(9000 + seed)
        d = int(rng.integers(1, 5))
        graph = GraphInstance.from_edges(d, [(i, j) for i in range(d) for j in range(i + 1, d) if rng.random() < 0.5])
        c = Sum([PowerSum(rng.uniform(0.01, 0.3, d), rng.choice((1.5, 2.0, 3.0), d)), random_tree(rng, d, graph)])
        while c.shape is not Shape.GENERAL:
            c = Sum([c, random_tree(rng, d, graph)])
        xs = rng.uniform(0.0, 10.0, (8, d))
        xs[0] = 0.0
        xs[1, 0] = 0.0
        xs[2] *= 1e-7
        xs[3] *= 1e7
        trees.append((c, xs))
    # on FLAT the slopes of a row differ by about 1e-10 relative, so a skip with any slack loses the maximum
    fixed = [INTERIOR, KINKED, FLAT, Sum([INTERIOR, Scale(0.0, KINKED)])]
    return trees + [(c, np.array([[0.0], [0.5], [0.7], [0.8], [0.9], [1.3], [4.0], [1e-7], [1e7]])) for c in fixed]


BLOCK_TREES = block_trees()
# x^2 at 1e200 overflows W_2 to inf; a zero factor times it is NaN, and
# so is a piece's D_k once its slopes w_k . x all overflow (inf - inf)
OVERFLOW_CASES = [
    (Sum([SQUARE, SQRT]), [[1e200], [3.0]]),
    (KINKED, [[1e200], [1e160]]),
    (Sum([SQUARE, SQRT, Scale(0.0, SQUARE)]), [[1e200], [2.0]]),
    (Sum([SQUARE, MinOfAffine([Affine((1e308,), 0.0), Affine((1e308,), 1.0)])]), [[10.0], [1e-3]]),
]
BLOCK_GRIDS = (2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 10001)
# rows of finite scalars whose slopes overflow on part of the fraction grid:
# from a = 0 on (weights of exponents below 1, whose q_e falls as a rises, or
# a falling piece term), inside (x^2 + min(3x, 2) peaks near a = 0.2 at 0.8),
# or up to the last column (W_2 finite at 1.3e154, W_2 * q_2 not)
PARTIAL_OVERFLOW = {
    "prefix_weights": (Sum([PowerSum((1.7e308,), (0.5,)), PowerSum((2e307,), (0.25,)), SQUARE]), [[1.0]]),
    "prefix_piece": (Sum([SQUARE, Scale(2.0, MinOfAffine([Affine((1.7e308,), 0.0), Affine((0.0,), 1e308)]))]), [[1.0]]),
    "interior": (Scale(6.75e307, KINKED), [[0.8]]),
    "suffix": (Sum([SQUARE, SQRT]), [[1.3e154]]),
}


def whole_row_payments(c, xs, grid_n):
    """The largest slope of every row on the whole fraction grid (0 on the zero bundle)."""
    trade = np.any(xs > 0, axis=1)
    return np.where(trade, slope_rows(c, xs, grid_n).max(axis=1), 0.0)


def block_extrema(qs, inv):
    """Each block's largest `q_e` and smallest `1 / (1 - a)`, the last block's over its own columns only."""
    starts = np.arange(0, inv.size, _BLOCK)
    return np.stack([np.maximum.reduceat(q, starts) for q in qs]), np.minimum.reduceat(inv, starts)


def block_maxima(c, xs, grid_n):
    """(largest slope of each block of `_BLOCK` columns, the slope code at the
    block's largest `q_e` and smallest `1 / (1 - a)`), one row per bundle."""
    form = _ray_form(c)
    qs, inv, *_ = _grid_rows(grid_n, form.exponents)
    blocks = -(-grid_n // _BLOCK)
    padded = np.full((len(xs), blocks * _BLOCK), -np.inf)
    padded[:, :grid_n] = slope_rows(c, xs, grid_n)
    qhi, ilo = block_extrema(qs, inv)
    return padded.reshape(len(xs), blocks, _BLOCK).max(axis=2), form.slopes(form.scalars(xs), qhi, ilo, np.arange(blocks))


def unchecked(cls, **fields):
    """A catalog node built without its constructor's checks, which refuse a
    negative or NaN factor, coefficient or weight."""
    node = object.__new__(cls)
    node.__dict__.update(fields)
    return node


class TestBlockBounds:
    def test_trees_cover_every_node_kind_and_sign(self):
        # every sign the catalog builds: zero and positive factors
        kinds = set().union(*(node_kinds(c) for c, _ in BLOCK_TREES))
        assert kinds == {"PowerSum", "Affine", "MinOfAffine", "Leontief", "GraphMinCost", "Sum", "Scale"}
        parts = [part for c, _ in BLOCK_TREES for part in _ray_form(c).parts]
        assert min(factor for factor, _ in parts) == 0.0 < max(factor for factor, _ in parts)
        pieces = {len(node.pieces) for _, node in parts if isinstance(node, MinOfAffine)}
        assert 1 in pieces and max(pieces) > 1
        assert any(isinstance(node, Leontief) for _, node in parts)

    @pytest.mark.parametrize("grid_n", BLOCK_GRIDS)
    def test_payments_are_the_whole_row_maxima_bit_for_bit(self, grid_n):
        for c, xs in BLOCK_TREES:
            with ray_grid(grid_n):
                got = ray_payment_batch(c, xs)
            assert got.tobytes() == whole_row_payments(c, xs, grid_n).tobytes()

    @pytest.mark.parametrize("grid_n", BLOCK_GRIDS)
    def test_every_slope_is_within_its_block_bound(self, grid_n):
        for c, xs in BLOCK_TREES:
            top, bound = block_maxima(c, xs, grid_n)
            assert np.all(np.isfinite(bound))
            assert np.all(top <= bound)  # as floats, no slack; a NaN slope would fail

    @pytest.mark.parametrize("grid_n", BLOCK_GRIDS)
    def test_cached_extrema_are_each_blocks_largest_q_and_smallest_inverse_gap(self, grid_n):
        exponents = (0.3, 0.5, 1.0, 1.5, 2.0, 3.0)
        qs, inv, blocks, qhi, ilo = _grid_rows(grid_n, exponents)
        want_qhi, want_ilo = block_extrema(qs, inv)
        assert qhi.tobytes() == want_qhi.tobytes() and ilo.tobytes() == want_ilo.tobytes()
        assert blocks.shape == (ilo.size, _BLOCK)

    def test_overflowing_rows_keep_the_whole_row_inf_or_nan(self):
        seen = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for c, xs in OVERFLOW_CASES:
                xs = np.array(xs)
                for grid_n in (2, _BLOCK + 1, 10001):
                    with ray_grid(grid_n):
                        got = ray_payment_batch(c, xs)
                    want = whole_row_payments(c, xs, grid_n)
                    np.testing.assert_array_equal(got, want)
                    seen |= {"inf" if np.isinf(v) else "nan" if np.isnan(v) else "finite" for v in got}
                    top, bound = block_maxima(c, xs, grid_n)
                    finite = np.isfinite(bound)
                    assert np.all(top[finite] <= bound[finite])
        assert seen == {"inf", "nan", "finite"}

    def test_overflow_on_part_of_a_row_needs_no_whole_row_pass(self):
        # the inf columns of a row need not reach an end, but each lies in a
        # block of inf bound, which the search computes; a NaN column needs a
        # non-finite scalar, and then both end blocks hold a NaN
        seen = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for name, (c, xs) in [*PARTIAL_OVERFLOW.items(), *(("whole", case) for case in OVERFLOW_CASES)]:
                xs = np.array(xs)
                assert c.shape is Shape.GENERAL
                for grid_n in (_BLOCK + 1, 10001):
                    rows = slope_rows(c, xs, grid_n)
                    last = (grid_n - 1) // _BLOCK * _BLOCK
                    nan = np.isnan(rows).any(axis=1)
                    assert np.isnan(rows[nan, :_BLOCK]).any(axis=1).all() and np.isnan(rows[nan, last:]).any(axis=1).all()
                    top, bound = block_maxima(c, xs, grid_n)
                    assert np.all(bound[np.isposinf(top)] == np.inf)
                    with ray_grid(grid_n):
                        np.testing.assert_array_equal(ray_payment_batch(c, xs), whole_row_payments(c, xs, grid_n))
                if name != "whole":
                    (cols,) = np.nonzero(~np.isfinite(rows[0]))
                    assert np.isposinf(rows[0, cols]).all() and all(np.isfinite(s).all() for s in _ray_form(c).scalars(xs))
                    seen.add({(True, False): "prefix", (False, True): "suffix", (False, False): "interior"}[cols[0] == 0, cols[-1] == grid_n - 1])
        assert sorted(seen) == ["interior", "prefix", "suffix"]

    @pytest.mark.parametrize(
        "c,name",
        [
            (Sum([SQUARE, SQRT, unchecked(Scale, factor=-0.5, child=SQUARE)]), "Scale factor, got -0.5"),
            (Sum([SQUARE, unchecked(Scale, factor=math.nan, child=KINKED)]), "Scale factor, got nan"),
            (Sum([SQRT, unchecked(PowerSum, coeffs=(-1.0,), exponents=(2.0,))]), "PowerSum coefficient, got -1.0"),
            (Sum([SQUARE, SQRT, unchecked(Affine, weights=(-2.0,), intercept=0.0)]), "Affine coefficient, got -2.0"),
        ],
        ids=["negative_factor", "nan_factor", "negative_coefficient", "negative_weight"],
    )
    def test_negative_or_nan_factor_is_refused_by_name(self, c, name):
        # the block bounds rest on these signs, so the ray form refuses any other
        assert c.shape is Shape.GENERAL
        with pytest.raises(PreconditionError, match=f"non-negative {name}"):
            ray_payment_batch(c, np.array([[1.0], [2.0]]))
        with pytest.raises(PreconditionError, match=f"non-negative {name}"):
            ray_payment_floor(c, np.array([[1.0]]))


# --- the end blocks first ---------------------------------------------------


ALL_KINDS = {"PowerSum", "Affine", "MinOfAffine", "Leontief", "GraphMinCost", "Sum", "Scale"}


@st.composite
def mixed_batches(draw):
    """A cost over all seven node kinds, KINKED on the first good plus a
    general tree scaled by 1e-6, and a shuffled batch that mixes the zero
    bundle, rows whose best slope is interior (first good near 0.8), rows
    whose best slope is at an end, and an overflowing row (first good 1e200)."""
    d = draw(st.integers(1, 4))
    pad = (0.0,) * (d - 1)
    kinked = Sum([PowerSum((1.0,) + pad, (2.0,) * d), MinOfAffine([Affine((3.0,) + pad, 0.0), Affine((0.0,) * d, 2.0)])])
    path = GraphInstance.from_edges(d, [(i, i + 1) for i in range(d - 1)])
    tree = Sum([draw(node_trees(d)), Affine((1.0,) * d, 0.5), Leontief((1.0,) * d, 1.0), GraphMinCost(path)])
    c = Sum([kinked, Scale(1e-6, tree)])
    rest = st.lists(st.floats(0.0, 10.0), min_size=d - 1, max_size=d - 1)
    interior = st.tuples(st.floats(0.7, 0.9), rest).map(lambda r: [r[0], *r[1]])
    end = st.tuples(st.floats(1.0, 10.0), rest, st.sampled_from((1.0, 1e-7, 1e7))).map(lambda r: [r[2] * r[0], *r[1]])
    rows = [[0.0] * d, [1e200, *pad]] + draw(st.lists(interior, min_size=1, max_size=3))
    rows += draw(st.lists(end, min_size=1, max_size=3))
    return c, np.array(draw(st.permutations(rows)))


class TestEndFirstSearch:
    @pytest.mark.parametrize("grid_n", BLOCK_GRIDS)
    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(mixed_batches())
    def test_mixed_batches_are_the_whole_row_maxima_bit_for_bit(self, grid_n, case):
        c, xs = case
        assert node_kinds(c) == ALL_KINDS and c.shape is Shape.GENERAL
        with np.errstate(over="ignore", invalid="ignore"):
            with ray_grid(grid_n):
                got = ray_payment_batch(c, xs)
            want = whole_row_payments(c, xs, grid_n)
            rows = slope_rows(c, xs, grid_n)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()
        assert not np.all(np.isfinite(want))
        if grid_n == 10001:
            # the batch has rows whose best slope is in an interior block and rows whose best is in an end block
            finite = np.isfinite(rows).all(axis=1) & np.any(xs > 0, axis=1)
            block = rows[finite].argmax(axis=1) // _BLOCK
            interior = (block > 0) & (block < (grid_n - 1) // _BLOCK)
            assert interior.any() and not interior.all()


# --- the payment floor that prunes the outer grid ----------------------------


def node_trees(d):
    """Nested Sum/Scale (zero factors included) over leaves of the five other node kinds, of dimension d."""
    weights = st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d)
    affine = st.builds(Affine, weights, st.floats(0.0, 2.0))
    anchors = st.lists(st.just(0.0) | st.floats(0.5, 5.0), min_size=d, max_size=d).filter(any)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    graphs = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).map(
        lambda keep: GraphInstance.from_edges(d, [p for p, k in zip(pairs, keep) if k])
    )
    leaves = st.one_of(
        st.builds(PowerSum, weights, st.lists(st.sampled_from(EXPONENTS), min_size=d, max_size=d)),
        affine,
        st.builds(MinOfAffine, st.lists(affine, min_size=1, max_size=3)),
        st.builds(Leontief, anchors, st.floats(0.5, 5.0)),
        st.builds(GraphMinCost, graphs),
    )
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, min_size=2, max_size=3).map(Sum)
        | st.builds(Scale, st.just(0.0) | st.floats(0.1, 3.0), kids),
        max_leaves=6,
    )


@st.composite
def general_costs_and_bundles(draw):
    """A general-shape tree over all seven node kinds and its bundles: the
    zero bundle, then rows on [0, 10]^d, some scaled by 1e-7 or 1e7."""
    d = draw(st.integers(1, 4))
    convex = st.builds(PowerSum, st.lists(st.floats(0.01, 0.3), min_size=d, max_size=d),
                       st.lists(st.sampled_from((1.5, 2.0, 3.0)), min_size=d, max_size=d))
    c = Sum([draw(convex), draw(node_trees(d))])
    if c.shape is not Shape.GENERAL:  # convex so far: add a concave leaf
        anchor = [draw(st.floats(0.5, 5.0)) for _ in range(d)]
        c = Sum([c, Leontief(anchor, draw(st.floats(0.5, 5.0)))])
    rows = draw(st.lists(st.lists(st.floats(0.0, 10.0), min_size=d, max_size=d), min_size=1, max_size=6))
    scales = draw(st.lists(st.sampled_from((1.0, 1e-7, 1e7)), min_size=len(rows), max_size=len(rows)))
    xs = np.vstack([np.zeros(d), np.array(rows) * np.array(scales)[:, None]])
    return c, xs


class TestPaymentFloor:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(general_costs_and_bundles(), st.sampled_from(BLOCK_GRIDS), st.data())
    def test_floor_is_below_the_payment_on_every_sub_batch(self, case, grid_n, data):
        # the floor is taken on the whole set, the payments on sub-batches, as the pruning does
        c, xs = case
        assert c.shape is Shape.GENERAL
        lo = data.draw(st.integers(0, len(xs) - 1))
        hi = data.draw(st.integers(lo + 1, len(xs)))
        with ray_grid(grid_n):
            floor = ray_payment_floor(c, xs)
            assert np.all(ray_payment_batch(c, xs) >= floor)  # as floats, no slack; a NaN would fail
            assert np.all(ray_payment_batch(c, xs[lo:hi]) >= floor[lo:hi])
            for k in range(len(xs)):
                assert ray_payment_batch(c, xs[k : k + 1])[0] >= floor[k]

    def test_nan_floor_is_never_pruned(self):
        # each overflow row bounds a box whose grid reaches the overflow; where
        # the floor is NaN the bound is too, and the grid walk must evaluate the row
        v = Scale(20.0, SQRT)
        nan_rows = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for c, xs in OVERFLOW_CASES:
                for upper in xs:
                    box = BoxDomain(np.array(upper))
                    pts = box.grid(65)
                    for grid_n in (2, _BLOCK + 1):  # the whole rows of overflow make 10001 slow here
                        evaluated = []

                        def objective(ys):
                            evaluated.extend(ys[:, 0].tolist())
                            return v.values(ys) - ray_payment_batch(c, ys)

                        def bound(ys):
                            return v.values(ys) - ray_payment_floor(c, ys)

                        with ray_grid(grid_n):
                            _pruned_values(objective, bound(pts), pts.__getitem__, REFINE_TOP_K)
                            nan = pts[np.isnan(ray_payment_floor(c, pts)), 0]
                            assert set(nan.tolist()) <= set(evaluated)
                            nan_rows += nan.size
                            cfg = SolverConfig(grid_points={1: 65})
                            x_all, best_all = _maximize(objective, box, cfg)
                            x_pruned, best_pruned = _maximize(objective, box, cfg, bound_batch=bound)
                        assert x_pruned.tobytes() == x_all.tobytes()
                        assert np.float64(best_pruned).tobytes() == np.float64(best_all).tobytes()
        assert nan_rows > 0


MIXED = Sum([SQUARE, SQRT])
MIXED_2D = Sum([PowerSum((1.0, 1.0), (2.0, 2.0)), PowerSum((1.0, 1.0), (0.5, 0.5))])


class TestFewColumnsPerPayment:
    """Counts the fraction-grid columns `slopes` computes per one-row
    payment, so that a silent fall-back to whole rows fails here: those of
    the grid rows and the two end blocks of the end table.  The block
    bounds, which `slopes` computes on the blocks' extrema, are not counted."""

    def columns(self, monkeypatch, c, x):
        computed = []
        slopes = _RayForm.slopes
        _, grid_inv, blocks, *_ = _grid_rows(10001, _ray_form(c).exponents)
        end_inv = _end_table(10001, _ray_form(c).exponents)[1]

        def counting(form, scalars, qs, inv, cols):
            out = slopes(form, scalars, qs, inv, cols)
            if inv is grid_inv:
                computed.append(out.size)
            elif inv is end_inv:
                computed.append(out.size - len(scalars[0]) * len(blocks))
            return out

        with monkeypatch.context() as m:
            m.setattr(_RayForm, "slopes", counting)
            pay = ray_payment_batch(c, np.array([x]))
        assert pay.tobytes() == whole_row_payments(c, np.array([x]), 10001).tobytes()
        return sum(computed)

    @pytest.mark.parametrize(
        "c,xs",
        [
            (MIXED, [(0.3,), (1.0,), (4.0,), (9.5,)]),
            (KINKED, [(0.3,), (2.5,), (4.0,), (9.5,)]),
            (MIXED_2D, [(0.5, 9.0), (3.0, 4.0), (9.5, 9.5)]),
        ],
        ids=["mixed", "kinked", "mixed_2d"],
    )
    def test_best_slope_at_a_grid_end_takes_at_most_two_blocks(self, monkeypatch, c, xs):
        # here the best slope sits at a = 0 or at the last node, in the block of the largest bound
        for x in xs:
            assert self.columns(monkeypatch, c, x) <= 2 * _BLOCK

    def test_interior_best_slope_takes_a_fifth_of_the_grid_at_most(self, monkeypatch):
        # x^2 + min(3x, 2) near x = 0.8 peaks inside the fraction range, on a flat hump
        assert self.columns(monkeypatch, KINKED, (0.8,)) <= 32 * _BLOCK
