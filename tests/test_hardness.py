from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padd import (
    Affine,
    BoxDomain,
    PreconditionError,
    RoundingState,
    Shape,
    brute_force_max,
    GraphMinCost,
    derandomize,
    mis_brute_force,
    solve_concave,
    surplus_U,
    surplus_exact,
)
from fraction_rounding import fix_gain, fraction_derandomize, fraction_surplus
from sampling import check_monotone
from padd.graphs import (
    GraphInstance,
    clique_graph,
    cycle_graph,
    empty_graph,
    parse_graph_json,
    parse_graph_text,
    path_graph,
    random_graph,
    star_graph,
)
from padd import graphs
from padd.hardness import _dyadic, _scaled_gain
from padd.instances import hardness_corpus


def reference_max(g):
    """Row-matrix scorer: the int64 `(rows x d) @ (d x d)` product per chunk
    of 0/1 cube rows (coordinate 1 as the high bit), first maximum kept."""
    d = g.node_count
    a = g.adjacency.astype(np.int64)
    shifts = np.arange(d - 1, -1, -1)
    best_val, best_row = -1, None
    for start in range(0, 1 << d, 1 << 16):
        masks = np.arange(start, min(start + (1 << 16), 1 << d), dtype=np.int64)
        rows = (masks[:, None] >> shifts[None, :]) & 1
        scores = (rows & ((rows @ a) == 0)).sum(axis=1)
        j = int(np.argmax(scores))
        if scores[j] > best_val:
            best_val, best_row = int(scores[j]), rows[j].astype(float)
    return best_val, best_row


def reference_derandomize(g, xbar):
    """Method of conditional expectations with two full `E[U]` sums per coordinate."""
    state = RoundingState.from_fractional(g, xbar)
    probs = state.probs
    for i in range(g.node_count):
        if probs[i] == 0 or probs[i] == 1:
            continue
        probs[i] = Fraction(1)
        e1 = state.expected_surplus()
        probs[i] = Fraction(0)
        e0 = state.expected_surplus()
        if e1 >= e0:
            probs[i] = Fraction(1)
    return np.array([float(p) for p in probs])


def branching_mis(g):
    """Maximum independent set size by include/exclude branching."""
    nbr = [set(np.flatnonzero(row).tolist()) for row in g.adjacency]

    def best(cand):
        if not cand:
            return 0
        i = min(cand)
        rest = cand - {i}
        return max(best(rest), 1 + best(rest - nbr[i]))

    return best(frozenset(range(g.node_count)))


def surplus_oracle(g, x):
    """Direct formula: sum_i [x_i - min(sum_j A_ji x_j, x_i)]."""
    x = np.asarray(x, dtype=float)
    a = g.adjacency
    return float(sum(x[i] - min(a[:, i] @ x, x[i]) for i in range(g.node_count)))


class TestBuildCost:
    def test_empty_graph_costs_nothing(self):
        c = GraphMinCost(empty_graph(3))
        assert c.value((1.0, 1.0, 1.0)) == 0.0

    def test_single_edge(self):
        c = GraphMinCost(GraphInstance.from_edges(2, [(0, 1)]))
        assert c.value((1.0, 1.0)) == 2.0

    def test_triangle_all_ones(self):
        c = GraphMinCost(clique_graph(3))
        assert c.value((1.0, 1.0, 1.0)) == 3.0

    def test_structural_properties(self, rng):
        c = GraphMinCost(cycle_graph(5))
        assert c.shape is Shape.CONCAVE
        assert c.value(np.zeros(5)) == 0.0
        assert check_monotone(c, BoxDomain(np.ones(5)), rng)


class TestSurplus:
    def test_path_indicator(self):
        assert surplus_U(path_graph(3), (1.0, 0.0, 1.0)) == 2.0

    def test_zero_point(self):
        assert surplus_U(cycle_graph(4), np.zeros(4)) == 0.0

    def test_triangle_all_ones(self):
        assert surplus_U(clique_graph(3), (1.0, 1.0, 1.0)) == 0.0

    def test_matches_value_minus_cost(self, rng):
        for name, g in hardness_corpus()[:8]:
            c = GraphMinCost(g)
            v = Affine((1.0,) * g.node_count, 0.0)
            for _ in range(20):
                x = rng.random(g.node_count)
                assert abs(surplus_U(g, x) - (v.value(x) - c.value(x))) < 1e-12, name
                assert abs(surplus_U(g, x) - surplus_oracle(g, x)) < 1e-12, name

    def test_out_of_box_rejected(self):
        with pytest.raises(PreconditionError):
            surplus_U(path_graph(2), (1.5, 0.0))


class TestBruteForce:
    def test_triangle(self):
        val, arg = brute_force_max(clique_graph(3))
        assert val == 1
        assert arg.tolist() == [0.0, 0.0, 1.0]  # lexicographically smallest

    def test_path_three(self):
        val, arg = brute_force_max(path_graph(3))
        assert val == 2
        assert arg.tolist() == [1.0, 0.0, 1.0]

    def test_empty_graph(self):
        val, arg = brute_force_max(empty_graph(6))
        assert val == 6
        assert arg.tolist() == [1.0] * 6

    def test_value_is_integer(self):
        for name, g in hardness_corpus():
            val, _ = brute_force_max(g)
            assert isinstance(val, int), name

    def test_too_large_rejected(self):
        with pytest.raises(PreconditionError):
            brute_force_max(empty_graph(21))


class TestMisOracle:
    def test_small_cases(self):
        assert mis_brute_force(clique_graph(3)) == 1
        assert mis_brute_force(cycle_graph(5)) == 2
        assert mis_brute_force(empty_graph(7)) == 7
        assert mis_brute_force(star_graph(6)) == 5
        assert mis_brute_force(path_graph(4)) == 2

    def test_reduction_identity_over_corpus(self):
        corpus = hardness_corpus()
        assert len(corpus) >= 20
        for name, g in corpus:
            assert g.node_count <= 12, name
            val, arg = brute_force_max(g)
            assert val == mis_brute_force(g), name
            # the maximizer's active nodes really form an independent set
            active = np.nonzero(arg)[0]
            sub = g.adjacency[np.ix_(active, active)]
            assert sub.sum() == 0, name


class TestConvexityOfSurplus:
    def test_midpoint_inequality(self, rng):
        for name, g in hardness_corpus()[:10]:
            for _ in range(50):
                x = rng.random(g.node_count)
                y = rng.random(g.node_count)
                mid = surplus_U(g, (x + y) / 2)
                assert mid <= (surplus_U(g, x) + surplus_U(g, y)) / 2 + 1e-12, name


class TestDerandomize:
    def test_binary_input_unchanged(self):
        g = path_graph(3)
        for x in ([1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]):
            assert derandomize(g, x).tolist() == x

    def test_dominance_is_exact(self, rng):
        for name, g in hardness_corpus():
            for _ in range(10):
                xbar = rng.random(g.node_count)
                rounded = derandomize(g, xbar)
                assert set(np.unique(rounded)) <= {0.0, 1.0}, name
                assert surplus_exact(g, rounded) >= surplus_exact(g, xbar), name

    def test_path_midpoint_example(self):
        g = path_graph(3)
        xbar = (0.5, 0.5, 0.5)
        rounded = derandomize(g, xbar)
        assert surplus_exact(g, rounded) >= surplus_exact(g, xbar)

    def test_triangle_thirds_example(self):
        g = clique_graph(3)
        xbar = (1 / 3, 1 / 3, 1 / 3)
        rounded = derandomize(g, xbar)
        assert surplus_exact(g, rounded) >= surplus_exact(g, xbar)

    def test_jensen_direction(self, rng):
        # independent randomized rounding never loses surplus in expectation
        for name, g in hardness_corpus()[:10]:
            for _ in range(10):
                xbar = rng.random(g.node_count)
                state = RoundingState.from_fractional(g, xbar)
                assert state.expected_surplus() >= surplus_exact(g, xbar), name

    def test_expected_surplus_closed_form(self):
        g = path_graph(3)
        state = RoundingState.from_fractional(g, (0.5, 0.5, 0.5))
        # p1(1-p2) + p2(1-p1)(1-p3) + p3(1-p2)
        assert state.expected_surplus() == Fraction(5, 8)


class TestEquilibriumConsistency:
    def test_surplus_equals_mis_via_solver(self):
        # a linear value against the concave graph cost solves on the box corners
        for name, g in hardness_corpus()[:12]:
            d = g.node_count
            v = Affine((1.0,) * d, 0.0)
            out = solve_concave(v, GraphMinCost(g), BoxDomain(np.ones(d)))
            assert out.buyer_surplus == mis_brute_force(g), name


class TestGraphParsing:
    def test_text_format(self):
        g = parse_graph_text("3 2\n1 2\n2 3\n")
        assert g.node_count == 3 and g.edges == [(0, 1), (1, 2)]

    def test_comments_are_skipped_when_indented(self):
        g = parse_graph_text("# a path\n3 2\n  # note\n1 2\n\t# another\n\n2 3\n   #\n")
        assert g.node_count == 3 and g.edges == [(0, 1), (1, 2)]

    def test_json_mirror(self):
        g = path_graph(4)
        assert parse_graph_json(g.to_dict()).edges == g.edges

    def test_self_loop_rejected(self):
        with pytest.raises(PreconditionError):
            parse_graph_text("2 1\n1 1\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_graph_text("3\n1 2\n")

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_graph_text("3 2\n1 2\n")

    @pytest.mark.parametrize("i, j", [(1, 2), (2, 1)])
    def test_duplicate_edge_rejected(self, i, j):
        # refusals name the pair in the caller's numbering
        for build in (
            lambda: parse_graph_text(f"3 2\n1 2\n{i} {j}\n"),
            lambda: parse_graph_json({"node_count": 3, "edges": [[1, 2], [i, j]]}),
        ):
            with pytest.raises(PreconditionError, match=rf"^duplicate edge \({i}, {j}\)$"):
                build()
        with pytest.raises(PreconditionError, match=rf"^duplicate edge \({i - 1}, {j - 1}\)$"):
            GraphInstance.from_edges(3, [(0, 1), (i - 1, j - 1)])

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"node_count": 3.7, "edges": [[1, 2]]}, "node_count"),
            ({"node_count": 3.0, "edges": []}, "node_count"),
            ({"node_count": True, "edges": []}, "node_count"),
            ({"node_count": 3, "edges": [[1, 2.9]]}, "edges"),
            ({"node_count": 3, "edges": [[False, 2]]}, "edges"),
        ],
    )
    def test_non_integer_json_field_rejected(self, obj, field):
        with pytest.raises(ValueError, match=f"graph field '{field}' must hold integers") as info:
            parse_graph_json(obj)
        assert not isinstance(info.value, PreconditionError)

    @pytest.mark.parametrize("count", [0, -1])
    def test_node_count_below_one_rejected(self, count):
        for build in (
            lambda: parse_graph_text(f"{count} 0\n"),
            lambda: parse_graph_json({"node_count": count, "edges": []}),
            lambda: GraphInstance.from_edges(count, []),
        ):
            with pytest.raises(PreconditionError, match="graph needs at least one node"):
                build()

    def test_a_parsed_graph_is_validated_once(self, monkeypatch):
        # the parsers hand their 1-based pairs to the constructor, which checks them
        bases = []
        checked = graphs._checked_edges
        monkeypatch.setattr(graphs, "_checked_edges", lambda *args: bases.append(args[2]) or checked(*args))
        assert parse_graph_text("3 2\n1 2\n2 3\n").edges == [(0, 1), (1, 2)]
        assert parse_graph_json({"node_count": 3, "edges": [[3, 1]]}).edges == [(0, 2)]
        assert GraphInstance(3, [(2, 0)]).edges == [(0, 2)]
        assert bases == [1, 1, 0]

    def test_edges_are_sorted_zero_based_pairs(self):
        g = GraphInstance.from_edges(4, [(3, 1), (2, 0), (0, 1)])
        assert g.edges == [(0, 1), (0, 2), (1, 3)] and g.edge_count == 3
        assert g.neighbors == ((1, 2), (0, 3), (0,), (1,))
        assert g.adjacency.tolist() == [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_everywhere(self, bad):
        g = path_graph(3)
        x = (bad, 0.5, 0.5)
        for fn in (derandomize, surplus_exact, surplus_U, RoundingState.from_fractional):
            with pytest.raises(PreconditionError):
                fn(g, x)


class TestBitmaskEnumeration:
    """`brute_force_max` and `mis_brute_force` against the row-matrix scorer."""

    def check(self, name, g):
        val, arg = brute_force_max(g)
        want_val, want_arg = reference_max(g)
        assert val == want_val, name
        assert arg.dtype == want_arg.dtype and arg.tolist() == want_arg.tolist(), name
        assert mis_brute_force(g) == want_val, name

    def test_random_graphs(self):
        for d in range(1, 15):
            for p in (0.1, 0.3, 0.6):
                self.check(f"G({d}, {p})", random_graph(d, p, 97 * d + int(10 * p)))

    @pytest.mark.parametrize("d", [16, 17])
    def test_low_high_table_boundary(self, d):
        for p in (0.15, 0.4):
            self.check(f"G({d}, {p})", random_graph(d, p, 7 * d))

    @pytest.mark.parametrize(
        "g", [empty_graph(20), clique_graph(20), star_graph(18)], ids=["empty20", "clique20", "star18"]
    )
    def test_extreme_graphs(self, g):
        self.check(repr(g), g)


class TestLocalDeltaRounding:
    """`derandomize` makes the decisions of two full `E[U]` sums per coordinate."""

    def test_corpus_with_exact_coordinates(self, rng):
        for name, g in hardness_corpus():
            for _ in range(5):
                x = rng.random(g.node_count)
                x[rng.random(g.node_count) < 0.25] = 0.0
                x[rng.random(g.node_count) < 0.25] = 1.0
                assert derandomize(g, x).tolist() == reference_derandomize(g, x).tolist(), name

    def test_random_graphs(self, rng):
        for d, p in ((8, 0.05), (15, 0.2), (25, 0.1), (40, 0.2)):
            g = random_graph(d, p, d)
            for _ in range(3):
                x = rng.random(d)
                assert derandomize(g, x).tolist() == reference_derandomize(g, x).tolist(), (d, p)

    def test_isolated_nodes(self, rng):
        g = GraphInstance.from_edges(7, [(1, 2), (2, 3)])  # 0, 4, 5, 6 isolated
        for _ in range(10):
            x = rng.random(7)
            rounded = derandomize(g, x)
            assert rounded.tolist() == reference_derandomize(g, x).tolist()
            assert rounded[[0, 4, 5, 6]].tolist() == [1.0] * 4

    @pytest.mark.parametrize("tiny", [5e-324, 2.5e-310, 1e-300, 2.0**-60])
    def test_subnormal_and_mixed_exponent_points(self, rng, tiny):
        # a tiny coordinate puts every numerator on 2^K with K up to 1074,
        # next to 3-decimal, scaled-down and exact 0/1 coordinates
        for d, p in ((8, 0.3), (15, 0.2), (30, 0.1)):
            g = random_graph(d, p, d)
            for _ in range(3):
                x = rng.random(d)
                x[rng.random(d) < 0.3] = tiny
                x[rng.random(d) < 0.2] *= 1e-8
                pick = rng.random(d) < 0.2
                x[pick] = np.round(x[pick], 3)
                x[rng.random(d) < 0.1] = 1.0
                assert derandomize(g, x).tolist() == reference_derandomize(g, x).tolist(), (d, p, tiny)
                assert surplus_exact(g, x) == fraction_surplus(g, x), (d, p, tiny)

    def test_exact_tie_fixes_to_one(self):
        # E1 - E0 = (1 - p1) - p1 = 0 at node 0
        assert derandomize(path_graph(2), (0.5, 0.5)).tolist() == [1.0, 0.0]
        assert reference_derandomize(path_graph(2), (0.5, 0.5)).tolist() == [1.0, 0.0]

    def test_large_sparse_graph_keeps_dominance(self, run_capped):
        # mean degree 4; run under the address-space cap, which a dense
        # n x n matrix (3.2 GB at n = 20,000) would exceed
        for n in (2000, 20000):
            proc = run_capped("-c", SPARSE_ROUNDING, str(n), str(2 * n))
            assert proc.returncode == 0 and proc.stdout == "dominance holds\n", (n, proc.stderr)


SPARSE_ROUNDING = """
import sys
import numpy as np
from padd import GraphInstance, derandomize, surplus_exact

n, m = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(n)
edges = set()
while len(edges) < m:
    i, j = sorted(rng.integers(0, n, size=2).tolist())
    if i != j:
        edges.add((i, j))
g = GraphInstance.from_edges(n, sorted(edges))
x = rng.random(n)
rounded = derandomize(g, x)
assert set(np.unique(rounded)) <= {0.0, 1.0}
assert surplus_exact(g, rounded) >= surplus_exact(g, x)
print("dominance holds")
"""


@st.composite
def small_graphs(draw, max_nodes=10):
    d = draw(st.integers(1, max_nodes))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return GraphInstance.from_edges(d, [e for e, k in zip(pairs, keep) if k])


unit_floats = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
# full precision, 3 decimals, exact 0/1 and -0.0, subnormals (K up to 1074)
# and tiny normals, mixed within one point
dyadic_coordinates = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(0, 1000).map(lambda n: n / 1000),
    st.sampled_from([0.0, 1.0, -0.0, 5e-324, 2.5e-310]),
    st.floats(0.0, 1e-300),
    st.floats(1e-12, 1e-6),
)


@st.composite
def graph_points(draw):
    g = draw(small_graphs())
    x = draw(st.lists(dyadic_coordinates, min_size=g.node_count, max_size=g.node_count))
    return g, np.array(x)


class TestHardnessProperties:
    @settings(derandomize=True, deadline=None)
    @given(small_graphs())
    def test_enumerators_agree_with_branching_oracle(self, g):
        val, _ = brute_force_max(g)
        assert val == mis_brute_force(g) == branching_mis(g)

    @settings(derandomize=True, deadline=None)
    @given(small_graphs())
    def test_argmax_is_lexicographically_smallest_independent_maximizer(self, g):
        val, arg = brute_force_max(g)
        active = np.nonzero(arg)[0]
        a = g.adjacency
        assert a[np.ix_(active, active)].sum() == 0
        nbr = [np.flatnonzero(row).tolist() for row in a]
        for row in product((0, 1), repeat=g.node_count):  # lexicographic order
            score = sum(row[i] and not any(row[j] for j in nbr[i]) for i in range(g.node_count))
            assert score <= val
            if score == val:
                assert arg.tolist() == list(map(float, row))
                break

    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_rounding_never_loses_exact_surplus(self, data):
        g = data.draw(small_graphs())
        x = np.array(data.draw(st.lists(unit_floats, min_size=g.node_count, max_size=g.node_count)))
        rounded = derandomize(g, x)
        assert set(np.unique(rounded)) <= {0.0, 1.0}
        assert surplus_exact(g, rounded) >= surplus_exact(g, x)
        assert rounded.tolist() == reference_derandomize(g, x).tolist()

    @settings(derandomize=True, deadline=None)
    @given(graph_points())
    def test_integer_gain_has_the_fraction_sign_at_every_step(self, case):
        # both walks fix the same coordinate the same way, so they see the same states
        g, x = case
        p, bits = _dyadic(x)
        q = [(1 << e) - num for num, e in zip(p, bits)]
        probs = RoundingState.from_fractional(g, x).probs
        assert probs == [Fraction(v, 1 << e) for v, e in zip(p, bits)]
        for k in range(g.node_count):
            if probs[k] == 0 or probs[k] == 1:
                continue
            scaled, exact = _scaled_gain(p, q, bits, k, g.neighbors), fix_gain(probs, g.neighbors, k)
            assert (scaled > 0) - (scaled < 0) == (exact > 0) - (exact < 0), k
            (p[k], q[k], bits[k]), probs[k] = ((1, 0, 0), Fraction(1)) if scaled >= 0 else ((0, 1, 0), Fraction(0))
        assert derandomize(g, x).tolist() == [float(v) for v in probs] == fraction_derandomize(g, x).tolist()

    @settings(derandomize=True, deadline=None)
    @given(graph_points())
    def test_surplus_exact_equals_the_fraction_sum(self, case):
        g, x = case
        got = surplus_exact(g, x)
        assert isinstance(got, Fraction) and got == fraction_surplus(g, x)
        assert surplus_U(g, x) == float(fraction_surplus(g, x))
