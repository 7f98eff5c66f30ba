import math
import traceback
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import reference_kernels as ref
from hypothesis import given, settings, strategies as st

from padd import Affine, BoxDomain, Leontief, MinOfAffine, PowerSum, PreconditionError, SolverConfig, Sum, solve_auto
from padd import best_concave_price, buyer_best_response, seller_optimal_linear_price, solve_general
from padd import concavepricing, equilibrium, gridopt, response
from padd.gridopt import axis_rows, coordinate_refine, golden_max, grid_blocks, grid_rows, grid_scan, grid_ties, refine_bracket, top_k
from padd.response import _separable

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def scalar_golden(f, lo, hi, tol):
    """Golden-section search on one bracket with scalar calls, as a reference."""
    a, b = (hi, lo) if hi < lo else (lo, hi)
    h = b - a
    if h <= tol:
        x = (a + b) / 2.0
    else:
        n = min(200, math.ceil(math.log(tol / h) / math.log(INVPHI)))
        c, d = a + INVPHI2 * h, a + INVPHI * h
        yc, yd = f(c), f(d)
        for _ in range(n - 1):
            h *= INVPHI
            if yc > yd:
                d, yd = c, yc
                c = a + INVPHI2 * h
                yc = f(c)
            else:
                a, c, yc = c, d, yd
                d = a + INVPHI * h
                yd = f(d)
        x = c if yc > yd else d
    return max((f(lo), lo), (f(hi), hi), (f(x), x))[1]


def separable_objective(k_v, k_c):
    """Batch objective `sum k_v sqrt(x) - sum k_c x^2` from catalog nodes."""
    v = PowerSum(k_v, (0.5,) * len(k_v))
    c = PowerSum(k_c, (2.0,) * len(k_c))
    return lambda xs: v.values(xs) - c.values(xs)


@st.composite
def refine_cases(draw):
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    coef = st.floats(0.2, 3.0)
    f = separable_objective([draw(coef) for _ in range(d)], [draw(coef) for _ in range(d)])
    upper = np.array([draw(st.floats(1.0, 10.0)) for _ in range(d)])
    # starts anywhere in the box, so brackets clipped at 0 or upper are narrower
    starts = np.array([[draw(st.floats(0.0, 1.0)) * u for u in upper] for _ in range(k)])
    spacing = upper / draw(st.integers(4, 50))
    return f, starts, spacing, upper, draw(st.integers(1, 2)), draw(st.sampled_from([1e-10, 1e-6, 1e-3]))


def width_for_steps(n):
    """A bracket width on which a golden search takes `n` steps (none for n = 0)."""
    return 0.5 * gridopt._GOLDEN_TOL if n == 0 else gridopt._GOLDEN_TOL / INVPHI ** (n - 0.5)


KINK = MinOfAffine([Affine((3.0,), 0.0), Affine((0.0,), 2.0)])

# elementwise objectives of positions of any shape
OBJECTIVES = {
    "smooth": lambda t: np.sqrt(t) * 8.0 - t * t,
    "constant": lambda t: np.zeros_like(t),
    "kink": lambda t: KINK.values(np.reshape(t, (-1, 1))).reshape(np.shape(t)) - 0.25 * t * t,
    "nan_above_0.6": lambda t: np.where(t > 0.6, np.nan, -((t - 0.3) ** 2)),
}


@st.composite
def golden_cases(draw):
    brackets = []
    for _ in range(draw(st.integers(1, 5))):
        # step counts n with n - 1 = 0, 1 and 2 (mod 3), widths <= tol, empty brackets
        n = draw(st.integers(0, 45))
        width = draw(st.sampled_from([width_for_steps(n), 0.0, gridopt._GOLDEN_TOL])) if n == 0 else width_for_steps(n)
        lo = draw(st.floats(0.0, 1.5))
        brackets.append((lo + width, lo) if draw(st.booleans()) else (lo, lo + width))
    return draw(st.sampled_from(sorted(OBJECTIVES))), np.array(brackets)


class TestGoldenMax:
    @pytest.mark.parametrize("lo,hi", [(0.0, 3.0), (3.0, 0.0), (1.0, 1.0 + 1e-12), (0.5, 0.75)])
    def test_one_bracket_matches_the_scalar_search_bit_for_bit(self, lo, hi):
        def f(t):
            return np.sqrt(t) * 8.0 - t * t

        got = golden_max(f, lo, hi)
        want = scalar_golden(lambda t: float(f(np.float64(t))), lo, hi, 1e-10)
        assert got.shape == (1,) and got[0] == want

    def test_boundary_maximum_is_exact(self):
        assert golden_max(lambda t: t, 0.25, 2.0).tolist() == [2.0]
        assert golden_max(lambda t: -t, 0.25, 2.0).tolist() == [0.25]

    def test_brackets_of_different_widths_keep_their_own_schedule(self):
        def f(t):
            return -((t - 0.3) ** 2)

        lo, hi = np.array([0.0, 0.2, 0.29]), np.array([1.0, 0.4, 0.29 + 5e-11])
        got = golden_max(f, lo, hi)
        want = [scalar_golden(lambda t: float(f(np.float64(t))), a, b, 1e-10) for a, b in zip(lo, hi)]
        assert got.tolist() == want

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(golden_cases())
    def test_every_bracket_matches_the_scalar_search_bit_for_bit(self, case):
        name, brackets = case
        f = OBJECTIVES[name]
        got = golden_max(f, brackets[:, 0], brackets[:, 1])
        want = np.array([scalar_golden(lambda t: float(f(np.float64(t))), lo, hi, gridopt._GOLDEN_TOL) for lo, hi in brackets])
        assert got.tobytes() == want.tobytes()

    def test_a_bracket_within_the_tolerance_weighs_its_midpoint(self):
        got = golden_max(lambda t: -np.abs(t - 1.0), [1.0 - 2e-11, 0.0], [1.0 + 2e-11, 3.0])
        assert got[0] == 1.0

    def test_a_constant_objective_picks_the_larger_position(self):
        got = golden_max(OBJECTIVES["constant"], [0.0, 2.0, 1.0], [1.0, 1.5, 1.0 + 1e-12])
        assert got.tolist() == [1.0, 2.0, 1.0 + 1e-12]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 36, 37, 38, 200])
    def test_a_search_of_n_steps_makes_one_call_per_three_steps_after_the_first(self, n):
        shapes = []

        def f(t):
            shapes.append(t.shape)
            return OBJECTIVES["smooth"](t)

        golden_max(f, [0.5, 1.0], [0.5 + width_for_steps(n), 1.0 + width_for_steps(max(n - 4, 0))])
        rest = [2 ** min(3, left) - 1 for left in range(n - 1, 0, -3)]
        assert len(shapes) == 1 + math.ceil((n - 1) / 3)
        assert shapes == [(4, 2)] + [(m, 2) for m in rest]

    def test_a_1e300_wide_bracket_runs_every_step(self):
        calls = []
        got = golden_max(lambda t: calls.append(t) or -np.abs(t - 3.0), [0.0], [1e300])
        n = math.ceil(math.log(gridopt._GOLDEN_TOL / 1e300) / math.log(gridopt._INVPHI))
        assert n > 1000  # no cap stops it short of the tolerance
        assert abs(got[0] - 3.0) <= gridopt._GOLDEN_TOL
        assert len(calls) == 1 + math.ceil((n - 1) / 3)


def output_bits(out):
    """Every float of an output, exactly, in a comparable structure."""
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    if isinstance(out, float):
        return out.hex()
    if isinstance(out, (tuple, list)):
        return [output_bits(o) for o in out]
    if hasattr(out, "__dict__"):
        return {key: output_bits(val) for key, val in vars(out).items()}
    return repr(out)


SQRT2, SQUARE2 = PowerSum((8.0, 4.0), (0.5, 0.5)), PowerSum((1.0, 0.5), (2.0, 2.0))
BOX2, SMALL = BoxDomain(np.array([3.0, 4.0])), SolverConfig(grid_points={1: 401, 2: 21})

# every caller of `golden_max` (the function that must be on the stack), each on a small game
GOLDEN_CALLERS = {
    "maximize_grid": ("_maximize", lambda: solve_auto(Leontief((1.0, 2.0), 3.0), SQUARE2, BOX2, SMALL)),
    "maximize_pruned": ("_maximize", lambda: solve_general(
        PowerSum((20.0, 10.0), (0.5, 0.5)), Sum([SQUARE2, PowerSum((1.0, 1.0), (0.5, 0.5))]), BOX2, SMALL
    )),
    "maximize_per_good": ("_maximize_per_good", lambda: solve_auto(SQRT2, SQUARE2, BOX2, SMALL)),
    "separable_buyer": ("buyer_best_response", lambda: buyer_best_response(SQRT2, (1.0, 2.0), BOX2, SQUARE2, SMALL)),
    "ray_pick": ("_ray_pick", lambda: best_concave_price(Leontief((1.0, 2.0), 3.0), SQUARE2, BOX2)),
    "seller_refine": ("_refine", lambda: seller_optimal_linear_price(SQRT2, SQUARE2, BOX2, SMALL)),
}


class TestSameBitsAsOneStepPerCall:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CALLERS))
    def test_every_caller_gets_the_bits_of_the_reference_search(self, monkeypatch, case):
        caller, run = GOLDEN_CALLERS[case]
        got = output_bits(run())
        reached = set()

        def reference(f, lo, hi):
            reached.update(frame.name for frame in traceback.extract_stack())
            return ref.golden_max(f, lo, hi)

        for module in (gridopt, equilibrium, response, concavepricing):
            monkeypatch.setattr(module, "golden_max", reference)
        want = output_bits(run())
        assert caller in reached
        assert got == want


class TestCoordinateRefine:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(refine_cases())
    def test_lockstep_equals_one_start_at_a_time(self, case):
        f, starts, spacing, upper, passes, tol = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gridopt, "_GOLDEN_TOL", tol)
            together = coordinate_refine(f, starts, spacing, upper, passes)
            alone = np.vstack([coordinate_refine(f, s, spacing, upper, passes) for s in starts])
        assert together.shape == starts.shape
        assert together.tobytes() == alone.tobytes()

    def test_k_starts_cost_as_many_calls_as_one(self):
        f = separable_objective([8.0, 6.0], [1.0, 2.0])
        upper = np.array([5.0, 5.0])
        starts = np.array([[1.0, 2.0], [2.5, 1.5], [3.0, 3.0]])  # interior: equal bracket widths
        spacing = upper / 20
        calls = {}
        for k in (1, 3):
            counted = []

            def g(xs):
                counted.append(len(xs))
                return f(xs)

            coordinate_refine(g, starts[:k], spacing, upper, 2)
            calls[k] = counted
        assert len(calls[3]) == len(calls[1])
        assert sum(calls[3]) == 3 * sum(calls[1])


class TestRefineBracket:
    @pytest.mark.parametrize("upper", [1.0, 2.3, 3.71, 5.0, 100.0])
    def test_end_next_to_the_upper_face_is_the_face(self, upper):
        n = 2001
        xs = np.linspace(0.0, upper, n)
        spacing = upper / (n - 1)
        lo, hi = refine_bracket(xs, spacing, upper)
        assert hi[-2] == hi[-1] == upper
        assert hi[:-2].tobytes() == (xs[:-2] + spacing).tobytes()
        assert lo[0] == 0.0 and lo[1:].tobytes() == (xs[1:] - spacing).tobytes()

    def test_elementwise_over_goods(self):
        upper = np.array([[3.71], [2.3]])
        spacing = upper / 2000
        x = np.array([[3.71 - 3.71 / 2000, 1.0], [2.3, 0.0]])
        lo, hi = refine_bracket(x, spacing, upper)
        assert hi.tolist() == [[3.71, 1.0 + spacing[0, 0]], [2.3, spacing[1, 0]]]
        assert lo[1, 1] == 0.0


class TestAxisRows:
    def test_one_position_per_coordinate(self):
        ts = np.array([[0.0, 1.5, 2.0], [3.0, 0.25, 4.0]])
        got = axis_rows(ts, np.arange(3), 3)
        assert got.tolist() == [
            [0.0, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 2.0],
            [3.0, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 4.0],
        ]

    def test_one_axis_per_row_of_positions(self):
        ts = np.array([[0.5, 1.0], [2.0, 3.0]])
        got = axis_rows(ts, np.array([[1], [0]]), 2)
        assert got.tolist() == [[0.0, 0.5], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0]]


class TestTopK:
    def test_ties_keep_index_order(self):
        vals = np.array([1.0, 3.0, 2.0, 3.0, 3.0, 0.0])
        for k in range(1, 8):
            assert top_k(vals, k).tolist() == np.argsort(-vals, kind="stable")[:k].tolist()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]), min_size=1, max_size=40),
        st.integers(1, 45),
    )
    def test_matches_full_stable_sort(self, vals, k):
        vals = np.array(vals)
        assert top_k(vals, k).tolist() == np.argsort(-vals, kind="stable")[:k].tolist()


SPECIAL = [-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]


def lookup(table, n):
    """Batch objective reading `table` at the flat index of each row of the
    grid on `[0, n - 1]^d`, whose rows hold their integer digits exactly."""
    return lambda rows: table[np.ravel_multi_index(rows.astype(int).T, (n,) * rows.shape[1])]


@st.composite
def scan_cases(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    table = np.array(draw(st.lists(st.sampled_from(SPECIAL), min_size=n**d, max_size=n**d)))
    k = draw(st.integers(1, n**d + 3))
    block = draw(st.integers(1, n**d + 1))
    return table, d, n, k, block, draw(st.sampled_from([0.0, 0.6]))


class TestGridScan:
    @pytest.mark.parametrize("upper,n", [([3.7], 11), ([1.0, 2.5], 6), ([0.3, 7.0, 1e-3], 5), ([5.0] * 4, 4)])
    def test_rows_are_the_box_grid_rows(self, upper, n):
        grid = BoxDomain(np.array(upper)).grid(n)
        with mock.patch.object(gridopt, "_BLOCK", 7):
            for start in (0, 1, 9):
                blocks = list(grid_blocks(np.array(upper), n, start))
                assert [lo for lo, _ in blocks] == list(range(start, len(grid), 7))
                assert np.vstack([rows for _, rows in blocks]).tobytes() == grid[start:].tobytes()
        idx = np.random.default_rng(3).integers(0, len(grid), 40)
        assert grid_rows(np.array(upper), n, idx).tobytes() == grid[idx].tobytes()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(scan_cases())
    def test_matches_the_whole_grid(self, case):
        table, d, n, k, block, tol = case
        upper = np.full(d, n - 1.0)
        grid = BoxDomain(upper).grid(n)
        with mock.patch.object(gridopt, "_BLOCK", block):
            vals, rows = grid_scan(lookup(table, n), upper, n, k)
            ties = grid_ties(lookup(table, n), upper, n, tol)
        want = top_k(table, k)
        assert vals.tobytes() == table[want].tobytes()
        assert rows.tobytes() == grid[want].tobytes()
        assert ties.tobytes() == grid[table >= table.max() - tol].tobytes()

    def test_ties_straddling_a_block_boundary_keep_index_order(self):
        n = 10
        table = np.linspace(0.0, 1.0, n)
        table[3:7] = 5.0  # blocks of 4: rows 3 | 4 5 6 tie across the boundary
        with mock.patch.object(gridopt, "_BLOCK", 4):
            _, rows = grid_scan(lookup(table, n), np.array([n - 1.0]), n, 3)
            ties = grid_ties(lookup(table, n), np.array([n - 1.0]), n, 0.0)
        assert rows[:, 0].tolist() == [3.0, 4.0, 5.0]
        assert ties[:, 0].tolist() == [3.0, 4.0, 5.0, 6.0]


class TestGridRowCap:
    def test_grid_blocks_refuses_more_rows_than_the_cap(self, monkeypatch):
        monkeypatch.setattr(gridopt, "_MAX_GRID_ROWS", 100)
        assert sum(len(rows) for _, rows in grid_blocks(np.ones(2), 10)) == 100
        with pytest.raises(PreconditionError, match=r"^grid of 11\^2 = 121 rows exceeds the 100 rows a search scans$"):
            next(grid_blocks(np.ones(2), 11))

    @pytest.mark.parametrize("search", ["pruned_solve", "seller", "buyer"])
    def test_every_grid_search_is_refused_at_once(self, search):
        # 10^5 points per axis in 2 goods: a 10^10-row grid
        box, cfg = BoxDomain(np.full(2, 5.0)), SolverConfig(grid_points={1: 2001, 2: 100000})
        v, c = PowerSum((1.0, 1.0), (0.5, 0.5)), PowerSum((1.0, 1.0), (2.0, 2.0))
        capped = MinOfAffine([Affine((4.0, 2.0), 0.0), Affine((0.0, 0.0), 6.0)])
        general = Sum([c, PowerSum((1.0, 1.0), (0.5, 0.5))])  # mixed curvature: the pruned bound pass
        run = {
            "pruned_solve": lambda: solve_general(capped, general, box, cfg),
            "seller": lambda: seller_optimal_linear_price(v, c, box, cfg),
            "buyer": lambda: buyer_best_response(Sum([v, capped]), (1.0, 1.0), box, c, cfg),
        }[search]
        with pytest.raises(PreconditionError, match="= 10000000000 rows exceeds"):
            run()


# 4 goods, default 21^4 grid: the largest default grid search (the capped
# total makes the value non-separable, so the solve cannot go one good at a time)
CONVEX_4D = (
    Sum([PowerSum((8.0,) * 4, (0.5,) * 4), MinOfAffine([Affine((1.0,) * 4, 0.0), Affine((0.0,) * 4, 6.0)])]),
    PowerSum((1.0, 1.5, 2.0, 2.5), (2.0,) * 4),
    BoxDomain(np.full(4, 5.0)),
)


def test_default_four_good_solve_holds_no_whole_grid():
    # the whole-grid solve of the separable game without the cap peaked at
    # 14.9 MB of traced heap: the (21^4, 4) grid, its gradients and powers
    # at once; streamed blocks hold about 1 MB
    v, c, box = CONVEX_4D
    assert not _separable(v)
    solve_auto(v, c, box)  # the first solve fills caches
    tracemalloc.start()
    try:
        out = solve_auto(v, c, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.method == "convex_closed_form" and out.trade
    assert peak < 4e6
