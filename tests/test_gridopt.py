import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padd import PowerSum
from padd.gridopt import coordinate_refine, golden_max, top_k

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


class TestGoldenMax:
    @pytest.mark.parametrize("lo,hi", [(0.0, 3.0), (3.0, 0.0), (1.0, 1.0 + 1e-12), (0.5, 0.75)])
    def test_one_bracket_matches_the_scalar_search_bit_for_bit(self, lo, hi):
        def f(t):
            return np.sqrt(t) * 8.0 - t * t

        got = golden_max(f, lo, hi, tol=1e-10)
        want = scalar_golden(lambda t: float(f(np.float64(t))), lo, hi, 1e-10)
        assert got.shape == (1,) and got[0] == want

    def test_boundary_maximum_is_exact(self):
        assert golden_max(lambda t: t, 0.25, 2.0).tolist() == [2.0]
        assert golden_max(lambda t: -t, 0.25, 2.0).tolist() == [0.25]

    def test_brackets_of_different_widths_keep_their_own_schedule(self):
        def f(t):
            return -((t - 0.3) ** 2)

        lo, hi = np.array([0.0, 0.2, 0.29]), np.array([1.0, 0.4, 0.29 + 5e-11])
        got = golden_max(f, lo, hi, tol=1e-10)
        want = [scalar_golden(lambda t: float(f(np.float64(t))), a, b, 1e-10) for a, b in zip(lo, hi)]
        assert got.tolist() == want


class TestCoordinateRefine:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(refine_cases())
    def test_lockstep_equals_one_start_at_a_time(self, case):
        f, starts, spacing, upper, passes, tol = case
        together = coordinate_refine(f, starts, spacing, upper, passes, tol)
        alone = np.vstack([coordinate_refine(f, s, spacing, upper, passes, tol) for s in starts])
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

            coordinate_refine(g, starts[:k], spacing, upper, 2, 1e-10)
            calls[k] = counted
        assert len(calls[3]) == len(calls[1])
        assert sum(calls[3]) == 3 * sum(calls[1])


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
