"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with `pytest -s` to see them
on success) and enforces the stated numeric tolerances and runtime bounds.
"""

import time

import numpy as np

import padd
from padd import (
    BoxDomain,
    PowerSum,
    bregman,
    brute_force_max,
    derandomize,
    equivalence_check,
    mis_brute_force,
    optimal_price_family,
    overfit_scenario,
    seller_optimal_linear_price,
    solve_auto,
    solve_concave,
    solve_convex,
    solve_general,
    surplus_exact,
)
from padd.funcs import Shape
from padd.instances import (
    capped_value_demo,
    concave_cost_demo,
    convex_cost_demo,
    equivalence_suite,
    hardness_corpus,
)

SQRT = PowerSum((1.0,), (0.5,))
SQUARE = PowerSum((1.0,), (2.0,))


def _report(criterion: int, name: str, ok: bool, extra: str = ""):
    tail = f"  {extra}" if extra else ""
    print(f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {criterion} ({name}) failed{tail}"


def test_criterion_1_convex_benchmark():
    v, c, box = convex_cost_demo()
    t0 = time.perf_counter()
    out = solve_auto(v, c, box)
    general = solve_general(v, c, box)
    elapsed = time.perf_counter() - t0

    ok = (
        out.method == "convex_closed_form"
        and abs(out.bundle[0] - 4.0) < 1e-6
        and abs(general.bundle[0] - 4.0) < 1e-3
        and abs(out.payment - 32.0) < 1e-6
        and abs(out.unit_prices[0] - 8.0) < 1e-6
        and abs(out.buyer_surplus - 96.0) < 1e-6
        and abs(out.seller_revenue - 16.0) < 1e-6
        and abs(out.seller_revenue - bregman(c, (0.0,), out.bundle)) < 1e-9
        and elapsed < 1.0
    )
    _report(1, "convex-cost benchmark reproduction", ok, f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_concave_benchmark():
    v, c, box = concave_cost_demo()
    t0 = time.perf_counter()
    out = solve_auto(v, c, box)
    elapsed = time.perf_counter() - t0

    ok = (
        out.method == "concave_closed_form"
        and abs(out.bundle[0] - 16.0) < 1e-5
        and abs(out.payment - 4.0) < 1e-6
        and abs(out.unit_prices[0] - 0.25) < 1e-6
        and abs(out.buyer_surplus - 4.0) < 1e-6
        and abs(out.seller_revenue) < 1e-6
        and elapsed < 1.0
    )
    _report(2, "concave-cost benchmark reproduction", ok, f"{elapsed * 1e3:.0f} ms")


def test_criterion_3_capped_value_scenario():
    t0 = time.perf_counter()
    v, c, box = capped_value_demo()
    out = solve_auto(v, c, box)
    sol = seller_optimal_linear_price(SQRT, SQUARE, BoxDomain(np.array([10.0])))
    report = overfit_scenario(0.05)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(out.bundle[0] - 0.81) < 1e-4
        and abs(out.payment - 1.3122) < 1e-4
        and abs(out.seller_revenue - 0.6561) < 1e-4
        and abs(sol.price[0] - 1.0) < 1e-3
        and abs(sol.bundle[0] - 0.25) < 1e-3
        and abs(sol.revenue - 0.1875) < 1e-4
        and abs(report.rich_revenue - 0.1939) < 1e-6
        and abs(report.rich_buyer_surplus - 7.25) < 1e-6
        and elapsed < 5.0
    )
    _report(3, "capped-value scenario reproduction", ok, f"{elapsed * 1e3:.0f} ms")


def test_criterion_4_surplus_equals_independent_set():
    corpus = hardness_corpus()
    t0 = time.perf_counter()
    mismatches = []
    for name, g in corpus:
        val, _ = brute_force_max(g)
        if val != mis_brute_force(g):
            mismatches.append(name)
    elapsed = time.perf_counter() - t0

    ok = len(corpus) >= 20 and all(g.node_count <= 12 for _, g in corpus)
    ok = ok and not mismatches and elapsed < 10.0
    _report(
        4,
        "surplus maximum equals independent-set size",
        ok,
        f"{len(corpus)} graphs, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_5_derandomization_dominance():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    failures = 0
    total = 0
    for name, g in hardness_corpus():
        for _ in range(100):
            xbar = rng.random(g.node_count)
            rounded = derandomize(g, xbar)
            total += 1
            if not surplus_exact(g, rounded) >= surplus_exact(g, xbar):
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "derandomized rounding never loses surplus (exact)",
        failures == 0,
        f"{total} roundings, {elapsed:.1f} s",
    )


def test_criterion_6_pricing_class_equivalence():
    suite = equivalence_suite()
    shapes = {c.shape for _, _, c, _ in suite}
    failures = []
    for name, v, c, box in suite:
        rep = equivalence_check(v, c, box)
        if not rep.equivalent:
            failures.append(name)
    ok = (
        len(suite) >= 10
        and {Shape.CONVEX, Shape.CONCAVE, Shape.LINEAR} <= shapes
        and not failures
    )
    _report(6, "concave-pricing equilibrium equals linear-pricing", ok, f"{len(suite)} instances")


def test_criterion_7_property_suite():
    checks = []

    # (i) fraction feasibility on 10001 samples for every solved instance
    feasible = True
    for name, v, c, box in equivalence_suite():
        out = solve_auto(v, c, box)
        if not out.trade:
            continue
        alphas = np.linspace(0.0, 1.0, 10001)
        margins = alphas * out.payment - c.values(alphas[:, None] * out.bundle)
        feasible &= bool(
            margins.max() <= out.payment - c.value(out.bundle) + 1e-9 * max(1.0, out.payment)
        )
    checks.append(("fraction_feasibility", feasible))

    # (ii) payment invariance across 50 random splits at 1e-12
    rng = np.random.default_rng(11)
    xstar, pstar = np.array([4.0, 2.0, 1.0]), 32.0
    inv = True
    for _ in range(50):
        lam = rng.random(3)
        lam /= lam.sum()
        p = optimal_price_family(xstar, pstar, lam)
        inv &= abs(float(p @ xstar) - pstar) <= 1e-12
    checks.append(("payment_invariance", inv))

    # (iii) imitation weakly dominates truth-telling on every instance
    dominates = True
    for name, v, c, box in equivalence_suite():
        out = solve_auto(v, c, box)
        truth = seller_optimal_linear_price(v, c, box)
        truthful = v.value(truth.bundle) - float(truth.price @ truth.bundle)
        dominates &= out.buyer_surplus >= truthful - 1e-6
    checks.append(("imitation_dominates_truth", dominates))

    # (iv) imitating the cost forces zero trade on both benchmarks
    zero_trade = True
    for _, c, box in (convex_cost_demo(), concave_cost_demo()):
        sol = seller_optimal_linear_price(c, c, box)
        zero_trade &= abs(sol.revenue) < 1e-6 and float(np.max(sol.bundle)) < 1e-6
    checks.append(("imitating_cost_zero_trade", zero_trade))

    # (v) general solver agrees with the closed-form specializations
    agree = True
    for name, v, c, box in equivalence_suite():
        shape = c.shape
        if shape is Shape.CONVEX:
            special = solve_convex(v, c, box)
        elif shape in (Shape.CONCAVE, Shape.LINEAR):
            special = solve_concave(v, c, box)
        else:
            continue
        general = solve_general(v, c, box)
        if general.trade != special.trade:
            agree = False
            continue
        if general.trade:
            agree &= bool(np.max(np.abs(general.bundle - special.bundle)) < 1e-3)
            agree &= abs(general.payment - special.payment) < 1e-4
            agree &= abs(general.buyer_surplus - special.buyer_surplus) < 1e-4
            agree &= abs(general.seller_revenue - special.seller_revenue) < 1e-4
    checks.append(("general_vs_specialized", agree))

    for name, ok in checks:
        print(f"  - {name}: {'PASS' if ok else 'FAIL'}")
    _report(7, "equilibrium property suite", all(ok for _, ok in checks))
