"""Bundled benchmark instances.

These are the worked examples the demos, fixtures, and acceptance tests
share: two one-dimensional equilibria with closed-form solutions, the
capped-line over-exploitation instance, and a graph corpus for the
surplus/independent-set identity.
"""

from __future__ import annotations

import numpy as np

from .funcs import (
    Affine,
    BoxDomain,
    FunctionExpr,
    Leontief,
    MinOfAffine,
    PowerSum,
    Scale,
    Sum,
)
from .graphs import (
    GraphInstance,
    clique_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    star_graph,
)

__all__ = [
    "convex_cost_demo",
    "concave_cost_demo",
    "capped_value_demo",
    "equivalence_suite",
    "hardness_corpus",
    "SCENARIOS",
]

Instance = tuple[FunctionExpr, FunctionExpr, BoxDomain]


def convex_cost_demo() -> Instance:
    """v(x) = 64 sqrt(x), c(x) = x^2 on [0, 100].

    Equilibrium: bundle 4, payment 32 (unit price 8), buyer surplus 96,
    seller revenue 16.
    """
    return PowerSum((64.0,), (0.5,)), PowerSum((1.0,), (2.0,)), BoxDomain(np.array([100.0]))


def concave_cost_demo() -> Instance:
    """v(x) = 4 x^(1/4), c(x) = sqrt(x) on [0, 100].

    Equilibrium: bundle 16, payment 4 (unit price 1/4), buyer surplus 4,
    seller revenue 0.
    """
    return PowerSum((4.0,), (0.25,)), PowerSum((1.0,), (0.5,)), BoxDomain(np.array([100.0]))


def capped_value_demo() -> Instance:
    """v(x) = min(10x, 8.1), c(x) = x^2 on [0, 10].

    Equilibrium: bundle 0.81, payment 1.3122, seller revenue 0.6561.
    """
    v = MinOfAffine([Affine((10.0,), 0.0), Affine((0.0,), 8.1)])
    return v, PowerSum((1.0,), (2.0,)), BoxDomain(np.array([10.0]))


def equivalence_suite() -> list[tuple[str, FunctionExpr, FunctionExpr, BoxDomain]]:
    """Named instances spanning convex, concave, and linear costs."""
    box100 = BoxDomain(np.array([100.0]))
    box10 = BoxDomain(np.array([10.0]))
    box2d = BoxDomain(np.array([5.0, 5.0]))
    sqrt_x = PowerSum((1.0,), (0.5,))
    suite: list[tuple[str, FunctionExpr, FunctionExpr, BoxDomain]] = []

    v, c, box = convex_cost_demo()
    suite.append(("sqrt_value_square_cost", v, c, box))
    v, c, box = concave_cost_demo()
    suite.append(("quartic_root_value_sqrt_cost", v, c, box))
    v, c, box = capped_value_demo()
    suite.append(("capped_line_value_square_cost", v, c, box))
    suite.append(("sqrt_value_linear_cost", Scale(8.0, sqrt_x), Affine((0.5,), 0.0), box100))
    suite.append(("capped_line_value_linear_cost", MinOfAffine([Affine((4.0,), 0.0), Affine((0.0,), 6.0)]), Affine((1.0,), 0.0), box10))
    suite.append(("sqrt_value_cubic_cost", Scale(12.0, sqrt_x), PowerSum((0.5,), (3.0,)), box10))
    suite.append(("anchored_value_square_cost", Leontief((4.0,), 32.0), PowerSum((1.0,), (2.0,)), box100))
    suite.append(("power_value_power_cost", PowerSum((6.0,), (0.75,)), PowerSum((1.0,), (1.5,)), box10))
    suite.append(("zero_surplus_no_trade", sqrt_x, sqrt_x, box100))
    suite.append(
        (
            "two_goods_sqrt_value_square_cost",
            PowerSum((8.0, 4.0), (0.5, 0.5)),
            PowerSum((1.0, 0.5), (2.0, 2.0)),
            box2d,
        )
    )
    suite.append(
        (
            "two_goods_mixed_value_concave_cost",
            Sum([PowerSum((3.0, 0.0), (0.5, 1.0)), Affine((0.0, 0.25), 0.0)]),
            PowerSum((0.5, 0.5), (0.5, 1.0)),
            box2d,
        )
    )
    return suite


def hardness_corpus() -> list[tuple[str, GraphInstance]]:
    """Graphs (all with at most 12 nodes) for the surplus/MIS identity."""
    corpus: list[tuple[str, GraphInstance]] = []
    for n in (2, 3, 4, 6, 8):
        corpus.append((f"path_{n}", path_graph(n)))
    for n in (3, 4, 5, 7, 9):
        corpus.append((f"cycle_{n}", cycle_graph(n)))
    for n in (3, 5, 8):
        corpus.append((f"clique_{n}", clique_graph(n)))
    for n in (4, 6, 9):
        corpus.append((f"star_{n}", star_graph(n)))
    corpus.append(("empty_5", empty_graph(5)))
    for seed, n in ((0, 8), (1, 8), (2, 10), (3, 10), (4, 12)):
        corpus.append((f"random_{n}_seed{seed}", random_graph(n, 0.4, seed)))
    return corpus


# scenario ids used by the command-line reproduction; the ids match the
# output file names (fig2a.csv etc.)
SCENARIOS = {
    "fig2a": convex_cost_demo,
    "fig2b": concave_cost_demo,
}
