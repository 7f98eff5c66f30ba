"""Equilibria of posted-price games against a buyer who commits to an
imitative value function.

The library computes, for a true buyer value `v`, a seller cost `c`, and a
box of producible bundles: the buyer's optimal committed (imitative) value
function, the equilibrium bundle and total payment, the induced unit-price
family, and both sides' payoffs, under linear and concave pricing classes.
It also ships the graph-based construction showing that optimizing the
commitment is as hard as maximum independent set, together with an exact
derandomized rounding.
"""

from .errors import DimensionError, PreconditionError
from .funcs import (
    Affine,
    BoxDomain,
    FunctionExpr,
    GraphMinCost,
    Leontief,
    MinOfAffine,
    PowerSum,
    Scale,
    Shape,
    Sum,
    as_bundle,
    as_price,
    expr_from_dict,
)
from .graphs import GraphInstance, parse_graph_json, parse_graph_text
from .raygeom import bregman, ray_slope_sup
from .response import (
    SellerSolution,
    SolverConfig,
    buyer_best_response,
    optimal_price_family,
    seller_optimal_linear_price,
)
from .equilibrium import (
    EquilibriumOutcome,
    VerificationReport,
    fixed_bundle_outcome,
    solve_auto,
    solve_concave,
    solve_convex,
    solve_general,
    verify_equilibrium,
)
from .hardness import (
    RoundingState,
    brute_force_max,
    derandomize,
    mis_brute_force,
    surplus_U,
    surplus_exact,
)
from .concavepricing import (
    ConcavePriceResult,
    EquivalenceReport,
    OverfitReport,
    best_concave_price,
    equivalence_check,
    overfit_scenario,
)

__version__ = "0.1.0"
