"""Walk through the two one-dimensional benchmark equilibria.

Run: python demos/worked_equilibria.py
"""

import numpy as np

from padd import bregman, solve_auto, solve_general, verify_equilibrium
from padd.instances import capped_value_demo, concave_cost_demo, convex_cost_demo


def show(title, v, c, box):
    print(f"== {title} ==")
    out = solve_auto(v, c, box)
    print(f"  method          {out.method}")
    print(f"  trade bundle    {out.bundle[0]:.6g}")
    print(f"  total payment   {out.payment:.6g}   (unit price {out.unit_prices[0]:.6g})")
    print(f"  buyer surplus   {out.buyer_surplus:.6g}")
    print(f"  seller revenue  {out.seller_revenue:.6g}")

    # the committed value function is worth the payment at the bundle and
    # proportionally less below it
    u = out.imitative
    xs = np.linspace(0, 1.25 * out.bundle[0], 6)
    profile = ", ".join(f"u({x:.3g})={u.value((x,)):.4g}" for x in xs)
    print(f"  commitment      {profile}")

    report = verify_equilibrium(out, v, c, box)
    status = "all pass" if report.passed else "FAILED"
    print(f"  verification    {status} ({len(report.checks)} checks)")

    general = solve_general(v, c, box)
    print(f"  general solver  bundle {general.bundle[0]:.6g}, payment {general.payment:.6g}")
    return out


def main():
    v, c, box = convex_cost_demo()
    out = show("convex cost: v = 64 sqrt(x), c = x^2", v, c, box)
    gap = out.payment - c.value(out.bundle)
    print(f"  revenue equals the chord gap D_c(0, x*): {gap:.6g} = {bregman(c, (0.0,), out.bundle):.6g}")
    print()

    show("concave cost: v = 4 x^(1/4), c = sqrt(x)  (revenue squeezed to 0)", *concave_cost_demo())
    print()

    show("capped line: v = min(10x, 8.1), c = x^2  (kink is the trade point)", *capped_value_demo())


if __name__ == "__main__":
    main()
