"""When a richer pricing class backfires on the seller.

On the capped-line instance, augmenting linear pricing with one carefully
shaped concave price lets the buyer switch to imitating sqrt(x): the
seller's chosen price then earns 0.2439 - eps instead of the 0.6561 the
plain linear class would extract.  The effect needs eps at or below the
switch threshold; above it the seller falls back to a linear response and the
augmentation is harmless.

Run: python demos/pricing_class_overfit.py
"""

from padd import overfit_scenario
from padd.concavepricing import OVERFIT_EPS_SWITCH


def main():
    print(f"switch threshold: eps <= {OVERFIT_EPS_SWITCH!r} for the added price to win")
    print()
    header = f"{'eps':>6} {'linear rev':>11} {'rich rev':>9} {'linear surplus':>15} {'rich surplus':>13}  seller picks"
    print(header)
    for eps in (0.01, 0.03, 0.05, 0.0563, 0.0565, 0.10, 0.20):
        r = overfit_scenario(eps)
        print(
            f"{eps:>6.4f} {r.linear_revenue:>11.4f} {r.rich_revenue:>9.4f} "
            f"{r.linear_buyer_surplus:>15.4f} {r.rich_buyer_surplus:>13.4f}  {r.chosen_price_tag}"
        )
    print()
    r = overfit_scenario(0.05)
    print("at eps = 0.05:")
    print(f"  best linear response to sqrt(x): price {r.sqrt_linear_price}, bundle {r.sqrt_linear_bundle}, revenue {r.sqrt_linear_revenue}")
    print(f"  added concave price revenue:     {r.rich_revenue} (> {r.sqrt_linear_revenue}, so the seller takes the bait)")
    print(f"  buyer surplus rises from {r.linear_buyer_surplus} to {r.rich_buyer_surplus}")
    print(f"  note: {r.note}")


if __name__ == "__main__":
    main()
