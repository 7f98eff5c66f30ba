"""How the equilibrium payment is read off the cost function.

The payment for a bundle x is the steepest chord slope of t -> c(t x)
ending at t = 1.  Convex costs push the supremum to the t -> 1 limit
(payment x . grad c, revenue the divergence D_c(0, x)); concave costs pin
it at t = 0 (payment c(x), revenue zero).

Run: python demos/payment_geometry.py
"""

import numpy as np

from padd import Affine, PowerSum, Shape, Sum, bregman, ray_slope_sup


# where the supremum sits, by the cost's curvature
WHERE = {
    Shape.CONVEX: "limit t -> 1",
    Shape.CONCAVE: "attained at t = 0",
    Shape.LINEAR: "attained at t = 0",
    Shape.GENERAL: "largest slope on the fraction grid",
}


def chord_table(c, x, label):
    print(f"-- {label}, bundle x = {x[0]:g} --")
    for a in (0.0, 0.25, 0.5, 0.75, 0.9, 0.99):
        slope = (c.value(x) - c.value(a * np.asarray(x))) / (1 - a)
        print(f"  chord from t={a:<5} slope = {slope:.6g}")
    payment = ray_slope_sup(c, x)
    print(f"  payment = {payment:.6g} ({WHERE[c.shape]})")
    return payment


def main():
    square = PowerSum((1.0,), (2.0,))
    payment = chord_table(square, np.array([4.0]), "convex cost x^2")
    print(f"  closed form x * c'(x) = {4.0 * 8.0:.6g}")
    print(f"  revenue = payment - c(x) = {payment - square.value((4.0,)):.6g}"
          f" = D_c(0, x) = {bregman(square, (0.0,), (4.0,)):.6g}")
    print()

    sqrt_c = PowerSum((1.0,), (0.5,))
    chord_table(sqrt_c, np.array([16.0]), "concave cost sqrt(x)")
    print("  concave: the whole cost is the payment, revenue 0")
    print()

    chord_table(Affine((2.0,), 0.0), np.array([3.0]), "linear cost 2x (slope constant)")
    print()

    chord_table(Sum([square, sqrt_c]), np.array([4.0]), "mixed cost x^2 + sqrt(x) (grid supremum)")


if __name__ == "__main__":
    main()
