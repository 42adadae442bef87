#!/usr/bin/env python3
# The existence arguments are topological: in the one-dimensional case the
# scalar bifurcation function changes sign across the search interval, and
# in the two-dimensional case the planar bifurcation map has winding number
# one on a large circle, which forces a zero inside. Both are observable.

import numpy as np

from perdiff import (
    BifurcationMap,
    Problem,
    bifurcation_jacobian,
    bifurcation_value,
    build_linear_data,
    solve,
    winding_of_map,
)

G = "tanh(x)+0.1*cos(2*pi*t/3)"

print("one-dimensional kernel (b, c) = (-3, 2): sign change over [-r, r]")
p1 = Problem.from_text(-3, 2, 3, G)
bm1 = BifurcationMap(p1, build_linear_data(p1))
for a in (-10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0):
    v = bifurcation_value(bm1, [a])[0]
    print(f"  beta({a:+6.1f}) = {v:+.6f}")
print("  -> opposite signs at the interval ends pin a zero; Brent's method keeps")
print("     a sign-change bracket around it while closing in")

print()
print("two-dimensional kernel (b, c) = (1, 1): winding of the planar map")
p2 = Problem.from_text(1, 1, 3, G)
bm2 = BifurcationMap(p2, build_linear_data(p2))
for radius in (5.0, 20.0, 50.0, 200.0):
    w = winding_of_map(lambda a: bifurcation_value(bm2, a), radius)
    print(f"  radius {radius:6.1f}: winding = {w}")

print()
print("image of the circle |alpha| = 50 (coarse sweep):")
for k in range(8):
    phi = 2.0 * np.pi * k / 8.0
    alpha = 50.0 * np.array([np.cos(phi), np.sin(phi)])
    v = bifurcation_value(bm2, alpha)
    print(f"  phi = {phi:5.2f}: beta = ({v[0]:+8.4f}, {v[1]:+8.4f})")
print("  -> the image walks once around the origin: degree one, a zero exists")

# the derivative of the map at that zero, from the implicit-function theorem,
# gives its local index: the sign of the determinant
root = solve(p2, radius=50.0).alpha
J = bifurcation_jacobian(bm2, root)
print()
print(f"zero at alpha = ({root[0]:+.6f}, {root[1]:+.6f}), det of the Jacobian = {np.linalg.det(J):+.4f}")
print(f"  -> local index {int(np.sign(np.linalg.det(J))):+d}, consistent with degree one")
