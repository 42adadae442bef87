#!/usr/bin/env python3
# Walk through the linear side of the periodic problem: companion system,
# circulant symbol, resonance classification, and the projection/partial-
# inverse machinery that everything else is built on.

import numpy as np

from perdiff import (
    Problem,
    apply_L,
    build_linear_data,
    image_test,
    mp_solve,
    proj_P,
    proj_Q,
    sup_norm,
)

np.set_printoptions(precision=6, suppress=True)

print("=" * 70)
print("Three instances of y(t+2) + b y(t+1) + c y(t) = g(t, y(t)), N = 3")
print("=" * 70)

for b, c in [(0, 2), (-3, 2), (1, 1)]:
    p = Problem.from_text(b, c, 3, "0")
    ld = build_linear_data(p)
    rc = ld.resonance
    print(f"\n(b, c) = ({b}, {c})")
    print("companion matrix A:\n", ld.A)
    print("symbol lambda_k on the modes k = 0..N//2:", ld.symbol)
    print(f"min |lambda_k| = {np.min(np.abs(ld.symbol)):.3e}, resonant modes:",
          np.flatnonzero(ld.symbol_inv == 0).tolist())
    print("kernel dimension of the periodic problem:", rc.dim)
    if rc.dim == 1:
        print("kernel direction (constant):", rc.kernel_basis[0][0])
        print("adjoint direction (constant):", rc.adjoint_basis[0][0])
    if rc.dim == 2:
        print(f"rotation angle theta = {rc.theta:.6f}, N*theta = 2*pi*{rc.r_int}")

print("\n" + "=" * 70)
print("Projections and the partial inverse on the resonant instance (-3, 2)")
print("=" * 70)

p = Problem.from_text(-3, 2, 3, "0")
ld = build_linear_data(p)
rng = np.random.default_rng(0)
x = rng.standard_normal((3, 2))

Px = proj_P(ld, x)
print("\nP projects onto the kernel: sup|P(Px) - Px| =", sup_norm(proj_P(ld, Px) - Px))
print("the kernel sequence is fixed:", proj_P(ld, ld.resonance.kernel_basis[0])[0])

h = rng.standard_normal((3, 2))
print("\nimage obstruction of a random h:", image_test(ld, h))
print("after removing the Q component:", image_test(ld, h - proj_Q(ld, h)))

h_in = h - proj_Q(ld, h)
sol = mp_solve(ld, h_in)
print("\npartial inverse: sup|L(Mp h) - h| =", sup_norm(apply_L(ld, sol) - h_in))
print("               sup|P(Mp h)|      =", sup_norm(proj_P(ld, sol)))

# the constant obstruction from the adjoint direction (-c, 1): a constant
# right-hand side (0, 1) pairs to N = 3, so no periodic solution exists
h_bad = np.tile([0.0, 1.0], (3, 1))
print("\nconstant forcing (0,1) has obstruction", image_test(ld, h_bad), "-> not solvable")
