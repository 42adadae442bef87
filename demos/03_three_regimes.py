#!/usr/bin/env python3
# Solve the same nonlinearity g(t, x) = tanh(x) + 0.1 cos(2 pi t / 3) in all
# three resonance regimes and cross-check each solution against the
# independent cyclic-Newton oracle.

import numpy as np

from perdiff import Problem, multistart_search, residual, solve

G = "tanh(x)+0.1*cos(2*pi*t/3)"

for b, c, label in [
    (0, 2, "trivial kernel: fixed point of L^{-1} F by damped Newton"),
    (-3, 2, "one-dimensional kernel: sign change + bordered Newton"),
    (1, 1, "two-dimensional kernel: winding evidence + bordered Newton"),
]:
    p = Problem.from_text(b, c, 3, G)
    rep = solve(p, radius=50.0)
    print(f"(b, c) = ({b:+d}, {c:+d})  --  {label}")
    print("  y           =", np.array2string(rep.y, precision=10))
    print("  residual    =", rep.residual_sup)
    print("  regime      =", rep.regime, " alpha =", rep.alpha)
    if rep.winding is not None:
        print("  winding     =", rep.winding)
    print("  oracle ok   =", rep.oracle_verified)

    # brute-force multistart sees the same solution
    sols = multistart_search(p, 24, 5.0, seed=0)
    dist = min(np.max(np.abs(rep.y - s)) for s in sols)
    print(f"  multistart  = {len(sols)} solution(s), closest at sup-distance {dist:.2e}")
    print()

# the oracle residual is the final arbiter for any candidate sequence
p = Problem.from_text(-3, 2, 3, G)
y_bad = np.array([0.012, -0.025, 0.012])
print("perturbed candidate residual:", np.max(np.abs(residual(p, y_bad))))
