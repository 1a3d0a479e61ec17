"""Discrete conformal geometry and Yamabe descent on the flat 4-torus.

The conformal transformation law, its summation-by-parts structure, the
two pointwise inequalities behind the sign trichotomy, and a projected
gradient descent that drives the Yamabe quotient of the flat torus to
zero (the conformal class of the flat metric is the minimizer).
"""

import math

import numpy as np

from collapselab.conformal import (
    ConformalGrid,
    aubin_bound,
    conformal_scalar,
    holder_gap,
    minimize_yamabe,
    negative_case_check,
    yamabe_quotient,
)

grid = ConformalGrid(32)
x = grid.axis_coordinate(0)
u0 = 1.0 + 0.2 * np.cos(2.0 * np.pi * x)

print("conformal scalar curvature of u^2 g_flat for u = 1 + 0.2 cos(2 pi x):")
shat = conformal_scalar(grid, u0)
print(f"  range [{shat.min():.4f}, {shat.max():.4f}] "
      f"(oscillates, integrates against the right volume to the total energy)")
print(f"  initial Yamabe quotient = {yamabe_quotient(grid, u0):.6f}")

res = minimize_yamabe(grid, u0, max_iters=500, tol=1e-10)
spread = (res.u_star.max() - res.u_star.min()) / res.u_star.mean()
print(f"\ndescent: quotient = {res.quotient_star:.3e} after {res.iterations} "
      f"iterations; u relative spread = {spread:.3e}")
print("  the minimizer is the constant factor, i.e. the flat metric itself")

print("\nthe two sign inequalities at their equality cases (8^4 grid, u in [0.5, 1.5)):")
small = ConformalGrid(8)
rng = np.random.default_rng(1)
u = rng.random(small.shape) + 0.5
one = np.ones(small.shape)
at_one, at_minus_one = holder_gap(small, one, u), holder_gap(small, -one, u)
print(f"  Hoelder gap at s = 1:         {at_one['gap']:+.3e}  (equality: 0)")
print(f"  Hoelder gap at s = -1:        {at_minus_one['gap']:+.12f}"
      f"  (2 lhs = {2.0 * at_minus_one['lhs']:.12f})")
gap = holder_gap(small, rng.standard_normal(small.shape), u)["gap"]
print(f"  Hoelder gap at random s:      {gap:+.3e}  (>= 0)")
print(f"  negative case at u = 1:       {negative_case_check(small, one):+.3e}  (exactly 0)")
print(f"  negative case at this u:      {negative_case_check(small, u):+.3e}  (<= 0)")

print("\nsharp upper bounds from the round spheres:")
for n in (2, 3, 4):
    print(f"  n = {n}: Y(S^{n}) = {aubin_bound(n):.10f}")
print(f"  n = 2 equals 4 pi chi(S^2) = {8.0 * math.pi:.10f}")
