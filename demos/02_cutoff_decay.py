"""Curvature decay of the truncated-instanton cutoff families.

Shrinking an instanton by a small parameter eps and grafting it into a
flat ball leaves the curvature of the modified metric uniformly O(eps^2).
The sweep below reads each cap's certified sup norm, eps^2 times that of
the unit cap (the number gluing certifies), and fits the decay exponent;
the volume deficit of the graft against a flat ball has an exact closed
form.
"""

import math

from collapselab.cutoff import BaseInstanton, CutoffFamily, decay_sweep, volume_deficit

EPS = (0.2, 0.1, 0.05, 0.025)

for base in BaseInstanton:
    table = decay_sweep(base, EPS)
    print(f"{base.value}: fitted decay slope = {table.fitted_slope:.3f} "
          f"(expect about 2)")
    print("  epsilon   sup norm")
    for eps, sup in table.rows:
        print(f"  {eps:<8}  {sup:.6e}")

print("volume deficits of the graft at eps = 0.5:")
eps = 0.5
burns = volume_deficit(CutoffFamily(BaseInstanton.BURNS, eps), R=4.0 * eps)
burns_cf = math.pi**2 * eps**12 / 2.0
print(f"  Burns:         {burns:.12e}")
print(f"  pi^2 eps^12/2: {burns_cf:.12e}  "
      f"(relative error {abs(burns - burns_cf) / burns_cf:.1e})")

eh = volume_deficit(CutoffFamily(BaseInstanton.EGUCHI_HANSON, eps), R=4.0 * eps)
print(f"  Eguchi-Hanson: {eh:.12e}")
print(f"  pi^2 eps^8/4:  {math.pi**2 * eps**8 / 4.0:.12e}")
print("  the EH link is a Z2 quotient of the 3-sphere, which halves the")
print("  deficit relative to the full-sphere value pi^2 eps^8 / 2")
