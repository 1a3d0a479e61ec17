"""Curvature of cohomogeneity-one radial metrics.

Walks through the four presets: the flat metric and the round 4-sphere as
sanity anchors, then the two gravitational instantons.  The Eguchi-Hanson
metric is Ricci-flat everywhere; the Burns metric is scalar-flat but has
nonzero Ricci curvature, so the two conditions are genuinely different.
"""

import numpy as np

from collapselab.frame_curvature import curvature_operator
from collapselab.radial import Preset, curvature_at, make_metric, sample_grid

print("flat metric: every curvature quantity vanishes")
flat = make_metric(Preset.FLAT)
fr = curvature_at(flat, 1.7)
print(f"  scalar = {fr.scalar:.2e}, |Ric| = {fr.sup_ricci:.2e}, "
      f"|Rm|^2 = {fr.riemann_norm2:.2e}")

print("\nround 4-sphere of radius 1: constant curvature, scalar = 12")
s4 = make_metric(Preset.ROUND)
fr = curvature_at(s4, 0.8)
# every 2-plane has curvature 1, so the curvature operator on 2-forms is I_6
dist = np.abs(curvature_operator(fr.riemann4) - np.eye(6)).max()
print(f"  scalar = {fr.scalar:.6f}, max |operator - I_6| = {dist:.1e}")

print("\nEguchi-Hanson, A = 1: Ricci-flat with anti-self-dual Weyl curvature")
eh = make_metric(Preset.EGUCHI_HANSON, A=1.0)
fr = curvature_at(eh, sample_grid(eh.r_min * 1.001, 20.0, 200))
print(f"  sup |Ric| over 200 radii = {np.max(fr.sup_ricci):.2e}")
fr = curvature_at(eh, 1.2)
print(f"  at r = 1.2: |W+|^2 = {fr.w_plus_norm2:.2e}, |W-|^2 = {fr.w_minus_norm2:.4f}")

print("\nBurns metric: scalar-flat but NOT Einstein")
burns = make_metric(Preset.BURNS)
# one batched call evaluates all 200 radii; fr.scalar is then an array
fr = curvature_at(burns, sample_grid(burns.r_min * 1.001, 20.0, 200))
print(f"  sup |s| over 200 radii = {np.max(np.abs(fr.scalar)):.2e}")
fr = curvature_at(burns, 2.0)
print(f"  |Ric| at r = 2 = {fr.sup_ricci:.4f}  (nonzero: not Einstein)")

print("\ncurvature falls off toward the asymptotically flat end:")
radii = np.array([2.0, 4.0, 8.0, 16.0])
for r, rm2 in zip(radii, curvature_at(eh, radii).riemann_norm2):
    print(f"  r = {r:5.1f}: |Rm|^2 = {rm2:.3e}")
print("each doubling of r divides |Rm|^2 by about 2^12 = 4096 (|Rm| ~ r^-6)")
