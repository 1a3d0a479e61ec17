"""Characteristic numbers from curvature, and the self-dual Weyl sweep.

The Gauss-Bonnet and signature integrands recover 2 chi + 3 tau and tau
from curvature alone.  Along a glued collapsing family the self-dual Weyl
energy int |W+|^2 dmu tends to zero while the anti-self-dual energy tends
to the topological quantity -12 pi^2 tau.
"""

import math

from collapselab.charclass import (
    densities_at,
    integrate_characteristics,
    product_surface_frame,
    wplus_sweep,
)
from collapselab.gluing import assemble_surface_model
from collapselab.radial import Preset, curvature_at, make_metric
from collapselab.submersion import BundleKind, collapse_metric, make_bundle

print("convention locks:")
s4 = integrate_characteristics(make_metric(Preset.ROUND))
print(f"  round S^4:  2 chi + 3 tau = {s4['two_chi_plus_three_tau']:.8f}, "
      f"tau = {s4['tau']:.2e}  (expect 4, 0)")
flat = integrate_characteristics(
    collapse_metric(make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS), 2.0))
print(f"  flat T^4:   2 chi + 3 tau = {flat['two_chi_plus_three_tau']}, "
      f"tau = {flat['tau']}  (expect 0, 0)")
pf = densities_at(product_surface_frame(1.0, 1.0))
vol = (4.0 * math.pi) ** 2
print(f"  S^2 x S^2:  2 chi + 3 tau = {pf.gb_density * vol:.8f}  (expect 8)")

print("\nEguchi-Hanson pointwise densities at r = 1.5:")
d = densities_at(curvature_at(make_metric(Preset.EGUCHI_HANSON), 1.5))
print(f"  gb density  = {d.gb_density:.3e}  (Ricci-flat ASD: exactly 0)")
print(f"  sig density = {d.sig_density:.3e}  (negative: |W-| > |W+| = 0)")

print("\nself-dual Weyl sweep over the glued family (k = 1, l = 2):")
fam = assemble_surface_model(make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS),
                             fiber_sums=1, blowups=2)
rows = wplus_sweep(fam, (1.0, 10.0, 100.0, 1000.0))
print("  t        int |W+|^2     int |W-|^2     tau estimate")
for t, wp, wm, tau in rows:
    print(f"  {t:<7g}  {wp:.6e}  {wm:.6e}  {tau:.9f}")
print("int |W+|^2 dmu -> 0, and int (|W-|^2 - |W+|^2) dmu = -12 pi^2 tau at every t:")
print("each of the 8 Eguchi-Hanson and 2 Burns caps is an anti-self-dual instanton")
print("down to its bolt and carries 12 pi^2, so the tau estimate")
print(f"{rows[-1][3]:.9f} recovers the signature tau = -10")
