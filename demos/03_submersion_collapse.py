"""Collapsing torus bundles with bounded sectional curvature.

The canonical variation g_t shrinks the flat 2-torus fibers of a bundle
over a surface by 1/t.  Total volume scales exactly like 1/t, while the
O'Neill formulas keep the sectional curvatures bounded: the mixed-plane
curvature K_P dies off and the horizontal curvature K_H tends to the base
curvature.
"""

from collapselab.submersion import BundleKind, collapse_metric, make_bundle, oneill_at

for kind in (BundleKind.TRIVIAL_TORUS_OVER_TORUS, BundleKind.NILMANIFOLD):
    bundle = make_bundle(kind)
    print(f"{bundle.name} (base Gauss curvature {bundle.base.gauss_curvature}):")
    print(f"  {'t':>10}  {'volume':>12}  {'vol * t':>12}  {'K_H':>12}  {'K_P':>12}")
    for t in (1.0, 10.0, 100.0, 1000.0, 1e6):
        m = collapse_metric(bundle, t)
        cur = oneill_at(m)
        print(f"  {t:10.0f}  {m.total_volume():12.6e}  "
              f"{m.total_volume() * t:12.6e}  {cur.K_H:12.4e}  {cur.K_P:12.4e}")
    print()

print("the product bundle is flat at every t; the nilmanifold has genuine")
print("curvature from the bracket obstruction v = [w1, w2]^vertical, with")
print("K_P = |v|^2 / (4 t) -> 0 and K_H = -3 |v|^2 / (4 t) -> K(base) = 0")
