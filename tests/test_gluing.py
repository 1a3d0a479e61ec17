"""Glued collapse families and their certificates."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapselab.gluing import (
    Chart,
    ChartKind,
    Verdict,
    assemble_surface_model,
    burns_cap,
    certificate,
    eh_cap,
    eh_schedule,
    half_lattice_points,
    orbifold_family,
    ricci_obstruction,
    torus_distance,
    torus_systole,
)
from collapselab.submersion import BundleKind, make_bundle
from collapselab.surfaces import CANONICAL_SURFACES


def _trivial_bundle():
    return make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS)


UNIT = np.eye(2)


def test_torus_systole():
    assert torus_systole(UNIT) == pytest.approx(1.0)
    assert torus_systole(np.diag([0.25**2, 3.0**2])) == pytest.approx(0.25)


def _shortest(d, gram, radius, nonzero=False):
    """min |d + v| over integer vectors v (v != 0 if ``nonzero``), where some
    |d + v| <= radius (plus a rounding margin).  The lattice points of that
    ellipse are enumerated row by row.  On strongly sheared Grams the float
    quadratic form loses about 1e-9 relative, more than the helpers under
    test, so every candidate within its rounding bound of the float minimum
    is re-evaluated exactly in rationals on the float Gram."""
    radius = radius * (1.0 + 1e-9) + 1e-12
    g00, g01, g11 = gram[0, 0], gram[0, 1], gram[1, 1]
    y_max = radius * math.sqrt(np.linalg.inv(gram)[1, 1])
    vy = np.arange(math.floor(-d[1] - y_max), math.ceil(-d[1] + y_max) + 1)
    y = vy + d[1]
    # each row's x range solves g00 x^2 + 2 g01 x y + g11 y^2 <= radius^2
    disc = (g01 * y) ** 2 - g00 * (g11 * y * y - radius**2)
    vy, y, disc = vy[disc >= 0.0], y[disc >= 0.0], disc[disc >= 0.0]
    centre, half = -g01 * y / g00, np.sqrt(disc) / g00
    lo = np.floor(centre - half - d[0])
    counts = (np.ceil(centre + half - d[0]) - lo + 1).astype(int)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    vx = np.repeat(lo, counts) + (np.arange(counts.sum()) - starts)
    vy = np.repeat(vy, counts)
    if nonzero:
        keep = (vx != 0.0) | (vy != 0.0)
        vx, vy = vx[keep], vy[keep]
    x, y = vx + d[0], vy + d[1]
    norms2 = g00 * x * x + 2.0 * g01 * x * y + g11 * y * y
    slack = 1e-14 * (abs(g00) * x * x + 2.0 * abs(g01 * x * y) + abs(g11) * y * y)
    near = norms2 - slack <= (norms2 + slack).min()
    # e^T gram e, exactly; the float Gram need not be exactly symmetric
    q00, q01, q10, q11 = (Fraction(g) for g in gram.ravel())
    exact = []
    for a, b in zip(vx[near], vy[near]):
        xq, yq = int(a) + Fraction(d[0]), int(b) + Fraction(d[1])
        exact.append(q00 * xq * xq + (q01 + q10) * xq * yq + q11 * yq * yq)
    return math.sqrt(min(exact))


def _window_bound(d, gram):
    """An upper bound on the distance from d to the lattice: the nearest of
    the nine lattice points d + v, v in {-1, 0, 1}^2."""
    return min(math.sqrt(float(e @ gram @ e))
               for e in (d + np.array([m, n]) for m in (-1, 0, 1) for n in (-1, 0, 1)))


def _skewed_gram(a, b, c, k, j):
    """A well-shaped Gram matrix seen through the unimodular change of basis
    [[1, k], [0, 1]] [[1, 0], [j, 1]]."""
    shear = np.array([[1.0, k], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [j, 1.0]])
    return shear.T @ np.array([[a * a, c * a * b], [c * a * b, b * b]]) @ shear


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.builds(_skewed_gram, st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-0.5, 0.5),
              st.integers(-12, 12), st.integers(-12, 12)),
    st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
)
# float-evaluated brute force was off by 1e-9 relative on these sheared Grams
@example(_skewed_gram(1.7797686545397169, 0.5, 0.5, -9, -9), (0.625, 0.0))
@example(_skewed_gram(1.970703125, 1.0934233540974223, 0.3333333333333333, -11, 12), (0.0, 0.0))
def test_lattice_helpers_match_brute_force(gram, p):
    p = np.array(p)
    # the basis vectors are lattice vectors, so the systole is at most the shorter
    basis_bound = min(math.sqrt(gram[0, 0]), math.sqrt(gram[1, 1]))
    systole = _shortest(np.zeros(2), gram, basis_bound, nonzero=True)
    assert torus_systole(gram) == pytest.approx(systole, rel=1e-9)
    for q in [p] + half_lattice_points():
        d = p - q
        expected = _shortest(d, gram, _window_bound(d, gram))
        assert torus_distance(p, q, gram) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_skewed_fiber_caps_are_disjoint():
    """Basis (1, 0), (10.3, 0.01): the systole is 0.1 (10 b2 - 103 b1), not
    the basis length 1, and the 8 cap balls of radius 2 eps do not overlap."""
    basis = np.array([[1.0, 10.3], [0.0, 0.01]])
    gram = basis.T @ basis
    assert torus_systole(gram) == pytest.approx(0.1, rel=1e-9)
    for t in (1.0, 10.0):
        eps = eh_schedule(gram, t)
        assert len(orbifold_family(gram, t).charts) == 9
        gram_t = gram / t
        for p in half_lattice_points():
            for q in half_lattice_points():
                if (p != q).any():
                    # distinct 2-torsion points in the same theta slice
                    d = p - q
                    nearest = _shortest(d, gram_t, _window_bound(d, gram_t))
                    # at t = 1 the nearest caps touch: 4 eps = systole / 2
                    assert nearest >= 4.0 * eps * (1.0 - 1e-9)


def test_eh_schedule_shrinks():
    eps = [eh_schedule(UNIT, t) for t in (1.0, 4.0, 100.0)]
    assert eps[0] == pytest.approx(0.125)  # min(systole/2, pi) / 4 on the unit torus
    assert eps[1] == pytest.approx(eps[0] / 2.0)
    assert all(b < a for a, b in zip(eps, eps[1:]))


def test_flat_chart_must_be_flat():
    with pytest.raises(ValueError):
        Chart(ChartKind.FLAT_BLOCK, 1.0, 0.1, 0.0)


def test_chart_requires_finite_sup_ricci():
    with pytest.raises(ValueError, match="finite"):
        Chart(ChartKind.EH_CAP, 1.0, math.nan, 0.0, epsilon=0.1)


def test_cap_charts_certify_small_scalar():
    cap = eh_cap(0.125)
    assert cap.volume > 0.0
    assert cap.sup_ricci < 0.25  # O(eps^2) transition curvature
    b = burns_cap(0.0625)
    assert b.sup_scalar < 0.25
    # blow-up caps are not Ricci-small: sup |Ric| = 2 / r_bolt^2 at the Burns bolt
    assert b.sup_ricci == pytest.approx(2.0 / 0.0625**6, rel=1e-12)


def _orbifold(t):
    return orbifold_family(UNIT, t)


def test_orbifold_family_charts():
    fam = _orbifold(1.0)
    kinds = [c.kind for c in fam.charts]
    assert kinds.count(ChartKind.EH_CAP) == 8
    assert kinds.count(ChartKind.FLAT_BLOCK) == 1
    fam100 = _orbifold(100.0)
    assert fam100.total_volume < fam.total_volume / 50.0
    assert fam100.sup_ricci < fam.sup_ricci


def test_orbifold_certificate_is_ricci_bounded():
    cert = certificate(_orbifold, (1.0, 10.0, 100.0, 1000.0))
    assert cert.verdict is Verdict.BOUNDED_RICCI_COLLAPSE
    vols = [row[1] for row in cert.rows]
    assert all(b < a for a, b in zip(vols, vols[1:]))
    assert vols[-1] < 1e-2 * vols[0]


def test_surface_model_ricci_verdict():
    fam = assemble_surface_model(_trivial_bundle(), fiber_sums=1, blowups=0)
    cert = certificate(fam, (1.0, 10.0, 100.0, 1000.0))
    assert cert.verdict is Verdict.BOUNDED_RICCI_COLLAPSE
    assert cert.rows[-1][1] < 1e-2 * cert.rows[0][1]


def test_surface_model_scalar_verdict_with_blowups():
    fam = assemble_surface_model(_trivial_bundle(), fiber_sums=1, blowups=2)
    cert = certificate(fam, (1.0, 10.0, 100.0, 1000.0))
    assert cert.verdict is Verdict.BOUNDED_SCALAR_COLLAPSE
    # Ricci genuinely blows up: the Burns necks force it
    rics = [row[2] for row in cert.rows]
    assert rics[-1] > 1e3 * rics[0]


def test_nilmanifold_family_collapses():
    fam = assemble_surface_model(make_bundle(BundleKind.NILMANIFOLD))
    cert = certificate(fam, (1.0, 10.0, 100.0))
    assert cert.verdict is Verdict.BOUNDED_RICCI_COLLAPSE


def test_nilmanifold_rejects_gluing():
    with pytest.raises(ValueError):
        assemble_surface_model(make_bundle(BundleKind.NILMANIFOLD), blowups=1)


def test_certificate_needs_increasing_parameters():
    with pytest.raises(ValueError):
        certificate(_orbifold, (10.0, 1.0, 100.0))
    with pytest.raises(ValueError):
        certificate(_orbifold, (1.0, 2.0))


def test_certificate_json_round_trip():
    cert = certificate(_orbifold, (1.0, 10.0, 100.0))
    data = json.loads(cert.to_json())
    assert data["verdict"] == "BoundedRicciCollapse"
    assert len(data["rows"]) == 3
    assert data["rows"][0]["total_volume"] > data["rows"][-1]["total_volume"]


def test_ricci_obstruction_sign():
    by_name = {s.name: s for s in CANONICAL_SURFACES}
    ok, _ = ricci_obstruction(by_name["K3"])
    assert ok
    # blowing up an elliptic surface drives c1^2 negative: no bounded-Ricci collapse
    from collapselab.surfaces import blow_up_surface

    blown = blow_up_surface(by_name["minimal elliptic (Dolgachev-like)"], 1)
    ok, reason = ricci_obstruction(blown)
    assert not ok
    assert "< 0" in reason
