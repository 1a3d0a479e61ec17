"""Glued collapse families and their certificates."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapselab.cutoff import BaseInstanton, CutoffFamily, unit_cap
from collapselab.gluing import (
    Chart,
    ChartKind,
    Verdict,
    assemble_surface_model,
    burns_cap,
    certificate,
    eh_cap,
    ricci_obstruction,
    torus_systole,
)
from collapselab.submersion import BundleKind, make_bundle
from collapselab.surfaces import CANONICAL_SURFACES


def _trivial_bundle():
    return make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS)


UNIT = np.eye(2)


def _orbifold_rule(gram=UNIT):
    """The family rule of one rational-elliptic fiber sum over the trivial
    bundle with fiber Gram ``gram``: its bundle block and neck, then the
    orbifold's flat block and 8 Eguchi-Hanson caps."""
    return assemble_surface_model(make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS, gram),
                                  fiber_sums=1)


def _eh_schedule(rule, t):
    """eps_t of the Eguchi-Hanson caps of ``rule(t)``, read off their charts."""
    (eps,) = {c.epsilon for c in rule(t).charts if c.kind is ChartKind.EH_CAP}
    return eps


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


SKEWED_GRAMS = st.builds(_skewed_gram, st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                         st.floats(-0.5, 0.5), st.integers(-12, 12), st.integers(-12, 12))

# basis (1, 0), (10.3, 0.01): the systole is 0.1 (10 b2 - 103 b1), not the
# basis length 1
_SHEARED_BASIS = np.array([[1.0, 10.3], [0.0, 0.01]])
SHEARED = _SHEARED_BASIS.T @ _SHEARED_BASIS


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SKEWED_GRAMS)
# float-evaluated brute force was off by 1e-9 relative on these sheared Grams
@example(_skewed_gram(1.7797686545397169, 0.5, 0.5, -9, -9))
@example(_skewed_gram(1.970703125, 1.0934233540974223, 0.3333333333333333, -11, 12))
@example(SHEARED)
# float sums put this systole 4.1e-8 relative too long
@example(_skewed_gram(1.9, 0.5, 0.3, 20, -19))
def test_lattice_helpers_match_brute_force(gram):
    # the basis vectors are lattice vectors, so the systole is at most the shorter
    basis_bound = min(math.sqrt(gram[0, 0]), math.sqrt(gram[1, 1]))
    systole = _shortest(np.zeros(2), gram, basis_bound, nonzero=True)
    assert torus_systole(gram) == pytest.approx(systole, rel=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SKEWED_GRAMS, st.floats(1.0, 1e4))
# inj <= pi here, so the nearest caps touch: a tie that float distances can misread
@example(_skewed_gram(0.5, 0.5, -0.5, -12, -12), 10.0)
@example(SHEARED, 1.0)
@example(SHEARED, 10.0)
# the brute force on gram / 3.0, rounded, was off by 1e-9 relative on these
@example(_skewed_gram(1.9, 0.5, 0.0, 10, 10), 3.0)
@example(_skewed_gram(2.0, 0.5, 0.0, 9, 11), 3.0)
@example(_skewed_gram(1.9, 0.5, 0.0, 12, 10), 3.0)
@example(_skewed_gram(1.0, 0.5, 0.0, 12, 11), 3.0)
def test_skewed_fiber_caps_are_disjoint(gram, t):
    """The family rule builds its 8 caps, and the nearest two of their
    centres, by exact brute force over all 28 pairs, are
    min(pi, systole / (2 sqrt t)) apart: at least 4 eps, so the 2 eps balls
    do not overlap."""
    rule = _orbifold_rule(gram)
    kinds = [c.kind for c in rule(t).charts]
    assert kinds.count(ChartKind.EH_CAP) == 8 and kinds.count(ChartKind.FLAT_BLOCK) == 1
    eps = _eh_schedule(rule, t)
    # torus distances at t are those of the fiber Gram over sqrt t; a Gram
    # rounded to gram / t would have a lattice of its own, whose sheared
    # distances differ by 1e-9 relative
    torsion = [np.array([x, y]) for x in (0.0, 0.5) for y in (0.0, 0.5)]
    centres = [(theta, p) for theta in (0.0, math.pi) for p in torsion]
    nearest = math.inf
    for (theta_p, p), (theta_q, q) in itertools.combinations(centres, 2):
        d = p - q
        torus = _shortest(d, gram, _window_bound(d, gram)) / math.sqrt(t) if d.any() else 0.0
        # the theta = 0 and theta = pi slices are pi apart on the circle
        nearest = min(nearest, torus if theta_p == theta_q else math.hypot(math.pi, torus))
    assert nearest >= 4.0 * eps * (1.0 - 1e-9)
    lemma = min(math.pi, torus_systole(gram) / (2.0 * math.sqrt(t)))
    assert nearest == pytest.approx(lemma, rel=1e-9)


def test_eh_schedule_shrinks():
    rule = _orbifold_rule()
    eps = [_eh_schedule(rule, t) for t in (1.0, 4.0, 100.0)]
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


@pytest.mark.parametrize("blowups", [0, 2])
def test_cap_sup_norms_scale_exactly(blowups):
    """Over the default glue parameters (eps down to 0.002) every cap
    certifies eps^2 times the unit-cap suprema, and the Burns caps the core's
    2 / r_bolt^2, to 1e-12: no cancellation error grows as eps shrinks."""
    rule = assemble_surface_model(_trivial_bundle(), fiber_sums=1, blowups=blowups)
    kinds = set()
    for t in (1.0, 10.0, 100.0, 1000.0):
        for chart in rule(t).charts:
            if chart.epsilon is None:
                continue
            kinds.add(chart.kind)
            eps = chart.epsilon
            if chart.kind is ChartKind.EH_CAP:
                unit = unit_cap(BaseInstanton.EGUCHI_HANSON)
                assert chart.sup_ricci / eps**2 == pytest.approx(unit.sup_ricci, rel=1e-12)
            else:
                unit = unit_cap(BaseInstanton.BURNS)
                r_bolt = CutoffFamily(BaseInstanton.BURNS, eps).r_bolt
                assert chart.sup_ricci == pytest.approx(2.0 / r_bolt**2, rel=1e-12)
            assert chart.sup_scalar / eps**2 == pytest.approx(unit.sup_scalar, rel=1e-12)
    assert len(kinds) == (2 if blowups else 1)


def test_orbifold_family_charts():
    """One fiber sum adds the orbifold's flat block and 8 Eguchi-Hanson caps
    to the bundle block and the neck; its volume collapses like 1 / t and
    its curvature falls with eps_t^2."""
    rule = _orbifold_rule()
    fam = rule(1.0)
    kinds = [c.kind for c in fam.charts]
    assert kinds.count(ChartKind.EH_CAP) == 8
    assert kinds.count(ChartKind.FLAT_BLOCK) == 1
    assert kinds.count(ChartKind.BUNDLE_BLOCK) == kinds.count(ChartKind.CYLINDER_NECK) == 1
    fam100 = rule(100.0)
    assert fam100.total_volume < fam.total_volume / 50.0
    assert fam100.sup_ricci < fam.sup_ricci


def test_orbifold_family_refusals_name_t():
    """A t whose Eguchi-Hanson caps a float cannot hold is refused by the
    family rule with the t in the message, named once, and so is a t that is
    not finite and >= 1."""
    rule = _orbifold_rule()
    with pytest.raises(ValueError) as info:
        rule(1e300)
    assert str(info.value) == "t=1e+300: eh_cap chart has non-positive volume"
    with pytest.raises(ValueError, match="t must be finite and >= 1, got nan"):
        rule(math.nan)


def test_orbifold_certificate_is_ricci_bounded():
    """The orbifold rule over the sheared fiber keeps Ricci bounded while its
    volume falls at every step."""
    cert = certificate(_orbifold_rule(SHEARED), (1.0, 10.0, 100.0, 1000.0))
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
    """The nilmanifold block certifies the exact curvature of Heisenberg x S^1
    at diag(1, 1, 1/t, 1/t): sup |Ric| = |s| = 1 / (2t)."""
    fam = assemble_surface_model(make_bundle(BundleKind.NILMANIFOLD))
    cert = certificate(fam, (1.0, 10.0, 100.0))
    assert cert.verdict is Verdict.BOUNDED_RICCI_COLLAPSE
    for t, _, sup_ricci, sup_scalar in cert.rows:
        assert sup_ricci == pytest.approx(0.5 / t, rel=1e-14)
        assert sup_scalar == pytest.approx(0.5 / t, rel=1e-14)


def test_nilmanifold_rejects_gluing():
    with pytest.raises(ValueError):
        assemble_surface_model(make_bundle(BundleKind.NILMANIFOLD), blowups=1)


def test_certificate_needs_increasing_parameters():
    with pytest.raises(ValueError):
        certificate(_orbifold_rule(), (10.0, 1.0, 100.0))
    with pytest.raises(ValueError):
        certificate(_orbifold_rule(), (1.0, 2.0))


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
