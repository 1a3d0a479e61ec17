"""Glued collapse families and their certificates."""

import json
import math

import numpy as np
import pytest

from collapselab.gluing import (
    Chart,
    ChartKind,
    Verdict,
    assemble_surface_model,
    burns_cap,
    certificate,
    eh_cap,
    eh_schedule,
    orbifold_family,
    ricci_obstruction,
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
    assert b.sup_ricci > 1.0  # blow-up caps are not Ricci-small


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
