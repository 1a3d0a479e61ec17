"""Characteristic-class densities, convention locks, and the Weyl sweep."""

import math

import numpy as np
import pytest

from collapselab.charclass import (
    CharDensities,
    _weyl_integrals,
    densities_at,
    integrate_characteristics,
    product_surface_frame,
    wplus_sweep,
)
from collapselab.gluing import assemble_surface_model
from collapselab.radial import Preset, curvature_at, make_metric
from collapselab.submersion import BundleKind, collapse_metric, make_bundle

FOUR_PI2 = 4.0 * math.pi**2


def test_round_sphere_densities():
    metric = make_metric(Preset.ROUND)
    frame = curvature_at(metric, 0.7)
    d = densities_at(frame)
    # constant curvature: W = 0, ric0 = 0, s = 12 at unit radius
    assert d.gb_density == pytest.approx(144.0 / 24.0 / FOUR_PI2, rel=1e-10)
    assert d.sig_density == pytest.approx(0.0, abs=1e-12)
    assert d.restricted_gb_density == pytest.approx(d.gb_density, rel=1e-10)


def test_eguchi_hanson_densities():
    metric = make_metric(Preset.EGUCHI_HANSON)
    frame = curvature_at(metric, 1.5)
    d = densities_at(frame)
    # Ricci-flat with only anti-self-dual Weyl curvature
    assert d.sig_density < 0.0
    assert d.gb_density == 0.0
    assert d.restricted_gb_density == pytest.approx(0.0, abs=1e-20)
    assert d.gb_density >= d.restricted_gb_density


def test_gb_dominates_restricted_everywhere():
    rng = np.random.default_rng(3)
    metric = make_metric(Preset.BURNS)
    for r in rng.uniform(metric.r_min + 0.1, 8.0, size=25):
        d = densities_at(curvature_at(metric, float(r)))
        assert d.gb_density >= d.restricted_gb_density - 1e-15


def test_densities_guard():
    with pytest.raises(ValueError):
        CharDensities(0.0, 0.0, 1.0)


def test_round_sphere_convention_lock():
    out = integrate_characteristics(make_metric(Preset.ROUND))
    assert out["two_chi_plus_three_tau"] == pytest.approx(4.0, rel=1e-8)
    assert out["tau"] == pytest.approx(0.0, abs=1e-8)


def test_product_surface_convention_lock():
    frame = product_surface_frame(1.0, 1.0)
    d = densities_at(frame)
    vol = 16.0 * math.pi**2  # (4 pi)^2 for two unit spheres
    assert d.gb_density * vol == pytest.approx(8.0, rel=1e-12)
    assert d.sig_density * vol == pytest.approx(0.0, abs=1e-12)


def test_flat_product_zero():
    frame = product_surface_frame(0.0, 0.0)
    d = densities_at(frame)
    assert d.gb_density == 0.0 and d.sig_density == 0.0


def test_flat_submersion_integrates_to_zero():
    bundle = make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS)
    out = integrate_characteristics(collapse_metric(bundle, 4.0))
    assert out["two_chi_plus_three_tau"] == 0.0
    assert out["tau"] == 0.0


def test_domain_validation():
    metric = make_metric(Preset.EGUCHI_HANSON)
    with pytest.raises(ValueError):
        integrate_characteristics(metric, domain=(0.0, 2.0))


def test_burns_core_weyl_energy_converges():
    """int |W-|^2 dmu over the unit Burns core [r_min, rho] grows with rho
    (the integrand is non-negative) and at rho = 2.56e5, the core of the
    t = 1000 blow-up cap, matches a 200-panel reference quadrature."""
    metric = make_metric(Preset.BURNS)
    wm = [_weyl_integrals(metric, metric.r_min, 2.56 * 10.0**k)[1] for k in range(2, 6)]
    assert all(b >= a for a, b in zip(wm, wm[1:]))
    assert wm[-1] == pytest.approx(117.9626937898, rel=1e-8)


def test_glued_sweep_wplus_decays():
    rule = assemble_surface_model(make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS), fiber_sums=1, blowups=2)
    table = wplus_sweep(rule, (1.0, 10.0, 100.0, 1000.0))
    wp = table.wplus_values
    assert all(b < a for a, b in zip(wp, wp[1:]))
    assert table.wplus_infimum == wp[-1]
    assert wp[-1] < 1e-5
    # anti-self-dual energy stays pinned near -12 pi^2 tau with tau = -10
    wm = [row[2] for row in table.rows]
    assert max(wm) - min(wm) < 1e-4 * max(wm)
    tau_est = table.rows[-1][3]
    assert -10.5 < tau_est < -9.0


def test_control_family_constant():
    def rule(t):
        return make_metric(Preset.ROUND)

    table = wplus_sweep(rule, (1.0, 10.0, 100.0))
    assert max(table.wplus_values) < 1e-10
    wm = [row[2] for row in table.rows]
    assert max(wm) < 1e-10


def test_sweep_csv_and_guards():
    rule = assemble_surface_model(make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS), fiber_sums=1, blowups=1)
    table = wplus_sweep(rule, (1.0, 10.0))
    lines = table.to_csv().splitlines()
    assert lines[0] == "t,wplus_integral,wminus_integral,tau_estimate"
    assert len(lines) == 3
    with pytest.raises(ValueError):
        wplus_sweep(rule, ())
    with pytest.raises(TypeError):
        wplus_sweep(lambda t: "nope", (1.0,))
