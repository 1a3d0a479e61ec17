"""Characteristic-class densities, convention locks, and the Weyl sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab import charclass, cli
from collapselab.charclass import (
    CharDensities,
    densities_at,
    integrate_characteristics,
    product_surface_frame,
    wplus_sweep,
)
from collapselab.cutoff import (
    BaseInstanton,
    CutoffFamily,
    cap_weyl_energies,
    modified_metric,
    unit_cap,
)
from collapselab.gluing import assemble_surface_model
from collapselab.radial import Preset, curvature_at, make_metric
from collapselab.submersion import BundleKind, collapse_metric, make_bundle, oneill_frame
from oracles import weyl_integrals

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


def test_weyl_integrals_match_closed_form():
    """int |W-|^2 dmu over [r0, R] on the unit instantons is
    12 pi^2 (r0^-2q - R^-2q), with q = 4 (Eguchi-Hanson) or 2 (Burns), and
    int |W+|^2 dmu vanishes."""
    for preset, q in ((Preset.EGUCHI_HANSON, 4), (Preset.BURNS, 2)):
        metric = make_metric(preset)
        for r0, R in ((1.0, 10.0), (1.0, 253.0), (1.5, 100.0)):
            wp, wm = weyl_integrals(metric, r0, R)
            assert wm == pytest.approx(12.0 * math.pi**2 * (r0 ** (-2 * q) - R ** (-2 * q)),
                                       rel=1e-12)
            assert wp < 1e-20 * wm


def test_whole_instanton_characteristic_integrals():
    """From the bolt to infinity the signature density integrates to -1 on
    both instantons, and the Gauss-Bonnet density to 2 chi + 3 tau less the
    ALE boundary term 2 / |Gamma|: 0 for Eguchi-Hanson (Gamma = Z2, chi = 2)
    and -1 for Burns (Gamma = 1, chi = 2)."""
    for preset, gb in ((Preset.EGUCHI_HANSON, 0.0), (Preset.BURNS, -1.0)):
        out = integrate_characteristics(make_metric(preset))
        assert out["tau"] == pytest.approx(-1.0, rel=1e-12)
        assert out["two_chi_plus_three_tau"] == pytest.approx(gb, abs=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(0.004, 0.9), st.sampled_from(list(BaseInstanton)))
def test_cap_weyl_energy_is_one_instanton(eps, base):
    """Every cutoff cap carries int (|W-|^2 - |W+|^2) dmu = 12 pi^2, signature -1."""
    wp, wm = cap_weyl_energies(CutoffFamily(base, eps))
    assert abs((wm - wp) / (12.0 * math.pi**2) - 1.0) < 1e-12


@pytest.mark.parametrize("base", list(BaseInstanton))
def test_unit_cap_weyl_energies(base):
    """On the unit annulus E- - E+ = 12 pi^2 to 1e-12, so each cap carries
    exactly one instanton's anti-self-dual energy; and each energy agrees
    with the engine's quadrature over the annulus [eps, 2 eps] of the eps = 0.5
    cap, eps^8 times as large."""
    unit = unit_cap(base)
    assert unit.wminus_energy - unit.wplus_energy == pytest.approx(12.0 * math.pi**2, rel=1e-12)
    eps = 0.5
    wp, wm = weyl_integrals(modified_metric(CutoffFamily(base, eps)), eps, 2.0 * eps)
    assert wp == pytest.approx(unit.wplus_energy * eps**8, rel=1e-8)
    assert wm == pytest.approx(unit.wminus_energy * eps**8, rel=1e-8)


def test_glued_sweep_wplus_decays():
    rule = assemble_surface_model(make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS), fiber_sums=1, blowups=2)
    rows = wplus_sweep(rule, (1.0, 10.0, 100.0, 1000.0))
    wp = [row[1] for row in rows]
    assert all(b < a for a, b in zip(wp, wp[1:]))
    assert wp[-1] < 1e-5
    # anti-self-dual energy stays pinned near -12 pi^2 tau with tau = -10
    wm = [row[2] for row in rows]
    assert max(wm) - min(wm) < 1e-4 * max(wm)
    tau_est = rows[-1][3]
    assert abs(tau_est + 10) < 1e-8


def test_nilmanifold_sweep_is_the_frame_energy_over_t():
    """A nilmanifold family is one bundle block of volume 1/t with a
    left-invariant curvature frame, so each row carries that frame's
    |W+-|^2 / t."""
    bundle = make_bundle(BundleKind.NILMANIFOLD)
    rule = assemble_surface_model(bundle)
    for t, wp, wm, tau in wplus_sweep(rule, (1.0, 10.0, 100.0)):
        frame = oneill_frame(collapse_metric(bundle, t))
        assert frame.w_plus_norm2 > 0.0 and frame.w_minus_norm2 > 0.0
        assert wp == pytest.approx(frame.w_plus_norm2 / t, rel=1e-15)
        assert wm == pytest.approx(frame.w_minus_norm2 / t, rel=1e-15)
        assert tau == (wp - wm) / (12.0 * math.pi**2)


def test_control_family_constant():
    """The round S^4 is conformally flat: W+ and W- integrate to 0 over the
    whole sphere."""
    metric = make_metric(Preset.ROUND)
    wp, wm = weyl_integrals(metric, metric.r_min, metric.r_max)
    assert wp < 1e-10
    assert wm < 1e-10


def test_sweep_guards():
    rule = assemble_surface_model(make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS), fiber_sums=1, blowups=1)
    with pytest.raises(ValueError):
        wplus_sweep(rule, ())
    with pytest.raises(TypeError):
        wplus_sweep(lambda t: "nope", (1.0,))


def test_sweep_rejects_radial_models():
    """The sweep reads glued families only: a radial model is a TypeError."""
    with pytest.raises(TypeError, match="RadialMetric"):
        wplus_sweep(lambda t: make_metric(Preset.BURNS), (1.0,))


def test_charclass_run_work_budget(tmp_path, monkeypatch):
    """A default ``charclass`` run, with an empty unit-cap cache, evaluates
    curvature at no more than 100 radii for its integrals (a deterministic
    work counter): the round-S^4 quadrature takes 63, and the caps none.
    They come in at most 2 ``curvature_at`` calls, one per quadrature round
    (2 measured: the starting panel and its two halves)."""
    unit_cap.cache_clear()
    calls = radii = 0

    def counting(metric, r):
        nonlocal calls, radii
        calls += 1
        radii += np.size(r)
        return curvature_at(metric, r)

    monkeypatch.setattr(charclass, "curvature_at", counting)
    cli.run(cli.ExperimentConfig("charclass", {}, str(tmp_path), 1))
    assert radii <= 100
    assert calls <= 2
