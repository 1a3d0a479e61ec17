"""Radial (cohomogeneity-one) metrics against the coordinate-chart oracle."""

import math

import numpy as np
import pytest

from collapselab.radial import (
    Preset,
    RadialMetric,
    curvature_at,
    eguchi_hanson_profile,
    flat_profile,
    make_metric,
    sample_grid,
    sup_norms,
    volume,
)
from oracles import radial_invariants_fd, radial_metric_components


@pytest.mark.parametrize("A", [0.5, 1.0, 2.0])
def test_eguchi_hanson_is_ricci_flat(A):
    metric = make_metric(Preset.EGUCHI_HANSON, A=A)
    for r in sample_grid(metric.r_min, 20.0, 100):
        fr = curvature_at(metric, r)
        assert fr.sup_ricci < 1e-9
        assert fr.riemann_norm2 > 0.0  # flat would be a wrong implementation


def test_burns_is_scalar_flat_but_not_einstein():
    metric = make_metric(Preset.BURNS)
    for r in sample_grid(metric.r_min, 20.0, 100):
        fr = curvature_at(metric, r)
        assert abs(fr.scalar) < 1e-9
    assert curvature_at(metric, 2.0).sup_ricci > 1e-3


def test_round_sphere_curvature():
    metric = make_metric(Preset.ROUND, radius=1.0)
    fr = curvature_at(metric, 1.0)
    assert fr.scalar == pytest.approx(12.0, abs=1e-10)
    assert fr.sec_min == pytest.approx(1.0, abs=1e-8)
    assert fr.sec_max == pytest.approx(1.0, abs=1e-8)
    assert fr.w_plus_norm2 < 1e-20 and fr.w_minus_norm2 < 1e-20
    big = make_metric(Preset.ROUND, radius=2.0)
    assert curvature_at(big, 2.0).scalar == pytest.approx(3.0)


def test_flat_cone_is_flat():
    metric = make_metric(Preset.FLAT)
    for r in (0.3, 1.0, 7.7):
        fr = curvature_at(metric, r)
        assert fr.riemann_norm2 < 1e-22


@pytest.mark.parametrize("preset,r", [
    (Preset.EGUCHI_HANSON, 1.7),
    (Preset.BURNS, 2.1),
    (Preset.ROUND, 1.3),
])
def test_engine_matches_coordinate_oracle(preset, r):
    """Scalar, Ricci eigenvalues and |Rm|^2 agree with a finite-difference
    Christoffel computation in Euler-angle coordinates at order >= 1.8."""
    metric = make_metric(preset)
    fr = curvature_at(metric, r)
    eng_eigs = np.sort(np.linalg.eigvalsh(fr.ricci))
    errs = []
    for h in (2e-2, 1e-2):
        s, eigs, rm2 = radial_invariants_fd(metric, r, h)
        errs.append(max(
            abs(s - fr.scalar),
            float(np.max(np.abs(eigs - eng_eigs))),
            abs(rm2 - fr.riemann_norm2),
        ))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_oracle_metric_components_are_symmetric_positive():
    metric = make_metric(Preset.EGUCHI_HANSON)
    g = radial_metric_components(metric, np.array([1.5, 0.7, 0.3, 0.5]))
    assert np.allclose(g, g.T)
    assert np.all(np.linalg.eigvalsh(g) > 0.0)


def test_instantons_are_anti_self_dual():
    for preset in (Preset.EGUCHI_HANSON, Preset.BURNS):
        metric = make_metric(preset)
        for r in (1.3, 2.0, 5.0):
            fr = curvature_at(metric, r)
            assert fr.w_plus_norm2 < 1e-20
            assert fr.w_minus_norm2 > 1e-8


def test_homothety_scaling():
    metric = make_metric(Preset.EGUCHI_HANSON)
    scaled = metric.scaled(4.0)
    # same coordinate r, metric multiplied by 4: curvature scales by 1/4
    fr = curvature_at(metric, 2.0)
    fs = curvature_at(scaled, 2.0)
    assert fs.riemann_norm2 == pytest.approx(fr.riemann_norm2 / 16.0, rel=1e-10)
    assert fs.scalar == pytest.approx(fr.scalar / 4.0, abs=1e-12)


def test_domain_guard():
    metric = make_metric(Preset.EGUCHI_HANSON)
    with pytest.raises(ValueError):
        curvature_at(metric, 0.5)


def test_sup_norms_monotone_in_samples():
    metric = make_metric(Preset.BURNS)
    sups = [sup_norms(metric, n, r_hi=10.0).sup_ricci
            for n in (25, 50, 100)]
    assert sups[0] <= sups[1] <= sups[2]  # nested grids only add points


def test_volume_against_closed_forms():
    # flat cone over the Z2 lens: link volume pi^2, so V = pi^2 R^4 / 4
    flat = RadialMetric(flat_profile(), math.pi**2)
    assert volume(flat, 1e-9, 2.0) == pytest.approx(math.pi**2 * 4.0, rel=1e-10)
    # round 4-sphere: total volume 8 pi^2 / 3
    s4 = make_metric(Preset.ROUND)
    assert volume(s4, 1e-9, math.pi - 1e-9) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-8)


def test_volume_rejects_unconverged_quadrature():
    from collapselab.charclass import integrate_characteristics
    from collapselab.jets import constant
    from collapselab.radial import RadialProfile, _integrate

    flat = make_metric(Preset.FLAT)
    # tol = 0 cannot be met: the rounding term overtakes the error (status 2)
    with pytest.raises(RuntimeError, match=r"did not converge \(status 2"):
        _integrate(flat, lambda r: 1.0, 1e-9, 2.0, 0.0)
    # a component that turns NaN past r = 1 (status 3)
    with pytest.raises(RuntimeError, match=r"did not converge \(status 3"):
        _integrate(flat, lambda r: (1.0, math.nan if r > 1.0 else r), 1e-9, 2.0, 1e-12)
    # a profile that turns NaN past r = 1, under both public integrals
    cone = flat_profile(2.0)
    broken = RadialMetric(
        RadialProfile(f=lambda x: constant(math.nan if x.value > 1.0 else 1.0),
                      a=cone.a, b=cone.b, c=cone.c, r_min=0.0, r_max=2.0),
        2.0 * math.pi**2)
    with pytest.raises(RuntimeError, match=r"did not converge \(status 3"):
        volume(broken, 1e-9, 2.0)
    with pytest.raises(RuntimeError, match=r"did not converge \(status 3"):
        integrate_characteristics(broken, domain=(1e-9, 2.0))


def test_preset_link_volumes():
    # Eguchi-Hanson's link is S^3 / Z2; every other preset's is S^3
    assert make_metric(Preset.EGUCHI_HANSON, A=2.0).link_volume == math.pi**2
    for preset in (Preset.BURNS, Preset.FLAT, Preset.ROUND):
        assert make_metric(preset).link_volume == 2.0 * math.pi**2


def test_eguchi_hanson_bolt_location():
    prof = eguchi_hanson_profile(A=2.0)
    assert prof.r_min == 2**0.25
