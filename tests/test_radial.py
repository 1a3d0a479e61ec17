"""Radial (cohomogeneity-one) metrics against the coordinate-chart oracle."""

import math

import numpy as np
import pytest

from collapselab.frame_curvature import curvature_operator
from collapselab.radial import (
    Preset,
    RadialMetric,
    RadialProfile,
    _check_range,
    curvature_at,
    eguchi_hanson_profile,
    flat_profile,
    make_metric,
    round_profile,
    sample_grid,
    volume,
    w_ansatz_profile,
)
from collapselab.jets import Jet2
from oracles import radial_invariants_fd, radial_metric_components, van_der_corput


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
    # constant curvature 1: the curvature operator is the identity
    assert np.abs(curvature_operator(fr.riemann4) - np.eye(6)).max() <= 1e-15
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
    p = metric.profile
    scaled = RadialMetric(
        RadialProfile(lambda x: tuple(2.0 * jet for jet in p.jets(x)), p.r_min),
        metric.link_volume)
    # same coordinate r, metric multiplied by 4: curvature scales by 1/4
    fr = curvature_at(metric, 2.0)
    fs = curvature_at(scaled, 2.0)
    assert fs.riemann_norm2 == pytest.approx(fr.riemann_norm2 / 16.0, rel=1e-10)
    assert fs.scalar == pytest.approx(fr.scalar / 4.0, abs=1e-12)


def test_domain_guard():
    """The domain is open at both ends, infinity included: r = inf would
    give a frame of NaN components."""
    metric = make_metric(Preset.EGUCHI_HANSON)
    for r in (0.5, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="outside domain"):
            curvature_at(metric, r)


@pytest.mark.parametrize("lo,hi", [(1.0, math.inf), (1.0, math.nan), (0.0, 2.0), (2.0, 1.0)])
def test_sample_grid_needs_a_finite_range(lo, hi):
    with pytest.raises(ValueError, match="invalid radial range"):
        sample_grid(lo, hi, 10)


def test_check_range_refuses_a_range_outside_the_domain(monkeypatch):
    """The range itself is checked, whatever grid is later laid on it: the
    200-point grid of round on [0.1, 3.2] has no point past r_max = pi, so
    a check of the grid alone would pass it.  ``volume`` checks its range
    before any quadrature."""
    import collapselab.radial as radial

    calls = []
    monkeypatch.setattr(radial, "_integrate", lambda *args: calls.append(args))
    round_s4, burns = make_metric(Preset.ROUND), make_metric(Preset.BURNS)
    assert sample_grid(0.1, 3.2, 200).max() < math.pi
    for metric, lo, hi in ((round_s4, 0.1, 3.2), (burns, 0.999, 3.0), (burns, 3.0, 2.0)):
        with pytest.raises(ValueError, match="outside the domain"):
            _check_range(metric, lo, hi)
        with pytest.raises(ValueError, match="outside the domain"):
            volume(metric, lo, hi)
    assert not calls


def test_sample_grid_matches_the_scalar_van_der_corput_loop_bit_for_bit():
    """The grid's exponents, mirrored binary digits formed for all k at once,
    are the scalar loop's exact dyadics on every sample count from 2 to 513
    and on each power of two up to 4096 and its two neighbours."""
    lo, hi = 0.3, 7.0
    points = np.array([van_der_corput(k) for k in range(1, 4098)])
    counts = set(range(2, 514)) | {2**p + d for p in range(10, 13) for d in (-1, 0, 1)}
    for n in sorted(counts):
        expected = lo * (hi / lo) ** points[:n].copy()
        assert sample_grid(lo, hi, n).tobytes() == expected.tobytes()


def test_w_ansatz_profile_computes_one_square_root_per_radius(monkeypatch):
    """f = W^-1/2 and c = r W^1/2 share one W and one sqrt, and match the
    closed forms of the Eguchi-Hanson metric."""
    calls = 0
    sqrt = Jet2.sqrt

    def counting(self):
        nonlocal calls
        calls += 1
        return sqrt(self)

    monkeypatch.setattr(Jet2, "sqrt", counting)
    f, a, b, c = w_ansatz_profile(lambda x: 2.0 / (x * x * x * x), 2**0.25).at(1.5)
    assert calls == 1
    w = 1.0 - 2.0 / 1.5**4
    assert f.value == pytest.approx(w**-0.5, rel=1e-15)
    assert c.value == pytest.approx(1.5 * w**0.5, rel=1e-15)
    assert (a.value, a.d1, b.value, b.d1) == (1.5, 1.0, 1.5, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_profile_parameters_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        eguchi_hanson_profile(bad)
    with pytest.raises(ValueError, match="positive and finite"):
        round_profile(bad)


def test_sampled_sup_never_falls_as_samples_grow():
    """Nested grids only add points, so the sup over a batched curvature
    evaluation never falls as the sample count grows."""
    metric = make_metric(Preset.BURNS)
    sups = [np.max(curvature_at(metric, sample_grid(metric.r_min, 10.0, n)).sup_ricci)
            for n in (25, 50, 100)]
    assert sups[0] <= sups[1] <= sups[2]


def test_volume_against_closed_forms():
    # flat cone over the Z2 lens: link volume pi^2, so V = pi^2 R^4 / 4
    flat = RadialMetric(flat_profile(), math.pi**2)
    assert volume(flat, 1e-9, 2.0) == pytest.approx(math.pi**2 * 4.0, rel=1e-10)
    # round 4-sphere: total volume 8 pi^2 / 3
    s4 = make_metric(Preset.ROUND)
    assert volume(s4, 1e-9, math.pi - 1e-9) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-8)


def test_volume_rejects_unconverged_quadrature():
    from collapselab.charclass import integrate_characteristics
    from collapselab.radial import _integrate

    flat = make_metric(Preset.FLAT)
    # tol = 0 cannot be met: the rounding term overtakes the error (status 2)
    with pytest.raises(RuntimeError, match=r"did not converge \(status 2"):
        _integrate(flat, lambda r: 1.0, 1e-9, 2.0, 0.0)
    # a component that turns NaN past r = 1 (status 3)
    with pytest.raises(RuntimeError, match=r"did not converge \(status 3"):
        _integrate(flat, lambda r: np.stack([np.ones_like(r), np.where(r > 1.0, math.nan, r)],
                                            axis=-1), 1e-9, 2.0, 1e-12)
    # a profile that turns NaN past r = 1, under both public integrals
    cone = flat_profile(2.0)

    def nan_past_one(x):
        _, a, b, c = cone.jets(x)
        return Jet2(np.where(x.value > 1.0, math.nan, 1.0)), a, b, c

    broken = RadialMetric(RadialProfile(nan_past_one, 0.0, 2.0), 2.0 * math.pi**2)
    with pytest.raises(RuntimeError, match=r"did not converge \(status 3"):
        volume(broken, 1e-9, 2.0)
    with pytest.raises(RuntimeError, match=r"did not converge \(status 3"):
        integrate_characteristics(broken)


def test_preset_link_volumes():
    # Eguchi-Hanson's link is S^3 / Z2; every other preset's is S^3
    assert make_metric(Preset.EGUCHI_HANSON, A=2.0).link_volume == math.pi**2
    for preset in (Preset.BURNS, Preset.FLAT, Preset.ROUND):
        assert make_metric(preset).link_volume == 2.0 * math.pi**2


def test_eguchi_hanson_bolt_location():
    prof = eguchi_hanson_profile(A=2.0)
    assert prof.r_min == 2**0.25
