"""The canonical-variation collapse family, its O'Neill curvature, and the
left-invariant engine of the test oracles that checks it."""

import numpy as np
import pytest

from collapselab.frame_curvature import curvature_operator
from collapselab.submersion import (
    BundleKind,
    collapse_metric,
    make_bundle,
    oneill_at,
    oneill_frame,
)
from oracles import StructureConstants, heisenberg_r, homogeneous_curvature, su2_r


def _engine_frame(t):
    """The nilmanifold's g_t = diag(1, 1, 1/t, 1/t) on Heisenberg x R, by
    the left-invariant engine."""
    return homogeneous_curvature(heisenberg_r(), [1.0, 1.0, 1.0 / t, 1.0 / t])


def test_structure_constants_validate():
    c = np.zeros((4, 4, 4))
    c[0, 1, 2] = 1.0  # not antisymmetrized
    with pytest.raises(ValueError, match="antisymmetric"):
        StructureConstants(c)


@pytest.mark.parametrize("shape", [(3, 3, 3), (6, 6, 6), (4, 4)])
def test_structure_constants_must_be_four_dimensional(shape):
    with pytest.raises(ValueError, match="dimension must be 4"):
        StructureConstants(np.zeros(shape))


def test_jacobi_holds_for_presets():
    for sc in (su2_r(), heisenberg_r()):
        assert sc.jacobi_defect() < 1e-12


def test_heisenberg_cross_r_sectional_curvatures():
    """The curvature operator is diagonal in the frame's 2-form basis
    (Milnor, Adv. Math. 21, 1976): K(X1, X2) = -3/4, the planes of X1 and
    X2 with the center X3 give +1/4, and the planes with the R factor 0."""
    fr = homogeneous_curvature(heisenberg_r(), np.ones(4))
    assert np.array_equal(curvature_operator(fr.riemann4),
                          np.diag([-0.75, 0.25, 0.0, 0.0, 0.0, 0.25]))
    assert fr.scalar == pytest.approx(-0.5, abs=1e-12)


def test_oneill_matches_homogeneous_engine():
    """The engine's operator is diagonal, so its diagonal holds the
    sectional extremes: the least is O'Neill's K_H, the greatest K_P."""
    bundle = make_bundle(BundleKind.NILMANIFOLD)
    for t in (1.0, 4.0, 3.7, 100.0):
        cur = oneill_at(collapse_metric(bundle, t))
        op = curvature_operator(_engine_frame(t).riemann4)
        diag = np.diag(op)
        assert np.all(op - np.diag(diag) == 0.0)
        assert cur.K_H == pytest.approx(diag.min(), rel=0.0, abs=3e-17)
        assert cur.K_P == pytest.approx(diag.max(), rel=0.0, abs=3e-17)


_FIELDS = ("riemann4", "ricci", "scalar", "w_plus_norm2", "w_minus_norm2",
           "ricci_traceless_norm2")
# the largest distance of each field of the O'Neill frame from the engine's,
# in units in the last place of the engine's value, over the t of the test;
# the engine rounds sqrt(1/t) and squares it where O'Neill reads 1/t
_ULPS = {"riemann4": 2, "ricci": 2, "scalar": 3, "w_plus_norm2": 8, "w_minus_norm2": 8,
         "ricci_traceless_norm2": 6}


def test_oneill_frame_matches_the_left_invariant_engine():
    """The engine's operator is exactly diagonal, so the O'Neill frame,
    diag(K_H, K_P, 0, 0, 0, K_P), is the whole curvature.  The two frames
    agree bit for bit at t = 1, 4, 10, 1e6 and 1e300, where the engine's
    rounded sqrt(1/t) squares back to 1/t, and every field within ``_ULPS``
    units in the last place elsewhere (the largest seen over these 601 t,
    and over 25 000 random t in [1, 1e300])."""
    bundle = make_bundle(BundleKind.NILMANIFOLD)
    for t in (1.0, 4.0, 10.0, 1e6, 1e300):
        got, want = oneill_frame(collapse_metric(bundle, t)), _engine_frame(t)
        for field in _FIELDS:
            assert (np.asarray(getattr(got, field)).tobytes()
                    == np.asarray(getattr(want, field)).tobytes()), (t, field)
    worst = dict.fromkeys(_FIELDS, 0.0)
    for t in np.concatenate([np.geomspace(1.0, 1e300, 501), np.linspace(1.0, 20.0, 100)]):
        metric = collapse_metric(bundle, float(t))
        got, want = oneill_frame(metric), _engine_frame(float(t))
        op = curvature_operator(want.riemann4)
        assert np.all(op - np.diag(np.diag(op)) == 0.0)
        cur = oneill_at(metric)
        assert np.array_equal(curvature_operator(got.riemann4),
                              np.diag([cur.K_H, cur.K_P, 0.0, 0.0, 0.0, cur.K_P]))
        for field in _FIELDS:
            x, y = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            worst[field] = max(worst[field], float(np.max(np.abs(x - y) / np.spacing(np.abs(y)))))
    assert all(worst[field] <= _ULPS[field] for field in _FIELDS), worst


def test_oneill_spec_values():
    bundle = make_bundle(BundleKind.NILMANIFOLD)
    cur = oneill_at(collapse_metric(bundle, 4.0))
    assert cur.K_H == pytest.approx(-3.0 / 16.0)
    assert cur.K_P == pytest.approx(1.0 / 16.0)


@pytest.mark.parametrize("kind", [BundleKind.TRIVIAL_TORUS_OVER_TORUS,
                                  BundleKind.NILMANIFOLD])
def test_volume_scales_inversely_with_t(kind):
    bundle = make_bundle(kind)
    v1 = collapse_metric(bundle, 1.0).total_volume()
    for t in (10.0, 100.0, 1e6):
        assert collapse_metric(bundle, t).total_volume() * t == pytest.approx(
            v1, abs=1e-12)


def test_curvatures_bounded_and_monotone():
    bundle = make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS)
    k_base = bundle.base.gauss_curvature
    kps, khs = [], []
    for t in (1.0, 10.0, 100.0, 1000.0, 1e6):
        cur = oneill_at(collapse_metric(bundle, t))
        kps.append(cur.K_P)
        khs.append(abs(cur.K_H - k_base))
    assert all(abs(b) <= abs(a) for a, b in zip(kps, kps[1:]))
    assert all(b <= a for a, b in zip(khs, khs[1:]))
    assert max(abs(k) for k in kps + khs) < 10.0


def test_t_below_one_rejected():
    bundle = make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS)
    with pytest.raises(ValueError):
        collapse_metric(bundle, 0.5)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_non_finite_t_rejected(t):
    bundle = make_bundle(BundleKind.TRIVIAL_TORUS_OVER_TORUS)
    with pytest.raises(ValueError, match="finite"):
        collapse_metric(bundle, t)
