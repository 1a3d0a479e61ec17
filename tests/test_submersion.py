"""Homogeneous curvature and the canonical-variation collapse family."""

import numpy as np
import pytest

from collapselab.frame_curvature import curvature_operator
from collapselab.submersion import (
    BundleKind,
    StructureConstants,
    collapse_metric,
    heisenberg_r,
    homogeneous_curvature,
    make_bundle,
    nilmanifold_frame,
    oneill_at,
)
from oracles import su2_r


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
        op = curvature_operator(nilmanifold_frame(t).riemann4)
        diag = np.diag(op)
        assert np.all(op - np.diag(diag) == 0.0)
        assert cur.K_H == pytest.approx(diag.min(), rel=0.0, abs=3e-17)
        assert cur.K_P == pytest.approx(diag.max(), rel=0.0, abs=3e-17)


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
