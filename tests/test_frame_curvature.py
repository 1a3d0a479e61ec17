"""Frame curvature engine on model spaces with known curvature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab.frame_curvature import (
    PAIR_BASIS,
    curvature_operator,
    frame_curvature,
    frame_from_riemann,
    levi_civita_coefficients,
    riemann_tensor,
)
from collapselab.submersion import homogeneous_curvature
from oracles import su2_r


def test_pair_basis_orientation():
    # three pairs containing e0, then their Hodge duals, in matching order
    assert PAIR_BASIS[:3] == [(0, 1), (0, 2), (0, 3)]
    assert PAIR_BASIS[3:] == [(2, 3), (3, 1), (1, 2)]


def test_flat_frame_is_flat():
    struct = np.zeros((4, 4, 4))
    fr = frame_curvature(struct)
    assert fr.scalar == 0.0
    assert np.all(fr.riemann4 == 0.0)
    assert fr.w_plus_norm2 == 0.0 and fr.w_minus_norm2 == 0.0


def test_round_three_sphere_from_su2():
    """The unit metric on su(2) + R is the round unit S^3 times a line: the
    planes of S^3 have K = 1, the planes through the line K = 0."""
    fr = homogeneous_curvature(su2_r(), np.ones(4))
    assert fr.scalar == pytest.approx(6.0, abs=1e-12)
    assert fr.sec_min == pytest.approx(0.0, abs=1e-10)
    assert fr.sec_max == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [3, 6])
def test_frame_from_riemann_requires_dimension_four(n):
    with pytest.raises(ValueError, match="shape"):
        frame_from_riemann(np.zeros((n, n, n, n)))


def test_levi_civita_antisymmetry():
    rng = np.random.default_rng(7)
    struct = rng.standard_normal((4, 4, 4))
    struct -= struct.transpose(1, 0, 2)  # antisymmetrize C_abc in (a, b)
    gamma = levi_civita_coefficients(struct)
    # metric compatibility: Gamma_abc antisymmetric in the last two slots
    assert np.allclose(gamma, -gamma.transpose(0, 2, 1), atol=1e-12)


def test_curvature_operator_diagonal_is_sectional():
    riem = np.zeros((4, 4, 4, 4))
    for (a, b), k in (((0, 1), 2.0), ((2, 3), -1.0)):
        riem[a, b, b, a] = riem[b, a, a, b] = k
        riem[a, b, a, b] = riem[b, a, b, a] = -k
    op = curvature_operator(riem)
    assert op[0, 0] == 2.0  # plane (0,1)
    assert op[3, 3] == -1.0  # plane (2,3)


def test_norm_decomposition_identity():
    """|Rm|^2 = 4 |W|_F^2 + 2 |ric0|^2 + s^2 / 6 for the dim-4 norms used."""
    from collapselab.radial import Preset, curvature_at, make_metric

    frames = [curvature_at(make_metric(p), r)
              for p in (Preset.EGUCHI_HANSON, Preset.BURNS, Preset.ROUND)
              for r in (1.4, 2.3)]
    for fr in frames:
        lhs = fr.riemann_norm2
        rhs = (4.0 * (fr.w_plus_norm2 + fr.w_minus_norm2)
               + 2.0 * fr.ricci_traceless_norm2 + fr.scalar**2 / 6.0)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_frame_from_riemann_matches_frame_curvature():
    fr1 = homogeneous_curvature(su2_r(), np.array([1.0, 1.2, 0.8, 1.5]))
    fr2 = frame_from_riemann(fr1.riemann4)
    assert fr2.scalar == pytest.approx(fr1.scalar)
    assert np.allclose(fr2.ricci, fr1.ricci)


def test_scaling_law():
    """Scaling the metric by lambda^2 divides curvature by lambda^2."""
    fr1 = homogeneous_curvature(su2_r(), np.ones(4))
    fr4 = homogeneous_curvature(su2_r(), 4.0 * np.ones(4))
    assert fr4.scalar == pytest.approx(fr1.scalar / 4.0)
    assert fr4.sec_max == pytest.approx(fr1.sec_max / 4.0, abs=1e-12)


def test_burns_sectional_extremes_are_exact():
    """At Burns r = 2 the least curvature -1/12 is off the frame planes
    (whose least value is -1/16)."""
    from collapselab.radial import Preset, curvature_at, make_metric

    fr = curvature_at(make_metric(Preset.BURNS), 2.0)
    assert fr.sec_min == pytest.approx(-1.0 / 12.0, abs=1e-12)
    assert fr.sec_max == pytest.approx(0.25, abs=1e-12)


def _random_plane_curvatures(riem, count):
    """R(u, v, v, u) over random orthonormal pairs (u, v), as one matrix
    product of the flattened tensor between the rows of u (x) v and v (x) u."""
    rng = np.random.default_rng(0)
    u = rng.standard_normal((count, 4))
    v = rng.standard_normal((count, 4))
    u /= np.linalg.norm(u, axis=1)[:, None]
    v -= np.einsum("ij,ij->i", u, v)[:, None] * u
    v /= np.linalg.norm(v, axis=1)[:, None]
    uv = (u[:, :, None] * v[:, None, :]).reshape(count, 16)
    vu = (v[:, :, None] * u[:, None, :]).reshape(count, 16)
    return np.sum((uv @ riem.reshape(16, 16)) * vu, axis=1)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1.0, 1.0), min_size=24, max_size=24))
def test_sectional_extremes_bound_random_planes(coeffs):
    """Exact extremes enclose 100k random planes, which come close to them."""
    struct = np.zeros((4, 4, 4))
    a, b = np.triu_indices(4, 1)
    struct[a, b, :] = np.reshape(coeffs, (6, 4))
    struct[b, a, :] = -struct[a, b, :]
    riem = riemann_tensor(struct)
    fr = frame_from_riemann(riem)
    secs = _random_plane_curvatures(riem, 100_000)
    tol = 1e-12 * max(1.0, float(np.linalg.norm(riem)))
    assert fr.sec_min - tol <= secs.min() and secs.max() <= fr.sec_max + tol
    width = fr.sec_max - fr.sec_min
    assert secs.min() - fr.sec_min <= 0.05 * width + tol
    assert fr.sec_max - secs.max() <= 0.05 * width + tol
