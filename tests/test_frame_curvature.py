"""Frame curvature engine on model spaces with known curvature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab.cutoff import BaseInstanton, CutoffFamily, modified_metric
from collapselab.frame_curvature import (
    PAIR_BASIS,
    _live_products,
    curvature_operator,
    diagonal_frame,
    frame_from_riemann,
    levi_civita_coefficients,
    riemann_tensor,
)
from collapselab.radial import Preset, _structure_functions, make_metric
from collapselab.submersion import BundleKind, collapse_metric, make_bundle, oneill_frame
from oracles import dense_riemann_tensor, heisenberg_r, homogeneous_curvature, su2_r


def test_pair_basis_orientation():
    # three pairs containing e0, then their Hodge duals, in matching order
    assert PAIR_BASIS[:3] == [(0, 1), (0, 2), (0, 3)]
    assert PAIR_BASIS[3:] == [(2, 3), (3, 1), (1, 2)]


def test_flat_frame_is_flat():
    struct = np.zeros((4, 4, 4))
    fr = frame_from_riemann(riemann_tensor(struct))
    assert fr.scalar == 0.0
    assert np.all(fr.riemann4 == 0.0)
    assert fr.w_plus_norm2 == 0.0 and fr.w_minus_norm2 == 0.0


def test_round_three_sphere_from_su2():
    """The unit metric on su(2) + R is the round unit S^3 times a line: the
    planes of S^3 have K = 1, the planes through the line K = 0: the
    curvature operator is diagonal in the frame's 2-form basis."""
    fr = homogeneous_curvature(su2_r(), np.ones(4))
    assert fr.scalar == pytest.approx(6.0, abs=1e-12)
    assert np.array_equal(curvature_operator(fr.riemann4), np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 1.0]))


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


def test_diagonal_frame_is_the_operator_it_is_given():
    """``diagonal_frame`` puts each sectional curvature on its plane of
    ``PAIR_BASIS`` and leaves every other entry +0.0, the zero planes
    included; Ric(E_a, E_a) sums the planes through E_a."""
    sectional = (2.0, -0.5, 0.0, -1.0, 0.25, 0.0)
    frame = diagonal_frame(sectional)
    assert np.array_equal(curvature_operator(frame.riemann4), np.diag(sectional))
    assert not np.any(np.signbit(frame.riemann4[frame.riemann4 == 0.0]))
    assert np.array_equal(frame.ricci, np.diag([1.5, 2.25, -1.5, -0.75]))
    assert frame.scalar == 1.5
    with pytest.raises(ValueError):
        diagonal_frame(sectional[:5])


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
    """Scaling the metric by lambda^2 divides curvature by lambda^2; for
    lambda = 2 every factor is a power of two, so exactly."""
    diag = np.array([1.0, 1.2, 0.8, 1.5])
    fr1 = homogeneous_curvature(su2_r(), diag)
    fr4 = homogeneous_curvature(su2_r(), 4.0 * diag)
    assert fr4.scalar == fr1.scalar / 4.0
    assert np.array_equal(curvature_operator(fr4.riemann4), curvature_operator(fr1.riemann4) / 4.0)


def _radial_frames():
    """(name, structure functions, r-derivatives, E_0 scale) of every
    preset and of both cutoff families, each on one batch of radii (the
    cutoff radii cross the core, the bump interior and the flat end)."""
    for preset in Preset:
        metric = make_metric(preset)
        hi = metric.r_max if math.isfinite(metric.r_max) else 20.0
        lo = max(metric.r_min, 1e-4 * hi)
        radii = lo + (hi - lo) * np.linspace(0.01, 0.99, 33)
        yield preset.value, *_structure_functions(metric, radii)
    for base in BaseInstanton:
        fam = CutoffFamily(base, 0.3)
        radii = np.linspace(1.01 * fam.r_bolt, 0.9, 33)
        yield f"cutoff-{base.value}", *_structure_functions(modified_metric(fam), radii)


def _nilmanifold_struct(t):
    """The structure functions of the nilmanifold's g_t = diag(1, 1, 1/t, 1/t)
    on Heisenberg x R, as ``homogeneous_curvature`` scales them."""
    rt = np.sqrt([1.0, 1.0, 1.0 / t, 1.0 / t])
    return heisenberg_r().c * rt[None, None, :] / (rt[:, None, None] * rt[None, :, None])


def _products(struct):
    """Live products of ``riemann_tensor`` per point of the structure
    functions ``struct``."""
    frames = (levi_civita_coefficients(struct), struct)
    return np.count_nonzero(_live_products(np.concatenate([x.reshape(-1, 64).T for x in frames])))


def test_radial_frame_forms_84_products():
    """Every radial frame has 12 nonzero structure functions and 12 nonzero
    connection coefficients of 64, so 36 products G G and 48 products C G
    can change a bit per radius, of the 1024 + 1024 a full contraction
    forms; a frame with no zero entry forms all 2048."""
    for name, struct, _, _ in _radial_frames():
        assert _products(struct) == 84, name
    assert _products(np.random.default_rng(3).standard_normal((5, 4, 4, 4))) == 2048
    assert _products(np.zeros((4, 4, 4))) == 0


def test_model_frames_match_the_dense_oracle_bit_for_bit():
    for name, struct, struct_d1, scale in _radial_frames():
        got = riemann_tensor(struct, struct_d1, scale)
        assert got.tobytes() == dense_riemann_tensor(struct, struct_d1, scale).tobytes(), name
    bundle = make_bundle(BundleKind.NILMANIFOLD)
    for t in (1.0, 0.1, 3.7):
        want = dense_riemann_tensor(_nilmanifold_struct(t))
        assert riemann_tensor(_nilmanifold_struct(t)).tobytes() == want.tobytes()
        if t >= 1.0:  # g_t of the collapse family; its O'Neill frame to 2 ulp
            got = oneill_frame(collapse_metric(bundle, t)).riemann4
            assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want))), t


def _random_field(rng, batch, p_zero, p_part, negative_zero, non_finite):
    """Normal draws of shape batch + (4, 4, 4) with entries zero on the
    whole batch (probability p_zero), zero on part of it (p_part), zeros
    turned to -0.0 at random, and two NaN or infinite entries."""
    x = rng.standard_normal(batch + (4, 4, 4))
    x[..., rng.random((4, 4, 4)) < p_zero] = 0.0
    x[rng.random(x.shape) < p_part] = 0.0
    if negative_zero:
        x[(x == 0.0) & (rng.random(x.shape) < 0.5)] = -0.0
    if non_finite:
        x.flat[rng.integers(x.size, size=2)] = rng.choice([np.nan, np.inf, -np.inf], size=2)
    return x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(), (1,), (7,), (2, 3)]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["constant", "float", "per point"]),
)
def test_riemann_tensor_matches_the_dense_oracle_bit_for_bit(
        seed, batch, p_zero, p_part, negative_zero, non_finite, scale):
    """Random zero patterns, zeros on part of the batch, -0.0, NaN and inf,
    with no derivatives, a float E_0 scale or one per point: every bit
    equal, but for the sign of a NaN."""
    rng = np.random.default_rng(seed)
    fields = [_random_field(rng, batch, p_zero, p_part, negative_zero, non_finite)
              for _ in range(2)]
    args = {"constant": (fields[0],),
            "float": (*fields, float(rng.standard_normal())),
            "per point": (*fields, rng.standard_normal(batch))}[scale]
    with np.errstate(all="ignore"):  # NaN and inf draws raise no warning here
        got, want = riemann_tensor(*args), dense_riemann_tensor(*args)
    assert got.shape == want.shape == batch + (4, 4, 4, 4)
    # numpy returns either operand's NaN from NaN + NaN, by the element's
    # place in its vector loop, so the sign of a NaN depends on the layout
    got, want = (np.where(np.isnan(x), np.nan, x).tobytes() for x in (got, want))
    assert got == want
