"""Curvature of a metric presented in an orthonormal frame.

The radial engine works from the structure functions of the frame,

    [E_a, E_b] = C^d_{ab} E_d,

via the Koszul formula specialised to orthonormal frames,

    <nabla_{E_a} E_b, E_c> = (C_{abc} - C_{bca} + C_{cab}) / 2 ,

with structure functions that depend on r (``riemann_tensor``; the
left-invariant oracle of tests/oracles.py feeds it constants).  A metric
whose curvature operator is diagonal in ``PAIR_BASIS``, such as a product
of surfaces or an O'Neill collapse frame, is built from its six sectional
curvatures instead (``diagonal_frame``).  Frame indices are Euclidean; no
index raising is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 2-form basis used for the 6x6 curvature operator in dimension 4:
# e0^e1, e0^e2, e0^e3, e2^e3, e3^e1, e1^e2.  The last three are the Hodge
# duals of the first three for the orientation e0^e1^e2^e3.
PAIR_BASIS = [(0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2)]
_PAIR_A, _PAIR_B = np.array(PAIR_BASIS).T
# op[p, q] = R[a[p], b[p], b[q], a[q]] as one fancy index
_OPERATOR_INDEX = (..., _PAIR_A[:, None], _PAIR_B[:, None], _PAIR_B[None, :], _PAIR_A[None, :])
_EYE3 = np.eye(3)
_EYE4 = np.eye(4)


def _point(x):
    """A float for a single point, the array itself for a batch."""
    return float(x) if x.ndim == 0 else x


@dataclass
class CurvatureFrame:
    """Pointwise curvature data in an orthonormal frame of a 4-manifold, at
    one point or at each point of a batch.

    ``riemann4`` is the full (4,4,4,4) tensor
    R(E_a,E_b,E_c,E_d) = <R(E_a,E_b)E_c, E_d>, kept for oracles and for
    ``curvature_operator``.
    W+/W- norms use the operator (Frobenius) normalisation that makes

        2*chi + 3*tau = (1/4pi^2) int [2|W+|^2 + s^2/24 - |ric0|^2/2] dmu

    hold on the model spaces; |ric0|^2 is the plain tensor norm.

    A batch carries its shape as leading axes of every field (the scalar
    fields are then arrays), and ``frame[i]`` is the frame at point i.
    """

    riemann4: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray
    w_plus_norm2: float | np.ndarray
    w_minus_norm2: float | np.ndarray
    ricci_traceless_norm2: float | np.ndarray

    def __getitem__(self, index) -> CurvatureFrame:
        return CurvatureFrame(
            self.riemann4[index],
            self.ricci[index],
            _point(self.scalar[index]),
            _point(self.w_plus_norm2[index]),
            _point(self.w_minus_norm2[index]),
            _point(self.ricci_traceless_norm2[index]),
        )

    @property
    def sup_ricci(self) -> float | np.ndarray:
        """Largest |component| of the Ricci tensor in the frame."""
        return _point(np.abs(self.ricci).max(axis=(-2, -1)))

    @property
    def riemann_norm2(self) -> float | np.ndarray:
        """Tensor norm |Rm|^2 = R_abcd R^abcd."""
        return _point((self.riemann4 * self.riemann4).sum(axis=(-4, -3, -2, -1)))


def levi_civita_coefficients(struct: np.ndarray) -> np.ndarray:
    """Connection coefficients Gamma[..., a,b,c] = <nabla_{E_a} E_b, E_c>.

    ``struct[..., a,b,c]`` holds <[E_a,E_b], E_c>.
    """
    c_bca = np.moveaxis(struct, -1, -3)
    c_cab = np.moveaxis(struct, -3, -1)
    return 0.5 * (struct - c_bca + c_cab)


def _product_factors():
    """Factor rows of the 2 x 4 x 256 products of ``riemann_tensor``: one
    row per sum and e (A = sum_e G_bce G_aed, then B = sum_e C_abe G_ecd),
    one column per output slot 64 a + 16 b + 4 c + d.  Factor row
    16 a + 4 b + c holds Gamma[a, b, c], and row 64 + 16 a + 4 b + c holds
    C[a, b, c]."""
    e, a, b, c, d = np.indices((4,) * 5).reshape(5, 4, 256)
    left = np.concatenate([16 * b + 4 * c + e, 64 + 16 * a + 4 * b + e])
    right = np.concatenate([16 * a + 4 * e + d, 16 * e + 4 * c + d])
    return left, right


_LEFT, _RIGHT = _product_factors()
# the slot of (b, a, c, d) at the slot of (a, b, c, d)
_SWAP = np.arange(256).reshape(4, 4, 16).transpose(1, 0, 2).ravel()


def _live_products(factors: np.ndarray) -> np.ndarray:
    """Mask of the products of ``riemann_tensor`` that can change a bit, one
    row per sum and e as in ``_product_factors``, over the factor rows
    ``factors`` (128, points).  A product is dropped only when one factor is
    +-0.0 at every point and the other finite at every point: it is then
    +-0.0 at every point, so NaN and inf propagate as in the full sums."""
    zero, finite = ~factors.any(axis=1), np.isfinite(factors).all(axis=1)
    return ~((zero[_LEFT] & finite[_RIGHT]) | (zero[_RIGHT] & finite[_LEFT]))


def riemann_tensor(
    struct: np.ndarray,
    struct_d1: np.ndarray | None = None,
    e0_scale=1.0,
) -> np.ndarray:
    """Full curvature tensor R[..., a,b,c,d] = <R(E_a,E_b)E_c, E_d>, over
    any leading batch axes of the structure functions.

    The structure functions may depend on a single parameter r whose
    orthonormal direction is E_0 = e0_scale * d/dr; ``struct_d1`` then holds
    their r-derivatives (None means constants, the homogeneous case), and
    ``e0_scale`` is a float or one value per batch point.

        R_abcd = sum_e (G_bce G_aed - G_ace G_bed - C_abe G_ecd)
                 + E_a(G_bcd) - E_b(G_acd),

    each sum over e taken from 0.0 in the order e = 0, 1, 2, 3.  Only the
    products that can change a bit are formed (``_live_products``, read from
    the data on each call), each added into a compact accumulator through a
    map from output slot to row whose last row is zero, and only the slots
    they reach are computed; the rest are +0.0, as the full sums give
    (docs/conventions.md).
    """
    # the 128 factor rows: the 64 Gamma, then the 64 C, each over the batch
    frames = (levi_civita_coefficients(struct), struct)
    factors = np.concatenate([x.reshape(-1, 64).T for x in frames])
    live = _live_products(factors)
    reached = live.reshape(2, 4, 256).any(axis=1).ravel()  # A slots, then B slots
    count = np.count_nonzero(reached)
    row = np.full(512, count)  # a slot no product reaches reads the zero row
    row[reached] = np.arange(count)
    total = np.zeros((count + 1, factors.shape[1]))
    sum_e, slot = np.nonzero(live)  # sorted by sum, then e
    rows, left, right = row[256 * (sum_e // 4) + slot], _LEFT[sum_e, slot], _RIGHT[sum_e, slot]
    ends = np.cumsum(np.count_nonzero(live, axis=1)).tolist()
    for term in map(slice, [0] + ends, ends):
        total[rows[term]] += factors[left[term]] * factors[right[term]]
    a, b = reached[:256], reached[256:]
    slots = np.flatnonzero(a | a[_SWAP] | b)
    riem = np.zeros((factors.shape[1], 256))
    riem[:, slots] = ((total[row[slots]] - total[row[_SWAP[slots]]]) - total[row[256 + slots]]).T
    riem = riem.reshape(struct.shape[:-3] + (4, 4, 4, 4))
    if struct_d1 is not None:
        scale = np.asarray(e0_scale)[..., None, None, None]
        dgamma = scale * levi_civita_coefficients(struct_d1)
        # E_a(Gamma[b,c,d]) contributes only when a = 0 (resp. b = 0).
        riem[..., 0, :, :, :] += dgamma
        riem[..., :, 0, :, :] -= dgamma
    return riem


def curvature_operator(riem: np.ndarray) -> np.ndarray:
    """Curvature operator on 2-forms in the ``PAIR_BASIS``,
    op[..., p, q] = R(E_a[p], E_b[p], E_b[q], E_a[q]); its diagonal entries
    are the sectional curvatures of the frame planes."""
    return riem[_OPERATOR_INDEX]


def weyl_blocks(op: np.ndarray):
    """Self-dual / anti-self-dual trace-free Weyl blocks of the operator,
    for the volume form e0^e1^e2^e3.

    For the radial frame (f dr, a s1, b s2, c s3) this orientation makes the
    Eguchi-Hanson and Burns metrics anti-self-dual (W+ = 0), matching the
    complex orientation of the blow-ups they live on; locked by tests.
    """
    top, bot = op[..., :3, :3], op[..., 3:, 3:]
    mix = op[..., :3, 3:] + op[..., 3:, :3]
    a_block = 0.5 * (top + mix + bot)
    c_block = 0.5 * (top - mix + bot)
    w_plus = a_block - (a_block.trace(axis1=-2, axis2=-1) / 3.0)[..., None, None] * _EYE3
    w_minus = c_block - (c_block.trace(axis1=-2, axis2=-1) / 3.0)[..., None, None] * _EYE3
    return w_plus, w_minus


def frame_from_riemann(riem: np.ndarray) -> CurvatureFrame:
    """Assemble a CurvatureFrame from a full orthonormal-frame Riemann
    tensor, which must be 4-dimensional: shape (4, 4, 4, 4) for one point,
    with any leading axes for a batch."""
    if riem.shape[-4:] != (4, 4, 4, 4):
        raise ValueError(f"Riemann tensor must have shape (..., 4, 4, 4, 4), got {riem.shape}")
    # Ric(Y,Z) = sum_a <R(E_a, Y) Z, E_a>
    ricci = np.einsum("...abca->...bc", riem)
    scalar = ricci.trace(axis1=-2, axis2=-1)
    w_plus, w_minus = weyl_blocks(curvature_operator(riem))
    ric0 = ricci - (scalar / 4)[..., None, None] * _EYE4
    return CurvatureFrame(
        riemann4=riem,
        ricci=ricci,
        scalar=_point(scalar),
        w_plus_norm2=_point((w_plus * w_plus).sum(axis=(-2, -1))),
        w_minus_norm2=_point((w_minus * w_minus).sum(axis=(-2, -1))),
        ricci_traceless_norm2=_point((ric0 * ric0).sum(axis=(-2, -1))),
    )


def diagonal_frame(sectional) -> CurvatureFrame:
    """The CurvatureFrame of a curvature operator that is diagonal in
    ``PAIR_BASIS``, from its six diagonal entries, the sectional curvatures
    of the frame planes.  The tensor entries of a zero plane stay +0.0."""
    riem = np.zeros((4, 4, 4, 4))
    for (a, b), k in zip(PAIR_BASIS, sectional, strict=True):
        if k != 0.0:
            riem[a, b, b, a] = riem[b, a, a, b] = k
            riem[a, b, a, b] = riem[b, a, b, a] = -k
    return frame_from_riemann(riem)
