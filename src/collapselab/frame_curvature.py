"""Curvature of a metric presented in an orthonormal frame.

Everything here works from the structure functions of the frame,

    [E_a, E_b] = C^d_{ab} E_d,

via the Koszul formula specialised to orthonormal frames,

    <nabla_{E_a} E_b, E_c> = (C_{abc} - C_{bca} + C_{cab}) / 2 ,

so the same core serves both the cohomogeneity-one radial engine (where the
structure functions depend on r) and the left-invariant homogeneous oracle
(where they are constants).  Frame indices are Euclidean; no index raising
is ever needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# 2-form basis used for the 6x6 curvature operator in dimension 4:
# e0^e1, e0^e2, e0^e3, e2^e3, e3^e1, e1^e2.  The last three are the Hodge
# duals of the first three for the orientation e0^e1^e2^e3.
PAIR_BASIS = [(0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2)]


@dataclass
class CurvatureFrame:
    """Pointwise curvature data in an orthonormal frame of a 4-manifold.

    ``riemann4`` is the full (4,4,4,4) tensor
    R(E_a,E_b,E_c,E_d) = <R(E_a,E_b)E_c, E_d>, kept for oracles and for
    ``sec_min`` / ``sec_max``, which are derived from it on first access.
    W+/W- norms use the operator (Frobenius) normalisation that makes

        2*chi + 3*tau = (1/4pi^2) int [2|W+|^2 + s^2/24 - |ric0|^2/2] dmu

    hold on the model spaces; |ric0|^2 is the plain tensor norm.
    """

    riemann4: np.ndarray
    ricci: np.ndarray
    scalar: float
    w_plus_norm2: float
    w_minus_norm2: float
    ricci_traceless_norm2: float

    @functools.cached_property
    def _sectional_extremes(self) -> tuple[float, float]:
        return sectional_extremes(self.riemann4)

    @property
    def sec_min(self) -> float:
        """Least sectional curvature (see ``sectional_extremes``)."""
        return self._sectional_extremes[0]

    @property
    def sec_max(self) -> float:
        """Greatest sectional curvature (see ``sectional_extremes``)."""
        return self._sectional_extremes[1]

    @property
    def sup_ricci(self) -> float:
        """Largest |component| of the Ricci tensor in the frame."""
        return float(np.max(np.abs(self.ricci)))

    @property
    def riemann_norm2(self) -> float:
        """Tensor norm |Rm|^2 = R_abcd R^abcd."""
        return float(np.sum(self.riemann4 * self.riemann4))


def levi_civita_coefficients(struct: np.ndarray) -> np.ndarray:
    """Connection coefficients Gamma[a,b,c] = <nabla_{E_a} E_b, E_c>.

    ``struct[a,b,c]`` holds <[E_a,E_b], E_c>.
    """
    c_abc = struct
    c_bca = np.transpose(struct, (2, 0, 1))
    c_cab = np.transpose(struct, (1, 2, 0))
    return 0.5 * (c_abc - c_bca + c_cab)


def riemann_tensor(
    struct: np.ndarray,
    struct_d1: np.ndarray | None = None,
    e0_scale: float = 1.0,
) -> np.ndarray:
    """Full curvature tensor R[a,b,c,d] = <R(E_a,E_b)E_c, E_d>.

    The structure functions may depend on a single parameter r whose
    orthonormal direction is E_0 = e0_scale * d/dr; ``struct_d1`` then holds
    their r-derivatives (None means constants, the homogeneous case).
    """
    n = struct.shape[0]
    gamma = levi_civita_coefficients(struct)
    riem = np.einsum("bce,aed->abcd", gamma, gamma)
    riem -= np.einsum("ace,bed->abcd", gamma, gamma)
    riem -= np.einsum("abe,ecd->abcd", struct, gamma)
    if struct_d1 is not None:
        dgamma = e0_scale * levi_civita_coefficients(struct_d1)
        # E_a(Gamma[b,c,d]) contributes only when a = 0 (resp. b = 0).
        riem[0, :, :, :] += dgamma
        riem[:, 0, :, :] -= dgamma
    return riem


def curvature_operator(riem: np.ndarray) -> np.ndarray:
    """Curvature operator on 2-forms in the ``PAIR_BASIS``,
    op[p, q] = R(E_a[p], E_b[p], E_b[q], E_a[q]); its diagonal entries are
    the sectional curvatures of the frame planes."""
    a, b = np.array(PAIR_BASIS).T
    return riem[a[:, None], b[:, None], b[None, :], a[None, :]]


def weyl_blocks(op: np.ndarray):
    """Self-dual / anti-self-dual trace-free Weyl blocks of the operator,
    for the volume form e0^e1^e2^e3.

    For the radial frame (f dr, a s1, b s2, c s3) this orientation makes the
    Eguchi-Hanson and Burns metrics anti-self-dual (W+ = 0), matching the
    complex orientation of the blow-ups they live on; locked by tests.
    """
    top, bot = op[:3, :3], op[3:, 3:]
    mix = op[:3, 3:] + op[3:, :3]
    a_block = 0.5 * (top + mix + bot)
    c_block = 0.5 * (top - mix + bot)
    eye = np.eye(3)
    w_plus = a_block - (np.trace(a_block) / 3.0) * eye
    w_minus = c_block - (np.trace(c_block) / 3.0) * eye
    return w_plus, w_minus


def _thorpe_min(op: np.ndarray) -> float:
    """max_t lambda_min(op + t*) over |t| <= 2 ||op||_2, by bisection on the
    sign of <*v, v> at the lowest eigenvector v (docs/conventions.md)."""
    star = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(3))
    hi = 2.0 * float(np.linalg.norm(op, 2))
    lo, best = -hi, -np.inf
    for _ in range(64):
        t = 0.5 * (lo + hi)
        lam, vec = np.linalg.eigh(op + t * star)
        best = max(best, float(lam[0]))
        v = vec[:, 0]
        if v @ star @ v >= 0.0:
            lo = t
        else:
            hi = t
    return best


def sectional_extremes(riem: np.ndarray) -> tuple[float, float]:
    """Extremes of sectional curvature over all 2-planes, exact through
    Thorpe's duality (docs/conventions.md)."""
    op = curvature_operator(riem)
    op = 0.5 * (op + op.T)
    return _thorpe_min(op), -_thorpe_min(-op)


def frame_curvature(
    struct: np.ndarray,
    struct_d1: np.ndarray | None = None,
    e0_scale: float = 1.0,
) -> CurvatureFrame:
    """Assemble a CurvatureFrame from frame structure functions."""
    return frame_from_riemann(riemann_tensor(struct, struct_d1, e0_scale))


def frame_from_riemann(riem: np.ndarray) -> CurvatureFrame:
    """Assemble a CurvatureFrame from a full orthonormal-frame Riemann
    tensor, which must be 4-dimensional."""
    if riem.shape != (4, 4, 4, 4):
        raise ValueError(f"Riemann tensor must have shape (4, 4, 4, 4), got {riem.shape}")
    # Ric(Y,Z) = sum_a <R(E_a, Y) Z, E_a>
    ricci = np.einsum("abca->bc", riem)
    scalar = float(np.trace(ricci))
    w_plus, w_minus = weyl_blocks(curvature_operator(riem))
    ric0 = ricci - (scalar / 4) * np.eye(4)
    return CurvatureFrame(
        riemann4=riem,
        ricci=ricci,
        scalar=scalar,
        w_plus_norm2=float(np.sum(w_plus * w_plus)),
        w_minus_norm2=float(np.sum(w_minus * w_minus)),
        ricci_traceless_norm2=float(np.sum(ric0 * ric0)),
    )
