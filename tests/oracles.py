"""Independent curvature oracles.

Two deliberately slow but convention-free implementations used to check the
frame-based engine and the discrete conformal transformation law:

* a coordinate-chart oracle for cohomogeneity-one metrics written in Euler
  angles, differentiating the metric components numerically and assembling
  Christoffel symbols and the Riemann tensor from the textbook formulas;
* a periodic-lattice oracle for diagonal metrics on the flat torus, built
  entirely from np.roll central differences.

Neither shares any code path with the library's curvature engine, nor
does the closed-form curvature of the two instantons
(``instanton_curvature``).  Three references that do use the engine check
what is built beside it: the Weyl energies of a radial metric by
quadrature of ``curvature_at`` (``weyl_integrals``), the left-invariant
Koszul engine ``homogeneous_curvature`` on the algebras su(2) + R of
S^3 x R (``su2_r``) and Heisenberg x R (``heisenberg_r``), which the
O'Neill frames of ``submersion.oneill_frame`` must match, and the dense
contractions that the sparse ``riemann_tensor`` must match bit for bit
(``dense_riemann_tensor``).
Two scalar loops check batched code: the van der Corput points of
``radial.sample_grid`` (``van_der_corput``) and the interior peaks of
``cutoff._refined_sup`` (``zoomed_peak``).  ``surface_invariants`` lists the
invariants of complex surfaces from the classification table, for the
classifier's input checks.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from collapselab.cutoff import BaseInstanton
from collapselab.frame_curvature import (CurvatureFrame, frame_from_riemann,
                                         levi_civita_coefficients, riemann_tensor)
from collapselab.radial import _CURVATURE_QUAD_TOL, RadialMetric, _integrate, curvature_at


def _euler_coframe(r, th, ps, profile):
    """Rows: coordinate components of (f dr, a s1, b s2, c s3) in
    (r, theta, phi, psi).

    The library's coframe satisfies d s1 = 2 s2 ^ s3, which is half the
    Euler-angle forms sigma_3 = dpsi + cos(theta) dphi etc., hence the
    factor 1/2 on the angular legs.
    """
    f, a, b, c = [jet.value for jet in profile.at(r)]
    e = np.zeros((4, 4))
    e[0, 0] = f
    e[1, 1] = 0.5 * a * math.cos(ps)
    e[1, 2] = 0.5 * a * math.sin(ps) * math.sin(th)
    e[2, 1] = -0.5 * b * math.sin(ps)
    e[2, 2] = 0.5 * b * math.cos(ps) * math.sin(th)
    e[3, 2] = 0.5 * c * math.cos(th)
    e[3, 3] = 0.5 * c
    return e


def radial_metric_components(metric: RadialMetric, x: np.ndarray) -> np.ndarray:
    """Coordinate metric g_ij at x = (r, theta, phi, psi)."""
    e = _euler_coframe(x[0], x[1], x[3], metric.profile)
    return e.T @ e


def _christoffel(metric_fn, x, h):
    """Gamma^k_ij = (1/2) g^kl (d_i g_lj + d_j g_li - d_l g_ij) by central
    differences of the coordinate metric."""
    x = np.asarray(x, dtype=float)
    g = metric_fn(x)
    ginv = np.linalg.inv(g)
    dg = np.empty((4, 4, 4))
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        dg[i] = (metric_fn(xp) - metric_fn(xm)) / (2.0 * h)
    gamma = np.empty((4, 4, 4))
    for k in range(4):
        for i in range(4):
            for j in range(4):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][l, j] + dg[j][l, i] - dg[l][i, j])
                    for l in range(4)
                )
    return gamma


def coordinate_invariants(metric_fn, x, h):
    """(scalar, sorted Ricci eigenvalues, |Rm|^2) by pure finite differences.

    Second derivatives of the metric enter through nested differencing of
    the Christoffel symbols, so everything is O(h^2) accurate.
    """
    x = np.asarray(x, dtype=float)
    g = metric_fn(x)
    ginv = np.linalg.inv(g)
    gamma = _christoffel(metric_fn, x, h)
    dgamma = np.empty((4, 4, 4, 4))
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        dgamma[i] = (_christoffel(metric_fn, xp, h) - _christoffel(metric_fn, xm, h)) / (2.0 * h)
    # R^l_kij: curvature of the coordinate connection
    riem_up = (
        np.einsum("iljk->lkij", dgamma)
        - np.einsum("jlik->lkij", dgamma)
        + np.einsum("lim,mjk->lkij", gamma, gamma)
        - np.einsum("ljm,mik->lkij", gamma, gamma)
    )
    ricci = np.einsum("ikij->kj", riem_up)
    scalar = float(np.einsum("jk,jk->", ginv, ricci))
    ric_eigs = np.sort(np.linalg.eigvals(ginv @ ricci).real)
    riem_low = np.einsum("lm,mkij->lkij", g, riem_up)
    riem_norm2 = float(np.einsum(
        "abcd,ae,bf,cg,dh,efgh->",
        riem_low, ginv, ginv, ginv, ginv, riem_low,
    ))
    return scalar, ric_eigs, riem_norm2


def radial_invariants_fd(metric: RadialMetric, r: float, h: float):
    """Oracle invariants of a radial metric at a generic chart point."""
    x = np.array([r, 0.7, 0.3, 0.5])
    return coordinate_invariants(lambda y: radial_metric_components(metric, y), x, h)


# --------------------------------------------------------- lattice oracle


def _roll_derivative(field, axis, h):
    return (np.roll(field, -1, axis=axis) - np.roll(field, 1, axis=axis)) / (2.0 * h)


def lattice_scalar_curvature(gdiag, spacings):
    """Scalar curvature of a diagonal periodic metric from roll stencils.

    ``gdiag`` is a list of n broadcast-compatible arrays g_ii; fields that
    vary along a single axis can be passed with singleton trailing axes,
    keeping the n-dimensional computation cheap.  Rolls along singleton
    axes return the array unchanged, so constant directions differentiate
    to exactly zero.
    """
    n = len(gdiag)
    gdiag = [np.asarray(a, dtype=float) for a in gdiag]
    dg = [[_roll_derivative(gdiag[k], i, spacings[i]) for i in range(n)] for k in range(n)]
    # Gamma^k_ij for a diagonal metric
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        inv = 1.0 / gdiag[k]
        for i in range(n):
            for j in range(n):
                term = 0.0
                if k == j:
                    term = term + dg[k][i]
                if k == i:
                    term = term + dg[k][j]
                if i == j:
                    term = term - dg[i][k]
                gamma[k][i][j] = 0.5 * inv * term
    ricci_diag = []
    for j in range(n):
        # Ric_jj = d_i Gamma^i_jj - d_j Gamma^i_ij + Gamma^i_im Gamma^m_jj
        #          - Gamma^i_jm Gamma^m_ij
        val = 0.0
        for i in range(n):
            val = val + _roll_derivative(gamma[i][j][j], i, spacings[i])
            val = val - _roll_derivative(gamma[i][i][j], j, spacings[j])
            for m in range(n):
                val = val + gamma[i][i][m] * gamma[m][j][j]
                val = val - gamma[i][j][m] * gamma[m][i][j]
        ricci_diag.append(val)
    scalar = 0.0
    for j in range(n):
        scalar = scalar + ricci_diag[j] / gdiag[j]
    return scalar


def conformal_scalar_fd(grid, u):
    """Finite-difference scalar curvature of the conformal metric u^2 * g
    on the flat 4-torus, for u varying along the first axis only."""
    n = grid.shape[0]
    prof = np.asarray(u, dtype=float).reshape(n, 1, 1, 1)
    gdiag = [prof**2] * 4
    return lattice_scalar_curvature(gdiag, grid.spacings)


def instanton_curvature(base: BaseInstanton, r_bolt: float, r: float) -> tuple[float, float]:
    """(sup |Ric|, |W-|^2) at radius r of the instanton W = 1 - (r_bolt / r)^q,
    q = 4 (Eguchi-Hanson) or 2 (Burns).  Both are anti-self-dual (W+ = 0);
    Eguchi-Hanson is Ricci-flat and Burns scalar-flat, and

        |W-|^2 = 6 q^2 r_bolt^(2q) / r^(2q+4),   Burns sup |Ric| = 2 r_bolt^2 / r^4,

    both largest at the bolt.  At r_bolt = 1 this is the unit instanton of
    ``make_metric``, and it is exactly the core r < eps of every cutoff cap."""
    q = 4 if base is BaseInstanton.EGUCHI_HANSON else 2
    ricci = 2.0 * r_bolt**2 / r**4 if base is BaseInstanton.BURNS else 0.0
    return ricci, 6.0 * q * q * r_bolt ** (2 * q) / r ** (2 * q + 4)


# ------------------------------------------------------ engine references


def weyl_integrals(metric: RadialMetric, r_lo: float, r_hi: float) -> tuple[float, float]:
    """(int |W+|^2 dmu, int |W-|^2 dmu) over [r_lo, r_hi], from one batched
    engine curvature evaluation per quadrature round."""

    def weyl(r: np.ndarray) -> np.ndarray:
        frame = curvature_at(metric, r)
        return np.stack([frame.w_plus_norm2, frame.w_minus_norm2], axis=-1)

    wp, wm = _integrate(metric, weyl, r_lo, r_hi, _CURVATURE_QUAD_TOL)
    return float(wp), float(wm)


@dataclass(frozen=True)
class StructureConstants:
    """Lie-algebra structure constants c[i,j,k]: [X_i, X_j] = c[i,j,k] X_k."""

    c: np.ndarray
    name: str = ""

    def __post_init__(self):
        c = self.c
        if c.shape != (4, 4, 4):
            raise ValueError(f"dimension must be 4: structure constants of shape {c.shape}")
        if np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) != 0.0:
            raise ValueError("structure constants must be antisymmetric in (i,j)")
        if self.jacobi_defect() > 1e-12:
            raise ValueError("Jacobi identity violated")

    def jacobi_defect(self) -> float:
        c = self.c
        # [[X_i,X_j],X_k] cyclic sum
        term = np.einsum("ijm,mkl->ijkl", c, c)
        cyc = term + np.transpose(term, (1, 2, 0, 3)) + np.transpose(term, (2, 0, 1, 3))
        return float(np.max(np.abs(cyc)))


def homogeneous_curvature(sc: StructureConstants, metric_diag: Sequence[float]) -> CurvatureFrame:
    """Curvature of the left-invariant metric diag(metric_diag) on the group
    with structure constants sc, in the orthonormal frame X_i / sqrt(d_i),
    by the Koszul formula (``riemann_tensor`` on constant structure
    functions)."""
    d = np.asarray(metric_diag, dtype=float)
    if d.shape != (4,):
        raise ValueError("metric_diag must have 4 entries")
    if not np.all((d > 0.0) & (d < np.inf)):
        raise ValueError("metric_diag must be positive and finite")
    rt = np.sqrt(d)
    struct = sc.c * rt[None, None, :] / (rt[:, None, None] * rt[None, :, None])
    return frame_from_riemann(riemann_tensor(struct))


def heisenberg_r() -> StructureConstants:
    """Heisenberg algebra times R: [X_1, X_2] = X_3, X_4 central.  The
    metric diag(1, 1, 1/t, 1/t) is the nilmanifold's collapse metric g_t."""
    c = np.zeros((4, 4, 4))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return StructureConstants(c, "heis3+R")


def su2_r() -> StructureConstants:
    """su(2) + R, the algebra of S^3 x R: [X_i, X_j] = -2 eps_ijk X_k on the
    first three (the convention of ds1 = 2 s2^s3), X_4 central.  The unit
    metric is the round unit S^3 times a line."""
    c = np.zeros((4, 4, 4))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = -2.0
        c[j, i, k] = 2.0
    return StructureConstants(c, "su2+R")


def dense_riemann_tensor(
    struct: np.ndarray,
    struct_d1: np.ndarray | None = None,
    e0_scale=1.0,
) -> np.ndarray:
    """``frame_curvature.riemann_tensor`` with every (4, 4, 4, 4, batch)
    product formed: each sum over e taken from 0.0 in the order
    e = 0, 1, 2, 3, with the batch as the last, contiguous axis while the
    sums run."""
    gamma = levi_civita_coefficients(struct)
    g = np.moveaxis(gamma, range(-3, 0), range(3))  # (4, 4, 4, *batch)
    c = np.moveaxis(struct, range(-3, 0), range(3))
    acc = np.zeros((4,) + g.shape)
    for e in range(4):
        acc += g[None, :, :, e, None] * g[:, None, None, e, :]  # G_bce G_aed
    riem = acc - np.swapaxes(acc, 0, 1)
    acc[...] = 0.0
    for e in range(4):
        acc += c[:, :, e, None, None] * g[None, None, e, :, :]  # C_abe G_ecd
    riem -= acc
    del acc
    riem = np.ascontiguousarray(np.moveaxis(riem, range(4), range(-4, 0)))
    if struct_d1 is not None:
        scale = np.asarray(e0_scale)[..., None, None, None]
        dgamma = scale * levi_civita_coefficients(struct_d1)
        # E_a(Gamma[b,c,d]) contributes only when a = 0 (resp. b = 0).
        riem[..., 0, :, :, :] += dgamma
        riem[..., :, 0, :, :] -= dgamma
    return riem


def van_der_corput(k: int) -> float:
    """Van der Corput base-2 point k in (0, 1), one binary digit at a time."""
    x, denom = 0.0, 0.5
    while k:
        x += (k & 1) * denom
        k >>= 1
        denom *= 0.5
    return x


def zoomed_peak(values, lo: float, hi: float, node: int, component: int, zooms: int = 6) -> float:
    """Largest value of one component of the vector function ``values`` about
    node ``node`` of the 65-node grid of [lo, hi]: a 401-point grid over the
    node's two cells, zoomed ``zooms`` times to the two steps about its best
    point (each zoom shrinks the span 200-fold)."""
    xs = np.linspace(lo, hi, 65)
    a, b = xs[node - 1], xs[node + 1]
    best = -math.inf
    for _ in range(zooms):
        pts = np.linspace(a, b, 401)
        f = values(pts)[:, component]
        k = int(np.argmax(f))
        best = max(best, float(f[k]))
        step = pts[1] - pts[0]
        a, b = max(pts[k] - step, lo), min(pts[k] + step, hi)
    return best



def surface_invariants(chi_o_range: range, max_blowups: int) -> set:
    """(kod, c1sq_min, chi, tau, blowups) of the b1-even complex surfaces
    whose minimal model has chi(O) in ``chi_o_range``, with at most
    ``max_blowups`` blow-ups.  The minimal models (c1^2, chi(O)) come from
    the table of Barth, Hulek, Peters and Van de Ven, *Compact Complex
    Surfaces*, 2nd ed. (Springer, 2004), ch. VI and VII:

    * Kod -inf: P^2 (9, 1), and the ruled surfaces over a curve of genus
      g >= 0, (8 (1 - g), 1 - g);
    * Kod 0: tori and hyperelliptic surfaces (0, 0), Enriques (0, 1), K3 (0, 2);
    * Kod 1: (0, chi(O)) for every chi(O) >= 0;
    * Kod 2: 2 chi(O) - 6 <= c1^2 <= 9 chi(O) and c1^2 >= 1 (Noether's
      inequality, and Bogomolov-Miyaoka-Yau c1^2 <= 3 c2 with
      c2 = 12 chi(O) - c1^2).

    Each blow-up keeps chi(O) and c1^2 of the minimal model and adds
    (1, -1) to (chi, tau) = (c2, (c1^2 - 2 c2) / 3).
    """
    minimal = {("-inf", 9, 1)}
    for chi_o in chi_o_range:
        if chi_o <= 1:
            minimal.add(("-inf", 8 * chi_o, chi_o))
        if chi_o in (0, 1, 2):
            minimal.add(("0", 0, chi_o))
        if chi_o >= 0:
            minimal.add(("1", 0, chi_o))
        minimal |= {("2", c1sq, chi_o) for c1sq in range(max(1, 2 * chi_o - 6), 9 * chi_o + 1)}
    return {(kod, c1sq, 12 * chi_o - c1sq + b, c1sq - 8 * chi_o - b, b)
            for kod, c1sq, chi_o in minimal if chi_o in chi_o_range
            for b in range(max_blowups + 1)}
