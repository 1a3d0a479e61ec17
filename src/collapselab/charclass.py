"""Characteristic-class integrands for 4-manifolds.

The Gauss-Bonnet and signature densities are pointwise expressions in the
curvature of an orthonormal frame,

    gb  = (2|W+|^2 + s^2/24 - |ric0|^2 / 2) / 4 pi^2,
    sig = (|W+|^2 - |W-|^2) / 12 pi^2,

whose integrals return 2*chi + 3*tau and tau.  This module evaluates them
from CurvatureFrame data, integrates them over radial and homogeneous
model metrics, and runs the collapse sweep showing int |W+|^2 dmu tending
to zero over glued families while int |W-|^2 dmu tends to the
topological quantity -12 pi^2 tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame_curvature import CurvatureFrame, diagonal_frame
from .gluing import ChartedFamily
from .jets import _libm
from .radial import RadialMetric, _CURVATURE_QUAD_TOL, _integrate, curvature_at
from .submersion import BundleKind, SubmersionMetric, oneill_frame

__all__ = [
    "CharDensities",
    "densities_at",
    "product_surface_frame",
    "integrate_characteristics",
    "wplus_sweep",
]


@dataclass(frozen=True)
class CharDensities:
    """Pointwise Gauss-Bonnet and signature integrands, per unit volume, at
    one point or at each point of a batched frame."""

    gb_density: float
    sig_density: float
    restricted_gb_density: float

    def __post_init__(self):
        # dropping the 2|W+|^2 term can only decrease the integrand
        if np.any(self.gb_density < self.restricted_gb_density - 1e-15):
            raise ValueError("gb_density must dominate its restricted form")


def densities_at(frame: CurvatureFrame) -> CharDensities:
    """Evaluate both characteristic densities from one curvature frame, at
    each of its points when it is a batch."""
    four_pi2 = 4.0 * math.pi**2
    s2 = _libm(pow, frame.scalar, 2)
    restricted = (s2 / 24.0 - frame.ricci_traceless_norm2 / 2.0) / four_pi2
    gb = restricted + 2.0 * frame.w_plus_norm2 / four_pi2
    sig = (frame.w_plus_norm2 - frame.w_minus_norm2) / (12.0 * math.pi**2)
    return CharDensities(gb, sig, restricted)


def product_surface_frame(k1: float, k2: float) -> CurvatureFrame:
    """Curvature frame of a product of two surfaces with Gauss curvatures
    k1 and k2; the only nonzero sectional curvatures are within the factors."""
    return diagonal_frame((k1, 0.0, 0.0, k2, 0.0, 0.0))


def integrate_characteristics(metric: RadialMetric | SubmersionMetric) -> dict[str, float]:
    """Quadrature of the characteristic densities against the volume form.

    For a radial metric, integrates over the full profile domain.  For a
    submersion model the densities are constant, so the integral is density
    times total volume.
    """
    if isinstance(metric, SubmersionMetric):
        if metric.bundle.kind is BundleKind.NILMANIFOLD:
            dens = densities_at(oneill_frame(metric))
        else:
            dens = CharDensities(0.0, 0.0, 0.0)
        vol = metric.total_volume()
        return {
            "two_chi_plus_three_tau": dens.gb_density * vol,
            "tau": dens.sig_density * vol,
        }

    def densities(r: np.ndarray) -> np.ndarray:
        d = densities_at(curvature_at(metric, r))
        return np.stack([d.gb_density, d.sig_density], axis=-1)

    gb, sig = _integrate(metric, densities, metric.r_min, metric.r_max, _CURVATURE_QUAD_TOL)
    return {"two_chi_plus_three_tau": float(gb), "tau": float(sig)}


def wplus_sweep(family_rule, t_list) -> tuple[tuple[float, float, float, float], ...]:
    """Evaluate int |W+|^2 dmu and int |W-|^2 dmu along a glued family.

    ``family_rule`` maps t to a ChartedFamily.  Returns one row
    (t, int |W+|^2 dmu, int |W-|^2 dmu, tau estimate) per t: the last is
    tau = (int |W+|^2 - int |W-|^2) / 12 pi^2, the signature recovered from
    the sweep; when the self-dual part dies off the remaining anti-self-dual
    energy is -12 pi^2 tau.
    """
    t_list = tuple(float(t) for t in t_list)
    if not t_list:
        raise ValueError("need at least one parameter value")
    rows = []
    for t in t_list:
        model = family_rule(t)
        if not isinstance(model, ChartedFamily):
            raise TypeError(f"family rule returned unsupported {type(model).__name__}")
        wp, wm = model.wplus_energy, model.wminus_energy
        rows.append((t, wp, wm, (wp - wm) / (12.0 * math.pi**2)))
    return tuple(rows)
