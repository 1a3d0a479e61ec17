"""Cohomogeneity-one curvature engine for diagonal SU(2)-invariant metrics

    g = f(r)^2 dr^2 + a(r)^2 s1^2 + b(r)^2 s2^2 + c(r)^2 s3^2,

with the left-invariant coframe normalised by ds1 = 2 s2^s3 (cyclic), i.e.
{s_i} is orthonormal for the curvature +1 bi-invariant metric on S^3.
Profiles are second-order jets, so all curvature components come from exact
derivatives; nothing is finite-differenced.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad_vec

from .frame_curvature import CurvatureFrame, frame_curvature
from .jets import Jet2, constant, variable

# ds1 = 2 s2^s3 (cyclic) corresponds to [X_i, X_j] = -2 eps_ijk X_k for the
# dual left-invariant vector fields.
STRUCTURE_SIGN = -2.0

# Orientation of the frame (f dr, a s1, b s2, c s3) used for the self-dual /
# anti-self-dual splitting, chosen so that the Eguchi-Hanson and Burns
# metrics come out anti-self-dual (W+ = 0), matching the complex orientation
# of the blow-ups they live on; locked by tests.
FRAME_ORIENTATION = 1

ProfileFn = Callable[[Jet2], Jet2]


@dataclass(frozen=True)
class RadialProfile:
    """The four profile functions and the radial domain (r_min, r_max]."""

    f: ProfileFn
    a: ProfileFn
    b: ProfileFn
    c: ProfileFn
    r_min: float
    r_max: float = math.inf

    def at(self, r: float) -> tuple[Jet2, Jet2, Jet2, Jet2]:
        x = variable(r)
        return self.f(x), self.a(x), self.b(x), self.c(x)


@dataclass(frozen=True)
class RadialMetric:
    """A profile over the link S^3 / Gamma, whose volume (2 pi^2 for S^3,
    pi^2 for its Z2 quotient) scales every radial integral."""

    profile: RadialProfile
    link_volume: float

    @property
    def r_min(self) -> float:
        return self.profile.r_min

    @property
    def r_max(self) -> float:
        return self.profile.r_max

    def scaled(self, lam2: float) -> "RadialMetric":
        """The homothetic metric lam2 * g (same r coordinate)."""
        if lam2 <= 0.0:
            raise ValueError("scale factor must be positive")
        lam = math.sqrt(lam2)
        p = self.profile
        prof = RadialProfile(
            f=lambda x: lam * p.f(x),
            a=lambda x: lam * p.a(x),
            b=lambda x: lam * p.b(x),
            c=lambda x: lam * p.c(x),
            r_min=p.r_min,
            r_max=p.r_max,
        )
        return RadialMetric(prof, self.link_volume)


class Preset(enum.Enum):
    EGUCHI_HANSON = "eguchi-hanson"
    BURNS = "burns"
    FLAT = "flat"
    ROUND = "round"


def eguchi_hanson_profile(A: float) -> RadialProfile:
    """f^2 = 1/(1 - A/r^4), a = b = r, c^2 = r^2 (1 - A/r^4), r > A^(1/4)."""
    if A <= 0.0:
        raise ValueError("Eguchi-Hanson parameter A must be positive")

    def w(x: Jet2) -> Jet2:
        return 1.0 - A / (x * x * x * x)

    return RadialProfile(
        f=lambda x: w(x).sqrt().reciprocal(),
        a=lambda x: x,
        b=lambda x: x,
        c=lambda x: x * w(x).sqrt(),
        r_min=A**0.25,
    )


def burns_profile() -> RadialProfile:
    """f^2 = 1/(1 - 1/r^2), a = b = r, c^2 = r^2 (1 - 1/r^2), r > 1."""

    def w(x: Jet2) -> Jet2:
        return 1.0 - 1.0 / (x * x)

    return RadialProfile(
        f=lambda x: w(x).sqrt().reciprocal(),
        a=lambda x: x,
        b=lambda x: x,
        c=lambda x: x * w(x).sqrt(),
        r_min=1.0,
    )


def flat_profile(r_max: float = math.inf) -> RadialProfile:
    """Slope-1 cone: f = 1, a = b = c = r (Euclidean R^4 in polar form)."""
    return RadialProfile(
        f=lambda x: constant(1.0),
        a=lambda x: x,
        b=lambda x: x,
        c=lambda x: x,
        r_min=0.0,
        r_max=r_max,
    )


def round_profile(radius: float = 1.0) -> RadialProfile:
    """Geodesic-polar chart of the round 4-sphere: a = b = c = R sin(r/R)."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return RadialProfile(
        f=lambda x: constant(1.0),
        a=lambda x: radius * (x / radius).sin(),
        b=lambda x: radius * (x / radius).sin(),
        c=lambda x: radius * (x / radius).sin(),
        r_min=0.0,
        r_max=math.pi * radius,
    )


def make_metric(preset: Preset, A: float = 1.0, radius: float = 1.0) -> RadialMetric:
    """Build a RadialMetric from one of the stock presets.

    Eguchi-Hanson lives on the O(-2) bundle over the 2-sphere, so its link
    is the Z2 quotient of S^3 (volume pi^2); every other preset has link S^3
    (volume 2 pi^2).
    """
    if preset is Preset.EGUCHI_HANSON:
        return RadialMetric(eguchi_hanson_profile(A), math.pi**2)
    if preset is Preset.BURNS:
        prof = burns_profile()
    elif preset is Preset.FLAT:
        prof = flat_profile()
    elif preset is Preset.ROUND:
        prof = round_profile(radius)
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return RadialMetric(prof, 2.0 * math.pi**2)


def _structure_functions(metric: RadialMetric, r: float):
    """Frame structure functions <[E_a,E_b],E_c> and their r-derivatives."""
    f, a, b, c = metric.profile.at(r)
    abc = [a, b, c]
    struct = np.zeros((4, 4, 4))
    struct_d1 = np.zeros((4, 4, 4))
    for i in range(3):
        # [E_0, E_i] = -(a_i'/(f a_i)) E_i; only value and d1 of q are used,
        # so the (unknown) third profile derivative never enters.
        ai = abc[i]
        q = Jet2(ai.d1, ai.d2, 0.0) / (f * ai)
        struct[0, i + 1, i + 1] = -q.value
        struct[i + 1, 0, i + 1] = q.value
        struct_d1[0, i + 1, i + 1] = -q.d1
        struct_d1[i + 1, 0, i + 1] = q.d1
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        # [E_i, E_j] = sign * (a_k / (a_i a_j)) E_k
        s = STRUCTURE_SIGN * abc[k] / (abc[i] * abc[j])
        struct[i + 1, j + 1, k + 1] = s.value
        struct[j + 1, i + 1, k + 1] = -s.value
        struct_d1[i + 1, j + 1, k + 1] = s.d1
        struct_d1[j + 1, i + 1, k + 1] = -s.d1
    return struct, struct_d1, 1.0 / f.value


def curvature_at(metric: RadialMetric, r: float) -> CurvatureFrame:
    """Curvature data at radius r in the orthonormal frame (f dr, a s1, b s2, c s3)."""
    if not (metric.r_min < r < metric.r_max) and not (
        math.isinf(metric.r_max) and r > metric.r_min
    ):
        raise ValueError(f"r={r} outside domain ({metric.r_min}, {metric.r_max})")
    struct, struct_d1, e0_scale = _structure_functions(metric, r)
    return frame_curvature(struct, struct_d1, e0_scale, orientation=FRAME_ORIENTATION)


@dataclass(frozen=True)
class CurvatureSupNorms:
    sup_ricci: float
    sup_scalar: float


def _vdc(k: int) -> float:
    """Van der Corput base-2 point in (0,1); prefixes nest, so suprema are
    monotone non-decreasing in the sample count."""
    x, denom = 0.0, 0.5
    while k:
        x += (k & 1) * denom
        k >>= 1
        denom *= 0.5
    return x


def sample_grid(r_lo: float, r_hi: float, samples: int) -> np.ndarray:
    """Nested geometric grid in (r_lo, r_hi)."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not (0.0 < r_lo < r_hi):
        raise ValueError("empty or invalid radial range")
    ratio = r_hi / r_lo
    ts = np.array([_vdc(k + 1) for k in range(samples)])
    return r_lo * ratio**ts


def sup_norms(
    metric: RadialMetric,
    samples: int,
    r_lo: float | None = None,
    r_hi: float | None = None,
) -> CurvatureSupNorms:
    """Suprema of frame-component curvature norms over a nested radial grid
    strictly inside (r_lo, r_hi)."""
    lo = metric.r_min if r_lo is None else r_lo
    hi = r_hi
    if hi is None:
        hi = metric.r_max if math.isfinite(metric.r_max) else 20.0 * max(lo, 1.0)
    hi = min(hi, metric.r_max)
    sup_ric = sup_s = 0.0
    for r in sample_grid(lo, hi, samples):
        fr = curvature_at(metric, float(r))
        sup_ric = max(sup_ric, fr.sup_ricci)
        sup_s = max(sup_s, abs(fr.scalar))
    return CurvatureSupNorms(sup_ric, sup_s)


def _integrate(
    metric: RadialMetric,
    pointwise: Callable[[float], object],
    r_lo: float,
    r_hi: float,
    tol: float,
) -> np.ndarray:
    """link_volume * int pointwise(r) f a b c dr over [r_lo, r_hi].

    ``pointwise`` may be scalar- or vector-valued; every component comes from
    the same evaluation at each node.  Globally adaptive Gauss-Kronrod
    quadrature (scipy's quad_vec) with absolute and relative tolerance
    ``tol`` in the max norm; raises RuntimeError unless it converged with
    error estimate at most max(tol, tol * max|value|).
    """

    def weighted(r: float) -> np.ndarray:
        f, a, b, c = metric.profile.at(r)
        return np.asarray(pointwise(r), dtype=float) * (f.value * a.value * b.value * c.value)

    val, err, info = quad_vec(weighted, r_lo, r_hi, epsabs=tol, epsrel=tol, norm="max",
                              full_output=True)
    if info.status != 0 or not err <= max(tol, tol * float(np.max(np.abs(val)))):
        raise RuntimeError(
            f"radial quadrature over [{r_lo:.6g}, {r_hi:.6g}] did not converge"
            f" (status {info.status}, error {err:.3g})"
        )
    return metric.link_volume * val


def volume(metric: RadialMetric, r_lo: float, r_hi: float) -> float:
    """int f a b c dr over [r_lo, r_hi], times the link volume, to 1e-12
    absolute or relative (see ``_integrate``)."""
    if not (metric.r_min <= r_lo < r_hi):
        raise ValueError("inverted or out-of-domain radial range")
    if r_hi > metric.r_max:
        raise ValueError("r_hi beyond the metric domain")
    return float(_integrate(metric, lambda r: 1.0, r_lo, r_hi, 1e-12))
