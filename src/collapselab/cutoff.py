"""Cutoff-modified gravitational-instanton families.

The modification multiplies the 1/r^4 (Eguchi-Hanson) or 1/r^2 (Burns)
profile term by a bump phi(r/eps), so the metric is exactly the unmodified
instanton for r < eps and exactly Euclidean for r > 2*eps.  The epsilon
schedules eps^8 and eps^6 make the curvature of the transition region decay
like eps^2, which the sweep here measures.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .jets import Jet2, constant
from .radial import RadialMetric, RadialProfile, sup_norms, volume


def _mollifier_bump(x: Jet2) -> Jet2:
    """C-infinity step: 1 on [0,1], 0 on [2,inf), built from exp(-1/x)."""
    v = x.value
    if v <= 1.0:
        return constant(1.0)
    if v >= 2.0:
        return constant(0.0)
    left = (-(x - 1.0).reciprocal()).exp()   # exp(-1/(x-1)), vanishes at 1+
    right = ((x - 2.0).reciprocal()).exp()   # exp(-1/(2-x)) = exp(1/(x-2))
    return right / (left + right)


def _quintic_bump(x: Jet2) -> Jet2:
    """C^2 polynomial step (comparison variant): 1 - smoothstep5(x-1)."""
    v = x.value
    if v <= 1.0:
        return constant(1.0)
    if v >= 2.0:
        return constant(0.0)
    t = x - 1.0
    return 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


@dataclass(frozen=True)
class BumpFunction:
    """Monotone non-increasing cutoff, identically 1 on [0,1], 0 on [2,inf)."""

    evaluate: Callable[[Jet2], Jet2]
    support: tuple[float, float] = (0.0, 2.0)

    def __call__(self, x: Jet2 | float) -> Jet2:
        if not isinstance(x, Jet2):
            if x < 0.0:
                raise ValueError("bump argument must be non-negative")
            x = Jet2(float(x), 1.0, 0.0)
        elif x.value < 0.0:
            raise ValueError("bump argument must be non-negative")
        return self.evaluate(x)


SMOOTH_BUMP = BumpFunction(_mollifier_bump)
QUINTIC_BUMP = BumpFunction(_quintic_bump)


def bump(x: float) -> Jet2:
    """Default smooth cutoff phi with exact jets."""
    return SMOOTH_BUMP(x)


class BaseInstanton(enum.Enum):
    EGUCHI_HANSON = "eguchi-hanson"
    BURNS = "burns"


#: (power of eps in the profile term, power q of r it divides by, bolt radius
#: exponent: r_min = eps**k) per family
_FAMILY_EXPONENTS = {
    BaseInstanton.EGUCHI_HANSON: (8, 4, 2),
    BaseInstanton.BURNS: (6, 2, 3),
}


def instanton_curvature(base: BaseInstanton, r_bolt: float, r: float) -> tuple[float, float]:
    """(sup |Ric|, |W-|^2) at radius r of the instanton W = 1 - (r_bolt / r)^q.

    Both instantons are anti-self-dual (W+ = 0); Eguchi-Hanson is Ricci-flat
    and Burns scalar-flat, and

        |W-|^2 = 6 q^2 r_bolt^(2q) / r^(2q+4),   Burns sup |Ric| = 2 r_bolt^2 / r^4,

    both largest at the bolt.  This is the unit instanton of ``make_metric``
    at r_bolt = 1 and, exactly, the core r < eps of every cutoff cap.
    """
    q = _FAMILY_EXPONENTS[base][1]
    ricci = 2.0 * r_bolt**2 / r**4 if base is BaseInstanton.BURNS else 0.0
    return ricci, 6.0 * q * q * r_bolt ** (2 * q) / r ** (2 * q + 4)


def instanton_weyl_energy(base: BaseInstanton, r_bolt: float, r_lo: float, r_hi: float) -> float:
    """int |W-|^2 dmu over [r_lo, r_hi] of the same instanton,

        12 pi^2 ((r_bolt / r_lo)^(2q) - (r_bolt / r_hi)^(2q)):

    the volume form is link_volume r^3 dr and link_volume * q = 4 pi^2 in
    both families, so each whole instanton carries 12 pi^2 (signature -1).
    """
    q = _FAMILY_EXPONENTS[base][1]
    return 12.0 * math.pi**2 * ((r_bolt / r_lo) ** (2 * q) - (r_bolt / r_hi) ** (2 * q))


@dataclass(frozen=True)
class CutoffFamily:
    base: BaseInstanton
    epsilon: float
    bump: BumpFunction = SMOOTH_BUMP

    def __post_init__(self):
        # above 1 the bolt radius eps^k would leave the cutoff region
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")

    @property
    def r_bolt(self) -> float:
        return self.epsilon ** _FAMILY_EXPONENTS[self.base][2]

    @property
    def link_volume(self) -> float:
        """pi^2 for the Z2 quotient of S^3 (Eguchi-Hanson), 2 pi^2 for S^3."""
        return math.pi**2 if self.base is BaseInstanton.EGUCHI_HANSON else 2.0 * math.pi**2


def modified_metric(family: CutoffFamily) -> RadialMetric:
    """The cutoff metric with W(r) = 1 - phi(r/eps) eps^p / r^q.

    Exactly flat for r > 2*eps, exactly the (rescaled) instanton for r < eps.
    In both families p = k q, so eps^p / r^q = (r_bolt / r)^q, and a bump
    with values in [0, 1] keeps W >= 1 - (r_bolt / r)^q > 0 on the whole
    domain r > r_bolt, for every eps in (0, 1).
    """
    p, q, _ = _FAMILY_EXPONENTS[family.base]
    eps = family.epsilon
    phi = family.bump

    def w(x: Jet2) -> Jet2:
        return 1.0 - phi(x / eps) * (eps**p) / x**q

    prof = RadialProfile(
        f=lambda x: w(x).sqrt().reciprocal(),
        a=lambda x: x,
        b=lambda x: x,
        c=lambda x: x * w(x).sqrt(),
        r_min=family.r_bolt,
    )
    return RadialMetric(prof, family.link_volume)


@dataclass
class SweepTable:
    """Log-log decay data for the curvature sup-norms of a cutoff family."""

    rows: list[tuple[float, float]]
    fitted_slope: float
    base: BaseInstanton

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epsilon,sup_norm,log_eps,log_sup\n")
        for eps, s in self.rows:
            buf.write(f"{eps!r},{s!r},{math.log(eps)!r},{math.log(s)!r}\n")
        return buf.getvalue()


def decay_sweep(
    base: BaseInstanton,
    eps_list: Sequence[float],
    bump_fn: BumpFunction = SMOOTH_BUMP,
    samples: int = 160,
) -> SweepTable:
    """Sup-norm decay of the family as eps -> 0, with least-squares slope.

    The tracked norm is sup |Ric| for Eguchi-Hanson and sup |s| for Burns,
    sampled on [eps, 3 eps]: the core r < eps is the Ricci-flat or
    scalar-flat instanton, so it contributes exactly 0.  A sup norm that is
    not finite and positive has no logarithm and raises RuntimeError.
    """
    eps_values = sorted(set(float(e) for e in eps_list), reverse=True)
    if len(eps_values) < 3:
        raise ValueError("decay sweep needs at least 3 distinct epsilon values")
    rows: list[tuple[float, float]] = []
    for eps in eps_values:
        fam = CutoffFamily(base, eps, bump_fn)
        metric = modified_metric(fam)
        sn = sup_norms(metric, samples, r_lo=eps, r_hi=3.0 * eps)
        value = sn.sup_ricci if base is BaseInstanton.EGUCHI_HANSON else sn.sup_scalar
        if not math.isfinite(value) or value <= 0.0:
            raise RuntimeError(f"epsilon={eps}: sup norm {value!r} is not finite and positive")
        rows.append((eps, value))
    logs = np.log(np.asarray(rows))
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    return SweepTable(rows=rows, fitted_slope=slope, base=base)


def _cap_volume(family: CutoffFamily, R: float) -> float:
    """Volume of the cutoff cap from its bolt out to radius R."""
    return volume(modified_metric(family), family.r_bolt, R)


def volume_deficit(family: CutoffFamily, R: float) -> float:
    """Volume lost by replacing the flat ball of radius R with the cutoff cap.

    Both volume forms are Euclidean (f a b c = r^3 exactly), so the deficit
    is link_volume * r_bolt^4 / 4 in closed form; computed here by adaptive
    quadrature and independent of R.
    """
    if R <= 2.0 * family.epsilon:
        raise ValueError("R must lie beyond the modified region (R > 2 eps)")
    flat_part = family.link_volume * R**4 / 4.0
    return flat_part - _cap_volume(family, R)
