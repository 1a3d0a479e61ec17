"""Cutoff-modified gravitational-instanton families.

The modification multiplies the 1/r^4 (Eguchi-Hanson) or 1/r^2 (Burns)
profile term by a bump phi(r/eps), so the metric is exactly the unmodified
instanton for r < eps and exactly Euclidean for r > 2*eps.  The epsilon
schedules eps^8 and eps^6 make the curvature of the transition region decay
like eps^2.

The caps that gluing, the decay sweep and the Weyl sweep use are closed
forms in eps: the core r < eps is the instanton (``cap_sup_norms``,
``instanton_weyl_energy``), and the annulus [eps, 2 eps] is eps^2 times one
unit-scale curvature (``unit_cap``).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .frame_curvature import CurvatureFrame, frame_from_riemann
from .jets import Jet2, variable
from .radial import (
    RadialMetric,
    _CURVATURE_QUAD_TOL,
    _integrate,
    flat_profile,
    volume,
    w_ansatz_profile,
    w_ansatz_riemann,
)


def _bump(x: Jet2) -> Jet2:
    """C-infinity step phi: 1 on [0,1], 0 on [2,inf), built from exp(-1/x),
    at each element of x; the exponentials are taken on the interior
    1 < x < 2 alone, where they neither overflow nor divide by zero."""
    v = np.asarray(x.value)
    inside = (1.0 < v) & (v < 2.0)
    value = np.where(v <= 1.0, 1.0, 0.0)
    d1, d2 = np.zeros(v.shape), np.zeros(v.shape)
    if inside.any():
        y = Jet2(v[inside], *(d[inside] if np.ndim(d) else d for d in (x.d1, x.d2)))
        left = (-(y - 1.0).reciprocal()).exp()   # exp(-1/(x-1)), vanishes at 1+
        right = ((y - 2.0).reciprocal()).exp()   # exp(-1/(2-x)) = exp(1/(x-2))
        phi = right / (left + right)
        value[inside], d1[inside], d2[inside] = phi.value, phi.d1, phi.d2
    return Jet2(value, d1, d2)


class BaseInstanton(enum.Enum):
    EGUCHI_HANSON = "eguchi-hanson"
    BURNS = "burns"


#: (power of eps in the profile term, power q of r it divides by, bolt radius
#: exponent: r_min = eps**k) per family
_FAMILY_EXPONENTS = {
    BaseInstanton.EGUCHI_HANSON: (8, 4, 2),
    BaseInstanton.BURNS: (6, 2, 3),
}


def instanton_weyl_energy(base: BaseInstanton, r_bolt: float, r_hi: float) -> float:
    """int |W-|^2 dmu from the bolt out to r_hi of the instanton
    W = 1 - (r_bolt / r)^q,

        12 pi^2 (1 - (r_bolt / r_hi)^(2q)):

    |W-|^2 = 6 q^2 r_bolt^(2q) / r^(2q+4), the volume form is
    link_volume r^3 dr and link_volume * q = 4 pi^2 in both families, so
    each whole instanton carries 12 pi^2 (signature -1).  A bolt radius that
    underflows to 0.0 leaves the whole 12 pi^2, where a ratio r_bolt / r_bolt
    would divide by zero.
    """
    q = _FAMILY_EXPONENTS[base][1]
    return 12.0 * math.pi**2 * (1.0 - (r_bolt / r_hi) ** (2 * q))


@dataclass(frozen=True)
class CutoffFamily:
    base: BaseInstanton
    epsilon: float

    def __post_init__(self):
        # above 1 the bolt radius eps^k would leave the cutoff region, and
        # W = 1 - eps^4 H turns negative near rho = 1: no metric
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")

    @property
    def r_bolt(self) -> float:
        return self.epsilon ** _FAMILY_EXPONENTS[self.base][2]

    @property
    def link_volume(self) -> float:
        """pi^2 for the Z2 quotient of S^3 (Eguchi-Hanson), 2 pi^2 for S^3."""
        return _link_volume(self.base)


def _link_volume(base: BaseInstanton) -> float:
    return math.pi**2 if base is BaseInstanton.EGUCHI_HANSON else 2.0 * math.pi**2


def _cap_h(base: BaseInstanton, eps: float) -> Callable[[Jet2], Jet2]:
    """h(r) = phi(r/eps) eps^p / r^q of the cap of scale eps; eps = 1 is the
    unit cap."""
    p, q, _ = _FAMILY_EXPONENTS[base]
    scale = eps**p
    return lambda x: _bump(x / eps) * scale / x**q


def modified_metric(family: CutoffFamily) -> RadialMetric:
    """The cutoff metric: the W-ansatz with W(r) = 1 - phi(r/eps) eps^p / r^q.

    Exactly flat for r > 2*eps, exactly the (rescaled) instanton for r < eps.
    In both families p = k q, so eps^p / r^q = (r_bolt / r)^q, and phi, with
    values in [0, 1], keeps W >= 1 - (r_bolt / r)^q > 0 on the whole domain
    r > r_bolt, for every eps in (0, 1).
    """
    prof = w_ansatz_profile(_cap_h(family.base, family.epsilon), family.r_bolt)
    return RadialMetric(prof, family.link_volume)


@dataclass
class SweepTable:
    """Log-log decay data for the curvature sup-norms of a cutoff family."""

    rows: list[tuple[float, float]]
    fitted_slope: float


#: largest relative noise bound that ``decay_sweep`` accepts: of the engine
#: on a cap's annulus, 2^-52 / eps^4, so it refuses eps < 3.86e-3
#: (docs/conventions.md, "Decay below float resolution"), and of the fitted
#: slope, so it refuses eps values too close to fit
DECAY_NOISE_LIMIT = 1e-6


def decay_sweep(base: BaseInstanton, eps_list: Sequence[float]) -> SweepTable:
    """Sup-norm decay of the family as eps -> 0, with least-squares slope.

    Each row is the cap certificate of ``CutoffFamily(base, eps)``
    (``cap_sup_norms``): sup |Ric| for Eguchi-Hanson and sup |s| for Burns,
    eps^2 times the ``unit_cap`` suprema, so the slope 2 follows from the
    exact scaling of the closed form.  The core r < eps is the Ricci-flat or
    scalar-flat instanton, so the annulus alone carries the norm.  A sup
    norm that is not finite and positive has no logarithm and raises
    RuntimeError.  An eps outside (0, 1), where the cap is no metric, an eps
    whose noise bound 2^-52 / eps^4 exceeds ``DECAY_NOISE_LIMIT``
    (docs/conventions.md, "Decay below float resolution"), and eps values
    too close for the fit to resolve a slope raise ValueError.
    """
    eps_values = sorted(set(float(e) for e in eps_list), reverse=True)
    if len(eps_values) < 3:
        raise ValueError("decay sweep needs at least 3 distinct epsilon values")
    families = [CutoffFamily(base, eps) for eps in eps_values]
    smallest = eps_values[-1]
    if smallest**4 * DECAY_NOISE_LIMIT < 2.0**-52:
        raise ValueError(f"epsilon={smallest} is below float resolution: the noise bound "
                         f"2^-52 / eps^4 exceeds {DECAY_NOISE_LIMIT:g} for eps < 3.86e-3")
    column = 0 if base is BaseInstanton.EGUCHI_HANSON else 1
    rows = [(fam.epsilon, cap_sup_norms(fam)[column]) for fam in families]
    for eps, value in rows:
        if not math.isfinite(value) or value <= 0.0:
            raise RuntimeError(f"epsilon={eps}: sup norm {value!r} is not finite and positive")
    logs = np.log(np.asarray(rows))
    # each log carries a few ulps of the largest, which the fitted slope
    # multiplies by sum |dx| / sum dx^2 (docs/conventions.md, "Epsilons too
    # close to fit")
    dx = logs[:, 0] - logs[:, 0].mean()
    noise = 2.0**-50 * (1.0 + np.abs(logs).max())
    if not noise * np.abs(dx).sum() < DECAY_NOISE_LIMIT * (dx @ dx):
        raise ValueError(f"epsilon values {eps_values} are too close for the fit to resolve "
                         f"a slope: its rounding bound exceeds {DECAY_NOISE_LIMIT:g}")
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    return SweepTable(rows=rows, fitted_slope=slope)


def volume_deficit(family: CutoffFamily, R: float) -> float:
    """Volume lost by replacing the flat ball of radius R with the cutoff cap.

    Both volume forms are Euclidean (f a b c = r^3 exactly), so the deficit
    is link_volume * r_bolt^4 / 4 in closed form; computed here by adaptive
    quadrature of the cap from its bolt, and independent of R.  It carries
    the rounding of the flat-ball subtraction, ``deficit_floor``.
    """
    if R <= 2.0 * family.epsilon:
        raise ValueError("R must lie beyond the modified region (R > 2 eps)")
    flat_part = family.link_volume * R**4 / 4.0
    return flat_part - volume(modified_metric(family), family.r_bolt, R)


#: largest ``deficit_floor`` the decay run accepts: criterion 4's bound on
#: the deficit's relative deviation from its closed form
DEFICIT_FLOOR_LIMIT = 1e-10


def deficit_floor(family: CutoffFamily, R: float) -> float:
    """Relative rounding floor of ``volume_deficit(family, R)``.

    The deficit is the difference of two volumes of size
    link_volume * R^4 / 4, so it carries their rounding, a few units in the
    last place of the flat part: relative to the deficit, 2^-50
    (R / r_bolt)^4 (over epsilon in [0.15, 0.99] the measured deviation
    reaches 3.3 2^-52 (R / r_bolt)^4).  inf once that overflows, or once
    r_bolt underflows to 0.0 (docs/conventions.md, "Volume deficit floor").
    """
    ratio = R / family.r_bolt if family.r_bolt > 0.0 else math.inf
    # products, not a power: a float product overflows to inf, a power raises
    return 2.0**-50 * (ratio * ratio) * (ratio * ratio)


# --------------------------------------------------------------------------
# caps in closed form
# --------------------------------------------------------------------------

def cap_curvature(base: BaseInstanton, r, eps: float = 1.0) -> CurvatureFrame:
    """Curvature at r (a float, or an array of radii in one batch) of the cap
    of ``CutoffFamily(base, eps)``, from the W-ansatz closed form of its
    h = phi(r / eps) eps^p / r^q.

    The unit cap is eps = 1, h = H(rho) = phi(rho) / rho^q.  At r = eps rho
    the cap of scale eps is W = 1 - eps^4 H(rho) (p - q = 4 in both
    families), a metric eps^2 times one in the variable rho, so its frame
    Riemann tensor is exactly eps^2 times the unit cap's.
    """
    return frame_from_riemann(w_ansatz_riemann(_cap_h(base, eps)(variable(r)), r))


#: rounds after which ``_refined_sup`` gives up: a smooth peak takes under
#: 10 and a flat stretch, halved per round, about 20, so this is a fault
_SEARCH_ROUNDS = 64


def _refined_sup(values: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> np.ndarray:
    """Per component, the supremum over [lo, hi] of the smooth vector function
    ``values`` (one row of components per point): the best of a uniform grid
    of 64 cells, with every positive interior grid maximum refined by
    successive parabolic interpolation, one call of ``values`` per round for
    all brackets (docs/conventions.md, "Attained suprema")."""
    xs = np.linspace(lo, hi, 65)
    grid = values(xs)
    best = grid.max(axis=0)
    inner = grid[1:-1]
    i, j = np.nonzero((inner > 0.0) & (inner >= grid[:-2]) & (inner >= grid[2:]))
    near = i + np.arange(3)[:, None]  # node indices of (a, m, b)
    x, f = xs[near], grid[near, j]
    rounds = 0
    while j.size:  # brackets (a, m, b) with f(m) >= f(a), f(b)
        if rounds == _SEARCH_ROUNDS:
            raise RuntimeError(f"parabolic search did not converge in {rounds} rounds")
        rounds += 1
        (a, m, b), (fa, fm, fb) = x, f
        da, db = m - a, b - m
        # the parabola's vertex is m - num / (2 den); den >= 0, and 0 only
        # where fa = fm = fb; |num / den| <= max(da, db)
        num = da * da * (fm - fb) - db * db * (fm - fa)
        den = da * (fm - fb) + db * (fm - fa)
        u = m - 0.5 * num / np.where(den > 0.0, den, 1.0)
        fallback = np.where(db > da, 0.5 * (m + b), 0.5 * (a + m))
        u = np.where((den > 0.0) & (a < u) & (u < b), u, fallback)
        fu = values(u)[np.arange(u.size), j]
        np.maximum.at(best, j, fu)
        # keep the best of a < x1 < x2 < b (x1 or x2) and its two neighbours
        x1, x2, f1, f2 = np.where(u < m, [u, m, fu, fm], [m, u, fm, fu])
        live = np.abs(u - m) > 1.5e-8 * np.abs(m) + 1e-12
        x = np.where(f2 > f1, [x1, x2, b], [a, x1, x2])[:, live]
        f = np.where(f2 > f1, [f1, f2, fb], [fa, f1, f2])[:, live]
        j = j[live]
    return best


@dataclass(frozen=True)
class UnitCap:
    """A cap's annulus [eps, 2 eps] at unit scale, rho in [1, 2]: sup |Ric|
    (largest frame component) and sup |s|, and int |W+|^2 dmu and
    int |W-|^2 dmu.  The cap of scale eps has eps^2 times the suprema and
    eps^8 times the energies."""

    sup_ricci: float
    sup_scalar: float
    wplus_energy: float
    wminus_energy: float


@functools.lru_cache(maxsize=None)
def unit_cap(base: BaseInstanton) -> UnitCap:
    """The unit-scale constants of the caps of ``CutoffFamily(base, _)``.

    The modulus of each Ricci component and of the scalar is maximised
    separately over [1, 2] (``_refined_sup``; a peak of |f| is a peak of the
    smooth f or -f); the energies are one quadrature of
    ``cap_curvature`` against rho^3 drho times the link volume, the
    volume form at every scale.
    """

    def norms(rho: np.ndarray) -> np.ndarray:
        fr = cap_curvature(base, rho)
        return np.abs(np.column_stack([fr.ricci.reshape(-1, 16), fr.scalar]))

    sups = _refined_sup(norms, 1.0, 2.0)

    def weyl(rho: np.ndarray) -> np.ndarray:
        fr = cap_curvature(base, rho)
        return np.stack([fr.w_plus_norm2, fr.w_minus_norm2], axis=-1)

    flat = RadialMetric(flat_profile(), _link_volume(base))
    wp, wm = _integrate(flat, weyl, 1.0, 2.0, _CURVATURE_QUAD_TOL)
    return UnitCap(float(sups[:-1].max()), float(sups[-1]), float(wp), float(wm))


def cap_sup_norms(family: CutoffFamily) -> tuple[float, float]:
    """(sup |Ric|, sup |s|) over the whole cap, bolt to flat: the core is the
    instanton, Ricci-flat (Eguchi-Hanson) or with sup |Ric| = 2 / r_bolt^2
    at the bolt (Burns), and scalar-flat; the annulus gives eps^2 times the
    ``unit_cap`` suprema.  Once r_bolt^2 underflows to 0.0 the Burns sup
    |Ric| is inf, as IEEE division gives it."""
    unit = unit_cap(family.base)
    eps2 = family.epsilon**2
    core_ricci = 0.0
    if family.base is BaseInstanton.BURNS:
        bolt2 = family.r_bolt**2
        core_ricci = 2.0 / bolt2 if bolt2 else math.inf
    return max(unit.sup_ricci * eps2, core_ricci), unit.sup_scalar * eps2


def cap_volume(family: CutoffFamily) -> float:
    """Volume of the cap from its bolt out to 2 eps: f a b c = r^3 exactly,
    so it is link_volume ((2 eps)^4 - r_bolt^4) / 4."""
    return family.link_volume * ((2.0 * family.epsilon) ** 4 - family.r_bolt**4) / 4.0


def cap_weyl_energies(family: CutoffFamily) -> tuple[float, float]:
    """(int |W+|^2 dmu, int |W-|^2 dmu) over the cap: the anti-self-dual core
    contributes (0, ``instanton_weyl_energy``), the annulus eps^8 times the
    ``unit_cap`` energies, and the metric is flat beyond 2 eps."""
    unit = unit_cap(family.base)
    eps8 = family.epsilon**8
    core = instanton_weyl_energy(family.base, family.r_bolt, family.epsilon)
    return unit.wplus_energy * eps8, core + unit.wminus_energy * eps8
