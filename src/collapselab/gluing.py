"""Chartwise assembly of collapsing metric families: the flat orbifold model
of the rational elliptic surface with 8 instanton caps, cylinder-end fiber
sums, and Burns-cap blow-ups, with per-family collapse certificates.

No global coordinates are ever built; each chart carries its own closed-form
volume and curvature sup-norms, and gluing is bookkeeping: every neck and
flat block ends on the same flat cylinder (circle x (T^2, f/t)), so the
pieces match isometrically by construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .cutoff import BaseInstanton, CutoffFamily, cap_sup_norms, cap_volume, cap_weyl_energies
from .submersion import BundleKind, BundleModel, SubmersionMetric, collapse_metric, oneill_frame
from .surfaces import SurfaceData


class ChartKind(enum.Enum):
    FLAT_BLOCK = "flat_block"
    CYLINDER_NECK = "cylinder_neck"
    EH_CAP = "eh_cap"
    BURNS_CAP = "burns_cap"
    BUNDLE_BLOCK = "bundle_block"


@dataclass(frozen=True)
class Chart:
    """Volume, curvature sup norms and int |W+-|^2 dmu of one chart."""

    kind: ChartKind
    volume: float
    sup_ricci: float
    sup_scalar: float
    epsilon: float | None = None
    wplus_energy: float = 0.0
    wminus_energy: float = 0.0

    def __post_init__(self):
        if self.volume <= 0.0:
            raise ValueError(f"{self.kind.value} chart has non-positive volume")
        if not all(map(math.isfinite, (self.volume, self.sup_ricci, self.sup_scalar))):
            raise ValueError(f"{self.kind.value} chart data must be finite")
        if self.kind in (ChartKind.FLAT_BLOCK, ChartKind.CYLINDER_NECK):
            if self.sup_ricci != 0.0 or self.sup_scalar != 0.0:
                raise ValueError("flat charts must certify zero curvature")


@dataclass(frozen=True)
class ChartedFamily:
    charts: tuple[Chart, ...]
    schedule: str

    @property
    def total_volume(self) -> float:
        return sum(c.volume for c in self.charts)

    @property
    def sup_ricci(self) -> float:
        return max(c.sup_ricci for c in self.charts)

    @property
    def sup_scalar(self) -> float:
        return max(c.sup_scalar for c in self.charts)

    @property
    def wplus_energy(self) -> float:
        return sum(c.wplus_energy for c in self.charts)

    @property
    def wminus_energy(self) -> float:
        return sum(c.wminus_energy for c in self.charts)


class Verdict(enum.Enum):
    BOUNDED_RICCI_COLLAPSE = "BoundedRicciCollapse"
    BOUNDED_SCALAR_COLLAPSE = "BoundedScalarCollapse"
    NO_COLLAPSE = "NoCollapse"


@dataclass(frozen=True)
class CollapseCertificate:
    rows: tuple[tuple[float, float, float, float], ...]  # (t, vol, sup_ric, sup_s)
    verdict: Verdict
    schedule: str = ""
    diagnostic: str = ""


# --------------------------------------------------------------------------
# flat-torus lattice helpers
# --------------------------------------------------------------------------

def _lattice_form(gram: np.ndarray) -> Callable[[tuple, tuple], Fraction]:
    """The inner product of integer vectors under ``gram``, exactly: the
    symmetric part of the float entries, in rationals.  Float sums of a
    sheared Gram's large entries cancel (at shear 50 they put the systole
    8e-6 relative off)."""
    g = np.asarray(gram, dtype=float)
    a, c = Fraction(g[0, 0]), Fraction(g[1, 1])
    b = (Fraction(g[0, 1]) + Fraction(g[1, 0])) / 2
    return lambda u, v: a * u[0] * v[0] + b * (u[0] * v[1] + u[1] * v[0]) + c * u[1] * v[1]


def _reduced_basis(form: Callable[[tuple, tuple], Fraction]) -> tuple[tuple, tuple]:
    """Lagrange-Gauss reduced basis (b1, b2) of Z^2 under the exact inner
    product ``form``: |b1| <= |b2| and |<b1, b2>| <= |b1|^2 / 2, so b1 is a
    shortest nonzero lattice vector."""
    b1, b2 = (1, 0), (0, 1)
    if form(b1, b1) > form(b2, b2):
        b1, b2 = b2, b1
    while True:
        m = round(form(b1, b2) / form(b1, b1))
        b2 = (b2[0] - m * b1[0], b2[1] - m * b1[1])
        if form(b2, b2) >= form(b1, b1):
            return b1, b2
        b1, b2 = b2, b1


def torus_systole(gram: np.ndarray) -> float:
    """Length of the shortest closed geodesic of the flat torus R^2/Z^2 with
    Gram matrix ``gram``: the square root of its exact squared length,
    rounded once."""
    form = _lattice_form(gram)
    b1, _ = _reduced_basis(form)
    return math.sqrt(form(b1, b1))


# --------------------------------------------------------------------------
# cap certification: closed forms in eps (``cutoff.cap_sup_norms``)
# --------------------------------------------------------------------------

def _cap_chart(kind: ChartKind, base: BaseInstanton, eps: float) -> Chart:
    fam = CutoffFamily(base, eps)
    sup_ricci, sup_scalar = cap_sup_norms(fam)
    wp, wm = cap_weyl_energies(fam)
    return Chart(kind, cap_volume(fam), sup_ricci, sup_scalar, eps, wp, wm)


def eh_cap(eps: float) -> Chart:
    return _cap_chart(ChartKind.EH_CAP, BaseInstanton.EGUCHI_HANSON, eps)


def burns_cap(eps: float) -> Chart:
    return _cap_chart(ChartKind.BURNS_CAP, BaseInstanton.BURNS, eps)


# --------------------------------------------------------------------------
# the rational-elliptic orbifold model, fiber sums and blow-ups
# --------------------------------------------------------------------------

def _cap_ball_volume(base: BaseInstanton, eps: float) -> float:
    """Volume of the flat ball of radius 2 eps that a cap of scale eps replaces."""
    return CutoffFamily(base, eps).link_volume * (2.0 * eps) ** 4 / 4.0


def _orbifold_charts(alpha: float, inj: float, rho_t: float, t: float) -> tuple[Chart, ...]:
    """The blown-up flat orbifold (R x T^3)/Z2 with 8 Eguchi-Hanson caps.

    The flat block carries dx^2 + dtheta^2 + f/t truncated at |x| = 4, of
    fiber area alpha; the 8 singular points sit in the x = 0 slice at the
    2-torsion points of T^3 and are capped at scale eps_t = rho_t / 2 <= pi / 4.
    The nearest two of them are min(pi, inj / sqrt t) apart
    (docs/conventions.md, "Cap disjointness"), so the 2 eps balls are
    disjoint when 4 eps is at most that; on this schedule the nearest caps
    touch whenever inj <= pi.
    """
    eps = 0.5 * rho_t
    nearest = min(math.pi, inj / math.sqrt(t))
    if nearest < 4.0 * eps - 1e-12:
        raise ValueError(f"cap schedule violates disjointness: distance {nearest:.4g} < 4 eps")
    flat_vol = 2.0 * math.pi * 4.0 * alpha / t - 8.0 * _cap_ball_volume(
        BaseInstanton.EGUCHI_HANSON, eps)
    if flat_vol <= 0.0:
        raise ValueError("caps exceed the available flat volume")
    return (Chart(ChartKind.FLAT_BLOCK, flat_vol, 0.0, 0.0), *[eh_cap(eps)] * 8)


def _bundle_block(metric: SubmersionMetric, removed: float) -> Chart:
    vol = metric.total_volume() - removed
    if metric.bundle.kind is not BundleKind.NILMANIFOLD:
        return Chart(ChartKind.BUNDLE_BLOCK, vol, 0.0, 0.0)
    # the exact curvature of the homogeneous Heisenberg x S^1 metric at this t
    frame = oneill_frame(metric)
    return Chart(ChartKind.BUNDLE_BLOCK, vol, frame.sup_ricci, abs(frame.scalar), None,
                 frame.w_plus_norm2 * vol, frame.w_minus_norm2 * vol)


def assemble_surface_model(
    bundle: BundleModel,
    fiber_sums: int = 0,
    blowups: int = 0,
) -> Callable[[float], ChartedFamily]:
    """Family rule t -> ChartedFamily for (chi=0 model) # k (rational
    elliptic) # l (reversed projective planes).

    Euclidean balls of radius rho_t = min(inj, pi) / (2 sqrt t) fit inside
    the collapsed flat region, and every cap scales with it: fiber sums
    splice in one rational-elliptic orbifold family each through a flat
    cylinder neck, with its 8 Eguchi-Hanson caps at eps = rho_t / 2, and
    blow-ups replace small Euclidean balls in the flat region with Burns
    caps at eps = rho_t / (2 l).  The fiber lattice is reduced once per rule.
    Every refusal names t, such as a cap volume of 0.0 or an infinite sup
    norm.
    """
    if fiber_sums < 0 or blowups < 0:
        raise ValueError("fiber-sum and blow-up counts must be non-negative")
    needs_flat = fiber_sums > 0 or blowups > 0
    if needs_flat and bundle.kind is BundleKind.NILMANIFOLD:
        raise ValueError("gluing requires a model with product-flat regions")
    alpha = math.sqrt(float(np.linalg.det(bundle.fiber_metric)))
    inj = 0.5 * torus_systole(bundle.fiber_metric)

    def family(t: float) -> ChartedFamily:
        if not 1.0 <= t < math.inf:
            raise ValueError(f"t must be finite and >= 1, got {t!r}")
        try:  # a refusal names t: at large t a cap's data underflows or overflows
            rho_t = min(inj, math.pi) / (2.0 * math.sqrt(t))
            orbifold = _orbifold_charts(alpha, inj, rho_t, t) if fiber_sums > 0 else ()
            removed = 0.0
            if blowups > 0:
                burns_eps = rho_t / (2.0 * blowups)
                removed = blowups * _cap_ball_volume(BaseInstanton.BURNS, burns_eps)
            metric = collapse_metric(bundle, t)
            if removed >= metric.total_volume():
                raise ValueError("requested caps exceed the available flat volume")
            charts = [_bundle_block(metric, removed)]
            # equal parameters give equal (immutable) charts: each is built once
            if fiber_sums > 0:
                neck = Chart(ChartKind.CYLINDER_NECK, 2.0 * math.pi * alpha / t, 0.0, 0.0)
                charts += [neck, *orbifold] * fiber_sums
            if blowups > 0:
                charts += [burns_cap(burns_eps)] * blowups
        except ValueError as exc:
            raise ValueError(f"t={t!r}: {exc}") from exc
        return ChartedFamily(
            charts=tuple(charts),
            schedule="eps_t = min(inj, pi) / (4 sqrt(t)); burns eps = rho_t / (2 l)",
        )

    return family


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------

def certificate(
    family_rule: Callable[[float], ChartedFamily],
    t_list: Sequence[float],
) -> CollapseCertificate:
    """Aggregate chart data over the parameter list and assign a verdict.

    Collapse requires strictly decreasing volume falling below the first
    row's value times the ratio of the parameter range; boundedness compares
    every row's sup norm against its t = t_min value (with relative slack
    1e-6).
    """
    ts = [float(t) for t in t_list]
    if len(ts) < 3 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("need at least 3 strictly increasing parameter values")
    fams = [family_rule(t) for t in ts]
    rows = tuple(
        (t, fam.total_volume, fam.sup_ricci, fam.sup_scalar)
        for t, fam in zip(ts, fams)
    )
    schedule = fams[0].schedule

    vols = [r[1] for r in rows]
    if any(b >= a for a, b in zip(vols, vols[1:])):
        return CollapseCertificate(
            rows, Verdict.NO_COLLAPSE, schedule, diagnostic="volume not strictly decreasing"
        )
    # volume must actually head to zero, not merely dip
    if vols[-1] > vols[0] * (ts[0] / ts[-1]) * 10.0:
        return CollapseCertificate(
            rows, Verdict.NO_COLLAPSE, schedule, diagnostic="volume not tending to zero"
        )
    ric_bound = rows[0][2] * (1.0 + 1e-6) + 1e-12
    s_bound = rows[0][3] * (1.0 + 1e-6) + 1e-12
    if all(r[2] <= ric_bound for r in rows):
        return CollapseCertificate(rows, Verdict.BOUNDED_RICCI_COLLAPSE, schedule)
    if all(r[3] <= s_bound for r in rows):
        return CollapseCertificate(rows, Verdict.BOUNDED_SCALAR_COLLAPSE, schedule)
    return CollapseCertificate(
        rows, Verdict.NO_COLLAPSE, schedule, diagnostic="no curvature bound held"
    )


def ricci_obstruction(surface: SurfaceData) -> tuple[bool, str]:
    """Whether bounded-Ricci collapse is consistent with 2chi + 3tau >= 0.

    For elliptic surfaces (c1^2(X) = 0) this is exactly minimality.
    """
    c1sq = surface.c1sq
    if c1sq < 0:
        return False, f"2chi + 3tau = {c1sq} < 0 rules out bounded-Ricci collapse"
    if surface.c1sq_min == 0 and not surface.is_minimal:
        return False, "non-minimal elliptic surface (c1^2 < 0 after blow-up)"
    return True, f"2chi + 3tau = {c1sq} >= 0"
