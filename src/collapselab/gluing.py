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
from typing import Callable, Sequence

import numpy as np

from .cutoff import BaseInstanton, CutoffFamily, cap_sup_norms, cap_volume, cap_weyl_energies
from .submersion import BundleKind, BundleModel, collapse_metric, nilmanifold_frame, oneill_at
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
    parameter: float
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

def _reduced_basis(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange-Gauss reduced basis (b1, b2) of Z^2 under the inner product
    ``gram``: |b1| <= |b2| and |<b1, b2>| <= |b1|^2 / 2, so b1 is a shortest
    nonzero lattice vector."""
    gram = np.asarray(gram, dtype=float)
    b1, b2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    if b1 @ gram @ b1 > b2 @ gram @ b2:
        b1, b2 = b2, b1
    while True:
        b2 = b2 - round(float(b1 @ gram @ b2) / float(b1 @ gram @ b1)) * b1
        if b2 @ gram @ b2 >= b1 @ gram @ b1:
            return b1, b2
        b1, b2 = b2, b1


def torus_systole(gram: np.ndarray) -> float:
    """Length of the shortest closed geodesic of the flat torus R^2/Z^2 with
    Gram matrix ``gram``."""
    b1, _ = _reduced_basis(gram)
    return math.sqrt(float(b1 @ np.asarray(gram, dtype=float) @ b1))


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
# the rational-elliptic orbifold model
# --------------------------------------------------------------------------

def eh_schedule(fiber_gram: np.ndarray, t: float) -> float:
    """eps_t = min(injectivity radius of (T^2, f), pi) / (4 sqrt t)."""
    return _eh_schedule(torus_systole(fiber_gram), t)


def _eh_schedule(systole: float, t: float) -> float:
    return min(0.5 * systole, math.pi) / (4.0 * math.sqrt(t))


def orbifold_family(fiber_gram: np.ndarray, t: float) -> ChartedFamily:
    """The blown-up flat orbifold (R x T^3)/Z2 with 8 Eguchi-Hanson caps.

    The flat block carries dx^2 + dtheta^2 + f/t truncated at |x| = 4; the
    8 singular points sit in the x = 0 slice at the 2-torsion points of T^3
    and are capped at scale eps_t <= pi / 4.  The nearest two of them are
    min(pi, systole / (2 sqrt t)) apart (docs/conventions.md, "Cap
    disjointness"), so the 2 eps balls are disjoint when 4 eps is at most
    that; on this schedule the nearest caps touch whenever inj <= pi.
    """
    if not 1.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 1, got {t!r}")
    fiber_gram = np.asarray(fiber_gram, dtype=float)
    alpha = math.sqrt(float(np.linalg.det(fiber_gram)))
    systole = torus_systole(fiber_gram)
    eps = _eh_schedule(systole, t)
    nearest = min(math.pi, 0.5 * systole / math.sqrt(t))
    try:  # a refusal names t: at large t a cap's data underflows
        if nearest < 4.0 * eps - 1e-12:
            raise ValueError(f"cap schedule violates disjointness: distance {nearest:.4g} < 4 eps")
        ball_vol = CutoffFamily(BaseInstanton.EGUCHI_HANSON, eps).link_volume * (2.0 * eps) ** 4 / 4.0
        flat_vol = 2.0 * math.pi * 4.0 * alpha / t - 8.0 * ball_vol
        if flat_vol <= 0.0:
            raise ValueError("caps exceed the available flat volume")
        charts = [Chart(ChartKind.FLAT_BLOCK, flat_vol, 0.0, 0.0)]
        charts += [eh_cap(eps)] * 8
    except ValueError as exc:
        raise ValueError(f"t={t!r}: {exc}") from exc
    return ChartedFamily(
        charts=tuple(charts),
        parameter=t,
        schedule="eps_t = min(inj, pi) / (4 sqrt(t))",
    )


# --------------------------------------------------------------------------
# fiber sums and blow-ups
# --------------------------------------------------------------------------

def _bundle_block(bundle: BundleModel, t: float, removed: float = 0.0) -> Chart:
    metric = collapse_metric(bundle, t)
    o = oneill_at(metric)
    vol = metric.total_volume() - removed
    if bundle.kind is BundleKind.NILMANIFOLD:
        # crude but uniform bound on the Ricci components from the O'Neill data
        sup_ric = abs(o.K_H) + 2.0 * abs(o.K_P)
        sup_s = 2.0 * abs(o.K_H) + 4.0 * abs(o.K_P)
        frame = nilmanifold_frame(t)
        return Chart(ChartKind.BUNDLE_BLOCK, vol, sup_ric, sup_s, None,
                     frame.w_plus_norm2 * vol, frame.w_minus_norm2 * vol)
    return Chart(ChartKind.BUNDLE_BLOCK, vol, 0.0, 0.0)


def assemble_surface_model(
    bundle: BundleModel,
    fiber_sums: int = 0,
    blowups: int = 0,
) -> Callable[[float], ChartedFamily]:
    """Family rule t -> ChartedFamily for (chi=0 model) # k (rational
    elliptic) # l (reversed projective planes).

    Fiber sums splice in one rational-elliptic orbifold family each through
    a flat cylinder neck; blow-ups replace small Euclidean balls in the flat
    region with Burns caps on the schedule eps = rho_t / (2 l).  Every
    refusal names t, such as a cap volume of 0.0 or an infinite sup norm.
    """
    if fiber_sums < 0 or blowups < 0:
        raise ValueError("fiber-sum and blow-up counts must be non-negative")
    needs_flat = fiber_sums > 0 or blowups > 0
    if needs_flat and bundle.kind is BundleKind.NILMANIFOLD:
        raise ValueError("gluing requires a model with product-flat regions")
    fiber_gram = bundle.fiber_metric
    alpha = math.sqrt(float(np.linalg.det(fiber_gram)))
    inj = 0.5 * torus_systole(fiber_gram)

    def family(t: float) -> ChartedFamily:
        if not 1.0 <= t < math.inf:
            raise ValueError(f"t must be finite and >= 1, got {t!r}")
        # its refusals name t already
        orbifold = orbifold_family(fiber_gram, t).charts if fiber_sums > 0 else ()
        try:  # a refusal names t: at large t a cap's data underflows or overflows
            charts: list[Chart] = []
            removed = 0.0
            burns = None
            if blowups > 0:
                # Euclidean balls of radius rho_t fit inside the collapsed flat
                # region; shrink the caps with the available room
                rho_t = min(inj, math.pi) / (2.0 * math.sqrt(t))
                burns = CutoffFamily(BaseInstanton.BURNS, rho_t / (2.0 * blowups))
                removed = blowups * (burns.link_volume * (2.0 * burns.epsilon) ** 4 / 4.0)
            if removed >= collapse_metric(bundle, t).total_volume():
                raise ValueError("requested caps exceed the available flat volume")
            charts.append(_bundle_block(bundle, t, removed=removed))
            # equal parameters give equal (immutable) charts: each is built once
            if fiber_sums > 0:
                neck = Chart(ChartKind.CYLINDER_NECK, 2.0 * math.pi * alpha / t, 0.0, 0.0)
                charts += [neck, *orbifold] * fiber_sums
            if burns is not None:
                charts += [burns_cap(burns.epsilon)] * blowups
        except ValueError as exc:
            raise ValueError(f"t={t!r}: {exc}") from exc
        return ChartedFamily(
            charts=tuple(charts),
            parameter=t,
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
