"""Collapsing torus-bundle metrics g_t = (1/t) g + (1 - 1/t) pi*h and their
curvature in closed form: O'Neill's sectional curvatures K_H and K_P
(``oneill_at``) and the curvature frame they fix (``oneill_frame``).  On
these models the curvature operator is diagonal in the frame's 2-form
basis, so the two numbers determine all of it; the left-invariant Koszul
engine that checks this lives with the test oracles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .frame_curvature import CurvatureFrame, diagonal_frame


# --------------------------------------------------------------------------
# torus bundles over surfaces / orbifolds
# --------------------------------------------------------------------------

class BundleKind(enum.Enum):
    TRIVIAL_TORUS_OVER_TORUS = "trivial"
    TWISTED_PRODUCT = "twisted"
    NILMANIFOLD = "nilmanifold"


@dataclass(frozen=True)
class BaseOrbifold:
    """The base (Sigma, h): area and its constant Gauss curvature."""

    area: float
    gauss_curvature: float


@dataclass(frozen=True)
class BundleModel:
    """Flat-torus bundle over a 2-orbifold with totally geodesic fibers.

    ``bracket_norm2`` is |v|^2 for the vertical part v of [w_1, w_2] of a
    horizontal orthonormal frame, in the metric g; it is the same at every
    base point and t-independent along the canonical variation.
    """

    kind: BundleKind
    base: BaseOrbifold
    fiber_metric: np.ndarray          # 2x2 Gram matrix of the flat fiber
    bracket_norm2: float
    name: str = ""

    @property
    def fiber_area(self) -> float:
        return float(math.sqrt(np.linalg.det(self.fiber_metric)))


# name and |v|^2 of each model, all over the flat unit-area base.  The twisted
# product's monodromy has order 2: its rotation -I is an isometry of every
# flat fiber.  The nilmanifold is Heisenberg x S^1, whose v is the unit
# centre direction.
_MODELS = {
    BundleKind.TRIVIAL_TORUS_OVER_TORUS: ("T2 x T2", 0.0),
    BundleKind.TWISTED_PRODUCT: ("twisted Z2", 0.0),
    BundleKind.NILMANIFOLD: ("nilmanifold", 1.0),
}


def make_bundle(kind: BundleKind, fiber_metric: np.ndarray | None = None) -> BundleModel:
    """Build one of the three representative flat-fiber bundle models."""
    f = np.eye(2) if fiber_metric is None else np.asarray(fiber_metric, dtype=float)
    if f.shape != (2, 2) or np.any(np.linalg.eigvalsh(f) <= 0.0):
        raise ValueError("fiber metric must be a 2x2 SPD matrix")
    if kind not in _MODELS:
        raise ValueError(f"unknown bundle kind {kind!r}")
    name, bracket_norm2 = _MODELS[kind]
    return BundleModel(kind, BaseOrbifold(area=1.0, gauss_curvature=0.0), f, bracket_norm2, name)


@dataclass(frozen=True)
class SubmersionMetric:
    """The canonical-variation metric g_t = (1/t) g + (1 - 1/t) pi*h."""

    bundle: BundleModel
    t: float

    def __post_init__(self):
        if not 1.0 <= self.t < math.inf:
            raise ValueError(f"t must be finite and >= 1, got {self.t!r}")

    def total_volume(self) -> float:
        # fibers are 2-dimensional, so vertical scaling by 1/t divides the
        # fiber area (hence the total volume) by t exactly
        return self.bundle.base.area * self.bundle.fiber_area / self.t


def collapse_metric(bundle: BundleModel, t: float) -> SubmersionMetric:
    return SubmersionMetric(bundle, float(t))


@dataclass(frozen=True)
class ONeillCurvatures:
    K_H: float
    K_P: float


def oneill_at(metric: SubmersionMetric) -> ONeillCurvatures:
    """O'Neill sectional curvatures of g_t, the same at every base point.

    K_H = K(Sigma) - (3/4) g_t(v,v) for the horizontal plane and K_P with the
    full vertical projection v of [w_1,w_2] (the extremal mixed plane); the
    flat, totally geodesic fibers have K_V = 0.
    """
    gvv = metric.bundle.bracket_norm2 / metric.t
    return ONeillCurvatures(K_H=metric.bundle.base.gauss_curvature - 0.75 * gvv, K_P=0.25 * gvv)


def oneill_frame(metric: SubmersionMetric) -> CurvatureFrame:
    """The curvature frame of g_t in an orthonormal frame (w_1, w_2, v, u):
    w_1, w_2 horizontal, v along the vertical part of [w_1, w_2] and u the
    other fiber direction.  Its operator is diag(K_H, K_P, 0, 0, 0, K_P) in
    ``PAIR_BASIS``: the planes (w_1, v) and (w_2, v) carry K_P, and the
    planes through u and the fiber plane are flat (Milnor, Adv. Math. 21,
    1976, for Heisenberg x R)."""
    cur = oneill_at(metric)
    return diagonal_frame((cur.K_H, cur.K_P, 0.0, 0.0, 0.0, cur.K_P))

