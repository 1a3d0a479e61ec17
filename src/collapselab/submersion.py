"""Collapsing torus-bundle metrics g_t = (1/t) g + (1 - 1/t) pi*h and the
O'Neill sectional-curvature formulas, plus a Koszul-formula engine for
left-invariant metrics used as an independent cross-check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frame_curvature import CurvatureFrame, frame_from_riemann, riemann_tensor


# --------------------------------------------------------------------------
# homogeneous (left-invariant) curvature oracle
# --------------------------------------------------------------------------

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


def heisenberg_r() -> StructureConstants:
    """Heisenberg algebra times R: [X_1, X_2] = X_3, X_4 central."""
    c = np.zeros((4, 4, 4))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return StructureConstants(c, "heis3+R")


def homogeneous_curvature(sc: StructureConstants, metric_diag: Sequence[float]) -> CurvatureFrame:
    """Curvature of the left-invariant metric diag(metric_diag) on the group
    with structure constants sc, in the orthonormal frame X_i / sqrt(d_i)."""
    d = np.asarray(metric_diag, dtype=float)
    if d.shape != (4,):
        raise ValueError("metric_diag must have 4 entries")
    if not np.all((d > 0.0) & (d < np.inf)):
        raise ValueError("metric_diag must be positive and finite")
    rt = np.sqrt(d)
    struct = sc.c * rt[None, None, :] / (rt[:, None, None] * rt[None, :, None])
    return frame_from_riemann(riemann_tensor(struct))


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


def nilmanifold_frame(t: float = 1.0) -> CurvatureFrame:
    """Full curvature of the Heisenberg x R collapse metric diag(1,1,1/t,1/t)
    via the left-invariant engine (independent of the O'Neill formulas)."""
    return homogeneous_curvature(heisenberg_r(), [1.0, 1.0, 1.0 / t, 1.0 / t])

