"""Discrete conformal geometry on the flat torus.

Everything here lives on a periodic lattice with the flat metric: the
positive stencil Laplacian Delta = d*d, the scalar-curvature law for a
conformal factor u, the Yamabe quotient of u^ell g, and a projected
gradient descent that drives the quotient to the Yamabe constant of the
class, 0, attained by the flat metric.  The key identity (s = 0) is

    s_hat u^(ell+1) = (n-1) ell Delta u,    ell = 4/(n-2),

and its integrated consequences: the Hoelder inequality between the two
normalizations of total scalar curvature, and the integration-by-parts
identity that makes int s_hat u^ell dmu nonpositive.  The discrete operators
are arranged so that the latter two hold exactly in floating point, not
just up to truncation error.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConformalGrid",
    "DescentResult",
    "laplacian",
    "gradient_energy_density",
    "conformal_scalar",
    "yamabe_quotient",
    "minimize_yamabe",
    "holder_gap",
    "negative_case_check",
    "aubin_bound",
]


@dataclass(frozen=True)
class ConformalGrid:
    """Periodic lattice on a flat n-torus."""

    n_points: int
    periods: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError("need at least 8 points per axis")
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))
        if any(p <= 0.0 for p in self.periods):
            raise ValueError("periods must be positive")

    @property
    def n_dim(self) -> int:
        return len(self.periods)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_points,) * self.n_dim

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(p / self.n_points for p in self.periods)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.periods) / self.n_points**self.n_dim

    @property
    def ell(self) -> float:
        return 4.0 / (self.n_dim - 2)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Coordinate along one axis, broadcast to the full grid shape."""
        x = np.linspace(0.0, self.periods[axis], self.n_points, endpoint=False)
        shape = [1] * self.n_dim
        shape[axis] = self.n_points
        return np.broadcast_to(x.reshape(shape), self.shape).copy()

    def check_field(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} != grid shape {self.shape}")
        return u

    def integrate(self, f: np.ndarray) -> float:
        return float(np.sum(f)) * self.cell_volume


def _as_factor(grid: ConformalGrid, u) -> np.ndarray:
    u = grid.check_field(u)
    if np.any(u <= 0.0):
        raise ValueError("conformal factor must be positive everywhere")
    return u


def laplacian(grid: ConformalGrid, u: np.ndarray) -> np.ndarray:
    """Positive Laplacian Delta = d*d of a periodic lattice field.

    The second-order central stencil: sum over axes of
    (2u - u_plus - u_minus)/h^2, which annihilates constants exactly and is
    symmetric, so sum(Delta u) = 0 in exact arithmetic.  Its symbol on
    cos(2 pi x_j / L_j) is (2 - 2 cos(2 pi h_j / L_j)) / h_j^2.
    """
    u = grid.check_field(u)
    out = np.zeros_like(u)
    for ax, h in enumerate(grid.spacings):
        out += (2.0 * u - np.roll(u, 1, axis=ax) - np.roll(u, -1, axis=ax)) / h**2
    return out


def gradient_energy_density(grid: ConformalGrid, u: np.ndarray) -> np.ndarray:
    """Forward-difference |du|^2, the exact summation-by-parts partner of
    the stencil Laplacian: sum(u * Delta u) = sum(|du|^2) identically."""
    u = grid.check_field(u)
    out = np.zeros_like(u)
    for ax, h in enumerate(grid.spacings):
        out += ((np.roll(u, -1, axis=ax) - u) / h) ** 2
    return out


def conformal_scalar(grid: ConformalGrid, u) -> np.ndarray:
    """Scalar curvature of u^ell g over the flat base: s_hat = (n-1) ell Delta u / u^(ell+1)."""
    u = _as_factor(grid, u)
    n, ell = grid.n_dim, grid.ell
    return (n - 1) * ell * laplacian(grid, u) / u ** (ell + 1.0)


def yamabe_quotient(grid: ConformalGrid, u) -> float:
    """Normalized total scalar curvature of u^ell g, the Yamabe functional.

    The total scalar curvature reduces to the energy int (n-1) ell |du|^2 dmu
    for every n: the pullback leaves exactly one power of u, and summation
    by parts trades u * Delta u for |du|^2 exactly.  Dividing by the volume
    int u^(2n/(n-2)) dmu to the power (n-2)/n makes it invariant under u -> cu.
    """
    u = _as_factor(grid, u)
    n, ell = grid.n_dim, grid.ell
    energy = grid.integrate((n - 1) * ell * gradient_energy_density(grid, u))
    vol = grid.integrate(u ** (2.0 * n / (n - 2)))
    return energy / vol ** ((n - 2.0) / n)


@dataclass
class DescentResult:
    """Outcome of a projected-gradient Yamabe minimization."""

    u_star: np.ndarray
    quotient_star: float
    iterations: int
    converged: bool
    trace: list[tuple[int, float, float]] = field(default_factory=list)

    def trace_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iteration,quotient,step\n")
        for it, q, step in self.trace:
            buf.write(f"{it},{q:.16e},{step:.6e}\n")
        return buf.getvalue()


def minimize_yamabe(
    grid: ConformalGrid,
    u0,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> DescentResult:
    """Projected gradient descent on the Yamabe quotient.

    Each step moves against the L2 gradient of the quotient and backtracks
    by halving from an initial step of 1.0 until the quotient does not
    increase and u stays positive.  The quotient is scale invariant, so a
    candidate is evaluated as it is, and only the accepted one is
    renormalized to unit conformal volume.  Stops once the relative
    decrease of the quotient falls below tol.
    """
    n, ell = grid.n_dim, grid.ell
    p = 2.0 * n / (n - 2)
    w = (n - 2.0) / n

    def renormalize(v: np.ndarray) -> np.ndarray:
        vol = grid.integrate(v**p)
        return v / vol ** (1.0 / p)

    u = renormalize(_as_factor(grid, u0))
    q = yamabe_quotient(grid, u)
    trace = [(0, q, 0.0)]
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        # functional (L2) gradient of energy / vol^w at unit volume, where the
        # energy is q; the lattice measure cancels from the direction and
        # would only shrink the step by a factor N^-n
        grad = 2.0 * (n - 1) * ell * laplacian(grid, u) - w * q * p * u ** (p - 1.0)
        if not np.any(grad):
            converged = True
            break
        step = 1.0
        for _ in range(60):
            cand = u - step * grad
            if np.all(cand > 0.0):
                q_new = yamabe_quotient(grid, cand)
                if q_new <= q:
                    break
            step *= 0.5
        else:
            raise RuntimeError("line search failed: no positive decreasing step")
        iterations = it
        u, q_prev, q = renormalize(cand), q, q_new
        trace.append((it, q, step))
        if abs(q_prev - q) <= tol * max(abs(q_prev), 1.0):
            converged = True
            break
    return DescentResult(u, q, iterations, converged, trace)


def holder_gap(grid: ConformalGrid, s_field: np.ndarray, u) -> dict[str, float]:
    """Both sides of the Hoelder comparison between the two total-scalar
    normalizations, for a metric with scalar curvature s_field and volume
    element u^(2n/(n-2)) dmu.  Returns lhs, rhs, and gap = lhs - rhs >= 0,
    with equality exactly when s_field is a nonnegative constant.
    """
    u = _as_factor(grid, u)
    s_field = grid.check_field(s_field)
    n = grid.n_dim
    p = 2.0 * n / (n - 2)
    dmu_hat = u**p
    vol = grid.integrate(dmu_hat)
    lhs = grid.integrate(np.abs(s_field) ** (n / 2.0) * dmu_hat) ** (2.0 / n)
    rhs = grid.integrate(s_field * dmu_hat) / vol ** (1.0 - 2.0 / n)
    return {"lhs": lhs, "rhs": rhs, "gap": lhs - rhs}


def negative_case_check(grid: ConformalGrid, u) -> float:
    """int s_hat u^ell dmu over the flat base.

    Expanding the transformation law, the integrand is (n-1) ell Delta u / u,
    whose lattice sum pairs each edge as 2 - a - 1/a <= 0.  The result is
    therefore nonpositive for every positive u, with equality iff u is
    constant: the quantitative content of the negative-case comparison.
    """
    u = _as_factor(grid, u)
    n, ell = grid.n_dim, grid.ell
    return grid.integrate((n - 1) * ell * laplacian(grid, u) / u)


def aubin_bound(n: int) -> float:
    """Sharp upper bound n(n-1) V_n^(2/n) for any Yamabe constant in
    dimension n, where V_n is the volume of the unit n-sphere."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    v_n = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    return n * (n - 1) * v_n ** (2.0 / n)
