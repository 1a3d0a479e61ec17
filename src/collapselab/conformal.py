"""Discrete conformal geometry on the flat torus.

Everything here lives on a periodic lattice with the flat metric: the
positive stencil Laplacian Delta = d*d, the scalar-curvature law for a
conformal factor u, the Yamabe quotient of u^ell g, and a projected
Sobolev-gradient descent that drives the quotient to the Yamabe constant
of the class, 0, attained by the flat metric.  The key identity (s = 0) is

    s_hat u^(ell+1) = (n-1) ell Delta u,    ell = 4/(n-2),

and its integrated consequences: the Hoelder inequality between the two
normalizations of total scalar curvature, and the integration-by-parts
identity that makes int s_hat u^ell dmu nonpositive.  The discrete operators
are arranged so that the latter two hold exactly in floating point, not
just up to truncation error.
"""

from __future__ import annotations

import math
import numbers
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
    """Periodic lattice on a flat n-torus, n >= 3.

    ``n_points`` is one count for every axis, or one count per axis in the
    order of ``periods``; either way it is stored as a tuple, so ``shape``
    is ``n_points`` and axis j has spacing ``periods[j] / n_points[j]``.
    Each count is an integer of at least 8.  A field constant along an axis
    needs no more than 8 points there: that axis's stencil term is
    (2u - u - u)/h^2, exactly 0.0 in floating point, whatever the count.
    """

    n_points: int | tuple[int, ...]
    periods: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        periods = tuple(float(p) for p in self.periods)
        if len(periods) < 3:
            raise ValueError("need at least 3 axes")
        if any(p <= 0.0 for p in periods):
            raise ValueError("periods must be positive")
        counts = self.n_points
        if not isinstance(counts, (tuple, list)):
            counts = (counts,) * len(periods)
        if any(isinstance(c, bool) or not isinstance(c, numbers.Integral) for c in counts):
            raise ValueError(f"point counts must be integers, got {self.n_points!r}")
        if len(counts) != len(periods):
            raise ValueError(f"{len(counts)} point counts for {len(periods)} periods")
        if min(counts) < 8:
            raise ValueError("need at least 8 points per axis")
        object.__setattr__(self, "n_points", tuple(int(c) for c in counts))
        object.__setattr__(self, "periods", periods)

    @property
    def n_dim(self) -> int:
        return len(self.periods)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_points

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(p / n for p, n in zip(self.periods, self.n_points))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.periods) / math.prod(self.n_points)

    @property
    def ell(self) -> float:
        return 4.0 / (self.n_dim - 2)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Coordinate along one axis, broadcast to the full grid shape."""
        x = np.linspace(0.0, self.periods[axis], self.n_points[axis], endpoint=False)
        shape = [1] * self.n_dim
        shape[axis] = x.size
        return np.broadcast_to(x.reshape(shape), self.shape).copy()

    def check_field(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.shape:
            raise ValueError(f"field shape {u.shape} != grid shape {self.shape}")
        return u

    def integrate(self, f: np.ndarray) -> float:
        return float(np.sum(f)) * self.cell_volume


def _positive(u: np.ndarray) -> bool:
    """Whether every value of u is positive: one comparison pass."""
    return bool(np.all(u > 0.0))


def _as_factor(grid: ConformalGrid, u) -> np.ndarray:
    u = grid.check_field(u)
    if not _positive(u):
        raise ValueError("conformal factor must be positive everywhere")
    return u


def laplacian(grid: ConformalGrid, u: np.ndarray) -> np.ndarray:
    """Positive Laplacian Delta = d*d of a periodic lattice field.

    The second-order central stencil: sum over axes, in order from zeros,
    of (2u - roll(u, 1) - roll(u, -1)) / h^2, which annihilates constants
    exactly and is symmetric, so sum(Delta u) = 0 in exact arithmetic.  Its
    symbol on cos(2 pi x_j / L_j) is (2 - 2 cos(2 pi h_j / L_j)) / h_j^2.
    """
    u = grid.check_field(u)
    out = np.zeros_like(u)
    for ax, h in enumerate(grid.spacings):
        out += (2.0 * u - np.roll(u, 1, ax) - np.roll(u, -1, ax)) / h**2
    return out


def gradient_energy_density(grid: ConformalGrid, u: np.ndarray) -> np.ndarray:
    """Forward-difference |du|^2, the sum over axes, in order from zeros, of
    ((roll(u, -1) - u) / h)^2: the exact summation-by-parts partner of the
    stencil Laplacian, sum(u * Delta u) = sum(|du|^2) identically."""
    u = grid.check_field(u)
    out = np.zeros_like(u)
    for ax, h in enumerate(grid.spacings):
        out += ((np.roll(u, -1, ax) - u) / h) ** 2
    return out


def conformal_scalar(grid: ConformalGrid, u) -> np.ndarray:
    """Scalar curvature of u^ell g over the flat base: s_hat = (n-1) ell Delta u / u^(ell+1)."""
    u = _as_factor(grid, u)
    n, ell = grid.n_dim, grid.ell
    return (n - 1) * ell * laplacian(grid, u) / u ** (ell + 1.0)


def yamabe_quotient(grid: ConformalGrid, u, energy: float | None = None,
                    volume: float | None = None) -> float:
    """Normalized total scalar curvature of u^ell g, the Yamabe functional.

    The total scalar curvature reduces to the energy int (n-1) ell |du|^2 dmu
    for every n: the pullback leaves exactly one power of u, and summation
    by parts trades u * Delta u for |du|^2 exactly.  Dividing by the volume
    int u^(2n/(n-2)) dmu to the power (n-2)/n makes it invariant under u -> cu.
    ``energy``, when given, is the lattice sum of |du|^2 computed elsewhere
    (the descent takes it from u's spectrum); without it the sum is the
    stencil's, ``gradient_energy_density``, which defines the quotient.
    ``volume``, when given, is that volume integral computed elsewhere (the
    descent reuses it to renormalize); without it the u^p pass is taken here.
    u must be positive where its values are read: given both, only its
    shape is checked, as the descent has checked each candidate it prices.
    """
    u = grid.check_field(u) if energy is not None and volume is not None else _as_factor(grid, u)
    n, ell = grid.n_dim, grid.ell
    # |du|^2 point by point, or its lattice sum: integrate sums either
    du2 = gradient_energy_density(grid, u) if energy is None else energy
    total = grid.integrate((n - 1) * ell * du2)
    vol = grid.integrate(u ** (2.0 * n / (n - 2))) if volume is None else volume
    return total / vol ** ((n - 2.0) / n)


def _sobolev_inverse(grid: ConformalGrid):
    """The map g -> v solving v + 2(n-1) ell Delta v = g, Delta the stencil,
    and the stencil energy by Parseval.

    Applied by FFT with the stencil's exact symbol
    sigma = sum_j (2 - 2 cos k_j h_j) / h_j^2, so it inverts the lattice
    operator to rounding, not a continuum approximation of it.  sigma is
    built once, as a broadcast of one factor per axis over the rfftn
    half-spectrum.  The same sigma prices a field v: the lattice sum of
    |dv|^2 is sum_k sigma(k) |v_hat(k)|^2 / N over the N lattice points.

    Returns ``(apply, field_energy)``, which share one half-spectrum and one
    scratch spectrum, allocated here: every transform writes into them, so
    no call allocates a spectrum.  ``apply(g, out)`` writes S g into
    ``out`` and returns its energy, read off the spectrum the inverse
    already forms; it uses g as scratch, so ``out`` may be g.  The inverse
    runs numpy's irfftn stage by stage, ifft over the leading axes into the
    scratch spectrum, then irfft over the last axis into ``out``, so its
    result is irfftn's bit for bit.  The one call
    ``np.fft.irfftn(spectrum, s=grid.shape, axes=axes, out=out)`` gives the
    same bits and leaves the spectrum as it is, but numpy passes ``out`` to
    its last stage alone and allocates a fresh complex spectrum at each
    leading axis; on 20^4 (numpy 2.4.6, 400 alternating calls each) it took
    2.35 ms at best against 1.33-1.39 ms for the stages, so they stay.
    ``field_energy(v, shifted)`` takes one rfftn of v, shifted in the real
    lattice array ``shifted``.  Both transform the field minus one of its
    values, which changes no k != 0 coefficient and sigma(0) = 0, so a
    constant has spectrum, energy and image exactly 0.0, 0.0 and itself.
    """
    n, ell = grid.n_dim, grid.ell
    axes = tuple(range(n))
    # k_j h_j = 2 pi m / N_j whatever the period, so each factor needs only h_j
    sigma = np.zeros(())
    for ax, h in enumerate(grid.spacings):
        freq = (np.fft.rfftfreq if ax == n - 1 else np.fft.fftfreq)(grid.shape[ax])
        shape = [1] * n
        shape[ax] = freq.size
        sigma = sigma + ((2.0 - 2.0 * np.cos(2.0 * np.pi * freq)) / h**2).reshape(shape)
    inverse_symbol = 1.0 / (1.0 + 2.0 * (n - 1) * ell * sigma)
    # the half-spectrum holds each interior plane of the last axis for itself
    # and its conjugate; the zero plane, and the Nyquist plane of an even
    # count, stand for themselves alone
    planes = np.full(grid.shape[-1] // 2 + 1, 2.0)
    planes[0] = 1.0
    if grid.shape[-1] % 2 == 0:
        planes[-1] = 1.0
    points = math.prod(grid.shape)
    weight = sigma * planes / points
    spectrum = np.empty(weight.shape, dtype=complex)
    scratch = np.empty_like(spectrum)

    def spectral_energy() -> float:
        # |c|^2 formed in the spectrum's own storage, which no later stage
        # reads, so no half-spectrum is allocated
        power = spectrum.real
        np.square(power, out=power)
        np.square(spectrum.imag, out=spectrum.imag)
        power += spectrum.imag
        # einsum reads the strided view in place, where a dot would copy it
        return float(np.einsum(weight, list(axes), power, list(axes), []))

    def field_energy(v: np.ndarray, shifted: np.ndarray) -> float:
        np.subtract(v, v.flat[0], out=shifted)
        np.fft.rfftn(shifted, out=spectrum)
        return spectral_energy()

    def apply(g: np.ndarray, out: np.ndarray) -> float:
        shift = g.flat[0]
        g -= shift
        np.fft.rfftn(g, out=spectrum)
        np.multiply(spectrum, inverse_symbol, out=spectrum)
        # S fixes constants: the mean goes back as one scalar after the
        # transform, so a large mean costs the varying part no digits
        mean = shift + spectrum.flat[0].real / points
        spectrum.flat[0] = 0.0
        # irfftn's stages in its order, each into preallocated storage
        np.fft.ifft(spectrum, axis=0, out=scratch)
        for ax in axes[1:-1]:
            np.fft.ifft(scratch, axis=ax, out=scratch)
        np.fft.irfft(scratch, n=grid.shape[-1], axis=n - 1, out=out)
        out += mean
        return spectral_energy()

    return apply, field_energy


def _h1_gradient(grid: ConformalGrid, sobolev, u: np.ndarray, q: float, out: np.ndarray) -> float:
    """Full step against the H1 gradient of the quotient at u of unit
    volume, whose energy is q, written into ``out``; returns the stencil
    energy of that step.

    The L2 gradient is c Delta u - r with c = 2(n-1) ell and
    r = ((n-2)/n) q p u^(p-1); the lattice measure cancels from the
    direction and would only shrink the step by a factor N^-n.  ``sobolev``
    is the ``apply`` of S = (1 + c Delta)^-1, so the H1 gradient is
    S(c Delta u - r) = u - S(u + r), and the full step u - (u - S(u + r))
    is S(u + r) itself: one FFT pair, no Laplacian, and its energy from the
    spectrum S already forms.  u + r is formed in ``out``, u^(p-1) first,
    and S overwrites it there with its image.
    """
    n = grid.n_dim
    p = 2.0 * n / (n - 2)
    w = (n - 2.0) / n
    np.power(u, p - 1.0, out=out)
    out *= w * q * p
    out += u
    return sobolev(out, out)


@dataclass
class DescentResult:
    """Outcome of a projected-gradient Yamabe minimization."""

    u_star: np.ndarray
    quotient_star: float
    iterations: int
    converged: bool
    trace: list[tuple[int, float, float]] = field(default_factory=list)


def minimize_yamabe(
    grid: ConformalGrid,
    u0,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> DescentResult:
    """Projected Sobolev-gradient descent on the Yamabe quotient.

    Each step moves against the H1 (Sobolev) gradient of the quotient: the
    L2 gradient mapped through S = (1 + 2(n-1) ell sigma)^-1, where sigma is
    the exact Fourier symbol of the stencil Laplacian, applied by FFT.  The
    factor 2(n-1) ell is the weight of Delta u in the L2 gradient, so the
    stiff high-frequency modes that would hold an L2 step near 2^-14 are
    taken at unit step, and S turns the gradient into u - S(u + r), with r
    the volume term: an iteration costs one FFT pair and no Laplacian.  The
    step backtracks by halving from 1.0 until the quotient does not increase
    and u stays positive.  The quotient is scale invariant, so a candidate
    is evaluated as it is, and only the accepted one is renormalized to unit
    conformal volume, by the volume its quotient already took: one u^p pass
    per candidate.  Every candidate is priced by ``yamabe_quotient`` with
    its energy by Parseval: the full step is S(u + r), whose spectrum S
    forms (its price is that of S(u + r) before irfftn rounds it, which at a
    quotient of rounding size, about 1e-20 on 20^4, reads a few digits off
    the stencil's), and a halved step takes one rfftn of its own.  Only the
    starting quotient is taken by the stencil.  Each lattice array, real or
    spectral, is allocated once per call and written in place by every
    iteration, so u0 may be read-only (a broadcast view, say) and
    ``u_star`` is a fresh array.  Stops on a zero quotient (every lattice
    difference of u is 0, where the L2 gradient is exactly 0) or once the
    relative decrease of the quotient falls below tol, which must be finite
    and non-negative; ``max_iters`` must be non-negative.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be non-negative, got {max_iters!r}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    p = 2.0 * grid.n_dim / (grid.n_dim - 2)
    u0 = _as_factor(grid, u0)
    sobolev, field_energy = _sobolev_inverse(grid)
    # the iterate, the full step, a halved step, and the scratch for u^p and
    # for a halved step's shifted copy
    u, full, halved, work = (np.empty(grid.shape) for _ in range(4))
    np.divide(u0, grid.integrate(np.power(u0, p, out=work)) ** (1.0 / p), out=u)
    q = yamabe_quotient(grid, u)
    trace = [(0, q, 0.0)]
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        # the energy is a sum of squares, so q >= 0 and q == 0 is the minimum
        if q == 0.0:
            converged = True
            break
        energy = _h1_gradient(grid, sobolev, u, q, full)
        cand, step = full, 1.0
        for _ in range(60):
            if _positive(cand):
                if step < 1.0:
                    # u - step (u - S(u + r)) is priced by one rfftn of its own
                    energy = field_energy(cand, work)
                vol = grid.integrate(np.power(cand, p, out=work))
                q_new = yamabe_quotient(grid, cand, energy=energy, volume=vol)
                if q_new <= q:
                    break
            step *= 0.5
            cand = np.subtract(u, full, out=halved)
            cand *= step
            np.subtract(u, cand, out=cand)
        else:
            raise RuntimeError("line search failed: no positive decreasing step")
        iterations = it
        np.divide(cand, vol ** (1.0 / p), out=u)
        q_prev, q = q, q_new
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
    dmu_hat = u ** (2.0 * n / (n - 2))
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
