"""Cohomogeneity-one curvature engine for diagonal SU(2)-invariant metrics

    g = f(r)^2 dr^2 + a(r)^2 s1^2 + b(r)^2 s2^2 + c(r)^2 s3^2,

with the left-invariant coframe normalised by ds1 = 2 s2^s3 (cyclic), i.e.
{s_i} is orthonormal for the curvature +1 bi-invariant metric on S^3.
Profiles are second-order jets, so all curvature components come from exact
derivatives; nothing is finite-differenced.  The engine is batched: one call
evaluates a whole array of radii (a sample grid, or the nodes of one
quadrature round), with the same bits per radius as a call on that radius
alone (docs/conventions.md, "Batched radial engine").
"""

from __future__ import annotations

import enum
import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frame_curvature import CurvatureFrame, frame_from_riemann, riemann_tensor
from .jets import Jet2, constant, variable

# ds1 = 2 s2^s3 (cyclic) corresponds to [X_i, X_j] = -2 eps_ijk X_k for the
# dual left-invariant vector fields.
STRUCTURE_SIGN = -2.0

ProfileJets = Callable[[Jet2], tuple[Jet2, Jet2, Jet2, Jet2]]


@dataclass(frozen=True)
class RadialProfile:
    """The jet map r -> (f, a, b, c) of the four profile functions and the
    radial domain (r_min, r_max].  The map acts element by element, so a
    jet of radii gives jets of profile values, one per radius."""

    jets: ProfileJets
    r_min: float
    r_max: float = math.inf

    def at(self, r) -> tuple[Jet2, Jet2, Jet2, Jet2]:
        return self.jets(variable(r))


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


class Preset(enum.Enum):
    EGUCHI_HANSON = "eguchi-hanson"
    BURNS = "burns"
    FLAT = "flat"
    ROUND = "round"


def w_ansatz_profile(h: Callable[[Jet2], Jet2], r_min: float) -> RadialProfile:
    """The W-ansatz f = W^-1/2, a = b = r, c = r W^1/2 with W = 1 - h(r), on
    r > r_min: both instantons and every cutoff cap.  W and its square root
    are computed once per radius."""

    def jets(x: Jet2) -> tuple[Jet2, Jet2, Jet2, Jet2]:
        root = (1.0 - h(x)).sqrt()
        return root.reciprocal(), x, x, x * root

    return RadialProfile(jets, r_min)


def w_ansatz_riemann(h: Jet2, r) -> np.ndarray:
    """Frame Riemann tensor at r of the W-ansatz (``w_ansatz_profile``),
    from the jet (h, h', h'') of h at r; an array r (and jet) gives one
    tensor per radius, on leading axes.

    Every component is linear in h, h' and h'' (docs/conventions.md).  With
    k = h' / 2r the independent ones are

        R_1212 = -4 h / r^2,   R_0303 = -3 k - h'' / 2,   R_0312 = -2 k,
        R_0101 = R_0202 = R_1313 = R_2323 = -k,   R_0123 = -R_0213 = k,

    and the others follow from R_abcd = -R_bacd = -R_abdc = R_cdab.
    """
    k = 0.5 * h.d1 / r
    riem = np.zeros(np.shape(r) + (4, 4, 4, 4))
    for (a, b, c, d), v in (
        ((1, 2, 1, 2), -4.0 * h.value / (r * r)),
        ((0, 3, 0, 3), -3.0 * k - 0.5 * h.d2),
        ((0, 3, 1, 2), -2.0 * k),
        ((0, 1, 0, 1), -k),
        ((0, 2, 0, 2), -k),
        ((1, 3, 1, 3), -k),
        ((2, 3, 2, 3), -k),
        ((0, 1, 2, 3), k),
        ((0, 2, 1, 3), -k),
    ):
        riem[..., a, b, c, d] = riem[..., b, a, d, c] = v
        riem[..., c, d, a, b] = riem[..., d, c, b, a] = v
        riem[..., b, a, c, d] = riem[..., a, b, d, c] = -v
        riem[..., d, c, a, b] = riem[..., c, d, b, a] = -v
    return riem


def eguchi_hanson_profile(A: float) -> RadialProfile:
    """The W-ansatz with h = A/r^4, r > A^(1/4)."""
    if not 0.0 < A < math.inf:
        raise ValueError(f"Eguchi-Hanson parameter A must be positive and finite, got {A!r}")
    return w_ansatz_profile(lambda x: A / (x * x * x * x), A**0.25)


def burns_profile() -> RadialProfile:
    """The W-ansatz with h = 1/r^2, r > 1."""
    return w_ansatz_profile(lambda x: 1.0 / (x * x), 1.0)


def flat_profile(r_max: float = math.inf) -> RadialProfile:
    """Slope-1 cone: f = 1, a = b = c = r (Euclidean R^4 in polar form)."""
    return RadialProfile(lambda x: (constant(1.0), x, x, x), 0.0, r_max)


def round_profile(radius: float = 1.0) -> RadialProfile:
    """Geodesic-polar chart of the round 4-sphere: a = b = c = R sin(r/R)."""
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")

    def jets(x: Jet2) -> tuple[Jet2, Jet2, Jet2, Jet2]:
        s = radius * (x / radius).sin()
        return constant(1.0), s, s, s

    return RadialProfile(jets, 0.0, math.pi * radius)


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


def _structure_functions(metric: RadialMetric, r: np.ndarray):
    """Frame structure functions <[E_a,E_b],E_c> and their r-derivatives at
    each radius of r, with shape r.shape + (4, 4, 4), and the scale of E_0."""
    f, a, b, c = metric.profile.at(r)
    abc = [a, b, c]
    struct = np.zeros(r.shape + (4, 4, 4))
    struct_d1 = np.zeros(r.shape + (4, 4, 4))
    for i in range(3):
        # [E_0, E_i] = -(a_i'/(f a_i)) E_i; only value and d1 of q are used,
        # so the (unknown) third profile derivative never enters.
        ai = abc[i]
        q = Jet2(ai.d1, ai.d2, 0.0) / (f * ai)
        struct[..., 0, i + 1, i + 1] = -q.value
        struct[..., i + 1, 0, i + 1] = q.value
        struct_d1[..., 0, i + 1, i + 1] = -q.d1
        struct_d1[..., i + 1, 0, i + 1] = q.d1
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        # [E_i, E_j] = sign * (a_k / (a_i a_j)) E_k
        s = STRUCTURE_SIGN * abc[k] / (abc[i] * abc[j])
        struct[..., i + 1, j + 1, k + 1] = s.value
        struct[..., j + 1, i + 1, k + 1] = -s.value
        struct_d1[..., i + 1, j + 1, k + 1] = s.d1
        struct_d1[..., j + 1, i + 1, k + 1] = -s.d1
    return struct, struct_d1, 1.0 / f.value


def curvature_at(metric: RadialMetric, r) -> CurvatureFrame:
    """Curvature data in the orthonormal frame (f dr, a s1, b s2, c s3) at
    radius r, or at every radius of an array r in one batch: the fields of
    the frame then carry r's shape as leading axes, and ``frame[i]`` is the
    frame at r[i].  A float r is a batch of one."""
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    inside = (metric.r_min < rs) & (rs < metric.r_max)
    if not inside.all():
        raise ValueError(f"r={rs[~inside][0]} outside domain ({metric.r_min}, {metric.r_max})")
    frame = frame_from_riemann(riemann_tensor(*_structure_functions(metric, rs)))
    return frame if np.ndim(r) else frame[0]


def _check_range(metric: RadialMetric, r_lo: float, r_hi: float) -> None:
    """Raise ValueError unless r_min <= r_lo < r_hi <= r_max: [r_lo, r_hi]
    lies in the metric's domain, whatever grid is later laid on it."""
    if not metric.r_min <= r_lo < r_hi <= metric.r_max:
        raise ValueError(f"radial range [{r_lo}, {r_hi}] is inverted or outside the domain"
                         f" [{metric.r_min}, {metric.r_max}]")


def sample_grid(r_lo: float, r_hi: float, samples: int) -> np.ndarray:
    """Nested geometric grid in (r_lo, r_hi), a finite range."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < r_lo < r_hi < math.inf:
        raise ValueError("empty or invalid radial range")
    ratio = r_hi / r_lo
    if not math.isfinite(ratio):
        raise ValueError(f"radial range [{r_lo}, {r_hi}] is too wide: r_hi / r_lo overflows")
    # van der Corput base 2: k's binary digits mirrored about the binary point,
    # exact dyadics in (0, 1) whose prefixes nest: suprema never fall as samples grow
    k, width = np.arange(1, samples + 1), int(samples).bit_length()
    mirrored = sum(((k >> d) & 1) << (width - 1 - d) for d in range(width))
    return r_lo * ratio ** (mirrored / 2.0**width)


# QUADPACK's qk21 rule (Piessens et al., 1983) on [-1, 1]: the 10 positive
# Kronrod nodes, largest first, their Kronrod weights, and the Gauss weights
# of the 5 positive Gauss nodes among them (the 2nd, 4th, ..., 10th).
_KRONROD_HALF = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_KRONROD_HALF_WEIGHTS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_KRONROD_CENTRE_WEIGHT = 0.149445554002916905664936468389821
_GAUSS_HALF_WEIGHTS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# All 21 nodes from +1 to -1; the Gauss nodes are _GK21_NODES[1::2].
_GK21_NODES = _KRONROD_HALF + (0.0,) + tuple(-x for x in reversed(_KRONROD_HALF))
_GK21_KRONROD = (_KRONROD_HALF_WEIGHTS + (_KRONROD_CENTRE_WEIGHT,)
                 + tuple(reversed(_KRONROD_HALF_WEIGHTS)))
_GK21_GAUSS = _GAUSS_HALF_WEIGHTS + tuple(reversed(_GAUSS_HALF_WEIGHTS))
_GK21_X = np.array(_GK21_NODES)

# Panels at which the adaptive bisection gives up (status 1).
_PANEL_LIMIT = 10_000


def _max_norm(x) -> float:
    return float(np.max(np.abs(x)))


def _gk21(fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """(integrals, error estimates, rounding errors) of fn over the panels
    [lo[i], hi[i]] by the 21-point Gauss-Kronrod rule, with QUADPACK's error
    heuristic in the max norm.

    fn is called once, on the 21 nodes of every panel.  The sums run over
    the nodes of each panel in order, one after another, so every panel
    gets the bits of a rule applied to it alone.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    nodes = c[:, None] + h[:, None] * _GK21_X
    fv = np.asarray(fn(nodes.ravel()), dtype=float)
    # fv[j] holds node j of every panel
    fv = np.moveaxis(fv.reshape(nodes.shape + fv.shape[1:]), 1, 0)
    h = h.reshape(h.shape + (1,) * (fv.ndim - 2))
    s_k = s_k_abs = 0.0
    for v, y in zip(_GK21_KRONROD, fv):
        s_k += v * y
        s_k_abs += v * abs(y)
    s_g = 0.0
    for w, y in zip(_GK21_GAUSS, fv[1::2]):
        s_g += w * y
    y0 = s_k / 2.0
    s_k_dabs = 0.0
    for v, y in zip(_GK21_KRONROD, fv):
        s_k_dabs += v * abs(y - y0)
    value_axes = tuple(range(1, fv.ndim - 1))
    errs = np.max(np.abs((s_k - s_g) * h), axis=value_axes).tolist()
    dabs = np.max(np.abs(s_k_dabs * h), axis=value_axes).tolist()
    rounds = np.max(np.abs(50 * sys.float_info.epsilon * h * s_k_abs), axis=value_axes).tolist()
    for i, (err, d, round_err) in enumerate(zip(errs, dabs, rounds)):
        if d != 0 and err != 0:
            err = d * min(1.0, (200 * err / d) ** 1.5)
        if round_err > sys.float_info.min:
            err = max(err, round_err)
        errs[i] = err
    return h * s_k, errs, rounds


def _adaptive_gk21(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float):
    """(integral, error estimate, status) of fn over [a, b], b possibly +inf.

    fn maps an array of nodes to their values, with the node axis first.
    Globally adaptive bisection as scipy's ``quad_vec`` runs it with
    ``epsabs = epsrel = tol`` and ``norm="max"``, bit for bit on finite
    ranges (given an fn whose values do not depend on the batch): each
    round bisects the panels of largest error (at most 128, and no more once
    they carry all but tol/8 of the global error), evaluates fn once on the
    nodes of all their halves, and checks convergence, so never on the
    single starting panel.  Status 0 converged, 1 panel limit, 2 rounding
    error dominates, 3 non-finite error.
    An infinite b is mapped to t in (0, 1] by x = a + (1 - t) / t,
    dx = dt / t^2, as ``quad_vec`` maps it, on the same 21-point rule.
    """
    if math.isinf(b):
        def mapped(t: np.ndarray) -> np.ndarray:
            y = np.asarray(fn(a + (1 - t) / t), dtype=float)
            t = t.reshape(t.shape + (1,) * (y.ndim - 1))
            return y / t / t

        return _adaptive_gk21(mapped, 0.0, 1.0, tol)
    ints, errs, rounds = _gk21(fn, np.array([a]), np.array([b]))
    integral, global_err, rounding = ints[0], errs[0], rounds[0]
    # distinct panels have distinct lo, and a NaN error decides the tuple
    # comparison, so the panel integrals in the heap are never compared
    heap = [(-global_err, a, b, integral)]
    status = 1
    while len(heap) < _PANEL_LIMIT:
        target = max(tol, tol * _max_norm(integral))
        batch, err_sum = [], 0.0
        while heap and len(batch) < 128:
            if batch and err_sum > global_err - target / 8:
                break
            batch.append(heapq.heappop(heap))
            err_sum -= batch[-1][0]
        los = np.array([p[1] for p in batch])
        his = np.array([p[2] for p in batch])
        mids = 0.5 * (los + his)
        # the halves of panel k are panels 2k and 2k + 1
        ends = np.stack([los, mids, his], axis=1)
        ints, errs, rounds = _gk21(fn, ends[:, :2].ravel(), ends[:, 1:].ravel())
        for k, (neg_err, lo, hi, old_int) in enumerate(batch):
            mid = float(mids[k])
            s1, s2 = ints[2 * k], ints[2 * k + 1]
            err1, err2 = errs[2 * k], errs[2 * k + 1]
            integral = integral + (s1 + s2 - old_int)
            global_err += err1 + err2 + neg_err
            rounding += rounds[2 * k] + rounds[2 * k + 1]
            heapq.heappush(heap, (-err1, lo, mid, s1))
            heapq.heappush(heap, (-err2, mid, hi, s2))
        target = max(tol, tol * _max_norm(integral))
        if global_err < target / 8:
            status = 0
            break
        if global_err < rounding:
            status = 2
            break
        if not (math.isfinite(global_err) and math.isfinite(rounding)):
            status = 3
            break
    return integral, global_err + rounding, status


def _integrate(
    metric: RadialMetric,
    pointwise: Callable[[np.ndarray], object],
    r_lo: float,
    r_hi: float,
    tol: float,
) -> np.ndarray:
    """link_volume * int pointwise(r) f a b c dr over [r_lo, r_hi].

    ``pointwise`` maps an array of radii to their values, scalar or vector,
    with the radius axis first (a constant may be returned as one value);
    every component comes from the same evaluation at each node.  Globally
    adaptive 21-point Gauss-Kronrod quadrature (``_adaptive_gk21``, a port
    of scipy's ``quad_vec``) with absolute and relative tolerance ``tol`` in
    the max norm; r_hi may be +inf.  Raises RuntimeError unless the
    quadrature converged with error estimate at most
    max(tol, tol * max|value|).
    """

    def weighted(r: np.ndarray) -> np.ndarray:
        f, a, b, c = metric.profile.at(r)
        values = np.asarray(pointwise(r), dtype=float)
        weight = f.value * a.value * b.value * c.value
        return values * weight.reshape(weight.shape + (1,) * (values.ndim - weight.ndim))

    val, err, status = _adaptive_gk21(weighted, r_lo, r_hi, tol)
    if status != 0 or not err <= max(tol, tol * _max_norm(val)):
        raise RuntimeError(
            f"radial quadrature over [{r_lo:.6g}, {r_hi:.6g}] did not converge"
            f" (status {status}, error {err:.3g})"
        )
    return metric.link_volume * val


# Tolerance of every curvature integral; volumes use 1e-12 (``volume``).
_CURVATURE_QUAD_TOL = 1e-10


def volume(metric: RadialMetric, r_lo: float, r_hi: float) -> float:
    """int f a b c dr over [r_lo, r_hi], times the link volume, to 1e-12
    absolute or relative (see ``_integrate``)."""
    _check_range(metric, r_lo, r_hi)
    return float(_integrate(metric, lambda r: 1.0, r_lo, r_hi, 1e-12))
