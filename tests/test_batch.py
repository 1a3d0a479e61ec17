"""A batch is the scalar engine, bit for bit.

Jets carry arrays and the curvature engine takes a leading batch axis; a
scalar call is a batch of one through the same code.  These properties pin
that every element of a batched result has exactly the bits of the same
computation on floats, including at arguments where numpy's vector exp and
power round unlike libm.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab.cutoff import BaseInstanton, CutoffFamily, modified_metric
from collapselab.jets import Jet2
from collapselab.radial import Preset, curvature_at, make_metric


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _disagreeing(vector_fn, libm_fn, xs: np.ndarray) -> np.ndarray:
    """The first 64 arguments in xs where numpy's vector function rounds
    unlike libm (on some hosts there are none)."""
    ref = np.array([libm_fn(x) for x in xs.tolist()])
    return xs[vector_fn(xs) != ref][:64]


def _chain(h, dh, d2h):
    """The float reference of a jet operation: outer function h with
    derivatives dh, d2h (floats of one argument, by libm), applied to the
    jet (v, a, b) with the chain rule in the order ``Jet2`` evaluates it."""
    return lambda v, a, b: (h(v), dh(v) * a, d2h(v) * a * a + dh(v) * b)


def _power(p):
    return _chain(lambda v: v**p, lambda v: p * v ** (p - 1), lambda v: p * (p - 1) * v ** (p - 2))


_GRID = np.linspace(0.1, 10.0, 20001)
# (name, jet operation, argument map, float reference or None, arguments
# where numpy's own vector version of the operation differs from libm)
_OPS = (
    ("exp", Jet2.exp, lambda v: -6.0 * v, _chain(math.exp, math.exp, math.exp),
     _disagreeing(np.exp, math.exp, -6.0 * _GRID)),
    ("sin", Jet2.sin, lambda v: 3.0 * v - 15.0,
     _chain(math.sin, math.cos, lambda v: -math.sin(v)),
     _disagreeing(np.sin, math.sin, 3.0 * _GRID - 15.0)),
    ("pow4", lambda j: j**4, lambda v: v, _power(4),
     _disagreeing(lambda x: np.power(x, 4.0), lambda x: x**4, _GRID)),
    ("pow-2", lambda j: j ** (-2), lambda v: v, _power(-2),
     _disagreeing(lambda x: np.power(x, -2.0), lambda x: x**-2, _GRID)),
    ("pow1.5", lambda j: j**1.5, lambda v: v, _power(1.5),
     _disagreeing(lambda x: np.power(x, 1.5), lambda x: x**1.5, _GRID)),
    ("reciprocal", Jet2.reciprocal, lambda v: v,
     _chain(lambda v: 1.0 / v, lambda v: -(1.0 / v) * (1.0 / v), lambda v: 2.0 * (1.0 / v) ** 3),
     _disagreeing(lambda x: np.power(1.0 / x, 3.0), lambda x: (1.0 / x) ** 3, _GRID)),
    ("sqrt", Jet2.sqrt, lambda v: v,
     _chain(math.sqrt, lambda v: 0.5 / math.sqrt(v), lambda v: -0.25 / (math.sqrt(v) * v)),
     _GRID[:0]),
    ("quotient", lambda j: (j * j + 1.0) / (j.sin() + 2.0), lambda v: v, None, _GRID[:0]),
)

_POINT = st.tuples(st.floats(0.1, 10.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_POINT, min_size=1, max_size=20))
def test_array_jet_ops_equal_scalar_ops_bit_for_bit(points):
    """Each element of an operation on an array jet has the bits of the
    same operation on a float jet, and those are the bits of the chain rule
    on Python floats through libm."""
    for name, op, arg, reference, hard in _OPS:
        value = np.concatenate([arg(np.array([p[0] for p in points])), hard])
        d1 = np.concatenate([[p[1] for p in points], np.linspace(-2.0, 2.0, len(hard))])
        d2 = np.concatenate([[p[2] for p in points], np.linspace(3.0, -1.0, len(hard))])
        batch = op(Jet2(value, d1, d2))
        for i, (v, a, b) in enumerate(zip(value.tolist(), d1.tolist(), d2.tolist())):
            point = op(Jet2(v, a, b))
            got = (point.value, point.d1, point.d2)
            assert _bits([f[i] for f in (batch.value, batch.d1, batch.d2)]) == _bits(got), (name, v)
            if reference is not None:
                assert _bits(got) == _bits(reference(v, a, b)), (name, v)


_FIELDS = ("riemann4", "ricci", "scalar", "w_plus_norm2", "w_minus_norm2",
           "ricci_traceless_norm2", "sup_ricci", "riemann_norm2")


def _assert_rows_are_scalar_calls(metric, radii: np.ndarray):
    batch = curvature_at(metric, radii)
    assert batch.scalar.shape == radii.shape
    for i, r in enumerate(radii.tolist()):
        point = curvature_at(metric, r)
        for field in _FIELDS:
            assert _bits(getattr(batch[i], field)) == _bits(getattr(point, field)), (field, r)
            assert _bits(getattr(batch, field)[i]) == _bits(getattr(point, field)), (field, r)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(list(Preset)), st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=16))
def test_batched_curvature_rows_equal_scalar_calls(preset, ts):
    metric = make_metric(preset)
    hi = metric.r_max if math.isfinite(metric.r_max) else 20.0
    lo = max(metric.r_min, 1e-4 * hi)
    _assert_rows_are_scalar_calls(metric, lo + (hi - lo) * np.array(ts))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(list(BaseInstanton)),
    st.floats(0.01, 0.99),
    st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=16),
)
def test_batched_cutoff_rows_equal_scalar_calls(base, eps, ts):
    """Radii across the core, the bump interior eps < r < 2 eps (always
    hit) and the flat end."""
    fam = CutoffFamily(base, eps)
    lo, hi = fam.r_bolt, 3.0 * eps
    interior = eps * np.array([1.01, 1.5, 1.99])
    radii = np.concatenate([lo + (hi - lo) * np.array(ts), interior])
    _assert_rows_are_scalar_calls(modified_metric(fam), radii)
