"""Second-order jet arithmetic against finite differences."""

import math

import numpy as np
import pytest

from collapselab.jets import Jet2, constant, variable


def fd_jet(fn, x, h=1e-5):
    """Value and first two derivatives of a scalar function, numerically."""
    f0, fp, fm = fn(x), fn(x + h), fn(x - h)
    return f0, (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / h**2


FUNCS = [
    (lambda t: t.sqrt(), lambda x: math.sqrt(x)),
    (lambda t: t.exp(), lambda x: math.exp(x)),
    (lambda t: t.sin(), lambda x: math.sin(x)),
    (lambda t: t.reciprocal(), lambda x: 1.0 / x),
    (lambda t: t**3, lambda x: x**3),
    (lambda t: (t * t + 1.0) / (t.sin() + 2.0), lambda x: (x * x + 1) / (math.sin(x) + 2)),
]


@pytest.mark.parametrize("jet_fn,ref_fn", FUNCS)
def test_elementary_functions_match_finite_differences(jet_fn, ref_fn):
    for x in (0.3, 1.1, 2.7):
        jet = jet_fn(variable(x))
        v, d1, d2 = fd_jet(ref_fn, x)
        assert jet.value == pytest.approx(v, abs=1e-12)
        assert jet.d1 == pytest.approx(d1, rel=1e-8, abs=1e-8)
        assert jet.d2 == pytest.approx(d2, rel=1e-4, abs=1e-4)


def test_arithmetic_chain():
    x = 1.7
    jet = (variable(x) ** 4 - 2.0) * variable(x).exp() / variable(x)
    ref = lambda y: (y**4 - 2.0) * math.exp(y) / y
    v, d1, d2 = fd_jet(ref, x)
    assert jet.value == pytest.approx(v)
    assert jet.d1 == pytest.approx(d1, rel=1e-7)
    assert jet.d2 == pytest.approx(d2, rel=1e-4)


def test_constant_has_zero_derivatives():
    c = constant(4.2)
    assert (c.value, c.d1, c.d2) == (4.2, 0.0, 0.0)
    prod = c * variable(2.0)
    assert prod.d1 == 4.2 and prod.d2 == 0.0


def test_variable_seed():
    t = variable(0.9)
    assert (t.value, t.d1, t.d2) == (0.9, 1.0, 0.0)


def test_power_and_reciprocal_consistency():
    t = variable(1.3)
    lhs = t ** (-2)
    rhs = (t * t).reciprocal()
    assert lhs.value == pytest.approx(rhs.value)
    assert lhs.d1 == pytest.approx(rhs.d1)
    assert lhs.d2 == pytest.approx(rhs.d2)
