"""Second-order jets (value, first and second derivative) for exact
differentiation of radial metric profiles.

Curvature of a cohomogeneity-one metric needs two r-derivatives of the
profile functions, so a second-order forward-mode jet is exactly what the
frame engine consumes.  All arithmetic propagates derivatives exactly via
the product/chain rules; no finite differencing happens anywhere.

The fields of a jet are floats or ndarrays of one common batch shape, one
element per radius (vector forward mode: Griewank and Walther, *Evaluating
Derivatives*, 2008).  Every operation acts element by element and rounds
each element exactly as on floats: + - * / and sqrt round alike in numpy
and in Python, and exp, sin, cos and powers map libm over the elements
(``_libm``), because numpy's own vector versions round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np


def _any(mask) -> bool:
    """True when a bool, or any element of a bool array, is true."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _libm(fn, x, *args):
    """fn (a libm function of one float, then the constant ``args``) over the
    elements of x; a float for a scalar x.  Builtins such as ``pow`` map
    without a Python frame per element."""
    if np.ndim(x) == 0:
        return fn(float(x), *args)
    values = map(fn, x.ravel().tolist(), *map(repeat, args))
    return np.fromiter(values, float, x.size).reshape(x.shape)


@dataclass(frozen=True)
class Jet2:
    """Truncated Taylor data (f, f', f'') of a function at a point, or at
    each point of a batch."""

    value: float | np.ndarray
    d1: float | np.ndarray = 0.0
    d2: float | np.ndarray = 0.0

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Jet2(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return Jet2(
            self.value * other.value,
            self.d1 * other.value + self.value * other.d1,
            self.d2 * other.value + 2.0 * self.d1 * other.d1 + self.value * other.d2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return _coerce(other) * self.reciprocal()

    def __pow__(self, p: float):
        if not float(p).is_integer() and _any(self.value <= 0.0):
            raise ValueError("Jet2 power of non-positive base with fractional exponent")
        return self._compose(
            _libm(pow, self.value, p),
            p * _libm(pow, self.value, p - 1),
            p * (p - 1) * _libm(pow, self.value, p - 2),
        )

    def reciprocal(self):
        if _any(self.value == 0.0):
            raise ZeroDivisionError("Jet2 reciprocal at zero value")
        v = 1.0 / self.value
        return self._compose(v, -v * v, 2.0 * _libm(pow, v, 3))

    # -- elementary functions --------------------------------------------

    def sqrt(self):
        if _any(self.value <= 0.0):
            raise ValueError("Jet2 sqrt of non-positive value")
        v = np.sqrt(self.value)
        return self._compose(v, 0.5 / v, -0.25 / (v * self.value))

    def exp(self):
        v = _libm(math.exp, self.value)
        return self._compose(v, v, v)

    def sin(self):
        s, c = _libm(math.sin, self.value), _libm(math.cos, self.value)
        return self._compose(s, c, -s)

    def _compose(self, h, dh, d2h):
        """Chain rule for outer function h with derivatives at self.value."""
        return Jet2(h, dh * self.d1, d2h * self.d1 * self.d1 + dh * self.d2)


def _coerce(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return Jet2(np.asarray(x, dtype=float) if np.ndim(x) else float(x))


def variable(r) -> Jet2:
    """The identity jet at r (a float or an array of radii): d/dr r = 1."""
    return Jet2(r if isinstance(r, np.ndarray) else float(r), 1.0, 0.0)


def constant(c: float) -> Jet2:
    return Jet2(float(c))
