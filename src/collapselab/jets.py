"""Second-order jets (value, first and second derivative) for exact
differentiation of radial metric profiles.

Curvature of a cohomogeneity-one metric needs two r-derivatives of the
profile functions, so a second-order forward-mode jet is exactly what the
frame engine consumes.  All arithmetic propagates derivatives exactly via
the product/chain rules; no finite differencing happens anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Jet2:
    """Truncated Taylor data (f, f', f'') of a function at a point."""

    value: float
    d1: float = 0.0
    d2: float = 0.0

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
        if self.value <= 0.0 and not float(p).is_integer():
            raise ValueError("Jet2 power of non-positive base with fractional exponent")
        v = self.value ** p
        return self._compose(v, p * self.value ** (p - 1), p * (p - 1) * self.value ** (p - 2))

    def reciprocal(self):
        if self.value == 0.0:
            raise ZeroDivisionError("Jet2 reciprocal at zero value")
        v = 1.0 / self.value
        return self._compose(v, -v * v, 2.0 * v ** 3)

    # -- elementary functions --------------------------------------------

    def sqrt(self):
        if self.value <= 0.0:
            raise ValueError("Jet2 sqrt of non-positive value")
        v = math.sqrt(self.value)
        return self._compose(v, 0.5 / v, -0.25 / (v * self.value))

    def exp(self):
        v = math.exp(self.value)
        return self._compose(v, v, v)

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(s, c, -s)

    def _compose(self, h, dh, d2h):
        """Chain rule for outer function h with derivatives at self.value."""
        return Jet2(h, dh * self.d1, d2h * self.d1 * self.d1 + dh * self.d2)


def _coerce(x) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return Jet2(float(x))


def variable(r: float) -> Jet2:
    """The identity jet at r: d/dr r = 1."""
    return Jet2(float(r), 1.0, 0.0)


def constant(c: float) -> Jet2:
    return Jet2(float(c))
