"""Exact arithmetic helpers: dense rational polynomials and Gaussian rationals.

Polynomials are tuples of ``fractions.Fraction`` coefficients in ascending
powers.  Everything here is exact; floating point only enters when a caller
converts coefficients at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

RatPoly = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def poly_trim(coeffs) -> RatPoly:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(Fraction(x) for x in c)


def poly_add(p: RatPoly, q: RatPoly) -> RatPoly:
    n = max(len(p), len(q))
    return poly_trim(
        (p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO) for i in range(n)
    )


def poly_scale(p: RatPoly, c) -> RatPoly:
    c = Fraction(c)
    return poly_trim(x * c for x in p)


def poly_mul(p: RatPoly, q: RatPoly) -> RatPoly:
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_eval(p: RatPoly, x):
    """Horner evaluation; exact if x is a Fraction."""
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def poly_derivative(p: RatPoly, order: int = 1) -> RatPoly:
    c = list(p)
    for _ in range(order):
        c = [c[i] * i for i in range(1, len(c))] or [ZERO]
    return poly_trim(c)


def binomial_one_minus_r(ell: int) -> RatPoly:
    """(1 - r)^ell as an exact polynomial."""
    return tuple(Fraction((-1) ** j * comb(ell, j)) for j in range(ell + 1))


COS_PARITY = 0
SIN_PARITY = 1


def trig_series(parity: int, order: int) -> RatPoly:
    """Maclaurin coefficients of cos (parity 0) or sin (parity 1) through r^order."""
    c = [ZERO] * (order + 1)
    for t in range(parity, order + 1, 2):
        n = (t - parity) // 2
        c[t] = Fraction((-1) ** n, factorial(t))
    return tuple(c)


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real/imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, o):
        o = _coerce(o)
        return GaussianRational(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = _coerce(o)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = _coerce(o)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def power(self, n: int) -> "GaussianRational":
        base = self if n >= 0 else self.inverse()
        out = GR_ONE
        for _ in range(abs(n)):
            out = out * base
        return out

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


GR_ZERO = GaussianRational(ZERO, ZERO)
GR_ONE = GaussianRational(ONE, ZERO)
GR_I = GaussianRational(ZERO, ONE)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(Fraction(x), ZERO)


def gpoly_mul(p: list[GaussianRational], q: list[GaussianRational]) -> list[GaussianRational]:
    out = [GR_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def gpoly_add(p: list[GaussianRational], q: list[GaussianRational]) -> list[GaussianRational]:
    n = max(len(p), len(q))
    get = lambda v, i: v[i] if i < len(v) else GR_ZERO
    return [get(p, i) + get(q, i) for i in range(n)]


def gpoly_scale(p: list[GaussianRational], c: GaussianRational) -> list[GaussianRational]:
    return [c * a for a in p]


def shifted_inverse_power_series(c: GaussianRational, power: int, order: int) -> list[GaussianRational]:
    """Taylor coefficients of (c + u)^(-power) in u through u^order.

    Requires c != 0.  Coefficient of u^n is (-1)^n C(power-1+n, n) c^(-power-n).
    """
    inv = c.inverse()
    out = []
    for n in range(order + 1):
        coef = GaussianRational.of(Fraction((-1) ** n * comb(power - 1 + n, n)))
        out.append(coef * inv.power(power + n))
    return out
