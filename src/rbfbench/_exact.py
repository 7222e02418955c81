"""Exact helpers: dense rational polynomials and a Gaussian-rational value.

Polynomials are tuples of ``fractions.Fraction`` coefficients in ascending
powers.  Everything here is exact; floating point only enters when a caller
converts coefficients at the end and hands them to poly_eval.
``GaussianRational`` only holds the exact real and imaginary parts of a
partial-fraction coefficient; it does no arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

RatPoly = tuple[Fraction, ...]

ZERO = Fraction(0)


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


def poly_eval(p: RatPoly, x):
    """Horner evaluation, exact for Fraction p and x.

    Also the float evaluator: p a tuple of floats and x an array.  A
    one-coefficient p returns that coefficient, for the caller to broadcast.
    """
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def poly_derivative(p: RatPoly, order: int = 1) -> RatPoly:
    c = list(p)
    for _ in range(order):
        c = [c[i] * i for i in range(1, len(c))] or [ZERO]
    return poly_trim(c)


def poly_integral(p: RatPoly) -> RatPoly:
    """The antiderivative of p that vanishes at 0."""
    return poly_trim([ZERO] + [c / (i + 1) for i, c in enumerate(p)])


def binomial_one_minus_r(ell: int) -> RatPoly:
    """(1 - r)^ell as an exact polynomial."""
    return tuple(Fraction((-1) ** j * comb(ell, j)) for j in range(ell + 1))


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real/imaginary parts."""

    re: Fraction
    im: Fraction
