"""Wendland functions and Sobolev splines (Matern kernels) on R^d.

Wendland functions are constructed with exact rational arithmetic: starting
from the truncated power (1-r)^ell with ell = floor(d/2) + k + 1, the
integral operator f -> integral_r^1 t f(t) dt is applied k times and the
result expanded symbolically.  The resulting piecewise polynomial is C^{2k},
supported on the unit ball, and agrees with the classical tabulated Wendland
functions up to a positive rational factor.

Sobolev splines G_gamma are the kernels whose Fourier transform (under the
symmetric (2pi)^{-d/2} convention used throughout this package) equals
(1 + ||omega||^2)^(-gamma/2).  In physical space

    G_gamma(r) = r^nu K_nu(r) / (2^(gamma/2 - 1) Gamma(gamma/2)),
    nu = (gamma - d)/2,

which for odd d (half-integer nu) reduces to the elementary Matern form
exp(-r) times a polynomial of degree (gamma - d - 1)/2.  For even d the
modified-Bessel form is evaluated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
import sympy as sp
from scipy.special import kv

from ._exact import (
    RatPoly,
    ZERO,
    binomial_one_minus_r,
    poly_derivative,
    poly_eval,
    poly_trim,
)

__all__ = [
    "PiecewisePolyRadial",
    "SobolevSpline",
    "ScaledKernel",
    "SmoothnessError",
    "wendland_construct",
    "sobolev_spline_construct",
    "kernel_eval",
    "kernel_derivative",
    "wendland_coeff_json",
]

# Big-integer guard for exact construction.
MAX_DIM = 9
MAX_SMOOTHNESS = 5


class SmoothnessError(ValueError):
    """Requested derivative order exceeds the kernel's smoothness."""


def _float_horner(coeffs: tuple[float, ...], r: np.ndarray) -> np.ndarray:
    acc = np.full_like(r, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * r + c
    return acc


@dataclass(frozen=True)
class PiecewisePolyRadial:
    """Compactly supported radial kernel, polynomial in r on [0, 1].

    Attributes
    ----------
    coeffs : tuple of Fraction
        Exact coefficients, ascending powers of r.
    dim : int
        Spatial dimension the kernel is positive definite in.
    smoothness : int
        k such that the kernel is C^{2k} on R^d.
    """

    coeffs: RatPoly
    dim: int
    smoothness: int
    _fcoeffs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_fcoeffs", tuple(float(c) for c in self.coeffs))

    @property
    def support_radius(self) -> float:
        return 1.0

    def profile(self, r) -> np.ndarray:
        """Kernel value at radius r (vectorized); zero for r >= 1."""
        r = np.asarray(r, dtype=float)
        vals = _float_horner(self._fcoeffs, r)
        return np.where(r < 1.0, vals, 0.0)

    def radial_derivative(self, order: int) -> RatPoly:
        """Exact coefficients of the order-th derivative of the profile."""
        return poly_derivative(self.coeffs, order)

    def radial_series(self, order: int) -> RatPoly:
        """Taylor coefficients of the profile at r = 0 through r^order."""
        return poly_trim(list(self.coeffs[: order + 1]) + [ZERO] * max(0, order + 1 - len(self.coeffs)))


@lru_cache(maxsize=None)
def wendland_construct(d: int, k: int) -> PiecewisePolyRadial:
    """Build the Wendland function of dimension d and smoothness C^{2k}.

    Starts from (1-r)^ell, ell = floor(d/2) + k + 1, and applies the
    integral operator f -> integral_r^1 t f(t) dt exactly k times, expanding
    symbolically.  All coefficients are exact rationals; no normalization is
    applied, so the result matches the classical tabulated polynomials up to
    one positive rational factor.

    Raises
    ------
    ValueError
        If d < 1, k < 0, or (d, k) exceeds the exact-arithmetic guard.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if k < 0:
        raise ValueError(f"smoothness parameter must be >= 0, got k={k}")
    if d > MAX_DIM or k > MAX_SMOOTHNESS:
        raise ValueError(f"(d={d}, k={k}) exceeds the exact construction guard "
                         f"(d <= {MAX_DIM}, k <= {MAX_SMOOTHNESS})")
    ell = d // 2 + k + 1
    p = list(binomial_one_minus_r(ell))
    for _ in range(k):
        # I[p](r) = integral_r^1 t p(t) dt: term c_j r^j maps to
        # c_j/(j+2) - c_j/(j+2) r^{j+2}.
        out = [ZERO] * (len(p) + 2)
        const = ZERO
        for j, c in enumerate(p):
            if c == 0:
                continue
            const += c / (j + 2)
            out[j + 2] -= c / (j + 2)
        out[0] += const
        p = out
    kernel = PiecewisePolyRadial(poly_trim(p), d, k)
    _check_wendland_invariants(kernel)
    return kernel


def _check_wendland_invariants(K: PiecewisePolyRadial) -> None:
    if poly_eval(K.coeffs, ZERO) <= 0:
        raise AssertionError("Wendland construction produced non-positive value at 0")
    for order in range(2 * K.smoothness + 1):
        if poly_eval(poly_derivative(K.coeffs, order), Fraction(1)) != 0:
            raise AssertionError(
                f"derivative of order {order} does not vanish at the support boundary")


def wendland_coeff_json(K: PiecewisePolyRadial) -> dict:
    """Exact-coefficient JSON payload, ascending powers of r."""
    return {
        "d": K.dim,
        "k": K.smoothness,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in K.coeffs],
    }


@dataclass(frozen=True)
class SobolevSpline:
    """Radial kernel with Fourier transform (1 + ||omega||^2)^(-gamma/2).

    For odd dim the profile is prefactor * exp(-r) * poly(r) with exact
    rational poly coefficients; for even dim evaluation goes through the
    modified Bessel function K_nu of integer order nu = (gamma - dim)/2.
    """

    gamma: int
    dim: int
    nu: Fraction
    poly: RatPoly | None          # closed form, odd dim only
    prefactor: float
    _fpoly: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fp = tuple(float(c) for c in self.poly) if self.poly is not None else ()
        object.__setattr__(self, "_fpoly", fp)

    @property
    def support_radius(self) -> float:
        return np.inf

    def profile(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.poly is not None:
            return self.prefactor * np.exp(-r) * _float_horner(self._fpoly, r)
        return self.profile_bessel(r)

    def profile_bessel(self, r) -> np.ndarray:
        """Evaluation through K_nu; valid for any dim, used as fallback path."""
        r = np.asarray(r, dtype=float)
        nu = float(self.nu)
        scale = 1.0 / (2 ** (self.gamma / 2 - 1) * factorial(self.gamma // 2 - 1))
        at_zero = 2 ** (nu - 1) * float(sp.gamma(sp.Rational(self.nu))) * scale
        out = np.where(
            r > 0.0,
            scale * np.power(np.maximum(r, 1e-300), nu) * kv(nu, np.maximum(r, 1e-300)),
            at_zero,
        )
        return out

    def radial_series(self, order: int) -> RatPoly:
        """Exact Taylor coefficients of profile/prefactor at 0 (odd dim only)."""
        if self.poly is None:
            raise SmoothnessError("origin series unavailable for even dimension")
        exp_series = tuple(Fraction((-1) ** t, factorial(t)) for t in range(order + 1))
        out = [ZERO] * (order + 1)
        for i, c in enumerate(self.poly):
            if c == 0:
                continue
            for t in range(order + 1 - i):
                out[i + t] += c * exp_series[t]
        return tuple(out)


@dataclass(frozen=True)
class ScaledKernel:
    """A radial kernel times a positive constant (same translate space).

    Used where a specific physical normalization matters, e.g. the true
    Green's function of (1 - Laplacian)^(gamma/2) is (2 pi)^(-d/2) times
    the unit-transform Sobolev spline.
    """

    base: object
    factor: float

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def support_radius(self) -> float:
        return self.base.support_radius

    def profile(self, r) -> np.ndarray:
        return self.factor * self.base.profile(r)


def sobolev_spline_construct(gamma: int, d: int) -> SobolevSpline:
    """Build the Sobolev spline G_gamma in dimension d.

    Parameters
    ----------
    gamma : int
        Positive even integer; gamma > d so the kernel is bounded.
        Odd gamma is rejected.
    d : int
        Spatial dimension.

    Notes
    -----
    The normalization is fixed by the symmetric Fourier convention; e.g.
    gamma = 2, d = 1 gives sqrt(pi/2) * exp(-|x|).
    """
    if gamma <= 0 or gamma % 2 != 0:
        raise ValueError(f"gamma must be a positive even integer, got {gamma}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if gamma <= d:
        raise ValueError(f"gamma={gamma} must exceed d={d} for a bounded kernel")
    nu = Fraction(gamma - d, 2)
    prefactor = float(np.sqrt(np.pi / 2.0)) / (2 ** (gamma // 2 - 1) * factorial(gamma // 2 - 1))
    poly = None
    if d % 2 == 1:
        # r^nu K_nu(r) = sqrt(pi/2) exp(-r) sum_j (n+j)!/(j!(n-j)!) 2^-j r^(n-j),
        # nu = n + 1/2.
        n = (gamma - d - 1) // 2
        coeffs = [ZERO] * (n + 1)
        for j in range(n + 1):
            coeffs[n - j] = Fraction(factorial(n + j), factorial(j) * factorial(n - j) * 2 ** j)
        poly = poly_trim(coeffs)
    return SobolevSpline(gamma, d, nu, poly, prefactor)


def kernel_eval(K, x) -> float:
    """Evaluate the kernel at a point x in R^dim."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (K.dim,):
        raise ValueError(f"expected a point in R^{K.dim}, got shape {x.shape}")
    r = float(np.linalg.norm(x))
    return float(K.profile(r))


def _origin_derivative(series: RatPoly, alpha: tuple[int, ...], scale: float) -> float:
    """D^alpha of the even extension of a radial Taylor series, at x = 0."""
    n = sum(alpha)
    for t in range(1, min(n, len(series) - 1) + 1, 2):
        if series[t] != 0:
            raise SmoothnessError(
                f"radial profile has a nonzero odd term r^{t}; "
                f"derivative order {n} at the origin is undefined")
    if n % 2 == 1:
        return 0.0
    if any(a % 2 == 1 for a in alpha):
        return 0.0
    j = n // 2
    if len(series) <= n or series[n] == 0:
        return 0.0
    beta = [a // 2 for a in alpha]
    mult = Fraction(factorial(j))
    for a, b in zip(alpha, beta):
        mult *= Fraction(factorial(a), factorial(b))
    return float(series[n] * mult) * scale


@lru_cache(maxsize=None)
def _deriv_lambdified(K, alpha: tuple[int, ...]):
    xs = sp.symbols(f"x0:{K.dim}", real=True)
    rr = sp.sqrt(sum(xi ** 2 for xi in xs))
    if isinstance(K, PiecewisePolyRadial):
        expr = sum(sp.Rational(c.numerator, c.denominator) * rr ** i
                   for i, c in enumerate(K.coeffs))
    elif K.poly is not None:
        pref = sp.sqrt(sp.pi / 2) / (2 ** (K.gamma // 2 - 1) * factorial(K.gamma // 2 - 1))
        expr = pref * sp.exp(-rr) * sum(
            sp.Rational(c.numerator, c.denominator) * rr ** i for i, c in enumerate(K.poly))
    else:
        scale = sp.Rational(1, 2 ** (K.gamma // 2 - 1) * factorial(K.gamma // 2 - 1))
        expr = scale * rr ** sp.Rational(K.nu) * sp.besselk(sp.Rational(K.nu), rr)
    for xi, a in zip(xs, alpha):
        if a:
            expr = sp.diff(expr, xi, a)
    # The lambdified function is only evaluated away from the origin, where
    # the distributional terms produced by d|x|/dx vanish.
    expr = expr.replace(sp.DiracDelta, lambda *args: sp.S.Zero)
    return sp.lambdify(xs, expr, modules=["scipy", "numpy"])


def kernel_derivative(K, x, alpha) -> float:
    """Partial derivative D^alpha of the kernel at x.

    alpha is a multi-index of length dim.  Derivatives are exact symbolic
    derivatives of the radial profile composed with ||x||; at the origin the
    even extension of the profile defines the value, and orders beyond the
    available smoothness raise SmoothnessError.
    """
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(alpha) != K.dim or any(a < 0 for a in alpha):
        raise ValueError(f"alpha must be a multi-index of length {K.dim}")
    n = sum(alpha)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    if isinstance(K, PiecewisePolyRadial):
        if n > 2 * K.smoothness:
            raise SmoothnessError(
                f"order {n} exceeds the C^{2 * K.smoothness} smoothness of this kernel")
        if r >= 1.0:
            return 0.0
        if r == 0.0:
            return _origin_derivative(K.radial_series(n), alpha, 1.0)
    else:
        if r == 0.0:
            if n >= K.gamma - K.dim:
                raise SmoothnessError(
                    f"order {n} >= gamma - d = {K.gamma - K.dim}: "
                    "Sobolev-spline derivative undefined at the origin")
            if n == 0:
                return float(K.profile(0.0))
            return _origin_derivative(K.radial_series(n), alpha, K.prefactor)
    if n == 0:
        return float(K.profile(r))
    fn = _deriv_lambdified(K, alpha)
    return float(fn(*x))
