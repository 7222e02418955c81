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

Every kernel value at a pair of points comes from one block function,
_kernel_block: squared distances from geometry's one distance helper, the
root and the profile only on squares up to the squared support radius,
exact zeros beyond, and a refusal of non-finite values.  Collocation
matrices, witness evaluation, test-function synthesis, kernel_eval, the
local surrogate and the error-kernel scan all call it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import exp, factorial, gamma as gamma_fn

import numpy as np

from ._exact import (
    RatPoly,
    ZERO,
    binomial_one_minus_r,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_trim,
)
from .geometry import _squared_distances

__all__ = [
    "PiecewisePolyRadial",
    "SobolevSpline",
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

# Bytes per pair that _kernel_block allocates beyond its output, counted
# without numpy's temporary elision at each branch's peak.  Compact
# (Wendland): the support mask and the roots (9) while Horner holds acc,
# acc * r and acc * r + c (24).  Unbounded, evaluated in place: odd-d
# Sobolev prefactor * exp(-r) beside that Horner peak (32), or the Bessel
# form's r > 0 mask, scale * r^nu, kv and their product (25).
_BLOCK_ENTRY_BYTES = max(9 + 24, 32, 25)


class SmoothnessError(ValueError):
    """Requested derivative order exceeds the kernel's smoothness."""


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
        vals = poly_eval(self._fcoeffs, r)
        return np.where(r < 1.0, vals, 0.0)


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

    @property
    def bessel_scale(self) -> float:
        """The constant c with profile(r) = c r^nu K_nu(r)."""
        return 1.0 / (2 ** (self.gamma / 2 - 1) * factorial(self.gamma // 2 - 1))

    def profile(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.poly is not None:
            return self.prefactor * np.exp(-r) * poly_eval(self._fpoly, r)
        return self.profile_bessel(r)

    def profile_bessel(self, r) -> np.ndarray:
        """c r^nu K_nu(r) in any dim: the even-dim profile, and the odd-dim test reference."""
        from scipy.special import kv

        r = np.asarray(r, dtype=float)
        nu = float(self.nu)
        scale = self.bessel_scale
        at_zero = 2 ** (nu - 1) * gamma_fn(nu) * scale
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
        return poly_mul(self.poly, exp_series)[: order + 1]


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


def _kernel_block(Phi, a, b, out=None) -> np.ndarray:
    """Phi(|a - b|) for every pair, a and b holding one coordinate array per axis.

    The axes of a and b broadcast against each other as in
    geometry._squared_distances, which forms the squared distances, into
    out when it is given.  Only squares up to the squared support radius
    can have a root inside the support, so for a compactly supported
    kernel the root and the profile are taken on those alone, and every
    other entry is exactly 0; a compact profile is 0 at and beyond its
    radius, so no entry depends on which pairs were evaluated.  The
    profile is elementwise, so every value is the same however the pairs
    are cut into blocks.  At most _BLOCK_ENTRY_BYTES a pair is allocated
    beyond the output, and a non-finite value is refused with a ValueError.
    """
    with np.errstate():
        # numpy buffers a broadcast whose rows are shorter than its
        # buffer, copying both operands; a 16-entry buffer never does.
        np.setbufsize(16)
        D = _squared_distances(a, b, out=out)
    radius = Phi.support_radius
    if np.isfinite(radius):
        near = D <= radius * radius
        vals = Phi.profile(np.sqrt(D[near]))
        D.fill(0.0)
        D[near] = vals
    else:
        D[...] = vals = Phi.profile(np.sqrt(D, out=D))
    if not np.isfinite(vals).all():
        raise ValueError("kernel values are not finite")
    return D


def kernel_eval(K, x) -> float:
    """Evaluate the kernel at a point x in R^dim, as the pair (x, 0) of _kernel_block."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (K.dim,):
        raise ValueError(f"expected a point in R^{K.dim}, got shape {x.shape}")
    return float(_kernel_block(K, x[:, None], np.zeros(K.dim))[0])


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


def _radial_steps(K, r: float, top: int) -> tuple[float, list[dict[int, Fraction]]]:
    """(w, L) with ((1/r) d/dr)^j profile = w * sum_p L[j][p] r^p at r, j <= top.

    Exact for a rational profile and for exp(-r) times one (odd-d Sobolev):
    a step maps c r^p to p c r^(p-2), and exp(-r) adds -c r^(p-1).  In even
    d, d/dr [r^nu K_nu(r)] = -r^nu K_(nu-1)(r) gives one value per step.
    """
    if isinstance(K, SobolevSpline) and K.poly is None:
        from scipy.special import kv

        nu = float(K.nu)
        return 1.0, [{0: Fraction((-1) ** j * K.bessel_scale * r ** (nu - j)
                                  * float(kv(nu - j, r)))} for j in range(top + 1)]
    decay = isinstance(K, SobolevSpline)
    laurent = [dict(enumerate(K.poly if decay else K.coeffs))]
    for _ in range(top):
        step = Counter()
        for p, c in laurent[-1].items():
            step[p - 2] += p * c
            if decay:
                step[p - 1] -= c
        laurent.append(step)
    return (K.prefactor * exp(-r) if decay else 1.0), laurent


def kernel_derivative(K, x, alpha) -> float:
    """Partial derivative D^alpha of the kernel at x.

    alpha is a multi-index of length dim.  Away from the origin, with
    F(x) = g(|x|^2 / 2) and g^(j) = ((1/r) d/dr)^j profile, the radial chain
    rule gives D^alpha F(x) = sum over beta <= alpha/2 of
    prod_i alpha_i! / (beta_i! (alpha_i - 2 beta_i)! 2^beta_i)
    * x^(alpha - 2 beta) * g^(|alpha| - |beta|).  At the origin the even
    extension of the profile defines the value, and orders beyond the
    available smoothness raise SmoothnessError.
    """
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    if len(alpha) != K.dim or any(a < 0 for a in alpha):
        raise ValueError(f"alpha must be a multi-index of length {K.dim}")
    n = sum(alpha)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.sqrt(_squared_distances(x[:, None], np.zeros(len(x)))[0]))
    if isinstance(K, PiecewisePolyRadial):
        if n > 2 * K.smoothness:
            raise SmoothnessError(
                f"order {n} exceeds the C^{2 * K.smoothness} smoothness of this kernel")
        if r >= 1.0:
            return 0.0
        if r == 0.0:
            return _origin_derivative(K.coeffs, alpha, 1.0)
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
    w, laurent = _radial_steps(K, r, n)
    # The sum is formed exactly in x and s = |x|^2, as even + r * odd, so
    # singular terms that cancel in D^alpha (in d = 1, or on an axis)
    # cancel exactly instead of in floating point.
    xq = [Fraction(v) for v in x]
    s = sum(v * v for v in xq)
    even = odd = ZERO
    for beta in product(*(range(a // 2 + 1) for a in alpha)):
        c = Fraction(1)
        for a, b, v in zip(alpha, beta, xq):
            c *= factorial(a) // (factorial(b) * factorial(a - 2 * b) * 2 ** b) * v ** (a - 2 * b)
        for p, coeff in laurent[n - sum(beta)].items():
            if p % 2:
                odd += c * coeff * s ** (p // 2)
            else:
                even += c * coeff * s ** (p // 2)
    return w * (float(even) + r * float(odd))
