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
matrices, witness evaluation, test-function synthesis, the local
surrogate and the error-kernel scan all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gamma as gamma_fn

import numpy as np

from ._exact import (
    RatPoly,
    ZERO,
    binomial_one_minus_r,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_integral,
    poly_scale,
    poly_trim,
)
from .geometry import _squared_distances

__all__ = [
    "PiecewisePolyRadial",
    "SobolevSpline",
    "wendland_construct",
    "sobolev_spline_construct",
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
    p = binomial_one_minus_r(ell)
    for _ in range(k):
        # I[p](r) = integral_r^1 t p(t) dt = Q(1) - Q(r), Q = integral_0^r t p(t) dt.
        Q = poly_integral((ZERO,) + p)
        p = poly_add((poly_eval(Q, Fraction(1)),), poly_scale(Q, -1))
    kernel = PiecewisePolyRadial(p, d, k)
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
            return self.prefactor * np.exp(-r) * poly_eval(self._fpoly, r)
        return self.profile_bessel(r)

    def profile_bessel(self, r) -> np.ndarray:
        """c r^nu K_nu(r) in any dim: the even-dim profile, and the odd-dim test reference.

        c = 1 / (2^(gamma/2 - 1) Gamma(gamma/2)).
        """
        from scipy.special import kv

        r = np.asarray(r, dtype=float)
        nu = float(self.nu)
        scale = 1.0 / (2 ** (self.gamma / 2 - 1) * factorial(self.gamma // 2 - 1))
        at_zero = 2 ** (nu - 1) * gamma_fn(nu) * scale
        out = np.where(
            r > 0.0,
            scale * np.power(np.maximum(r, 1e-300), nu) * kv(nu, np.maximum(r, 1e-300)),
            at_zero,
        )
        return out


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

