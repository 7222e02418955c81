"""Explicit Fourier transforms of Wendland functions and related measures.

For odd dimension d = 2n + 1 and smoothness k, set m = n + k.  The Fourier
transform of the Wendland function factors as

    hat(Phi)_{d,k}(r) = B_m * f_m(r) * r^(-3m-2),

where f_m is the inverse Laplace transform of 1/(s^(m+1) (1+s^2)^(m+1)) and
B_m > 0 is an amplitude depending on the kernel normalization.  This module
takes the partial fraction decomposition of that rational function and the
Maclaurin series of f_m in closed form, in exact rationals, evaluates f_m in
the real trigonometric form, takes B_m in closed form from the exact moment
of the kernel, validates the transform against an independent quadrature
oracle, and exposes it with a cancellation-free series path near r = 0.
The table and the series are independent derivations, so the agreement of
the two evaluation paths at the series-switch radius checks both.

It also houses the finite Borel measure mu with
hat(mu) = hat(Phi)_{1,k} (1 + |x|^(2k+2)) and utilities (transforms,
convolution, total variation) for that measure.  All transforms use the
symmetric (2 pi)^(-d/2) convention.  Every evaluator takes a scalar or an
array-like: a scalar or 0-d input gives a float, any other input an array
of its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gamma as gamma_fn, pi
from typing import Callable

import numpy as np

from ._exact import (
    GaussianRational,
    RatPoly,
    ZERO,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_integral,
    poly_scale,
    poly_trim,
)
from ._quad import gl_panel_quad, panel_nodes
from .kernels import PiecewisePolyRadial, wendland_construct

__all__ = [
    "PartialFractionTable",
    "FiniteMeasure",
    "CalibrationError",
    "partial_fractions",
    "f_m_eval",
    "f_m_series",
    "wendland_hat",
    "amplitude_from_moments",
    "hankel_oracle",
    "build_measure_1d",
    "measure_ft",
    "measure_convolve",
    "ratio_diagnostic",
    "spectral_check",
    "measure_check",
]

MAX_M = 12
SERIES_EXTRA = 48        # series terms kept past the leading power
# Radii tried, in order, for the hand-over from the series to direct evaluation.
SWITCH_CANDIDATES = (0.6, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0,
                     8.0, 10.0, 12.0, 16.0)
ORACLE_NODES = 20        # Gauss-Legendre nodes per panel of hankel_oracle
ORACLE_GATE = 1e-5       # largest accepted relative transform residual against the oracle
FT_TOL = 1e-8            # largest accepted error estimate of a measure_ft quadrature
MEASURE_GATE = 1e-4      # largest accepted factorization residual of measure_check
CONV_PANELS = 256        # panels of the fixed measure_convolve rule on the support
CONV_NODES = 8           # Gauss-Legendre nodes per panel of that rule
CONV_BLOCK = 1 << 14     # f evaluations per measure_convolve block (rows x rule nodes);
                         # 128 KiB temporaries; blocks of 2^15 and up ran ~1.6x slower
                         # (fresh page faults per block, 2-CPU Xeon, glibc)


class CalibrationError(RuntimeError):
    """The transform failed a self-check or its oracle validation."""


def _shaped(out: np.ndarray, shape: tuple[int, ...]) -> np.ndarray | float:
    """The evaluators' shape rule: a float for a 0-d input, else an array of its shape."""
    out = np.reshape(out, shape)
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------------
# Partial fractions of 1/(s^(m+1) (1+s^2)^(m+1))
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFractionTable:
    """Exact coefficients of the decomposition

        1/(s^(m+1)(1+s^2)^(m+1)) = sum_j alpha_j / s^(j+1)
                                 + sum_j beta_j / (s+i)^(j+1)
                                 + sum_j conj(beta_j) / (s-i)^(j+1).

    alpha_j are rational; beta_j are Gaussian rationals attached to the pole
    at s = -i (the coefficients at s = +i are their conjugates).  Parity:
    alpha_j = 0 and beta_j purely imaginary for j + m odd; beta_j purely
    real for j + m even.  The top coefficients are alpha_m = 1 and
    beta_m = (-1)^(m+1) / 2^(m+1).  ``partial_fractions`` builds every
    coefficient from its closed form, so these laws hold by construction.
    """

    m: int
    alpha: tuple[Fraction, ...]
    beta: tuple[GaussianRational, ...]


def _check_guard(m: int) -> None:
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if m > MAX_M:
        raise ValueError(f"m={m} exceeds the exact-arithmetic guard m <= {MAX_M}")


@lru_cache(maxsize=None)
def partial_fractions(m: int) -> PartialFractionTable:
    """Exact partial fraction table for 1/(s^(m+1)(1+s^2)^(m+1)), in closed form.

    With n = m - j, alpha_j is the coefficient of u^n in (1+u^2)^-(m+1):
    (-1)^(n/2) C(m + n/2, m) for even n, and 0 for odd n.  beta_j is the
    coefficient of u^n in (u - i)^-(m+1) (u - 2i)^-(m+1), the cofactor of
    the pole at s = -i + u; the product of the two binomial series gives

        beta_j = (-2)^-(m+1) (-i)^n sum_{b=0..n} C(m+n-b, m) C(m+b, m) 2^-b,

    real for even n and purely imaginary for odd n, so the parity laws and
    the top coefficients hold by construction.
    """
    _check_guard(m)
    alpha, beta = [], []
    for n in range(m, -1, -1):
        alpha.append(Fraction((-1) ** (n // 2) * comb(m + n // 2, m)) if n % 2 == 0
                     else ZERO)
        c = Fraction(1, (-2) ** (m + 1)) * sum(
            Fraction(comb(m + n - b, m) * comb(m + b, m), 2 ** b) for b in range(n + 1))
        re, im = ((c, ZERO), (ZERO, -c), (-c, ZERO), (ZERO, c))[n % 4]   # c (-i)^n
        beta.append(GaussianRational(re, im))
    return PartialFractionTable(m, tuple(alpha), tuple(beta))


# ----------------------------------------------------------------------------
# f_m: inverse Laplace transform, in real trigonometric form
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _trig_form(m: int) -> tuple[tuple[float, ...], ...]:
    """Float polynomials (P, Q, S) with f_m(r) = P(r) + Q(r) cos r + S(r) sin r.

    From the inverse Laplace transform of each pole term,
    f_m(r) = sum_j r^j/j! (alpha_j + 2 Re(beta_j) cos r + 2 Im(beta_j) sin r).
    """
    t = partial_fractions(m)
    P = [a / factorial(j) for j, a in enumerate(t.alpha)]
    Q = [2 * b.re / factorial(j) for j, b in enumerate(t.beta)]
    S = [2 * b.im / factorial(j) for j, b in enumerate(t.beta)]
    return tuple(tuple(float(c) for c in poly_trim(p)) for p in (P, Q, S))


def f_m_eval(m: int, r) -> np.ndarray | float:
    """Evaluate f_m at r >= 0 (vectorized).  Always real."""
    P, Q, S = _trig_form(m)
    r_arr = np.asarray(r, dtype=float)
    out = (poly_eval(P, r_arr)
           + poly_eval(Q, r_arr) * np.cos(r_arr)
           + poly_eval(S, r_arr) * np.sin(r_arr))
    return _shaped(out, r_arr.shape)


@lru_cache(maxsize=None)
def f_m_series(m: int) -> RatPoly:
    """Exact Maclaurin coefficients of f_m through r^(3m+2+SERIES_EXTRA).

    At s = infinity, 1/(s^(m+1)(1+s^2)^(m+1)) = sum_n (-1)^n C(m+n, n)
    s^-(3m+3+2n); inverting term by term,

        f_m(r) = sum_n (-1)^n C(m+n, n) r^(3m+2+2n) / (3m+2+2n)!,

    so f_m has a zero of exact order 3m + 2 with leading coefficient
    1/(3m+2)!.  The series does not use the partial fraction table.
    """
    _check_guard(m)
    lead = 3 * m + 2
    out = [ZERO] * (lead + SERIES_EXTRA + 1)
    for n in range(SERIES_EXTRA // 2 + 1):
        out[lead + 2 * n] = Fraction((-1) ** n * comb(m + n, n), factorial(lead + 2 * n))
    return tuple(out)


# ----------------------------------------------------------------------------
# The Wendland transform and its amplitude
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class _WendlandTransform:
    m: int
    amplitude: float
    series: tuple[float, ...] = field(repr=False)   # f_m(r)/r^(3m+2) near 0
    series_switch: float
    validation_residuals: tuple[float, ...]          # relative to the oracle at 10 radii

    def hat(self, r) -> np.ndarray | float:
        """Transform value at radius r >= 0 (vectorized)."""
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr < 0):
            raise ValueError("radius must be non-negative")
        if not np.isfinite(r_arr).all():
            raise ValueError("radius must be finite")
        out = np.empty(r_arr.shape)
        small = r_arr < self.series_switch
        out[small] = poly_eval(self.series, r_arr[small])
        far = r_arr[~small]
        out[~small] = f_m_eval(self.m, far) * np.power(far, -(3 * self.m + 2))
        return _shaped(self.amplitude * out, r_arr.shape)


@lru_cache(maxsize=None)
def wendland_transform(d: int, k: int) -> _WendlandTransform:
    if d % 2 == 0:
        raise ValueError("explicit Wendland transforms are implemented for odd d only")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    n = (d - 1) // 2
    m = n + k
    kernel = wendland_construct(d, k)
    series = f_m_series(m)
    lead = 3 * m + 2
    reduced = tuple(float(c) for c in series[lead:])

    # Direct evaluation of f_m cancels down to scale r^(3m+2); hand radii to
    # the series path until direct evaluation agrees with it to 1e-10.
    for switch in SWITCH_CANDIDATES:
        s_val = float(poly_eval(reduced, np.asarray(switch)))
        d_val = float(f_m_eval(m, switch)) * switch ** (-lead)
        if abs(d_val - s_val) <= 1e-10 * abs(s_val):
            break
    else:
        raise CalibrationError(
            f"series and direct evaluation of f_{m} agree at no switch radius "
            f"up to {SWITCH_CANDIDATES[-1]} for (d={d}, k={k})")

    amplitude = amplitude_from_moments(d, k)
    if amplitude <= 0:
        raise CalibrationError(f"non-positive amplitude for (d={d}, k={k})")

    tf = _WendlandTransform(m, amplitude, reduced, switch, ())
    residuals = []
    for r in np.geomspace(0.3, 5.0, 10):
        ref = hankel_oracle(kernel, float(r))
        residuals.append(abs(float(tf.hat(float(r))) - ref) / abs(ref))
    if max(residuals) > ORACLE_GATE:
        raise CalibrationError(
            f"amplitude validation failed for (d={d}, k={k}): "
            f"max relative residual {max(residuals):.3e}")
    # The cached transform keeps its residuals as a tuple, so no caller can change them.
    return replace(tf, validation_residuals=tuple(residuals))


def wendland_hat(d: int, k: int, r) -> np.ndarray | float:
    """Fourier transform of the Wendland function at radius r (d odd).

    Uses the exact trigonometric form away from zero and the exact Taylor
    series of f_m below the transform's series_switch radius, where direct
    evaluation would cancel catastrophically.
    """
    return wendland_transform(d, k).hat(r)


def amplitude_from_moments(d: int, k: int) -> float:
    """The amplitude B_m of the transform, in closed form for any odd d.

    hat(Phi)(0) = (2 pi)^(-d/2) * omega_{d-1} * int_0^1 Phi(t) t^(d-1) dt and
    f_m(r) r^(-3m-2) -> 1/(3m+2)! as r -> 0, so B_m = hat(Phi)(0) * (3m+2)!.
    """
    kernel = wendland_construct(d, k)
    m = (d - 1) // 2 + k
    # int_0^1 p(t) t^(d-1) dt, exactly
    moment = sum(c / (i + d) for i, c in enumerate(kernel.coeffs))
    surface = 2 * pi ** (d / 2.0) / gamma_fn(d / 2.0)
    hat0 = (2 * pi) ** (-d / 2.0) * surface * float(moment)
    return hat0 * factorial(3 * m + 2)


# ----------------------------------------------------------------------------
# Quadrature oracle for radial Fourier transforms
# ----------------------------------------------------------------------------

def hankel_oracle(kernel: PiecewisePolyRadial, r: float) -> float:
    """Radial Fourier transform of a Wendland kernel at radius r by panel quadrature.

    Evaluates (2 pi)^(-d/2), d = kernel.dim, times the integral of the
    kernel (supported on the unit ball) against e^(-i x.w) through the
    standard one-dimensional radial (Hankel-type) reduction, with
    Gauss-Legendre panels no wider than a quarter oscillation period.  For
    odd d in {1, 3} the Bessel factor is elementary (cos, sin); other
    dimensions use the Bessel function of the first kind.
    """
    if not 0 < r < np.inf:
        raise ValueError(f"oracle radius must be positive and finite, got {r}")
    return _hankel_float(kernel.profile, kernel.dim, r, 1.0, ORACLE_NODES)


def _hankel_float(profile, d: int, r: float, upper: float, nodes: int) -> float:
    if d == 1:
        integrand = lambda t: profile(t) * np.cos(r * t)
        return np.sqrt(2.0 / pi) * gl_panel_quad(integrand, 0.0, upper, r, nodes)
    if d == 3:
        integrand = lambda t: profile(t) * t * np.sin(r * t)
        return np.sqrt(2.0 / pi) / r * gl_panel_quad(integrand, 0.0, upper, r, nodes)
    from scipy.special import jv
    nu = (d - 2) / 2.0
    integrand = lambda t: profile(t) * np.power(t, d / 2.0) * jv(nu, r * t)
    return r ** (-nu) * gl_panel_quad(integrand, 0.0, upper, r, nodes)


# ----------------------------------------------------------------------------
# The measure mu with hat(mu) = hat(Phi)_{1,k} * (1 + |x|^(2k+2))
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteMeasure:
    """Finite Borel measure on R: point atoms plus an L^1 density.

    The density is even, piecewise polynomial, and supported on
    [-support_radius, support_radius].  There is no singular continuous
    part by construction.  Both norms are derived from the other fields:
    density_l1 = int |density|, integrated exactly between the real roots
    of the density, and tv_norm = sum |atom weights| + density_l1.
    """

    atoms: tuple[tuple[float, float], ...]
    density_poly: RatPoly            # even radial profile q(|t|), exact
    support_radius: float
    density_l1: float = field(init=False)
    tv_norm: float = field(init=False)

    def __post_init__(self):
        l1 = 2.0 * _abs_poly_integral(self.density_poly, 0.0, self.support_radius)
        object.__setattr__(self, "density_l1", l1)
        object.__setattr__(self, "tv_norm", sum(abs(w) for _, w in self.atoms) + l1)

    def density(self, t) -> np.ndarray | float:
        """The density at t (vectorized); t must be finite."""
        t = np.asarray(t, dtype=float)
        if not np.isfinite(t).all():
            raise ValueError("density argument must be finite")
        a = np.abs(t)
        vals = poly_eval(tuple(float(c) for c in self.density_poly), a)
        return _shaped(np.where(a <= self.support_radius, vals, 0.0), t.shape)

    def discrete_ft(self, omega) -> np.ndarray | float:
        """Transform of the atomic part (real; the atoms are symmetric)."""
        omega_arr = np.asarray(omega, dtype=float)
        out = np.zeros_like(omega_arr)
        for loc, w in self.atoms:
            out = out + w * np.cos(omega_arr * loc)
        return _shaped(out / np.sqrt(2.0 * pi), omega_arr.shape)


def _abs_poly_integral(p: RatPoly, a: float, b: float) -> float:
    """Integral of |p| over [a, b], splitting at the real roots of p."""
    fl = [float(c) for c in p]
    roots = np.roots(list(reversed(fl))) if len(fl) > 1 else np.array([])
    cuts = sorted({a, b} | {float(r.real) for r in roots
                            if abs(r.imag) < 1e-10 and a < r.real < b})
    anti = poly_integral(p)
    total = 0.0
    # p has constant sign between consecutive cuts, so on each segment
    # int |p| = |int p| with the integral taken exactly.
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        seg = float(poly_eval(anti, Fraction(hi)) - poly_eval(anti, Fraction(lo)))
        total += abs(seg)
    return total


def build_measure_1d(k: int) -> FiniteMeasure:
    """Measure mu with hat(mu)(x) = hat(Phi)_{1,k}(x) (1 + |x|^(2k+2)).

    Since multiplying the transform by x^(2k+2) corresponds (up to the sign
    (-1)^(k+1)) to taking 2k+2 derivatives, mu equals Phi_{1,k} plus the
    distributional derivative Phi^(2k+2): point atoms at 0 and +-1 from the
    jumps of Phi^(2k+1), plus a piecewise polynomial density.  The atom
    weights are validated against the closed forms sqrt(2 pi) B_k / k! and
    sqrt(2 pi) B_k (-1)^(k+1)/(k! 2^(k+1)), with B_k = amplitude_from_moments(1, k).
    """
    if k < 1:
        raise ValueError("measure construction requires k >= 1")
    kernel = wendland_construct(1, k)
    sign = (-1) ** (k + 1)
    p = kernel.coeffs
    d_hi = poly_derivative(p, 2 * k + 1)
    # Odd-order derivative of the even extension: jump 2*value at 0,
    # jump -value at the support boundary where the kernel stops.
    w0 = float(sign * 2 * poly_eval(d_hi, ZERO))
    w1 = float(sign * (-poly_eval(d_hi, Fraction(1))))
    B = amplitude_from_moments(1, k)
    root = float(np.sqrt(2.0 * pi))
    expect0 = root * B / factorial(k)
    expect1 = root * B * (-1) ** (k + 1) / (factorial(k) * 2 ** (k + 1))
    if abs(w0 - expect0) > 1e-8 * abs(expect0) or abs(w1 - expect1) > 1e-8 * abs(expect1):
        raise CalibrationError(
            f"atom weights ({w0}, {w1}) disagree with closed forms "
            f"({expect0}, {expect1}) for k={k}")
    density_poly = poly_add(p, poly_scale(poly_derivative(p, 2 * k + 2), sign))
    return FiniteMeasure(((0.0, w0), (1.0, w1), (-1.0, w1)), density_poly, 1.0)


def measure_ft(mu: FiniteMeasure, omega) -> np.ndarray | float:
    """Fourier transform of the measure at omega (symmetric convention).

    Atoms contribute an exact trigonometric sum; the even density
    contributes through the oracle's d = 1 cosine quadrature.  Every density
    quadrature is confirmed by a refined rule; disagreement beyond FT_TOL
    raises with the achieved error estimate.
    """
    omega_arr = np.asarray(omega, dtype=float)
    if not np.isfinite(omega_arr).all():
        raise ValueError("frequency must be finite")
    flat = omega_arr.reshape(-1)
    out = np.zeros_like(flat)
    for i, w in enumerate(flat):
        dens = _hankel_float(mu.density, 1, abs(w), mu.support_radius, 16)
        refined = _hankel_float(mu.density, 1, abs(w), mu.support_radius, 24)
        estimate = abs(dens - refined)
        if estimate > FT_TOL:
            raise RuntimeError(
                f"density quadrature did not converge at omega={w}: "
                f"achieved error estimate {estimate:.3e} > {FT_TOL:.1e}")
        out[i] = refined
    return _shaped(out + mu.discrete_ft(flat), omega_arr.shape)


def measure_convolve(mu: FiniteMeasure, f: Callable, x) -> np.ndarray | float:
    """(f * mu)(x) for a vectorized integrable f (x may be an array).

    The density part uses the fixed rule of CONV_PANELS x CONV_NODES
    Gauss-Legendre nodes on the support.  It is evaluated over the flattened
    x in row blocks of CONV_BLOCK = 2^14 f values each, so memory stays
    flat in the size of x.  The rule is exact to rounding only for f
    smooth on each panel: against the same rule on 64 times as many
    panels, at 281 points, k = 1 and 2, a Gaussian f agrees to 1.9e-14 and
    2.5e-13 of the largest value, and random 40-knot piecewise-linear f
    (seeds 0-3) differ by 1.2e-5 to 2.6e-4 of it, the kinks of f falling
    inside panels.  ``python tools/convolve_accuracy.py`` measures this.
    """
    x = np.asarray(x, dtype=float)
    edges = np.linspace(-mu.support_radius, mu.support_radius, CONV_PANELS + 1)
    T, W = panel_nodes(edges, CONV_NODES)
    weights = W * mu.density(T)
    flat = x.reshape(-1)
    out = np.empty(flat.size)
    rows = max(1, CONV_BLOCK // T.size)
    for s in range(0, flat.size, rows):
        out[s:s + rows] = f(flat[s:s + rows, None] - T) @ weights
    out = out.reshape(x.shape)
    for loc, w in mu.atoms:
        out = out + w * f(x - loc)
    return _shaped(out, x.shape)


# ----------------------------------------------------------------------------
# Diagnostics and reports
# ----------------------------------------------------------------------------

def ratio_diagnostic(d: int, k: int) -> dict:
    """Report of (1 + w^2)^(-gamma/2) / hat(Phi)_{d,k}(w) on a log grid.

    Exploratory only: the table of w and the observed ratio with its min
    and max, no pass/fail.  gamma = d + 2k + 1 is the order matching the
    transform's decay.
    """
    if k < 1:
        raise ValueError("ratio diagnostic requires k >= 1")
    gamma = d + 2 * k + 1
    omegas = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 121)])
    phat = np.asarray(wendland_hat(d, k, omegas))
    ratio = (1.0 + omegas ** 2) ** (-gamma / 2.0) / phat
    return {
        "d": d, "k": k, "gamma": gamma,
        "min": float(ratio.min()), "max": float(ratio.max()),
        "table": [{"omega": float(w), "ratio": float(r)} for w, r in zip(omegas, ratio)],
    }


def spectral_check(d: int, k: int) -> dict:
    """Self-check report: exact coefficients, amplitude, residuals, decay."""
    tf = wendland_transform(d, k)
    table = partial_fractions(tf.m)
    decay_radii = np.geomspace(1.0, 1e3, 61)
    decay = np.power(decay_radii, 2 * tf.m + 2) * np.asarray(tf.hat(decay_radii))
    return {
        "d": d,
        "k": k,
        "m": tf.m,
        "alpha": [str(a) for a in table.alpha],
        "beta": [[str(b.re), str(b.im)] for b in table.beta],
        "amplitude": tf.amplitude,
        "validation_residuals": list(tf.validation_residuals),
        "decay_table": [{"r": float(r), "scaled_hat": float(v)}
                        for r, v in zip(decay_radii, decay)],
    }


def measure_check(k: int) -> tuple[dict, bool]:
    """Factorization report of build_measure_1d(k), and whether it passes.

    On 101 frequencies w of [0, 50] the residual
    |hat(mu)(w) / (1 + |w|^(2k+2)) - hat(Phi)_{1,k}(w)| must stay below
    MEASURE_GATE, and the transform of the atomic part must stay at least
    B_k / (2 k!) in absolute value, B_k = amplitude_from_moments(1, k), up
    to a relative rounding allowance of 1e-12.
    """
    mu = build_measure_1d(k)
    omegas = np.linspace(0.0, 50.0, 101)
    muhat = np.asarray(measure_ft(mu, omegas))
    target = np.asarray(wendland_hat(1, k, omegas))
    residual = np.abs(muhat / (1.0 + np.abs(omegas) ** (2 * k + 2)) - target)
    disc = np.abs(np.asarray(mu.discrete_ft(omegas)))
    disc_bound = amplitude_from_moments(1, k) / (2.0 * factorial(k))
    report = {
        "k": k,
        "tv_norm": mu.tv_norm,
        "atoms": [list(a) for a in mu.atoms],
        "max_factorization_residual": float(residual.max()),
        "discrete_ft_min": float(disc.min()),
        "discrete_ft_bound": disc_bound,
        "table": [{"omega": float(w), "residual": float(r)}
                  for w, r in zip(omegas, residual)],
    }
    passed = bool(residual.max() < MEASURE_GATE and disc.min() >= disc_bound * (1 - 1e-12))
    return report, passed
