"""Shared test utilities: reference polynomials, exact oracles for the
partial fraction table and the f_m series, the 1-D asymptotic
decomposition of the Wendland transform, Fourier quadrature oracles, a
high-precision derivative reference, a per-point convolution oracle,
the out-of-place kernel, bump and synthesis formulas, convolution
trials, a one-point reproduction functional, the per-sample error-kernel
scan, the per-cube quasi-interpolant and the monomial basis one power
at a time."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, floor, fsum, gamma as gamma_fn

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from rbfbench._exact import ZERO, GaussianRational, binomial_one_minus_r, poly_eval, poly_trim
from rbfbench._quad import panel_edges, panel_nodes
from rbfbench.approx import _BLOCK, _GL_NODES, _MIDPOINTS, _PANELS_PER_SIDE, _green_factor
from rbfbench.geometry import _squared_distances, cube_center, tensor_grid
from rbfbench.kernels import PiecewisePolyRadial
from rbfbench.polyrep import FAR_LIMIT, LocalPolyBuilder
from rbfbench.spectral import (
    SERIES_EXTRA,
    FiniteMeasure,
    PartialFractionTable,
    amplitude_from_moments,
    measure_convolve,
    partial_fractions,
    wendland_hat,
)

# Classical tabulated Wendland polynomials: (d, k) -> (base power, factor poly).
# Entry (d, k): (1 - r)^power * poly(r), equality up to a positive constant.
TABULATED_WENDLAND = {
    (1, 0): (1, (1,)),
    (1, 1): (3, (1, 3)),
    (1, 2): (5, (1, 5, 8)),
    (3, 0): (2, (1,)),
    (3, 1): (4, (1, 4)),
    (3, 2): (6, (3, 18, 35)),
    (3, 3): (8, (1, 8, 25, 32)),
}


def poly_mul(p, q):
    """Exact product of two dense rational polynomials, ascending powers."""
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def tabulated_poly(d: int, k: int):
    """Expanded exact coefficients of the tabulated form."""
    power, factor = TABULATED_WENDLAND[(d, k)]
    return poly_mul(binomial_one_minus_r(power),
                    poly_trim([Fraction(c) for c in factor]))


def proportionality_factor(p, q):
    """The scalar lam with p = lam * q, or None if the polys are not parallel."""
    if len(p) != len(q):
        return None
    lam = None
    for a, b in zip(p, q):
        if (a == 0) != (b == 0):
            return None
        if b != 0:
            if lam is None:
                lam = a / b
            elif a != lam * b:
                return None
    return lam


def gaussian(re=0, im=0) -> GaussianRational:
    """The Gaussian rational re + i im, for writing expected table entries."""
    return GaussianRational(Fraction(re), Fraction(im))


def _gadd(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    return GaussianRational(a.re + b.re, a.im + b.im)


def _gmul(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    return GaussianRational(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def _gpoly_mul(p, q):
    out = [gaussian(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = _gadd(out[i + j], _gmul(a, b))
    return out


def multiply_back(t: PartialFractionTable) -> list[GaussianRational]:
    """Numerator polynomial after clearing denominators; the identity gives [1].

    Each term of the table is multiplied by s^(m+1) (s+i)^(m+1) (s-i)^(m+1)
    and the products are summed in exact Gaussian-rational arithmetic, with
    trailing zero coefficients dropped.
    """
    m = t.m
    one = gaussian(1)
    plus = [[one]]                       # powers of s + i
    minus = [[one]]                      # powers of s - i
    for _ in range(m + 1):
        plus.append(_gpoly_mul(plus[-1], [gaussian(0, 1), one]))
        minus.append(_gpoly_mul(minus[-1], [gaussian(0, -1), one]))

    total = [gaussian(0)] * (3 * m + 4)

    def add(coef, s_power, p, q):        # total += coef s^s_power p q
        for i, c in enumerate(_gpoly_mul(p, q)):
            total[s_power + i] = _gadd(total[s_power + i], _gmul(coef, c))

    for j, (a, b) in enumerate(zip(t.alpha, t.beta)):
        add(GaussianRational(a, Fraction(0)), m - j, plus[m + 1], minus[m + 1])
        add(b, m + 1, plus[m - j], minus[m + 1])
        add(GaussianRational(b.re, -b.im), m + 1, minus[m - j], plus[m + 1])
    while len(total) > 1 and total[-1] == gaussian(0):
        total.pop()
    return total


def f_m_series_oracle(m: int) -> tuple[Fraction, ...]:
    """Maclaurin coefficients of f_m through r^(3m+2+SERIES_EXTRA), from the table.

    The exact trigonometric form f_m(r) = sum_j r^j/j! (alpha_j
    + 2 Re(beta_j) cos r + 2 Im(beta_j) sin r) is multiplied by the
    Maclaurin series of cos and sin; the reference for
    ``spectral.f_m_series``, which does not use the table.
    """
    t = partial_fractions(m)
    order = 3 * m + 2 + SERIES_EXTRA
    out = [Fraction(0)] * (order + 1)
    for j, (a, b) in enumerate(zip(t.alpha, t.beta)):
        out[j] += a / factorial(j)
        for q in range(order + 1 - j):
            # r^q/q! in cos r (q even) or sin r (q odd) carries (-1)^(q // 2)
            trig = b.re if q % 2 == 0 else b.im
            out[j + q] += 2 * trig * (-1) ** (q // 2) / (factorial(j) * factorial(q))
    return tuple(out)


@dataclass(frozen=True)
class Wend1DDecomposition:
    """Closed-form pieces of x^(2k+2) hat(Phi)_{1,k}(x) / B_k.

    const_term = 1/k!, cos_coeff = (-1)^(k+1)/(k! 2^k), and sinc_coeff is
    the coefficient of sin(x)/x, all exact rationals extracted from the
    partial fraction table.  h_remainder is the leftover term, a bounded
    function vanishing at infinity; for k = 1 it is identically zero.
    """

    k: int
    const_term: Fraction
    cos_coeff: Fraction
    sinc_coeff: Fraction
    amplitude: float

    def main_terms(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        safe = np.where(x != 0.0, x, 1.0)
        sinc = np.where(x != 0.0, np.sin(safe) / safe, 1.0)
        return (float(self.const_term)
                + float(self.cos_coeff) * np.cos(x)
                + float(self.sinc_coeff) * sinc)

    def h_remainder(self, x) -> np.ndarray:
        """hat(h)(x), evaluated as the residual of the decomposition."""
        x = np.asarray(x, dtype=float)
        scaled = np.power(x, 2 * self.k + 2) * wendland_hat(1, self.k, x) / self.amplitude
        return scaled - self.main_terms(x)


def wend1d_decompose(k: int) -> Wend1DDecomposition:
    """The asymptotic decomposition of x^(2k+2) hat(Phi)_{1,k}, for k >= 1.

    The oracle for the large-x behaviour of ``spectral.wendland_hat``:

        x^(2k+2) hat(Phi)_{1,k}(x)
            = B_k (1/k! + (-1)^(k+1)/(k! 2^k) cos x + C sin(x)/x + hat(h)(x)).

    All three coefficients are read from the exact table of m = k (for
    k = 0 the remainder is not integrable); B_k is
    ``spectral.amplitude_from_moments(1, k)``.
    """
    if k < 1:
        raise ValueError("decomposition requires k >= 1")
    table = partial_fractions(k)
    const_term = table.alpha[k] / factorial(k)
    cos_coeff = 2 * table.beta[k].re / factorial(k)
    sinc_coeff = 2 * table.beta[k - 1].im / factorial(k - 1)
    return Wend1DDecomposition(k, const_term, cos_coeff, sinc_coeff,
                               amplitude_from_moments(1, k))


def fourier_cos_semiinf(f, omega: float, a: float = 0.0) -> tuple[float, float]:
    """(integral of f(t) cos(omega t) over [a, inf), error estimate).

    Uses the QUADPACK Fourier algorithm; f must decay at infinity.
    """
    if omega == 0.0:
        val, err = quad(f, a, np.inf, limit=400)
    else:
        val, err = quad(f, a, np.inf, weight="cos", wvar=omega, limlst=200)
    return val, err


@lru_cache(maxsize=8)
def _gl_nodes_mp(n: int, dps: int):
    """Gauss-Legendre nodes/weights on [-1, 1] at dps-digit precision."""
    with mp.workdps(dps + 10):
        xs, ws = [], []
        for i in range(1, n + 1):
            x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
            for _ in range(100):
                p0, p1 = mp.mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mp.mpf(10) ** (-(dps + 6)):
                    break
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
        return tuple(xs), tuple(ws)


def hankel_oracle_mp(kernel, d: int, r: float, dps: int) -> float:
    """Radial Fourier transform at radius r in dps-digit mpmath arithmetic.

    The same panel quadrature as ``spectral.hankel_oracle``, for exact
    polynomial kernels in d = 1 or 3, where the Bessel factor is cos or
    sin.  It resolves transform values that sit many orders of magnitude
    below the integrand scale, where float64 cancellation dominates.
    """
    if not isinstance(kernel, PiecewisePolyRadial) or d not in (1, 3):
        raise ValueError("high-precision oracle supports exact polynomial "
                         "kernels in d = 1 or 3 only")
    coeffs = [mp.mpf(c.numerator) / c.denominator for c in kernel.coeffs]

    def poly_mpf(t):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * t + c
        return acc

    xs, ws = _gl_nodes_mp(14, dps)
    edges = panel_edges(0.0, 1.0, r)
    with mp.workdps(dps):
        rr = mp.mpf(r)
        total = mp.mpf(0)
        for lo, hi in zip(edges[:-1], edges[1:]):
            c1 = (mp.mpf(hi) - mp.mpf(lo)) / 2
            c2 = (mp.mpf(hi) + mp.mpf(lo)) / 2
            for x, w in zip(xs, ws):
                t = c1 * x + c2
                if d == 1:
                    total += c1 * w * poly_mpf(t) * mp.cos(rr * t)
                else:
                    total += c1 * w * poly_mpf(t) * t * mp.sin(rr * t)
        if d == 1:
            return float(mp.sqrt(2 / mp.pi) * total)
        return float(mp.sqrt(2 / mp.pi) / rr * total)


def _besselk_int_mp(n: int, z):
    """K_n(z) for integer n >= 0 by its ascending series (A&S 9.6.11).

    mpmath's besselk reaches integer orders through a limit, which is two
    orders of magnitude slower at the precision mp.diff works in.
    """
    h = z / 2
    q = h * h
    head = sum(mp.factorial(n - k - 1) / mp.factorial(k) * (-q) ** k
               for k in range(n)) / (2 * h ** n)
    harm = -2 * mp.euler + mp.fsum(mp.mpf(1) / j for j in range(1, n + 1))
    term = 1 / mp.factorial(n)                    # q^k / (k! (n+k)!)
    tail, k = harm * term, 0
    while abs(term) > mp.eps * abs(tail):
        k += 1
        term *= q / (k * (n + k))
        harm += mp.mpf(1) / k + mp.mpf(1) / (n + k)   # psi(k+1) + psi(n+k+1)
        tail += harm * term
    return head + (-1) ** (n + 1) * mp.log(h) * mp.besseli(n, z) + (-1) ** n * h ** n * tail / 2


def kernel_derivative_mp(kernel, x, alpha, dps: int = 40) -> float:
    """D^alpha of a kernel at x != 0, by mpmath differentiation at dps digits.

    The profile is rebuilt from its definition, not from the library's
    float code: the exact Wendland coefficients, or the Sobolev spline
    r^nu K_nu(r) / (2^(gamma/2 - 1) Gamma(gamma/2)), composed with |x|.
    """
    with mp.workdps(dps):
        if isinstance(kernel, PiecewisePolyRadial):
            coeffs = [mp.mpf(c.numerator) / c.denominator for c in kernel.coeffs]

            def profile(r):
                return mp.polyval(coeffs[::-1], r)
        else:
            half = mp.mpf(kernel.gamma) / 2
            scale = 1 / (2 ** (half - 1) * mp.gamma(half))
            if kernel.nu.denominator == 1:
                n = int(kernel.nu)

                def profile(r):
                    return scale * r ** n * _besselk_int_mp(n, r)
            else:
                nu = mp.mpf(kernel.nu.numerator) / kernel.nu.denominator

                def profile(r):
                    return scale * r ** nu * mp.besselk(nu, r)

        def F(*xs):
            return profile(mp.sqrt(mp.fsum(xi ** 2 for xi in xs)))

        point = tuple(mp.mpf(float(xi)) for xi in x)
        return float(mp.diff(F, point, tuple(int(a) for a in alpha)))


def synth_f_oracle(G, bump, nodes: int = 48, panels_per_side: int = 4):
    """f = (2 pi)^(-1/2) G * bump in d = 1, one point and one panel at a time.

    (2 pi)^(-1/2) G is the Green's function of the operator.  The bump
    support is cut at t = x, each piece is split into panels_per_side
    equal panels, and each panel gets a nodes-point Gauss-Legendre rule;
    the reference for ``approx.synth_test_function``.
    """
    factor = (2.0 * np.pi) ** -0.5
    (a,), (b,) = bump.box.lo, bump.box.hi
    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes)

    def f(xs):
        xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros_like(xs_arr)
        for i, x in enumerate(xs_arr):
            cuts = np.unique(np.clip([a, x, b], a, b))
            acc = 0.0
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                edges = np.linspace(lo, hi, panels_per_side + 1)
                for e0, e1 in zip(edges[:-1], edges[1:]):
                    half = (e1 - e0) / 2.0
                    t = (e1 + e0) / 2.0 + half * x_gl
                    acc += half * float(w_gl @ (factor * G.profile(np.abs(x - t)) * bump(t)))
            out[i] = acc
        return out if np.ndim(xs) else float(out[0])

    return f


# The kernel, bump and synthesis values as numpy expressions that allocate
# every intermediate: the library forms each in place, with the same
# operations in the same order, so the two agree bit for bit.

def profile_out_of_place(Phi, r):
    """Phi.profile(r) as one expression per kernel form."""
    r = np.asarray(r, dtype=float)
    if isinstance(Phi, PiecewisePolyRadial):
        return np.where(r < 1.0, poly_eval(Phi._fcoeffs, r), 0.0)
    if Phi.poly is not None:
        return Phi.prefactor * np.exp(-r) * poly_eval(Phi._fpoly, r)
    from scipy.special import kv
    nu = float(Phi.nu)
    scale = 1.0 / (2 ** (Phi.gamma / 2 - 1) * factorial(Phi.gamma // 2 - 1))
    at_zero = 2 ** (nu - 1) * gamma_fn(nu) * scale
    return np.where(r > 0.0,
                    scale * np.power(np.maximum(r, 1e-300), nu) * kv(nu, np.maximum(r, 1e-300)),
                    at_zero)


def kernel_block_out_of_place(Phi, a, b):
    """kernels._kernel_block(Phi, a, b) with profile_out_of_place."""
    D = _squared_distances(a, b)
    radius = Phi.support_radius
    if not np.isfinite(radius):
        return profile_out_of_place(Phi, np.sqrt(D))
    near = D <= radius * radius
    vals = profile_out_of_place(Phi, np.sqrt(D[near]))
    D.fill(0.0)
    D[near] = vals
    return D


def bump_radial_out_of_place(bump, r):
    """SmoothBump.radial(r) with a new array at every step."""
    u2 = (np.asarray(r, dtype=float) / bump.width) ** 2
    safe = np.where(u2 < 1.0, u2, 0.0)
    return np.where(u2 < 1.0, np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)


def synth_f_out_of_place(G, bump, xs):
    """synth_test_function(G, bump).f at the 1-D array xs, the product
    factor * G * g weighted and summed as a new array at every step."""
    factor = _green_factor(1)
    (a,), (b,) = bump.box.lo, bump.box.hi
    u, wu = panel_nodes(np.linspace(0.0, 1.0, _PANELS_PER_SIDE + 1), _GL_NODES)
    out = np.empty(xs.size)
    for start in range(0, xs.size, _BLOCK):
        x = xs[start:start + _BLOCK, None]
        c = np.clip(x, a, b)
        t = np.hstack([a + (c - a) * u, c + (b - c) * u])
        w = np.hstack([(c - a) * wu, (b - c) * wu])
        vals = (factor * kernel_block_out_of_place(G, x[None], t[None])
                * bump_radial_out_of_place(bump, np.abs(t - bump.center[0])))
        out[start:start + _BLOCK] = np.sum(w * vals, axis=1)
    return out


class PiecewiseLinear:
    """Random piecewise-linear test function on a compact interval."""

    def __init__(self, rng, n_knots=40, lo=-2.0, hi=2.0):
        inner = np.sort(rng.uniform(lo, hi, size=n_knots - 2))
        self.knots = np.concatenate([[lo], inner, [hi]])
        self.vals = rng.normal(size=n_knots)
        self.vals[0] = self.vals[-1] = 0.0
        self.lo, self.hi = lo, hi

    def __call__(self, x):
        return np.interp(x, self.knots, self.vals, left=0.0, right=0.0)

    def norm(self, x_grid, weights, p):
        v = np.abs(self(x_grid))
        if np.isinf(p):
            return max(float(np.abs(self.vals).max()), float(v.max()))
        return float(np.sum(weights * v ** p) ** (1.0 / p))


def young_trials(mu: FiniteMeasure, n_trials: int, seed: int = 0,
                 rel_slack: float = 1e-10):
    """Run convolution-inequality trials; return the list of margins.

    Each margin is ||f * mu||_p - ||f||_p ||mu||; the inequality holds when
    every margin is <= rel_slack * rhs.
    """
    rng = np.random.default_rng(seed)
    p_cycle = [1.0, 2.0, np.inf]
    margins = []
    sup = mu.support_radius
    for trial in range(n_trials):
        p = p_cycle[trial % 3]
        f = PiecewiseLinear(rng)
        span = 3.5 + sup
        x = np.linspace(-span, span, 2801)
        w = np.full(x.size, x[1] - x[0])
        w[0] = w[-1] = (x[1] - x[0]) / 2.0
        conv = measure_convolve(mu, f, x)
        if np.isinf(p):
            lhs = float(np.abs(conv).max())
        else:
            lhs = float(np.sum(w * np.abs(conv) ** p) ** (1.0 / p))
        rhs = f.norm(x, w, p) * mu.tv_norm
        margins.append((lhs - rhs, rhs, p))
    return margins


def cube_of(t, side: float) -> tuple[int, ...]:
    """Index of the half-open cube [c - side/2, c + side/2) holding the point t,
    one math.floor per coordinate (independent of geometry.cube_indices)."""
    return tuple(floor(c / side + 0.5) for c in np.atleast_1d(np.asarray(t, dtype=float)))


def functional(builder: LocalPolyBuilder, t):
    """(star points, weights A(t, .)) of the reproduction functional at one point t."""
    star, A = builder.weights(cube_of(t, builder.side), np.reshape(t, (1, -1)))
    return builder.X.points[star], A[:, 0]


def property2_scan_per_sample(Phi, X, ell, sample_budget, *, degree, c3, seed=0):
    """The error-kernel scan one sample at a time, with an fsum reference.

    The draws are property2_scan's, in its order.  Each sample gets its own
    reproduction functional; Phi(x - t) and the surrogate come from
    np.linalg.norm distances and the profile on every pair, reduced by a
    matrix-vector product.  Returns (x, t, s, |E|, E by math.fsum of the
    same terms, 2 n_star eps sum |A| |Phi(x - xi)|), one row per sample.
    """
    d, h = X.dim, X.h
    support = Phi.support_radius if np.isfinite(Phi.support_radius) else FAR_LIMIT
    s_max = (support + (c3 + np.sqrt(d) / 2.0) * h) / h
    edges = [0.0, 0.5, 1.0]
    while edges[-1] < s_max:
        edges.append(min(edges[-1] * 2.0, s_max))
    builder = LocalPolyBuilder(X, degree, c3)
    rng = np.random.Generator(np.random.Philox(key=seed))
    lo, hi = np.asarray(X.domain.lo), np.asarray(X.domain.hi)
    rows = []
    for a, b in zip(edges[:-1], edges[1:]):
        for _ in range(sample_budget // (len(edges) - 1)):
            t = rng.uniform(lo, hi)
            s = rng.uniform(a, b)
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            x = t + s * h * u
            points, weights = functional(builder, t)
            at_t = float(Phi.profile(np.linalg.norm(x - t)))
            star = Phi.profile(np.linalg.norm(x - points, axis=-1))
            e = at_t - float(star @ weights)
            rows.append((x, t, s, abs(e), fsum([at_t, *(-star * weights)]),
                         2 * len(star) * np.finfo(float).eps * fsum(np.abs(star * weights))))
    return tuple(np.asarray(column) for column in zip(*rows))


def quasi_interpolant_per_cube(g, X, degree, c3):
    """approx.quasi_interpolant one cube at a time, in np.ndindex order.

    The cubes of the range that covers g.box are walked by
    np.ndindex; each cube's midpoints are built from its center, g is
    evaluated on them, a cube where g vanishes on every midpoint is
    skipped, and A(t, .) comes from LocalPolyBuilder.weights.
    """
    d, side, m = X.dim, X.h, _MIDPOINTS
    offsets = tensor_grid([(np.arange(m) + 0.5) / m * side - side / 2.0] * d)
    builder = LocalPolyBuilder(X, degree, c3)
    lo = np.asarray(cube_of(g.box.lo, side))
    hi = np.asarray(cube_of(g.box.hi, side))
    coeffs = np.zeros(X.n)
    for rel in np.ndindex(*(hi - lo + 1)):
        idx = tuple(lo + np.asarray(rel))
        samples = cube_center(idx, side) + offsets
        gv = np.atleast_1d(g(samples))
        if not np.any(gv):
            continue
        star, alpha = builder.weights(idx, samples)
        coeffs[star] += (side / m) ** d * (alpha @ gv)
    return coeffs * _green_factor(d)


def basis_matrix_per_term(pts, anchor, scale, exponents):
    """polyrep._basis_matrix raising z to every power of every term anew."""
    z = (pts - anchor) / scale
    rows = []
    for e in exponents:
        col = np.ones(z.shape[0])
        for axis, power in enumerate(e):
            if power:
                col = col * z[:, axis] ** power
        rows.append(col)
    return np.asarray(rows)
