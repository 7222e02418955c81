"""Approximants from kernel translate spaces and L^p error measurement.

Two routes into the translate space S_X(Phi) are provided:

* a constructive quasi-interpolant whose coefficient of Phi(. - xi) is the
  quadrature of g(t) A(t, xi) over the cubes whose star contains xi, the
  finite realization of integrating the source term against the local
  surrogate kernel K(., t); and
* a least-squares witness that minimizes the discrete l^2 error on an
  evaluation grid, giving an upper bound on the best-approximation error
  (the same coefficient vector witnesses the L^1 and L^inf errors).

Errors are composite-quadrature L^p norms on an interior region; fitted
log-log slopes against the fill distance are the empirical convergence
rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as gamma_fn, pi
from typing import Callable

import numpy as np
from scipy.linalg import lstsq
from scipy.spatial.distance import cdist

from ._quad import gl_panel_quad
from .geometry import PointSet, cube_center
from .polyrep import LocalPolyBuilder

__all__ = [
    "SmoothBump",
    "TestFunction",
    "GreensPair",
    "synth_test_function",
    "quasi_interpolant",
    "ls_witness",
    "evaluate_combination",
    "lp_error",
    "fit_rate",
]


@dataclass(frozen=True)
class SmoothBump:
    """Radial C^inf bump: amp * exp(1 - 1/(1 - u^2)), u = |x - center|/width."""

    center: tuple[float, ...]
    width: float
    amplitude: float = 1.0

    @property
    def dim(self) -> int:
        return len(self.center)

    def radial(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        u2 = (r / self.width) ** 2
        safe = np.where(u2 < 1.0, u2, 0.0)
        vals = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - safe))
        return np.where(u2 < 1.0, vals, 0.0)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1 and self.dim == 1:
            r = np.abs(x - self.center[0])
        else:
            r = np.linalg.norm(np.atleast_2d(x) - np.asarray(self.center), axis=-1)
        out = self.radial(r)
        return out if out.ndim else float(out)

    @property
    def support(self) -> tuple[float, float]:
        """1-D support interval (for the convolution quadrature)."""
        c = self.center[0]
        return c - self.width, c + self.width

    def norm_p(self, p: float) -> float:
        """L^p norm, by radial quadrature (the bump is radial)."""
        if np.isinf(p):
            return self.amplitude
        surface = 2.0 if self.dim == 1 else 2 * pi ** (self.dim / 2) / gamma_fn(self.dim / 2)
        val = gl_panel_quad(lambda r: self.radial(r) ** p * r ** (self.dim - 1),
                            0.0, self.width, 0.0, 32, max_width=self.width / 8)
        return float((surface * val) ** (1.0 / p))


@dataclass(frozen=True)
class GreensPair:
    """A kernel G together with the operator T it inverts.

    Only the operator's action on synthesized test functions is needed:
    for f = G_green * g one has T f = g identically, where G_green is the
    kernel scaled to the physical Green normalization.  smoothness_order is
    the exponent of the smoothness space that membership of f certifies.
    """

    G: object
    G_green: object
    operator_symbol: str
    smoothness_order: int


def sobolev_greens_pair(gamma: int, d: int) -> GreensPair:
    """The Sobolev spline G_gamma paired with (1 - Laplacian)^(gamma/2)."""
    from .kernels import ScaledKernel, sobolev_spline_construct
    G = sobolev_spline_construct(gamma, d)
    green = ScaledKernel(G, (2.0 * pi) ** (-d / 2.0))
    return GreensPair(G, green, f"(1 - Laplacian)^{gamma // 2}", gamma)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Test function f = G_green * g with exactly known source term T f = g.

    G_green is the properly normalized Green's kernel (the spectral kernel
    times (2 pi)^(-d/2)), so that applying the operator to f returns g with
    no stray constant; translates of G_green span the same space as
    translates of the spectral kernel.
    """

    g: SmoothBump
    G: object | None              # spectral normalization (unit transform)
    G_green: object | None        # Green normalization used to build f
    f: Callable

    def Tf(self, x):
        return self.g(x)

    def seminorm(self, p: float) -> float:
        """|f| in the operator smoothness scale: the L^p norm of g."""
        return self.g.norm_p(p)


def synth_test_function(G, bump: SmoothBump, nodes: int = 48,
                        panels_per_side: int = 4) -> TestFunction:
    """Construct f = G_green * g by panel quadrature (one-dimensional).

    G_green = (2 pi)^(-d/2) G makes T f = g hold exactly under the
    symmetric transform convention (e.g. the Green's function of
    1 - Laplacian in d = 1 is exp(-|x|)/2).  The integrand has a kink at
    y = x, so the bump support is split there; the bump vanishes to all
    orders at its support ends, so panel Gauss-Legendre reaches near
    machine precision.
    """
    if bump.dim != 1:
        raise ValueError("convolution synthesis is implemented for d = 1")
    from .kernels import ScaledKernel
    green = ScaledKernel(G, (2.0 * pi) ** (-bump.dim / 2.0))
    a, b = bump.support
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
                    acc += half * float(w_gl @ (green.profile(np.abs(x - t)) * bump(t)))
            out[i] = acc
        return out if np.ndim(xs) else float(out[0])

    return TestFunction(bump, G, green, f)


def quasi_interpolant(tf: TestFunction, Phi, X: PointSet, degree: int, c3: float,
                      spacing: float | None = None) -> np.ndarray:
    """Constructive coefficients: c_xi = integral of g(t) A(t, xi) dt.

    The integral runs over the cubes meeting the support of g = T f, with a
    midpoint rule of the given spacing (default h/4) inside each cube.
    Returns one coefficient per point of X.
    """
    g = tf.g
    d = X.dim
    side = X.h
    spacing = side / 4.0 if spacing is None else spacing
    m = max(1, int(np.ceil(side / spacing)))
    offs_1d = (np.arange(m) + 0.5) / m * side - side / 2.0
    mesh = np.meshgrid(*([offs_1d] * d), indexing="ij")
    offsets = np.stack([mm.ravel() for mm in mesh], axis=-1)
    w_quad = (side / m) ** d
    builder = LocalPolyBuilder(X, degree, c3)
    lo = np.floor((np.asarray(g.center) - g.width) / side + 0.5).astype(int)
    hi = np.floor((np.asarray(g.center) + g.width) / side + 0.5).astype(int)
    coeffs = np.zeros(X.n)
    for rel in np.ndindex(*(hi - lo + 1)):
        idx = tuple(lo + np.asarray(rel))
        center = cube_center(idx, side)
        samples = center + offsets
        gv = np.atleast_1d(g(samples if d > 1 else samples[:, 0]))
        if not np.any(gv):
            continue
        star, V, anchor, scale, _ = builder.cube_map(idx)
        z = (samples - anchor) / scale
        beta = np.stack([np.prod(z ** np.asarray(e), axis=1) for e in builder.exponents])
        alpha = V @ beta                      # (n_star, n_samples)
        coeffs[star] += w_quad * (alpha @ gv)
    return coeffs


def collocation_matrix(pts: np.ndarray, X: PointSet, Phi) -> np.ndarray:
    """Matrix of Phi(|pt - xi|): one row per point of pts, one column per xi in X.

    pts holds points of R^d, one per row; in d = 1 a flat array or a scalar
    is read as one point per entry.  For a compactly supported kernel the
    profile is evaluated only on pairs inside the support radius; pairs at
    or beyond it are exactly 0 and are not evaluated.  The values are
    written into the distance array, so no second full-size array is made.
    """
    D = cdist(np.reshape(pts, (-1, X.dim)), X.points)
    radius = Phi.support_radius
    if not np.isfinite(radius):
        return Phi.profile(D)
    inside = D < radius
    vals = Phi.profile(D[inside])
    D.fill(0.0)
    D[inside] = vals
    return D


def _ls_fit(f_vals: np.ndarray, grid: np.ndarray, Phi, X: PointSet,
            rcond: float | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Least-squares fit on the grid: (coefficients, fitted values, rank).

    The fitted values are the collocation matrix of the solve times the
    coefficients, so one matrix per grid serves both.
    """
    A = collocation_matrix(grid, X, Phi)
    coeffs, _, rank, _ = lstsq(A, f_vals, cond=rcond, lapack_driver="gelsd")
    return coeffs, A @ coeffs, int(rank)


def ls_witness(f_vals: np.ndarray, grid: np.ndarray, Phi, X: PointSet,
               rcond: float | None = None, return_rank: bool = False):
    """Coefficients minimizing the discrete l^2 error on the grid.

    Solved by an SVD-based factorization; the minimum-norm solution is
    taken, so a rank-deficient collocation matrix (grid too coarse, or
    translates with no support on the grid) stays well posed.  Pass
    return_rank=True to get (coeffs, effective rank) and inspect the
    deficiency.  rcond = None keeps every singular value above the
    machine-precision default; a fixed coarse cutoff (e.g. 1e-12) visibly
    floors the attainable error for the smoothest kernels, whose
    collocation spectra decay below it while the discarded modes still
    carry needed signal.

    The collocation matrix is built once per call.  The rate experiments
    take the witness values on the same grid from that matrix as well,
    instead of rebuilding it through evaluate_combination.
    """
    coeffs, _, rank = _ls_fit(f_vals, grid, Phi, X, rcond)
    if return_rank:
        return coeffs, rank
    return coeffs


def evaluate_combination(coeffs: np.ndarray, X: PointSet, Phi, pts: np.ndarray) -> np.ndarray:
    """Evaluate sum_xi c_xi Phi(. - xi) at the given points."""
    return collocation_matrix(pts, X, Phi) @ coeffs


def lp_error(f_vals: np.ndarray, s_vals: np.ndarray, p: float,
             weights: np.ndarray | None = None) -> float:
    """Composite-quadrature L^p norm of f - s on a common grid.

    p = inf is the grid maximum; finite p requires quadrature weights.
    """
    f_vals = np.asarray(f_vals)
    s_vals = np.asarray(s_vals)
    if f_vals.shape != s_vals.shape:
        raise ValueError("mismatched grids")
    diff = np.abs(f_vals - s_vals)
    if np.isinf(p):
        return float(diff.max())
    if weights is None:
        raise ValueError("finite p needs quadrature weights")
    if np.asarray(weights).shape != diff.shape:
        raise ValueError("mismatched quadrature weights")
    return float(np.sum(weights * diff ** p) ** (1.0 / p))


def fit_rate(levels, f_scale: float = 1.0) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(h).

    Levels with error below 100 * machine epsilon * f_scale are dropped as
    noise floor; at least 4 usable levels are required.  Returns
    (slope, rms residual of the fit).
    """
    levels = [(float(h), float(e)) for h, e in levels]
    if any(e <= 0 for _, e in levels):
        raise ValueError("errors must be positive")
    floor = 100.0 * np.finfo(float).eps * f_scale
    usable = [(h, e) for h, e in levels if e > floor]
    if len(usable) < 4:
        raise ValueError(f"need at least 4 usable levels, have {len(usable)}")
    lh = np.log([h for h, _ in usable])
    le = np.log([e for _, e in usable])
    (slope, intercept), res = np.polyfit(lh, le, 1), None
    fit = slope * lh + intercept
    residual = float(np.sqrt(np.mean((le - fit) ** 2)))
    return float(slope), residual
