"""Quadrature building blocks shared by the transform and measure code.

Oscillatory radial Fourier integrals are computed on Gauss-Legendre panels
whose width never exceeds a quarter period pi/(4*omega) of the oscillation,
so each panel sees a smooth, slowly varying integrand.  High-precision
(mpmath) Gauss-Legendre nodes serve regimes where the result is many orders
of magnitude below the integrand scale and float64 cancellation would
dominate.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.integrate import quad


def panel_edges(a: float, b: float, omega: float, max_width: float | None = None) -> np.ndarray:
    """Panel edges covering [a, b] with width <= pi/(4*omega) (and <= max_width)."""
    width = (b - a) / 4
    if omega > 0:
        width = min(width, np.pi / (4.0 * omega))
    if max_width is not None:
        width = min(width, max_width)
    n = max(4, int(np.ceil((b - a) / width)))
    return np.linspace(a, b, n + 1)


@lru_cache(maxsize=16)
def _gl_float(n: int):
    return np.polynomial.legendre.leggauss(n)


def gl_panel_quad(f, a: float, b: float, omega: float = 0.0, nodes: int = 16,
                  max_width: float | None = None) -> float:
    """Integrate callable f over [a, b] with oscillation-limited GL panels.

    f must accept a numpy array.  omega is the fastest angular frequency
    present in the integrand; omega = 0 means non-oscillatory.
    """
    if b <= a:
        return 0.0
    x, w = _gl_float(nodes)
    edges = panel_edges(a, b, omega, max_width)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    return float(np.sum(half * (vals @ w)))


@lru_cache(maxsize=8)
def gl_nodes_mp(n: int, dps: int):
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


def fourier_cos_semiinf(f, omega: float, a: float = 0.0) -> tuple[float, float]:
    """(integral of f(t) cos(omega t) over [a, inf), error estimate).

    Uses the QUADPACK Fourier algorithm; f must decay at infinity.
    """
    if omega == 0.0:
        val, err = quad(f, a, np.inf, limit=400)
    else:
        val, err = quad(f, a, np.inf, weight="cos", wvar=omega, limlst=200)
    return val, err


def trapezoid_weights(n: int, spacing: float) -> np.ndarray:
    """Composite trapezoid weights for n uniformly spaced samples."""
    w = np.full(n, spacing)
    w[0] = w[-1] = spacing / 2.0
    return w
