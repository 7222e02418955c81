"""Quadrature building blocks shared by the transform and measure code.

Oscillatory radial Fourier integrals are computed on Gauss-Legendre panels
whose width never exceeds a quarter period pi/(4*omega) of the oscillation,
so each panel sees a smooth, slowly varying integrand.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def panel_edges(a: float, b: float, omega: float) -> np.ndarray:
    """Panel edges covering [a, b] with width <= pi/(4*omega), at least 4 panels."""
    width = (b - a) / 4
    if omega > 0:
        width = min(width, np.pi / (4.0 * omega))
    n = max(4, int(np.ceil((b - a) / width)))
    return np.linspace(a, b, n + 1)


@lru_cache(maxsize=16)
def _gl_float(n: int):
    return np.polynomial.legendre.leggauss(n)


def panel_nodes(edges: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each panel [edges[i], edges[i+1]].

    Returns flat arrays (t, w), panel by panel, nodes entries per panel.
    """
    x, w = _gl_float(nodes)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    t = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    return t, (half[:, None] * w[None, :]).ravel()


def gl_panel_quad(f, a: float, b: float, omega: float, nodes: int) -> float:
    """Integrate callable f over [a, b] with oscillation-limited GL panels.

    f must accept a numpy array.  omega is the fastest angular frequency
    present in the integrand; omega = 0 means non-oscillatory.
    """
    if b <= a:
        return 0.0
    edges = panel_edges(a, b, omega)
    t, _ = panel_nodes(edges, nodes)
    vals = f(t).reshape(-1, nodes)
    # Sum per panel, then scale by its half-width: a flat sum against the
    # panel_nodes weights rounds differently and moves the oracle values.
    return float(np.sum(np.diff(edges) / 2.0 * (vals @ _gl_float(nodes)[1])))


def trapezoid_weights(n: int, spacing: float) -> np.ndarray:
    """Composite trapezoid weights for n uniformly spaced samples."""
    w = np.full(n, spacing)
    w[0] = w[-1] = spacing / 2.0
    return w
