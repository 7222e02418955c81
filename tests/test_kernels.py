"""Kernel construction and evaluation tests, and the Sobolev decay envelope."""

from fractions import Fraction

import numpy as np
import pytest

from rbfbench._exact import poly_derivative, poly_eval
from rbfbench.kernels import sobolev_spline_construct, wendland_construct

from helpers import (
    TABULATED_WENDLAND,
    fourier_cos_semiinf,
    kernel_derivative_mp,
    proportionality_factor,
    tabulated_poly,
)

ALL_PAIRS = sorted(TABULATED_WENDLAND)

# Inverse-transform oracle value of sqrt(pi/2) * exp(-1), frozen from the
# cosine-transform quadrature of (1 + w^2)^(-1) at x = 1.
G2_AT_ONE = 0.4610685044478946


@pytest.mark.parametrize("d,k", ALL_PAIRS)
def test_tabulated_proportionality_exact(d, k):
    built = wendland_construct(d, k).coeffs
    lam = proportionality_factor(built, tabulated_poly(d, k))
    assert lam is not None, f"({d},{k}) not proportional to the tabulated form"
    assert lam > 0


@pytest.mark.parametrize("d,k", ALL_PAIRS)
def test_compact_support_and_positivity(d, k):
    K = wendland_construct(d, k)
    assert np.all(K.profile(np.linspace(1.0, 3.0, 50)) == 0.0)
    assert K.profile(0.0) > 0.0


@pytest.mark.parametrize("d,k", ALL_PAIRS)
def test_boundary_smoothness_exact(d, k):
    coeffs = wendland_construct(d, k).coeffs
    for order in range(2 * k + 1):
        assert poly_eval(poly_derivative(coeffs, order), Fraction(1)) == 0


def test_construct_guards():
    with pytest.raises(ValueError):
        wendland_construct(0, 1)
    with pytest.raises(ValueError):
        wendland_construct(1, -1)
    with pytest.raises(ValueError):
        wendland_construct(11, 1)
    with pytest.raises(ValueError):
        wendland_construct(1, 7)


def test_eval_examples():
    assert wendland_construct(1, 0).profile(0.25) == pytest.approx(0.75)
    # |x| = 1.5 > support radius
    assert wendland_construct(3, 1).profile(np.linalg.norm([0.9, 0.9, 0.9])) == 0.0
    G2 = sobolev_spline_construct(2, 1)
    assert G2.profile(1.0) == pytest.approx(G2_AT_ONE, rel=1e-12, abs=0)


def test_sobolev_matches_inverse_transform_oracle():
    # d = 1: G(x) = sqrt(2/pi) * integral of (1+t^2)^(-gamma/2) cos(x t).
    for gamma in (2, 4):
        G = sobolev_spline_construct(gamma, 1)
        for x in (0.5, 1.0, 2.0):
            val, err = fourier_cos_semiinf(lambda t: (1 + t * t) ** (-gamma / 2.0), x)
            oracle = np.sqrt(2.0 / np.pi) * val
            assert float(G.profile(x)) == pytest.approx(oracle, abs=max(1e-9, 3 * err))


def test_sobolev_proportional_to_exponential():
    G2 = sobolev_spline_construct(2, 1)
    xs = np.array([0.5, 1.0, 2.0])
    ratio = G2.profile(xs) / np.exp(-xs)
    assert np.allclose(ratio, np.sqrt(np.pi / 2.0), rtol=1e-14)
    # Its polynomial is the one coefficient (1.0,); values keep the radii's shape.
    assert G2.profile(xs.reshape(3, 1)).shape == (3, 1)


def test_sobolev_nu_half_closed_form():
    G = sobolev_spline_construct(4, 3)
    assert G.nu == Fraction(1, 2)
    xs = np.geomspace(0.1, 10.0, 25)
    assert np.allclose(G.profile(xs), G.profile_bessel(xs), rtol=1e-8)


@pytest.mark.parametrize("gamma,d", [(2, 1), (4, 1), (4, 3), (6, 3)])
def test_closed_form_agrees_with_bessel_path(gamma, d):
    G = sobolev_spline_construct(gamma, d)
    xs = np.geomspace(0.1, 10.0, 40)
    assert np.allclose(G.profile(xs), G.profile_bessel(xs), rtol=1e-8)


@pytest.mark.parametrize("gamma,d", [(2, 1), (4, 1), (4, 2), (4, 3)])
def test_sobolev_positive_and_decreasing(gamma, d):
    G = sobolev_spline_construct(gamma, d)
    rs = np.geomspace(1e-3, 20.0, 120)
    vals = G.profile(rs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_sobolev_guards():
    with pytest.raises(ValueError):
        sobolev_spline_construct(3, 1)     # odd gamma
    with pytest.raises(ValueError):
        sobolev_spline_construct(2, 2)     # gamma <= d
    with pytest.raises(ValueError):
        sobolev_spline_construct(-2, 1)


def test_decay_bound_ratios():
    # |D^a G_gamma| against the asymptotic envelope near 0: exponent
    # gamma - d - |a| once |a| >= gamma - d, constant envelope below that.
    G = sobolev_spline_construct(4, 1)
    rs = np.geomspace(1e-3, 1e-1, 12)
    for order in (2, 3):
        expo = min(0, 4 - 1 - order)
        ratios = np.array([abs(kernel_derivative_mp(G, [r], (order,))) / r ** expo
                           for r in rs])
        assert ratios.max() / ratios.min() < 10.0
    # order 4 exceeds gamma - d: the envelope r^(-1) bounds the derivative
    # (the half-integer profile actually stays bounded here).
    vals = np.array([abs(kernel_derivative_mp(G, [r], (4,))) for r in rs])
    assert np.all(vals <= 10.0 * rs ** (-1.0))
    assert vals.max() < 5.0

