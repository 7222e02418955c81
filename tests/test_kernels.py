"""Kernel construction, evaluation, and derivative tests."""

from fractions import Fraction

import numpy as np
import pytest

from rbfbench._exact import poly_derivative, poly_eval
from rbfbench.kernels import (
    SmoothnessError,
    kernel_derivative,
    kernel_eval,
    sobolev_spline_construct,
    wendland_construct,
)
from rbfbench.polyrep import monomial_exponents

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
    assert kernel_eval(wendland_construct(1, 0), [0.25]) == pytest.approx(0.75)
    # |x| = 1.5 > support radius
    assert kernel_eval(wendland_construct(3, 1), [0.9, 0.9, 0.9]) == 0.0
    G2 = sobolev_spline_construct(2, 1)
    assert kernel_eval(G2, [1.0]) == pytest.approx(G2_AT_ONE, rel=1e-12, abs=0)


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


def test_derivative_at_origin_is_zero_for_odd_orders():
    K = wendland_construct(1, 1)
    assert kernel_derivative(K, [0.0], (1,)) == 0.0
    K3 = wendland_construct(3, 2)
    assert kernel_derivative(K3, [0.0, 0.0, 0.0], (1, 0, 0)) == 0.0
    assert kernel_derivative(K3, [0.0, 0.0, 0.0], (1, 1, 1)) == 0.0


def test_derivative_outside_support_is_zero():
    K = wendland_construct(3, 1)
    assert kernel_derivative(K, [1.2, 0.0, 0.0], (2, 0, 0)) == 0.0
    assert kernel_derivative(K, [0.6, 0.6, 0.6], (1, 1, 0)) == 0.0


def test_derivative_matches_finite_differences():
    K = wendland_construct(3, 2)
    x0 = np.array([0.31, 0.17, -0.22])
    step = 1e-5
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = step
        fd = (kernel_eval(K, x0 + e) - kernel_eval(K, x0 - e)) / (2 * step)
        alpha = tuple(int(axis == j) for j in range(3))
        assert kernel_derivative(K, x0, alpha) == pytest.approx(fd, abs=1e-8)
    G = sobolev_spline_construct(4, 1)
    fd2 = (kernel_eval(G, [0.4 + 1e-4]) - 2 * kernel_eval(G, [0.4])
           + kernel_eval(G, [0.4 - 1e-4])) / 1e-8
    assert kernel_derivative(G, [0.4], (2,)) == pytest.approx(fd2, rel=1e-5, abs=0)


def test_derivative_order_guards():
    K = wendland_construct(1, 1)
    with pytest.raises(SmoothnessError):
        kernel_derivative(K, [0.2], (3,))
    G = sobolev_spline_construct(4, 1)
    with pytest.raises(SmoothnessError):
        kernel_derivative(G, [0.0], (3,))     # order >= gamma - d at origin
    kernel_derivative(G, [0.1], (3,))          # fine away from the origin


def test_decay_bound_ratios():
    # |D^a G_gamma| against the asymptotic envelope near 0: exponent
    # gamma - d - |a| once |a| >= gamma - d, constant envelope below that.
    G = sobolev_spline_construct(4, 1)
    rs = np.geomspace(1e-3, 1e-1, 12)
    for order in (2, 3):
        expo = min(0, 4 - 1 - order)
        ratios = np.array([abs(kernel_derivative(G, [r], (order,))) / r ** expo
                           for r in rs])
        assert ratios.max() / ratios.min() < 10.0
    # order 4 exceeds gamma - d: the envelope r^(-1) bounds the derivative
    # (the half-integer profile actually stays bounded here).
    vals = np.array([abs(kernel_derivative(G, [r], (4,))) for r in rs])
    assert np.all(vals <= 10.0 * rs ** (-1.0))
    assert vals.max() < 5.0


# (family, d, k or gamma, top order): Wendland up to its C^{2k} smoothness,
# Sobolev splines up to order 4.
DERIVATIVE_CASES = (
    [("wendland", d, k, min(2 * k, 4)) for d in (1, 2, 3) for k in (1, 2, 3)]
    + [("sobolev", d, gamma, 4) for gamma, d in
       ((2, 1), (4, 1), (6, 1), (4, 2), (6, 2), (4, 3), (6, 3), (8, 3))])


@pytest.mark.parametrize("family,d,order,top", DERIVATIVE_CASES,
                         ids=[f"{f}_d{d}_{o}" for f, d, o, _ in DERIVATIVE_CASES])
def test_derivative_matches_high_precision_reference(family, d, order, top):
    K = wendland_construct(d, order) if family == "wendland" else sobolev_spline_construct(order, d)
    rng = np.random.default_rng(d)
    dirs = rng.normal(size=(3, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # On an axis (and always in d = 1) the singular terms of D^alpha cancel;
    # near the origin they are largest.
    points = [0.06 * np.eye(d)[0]] + [r * u for r, u in zip((0.06, 0.3, 0.65), dirs)]
    for alpha in monomial_exponents(d, top)[1:]:
        for x in points:
            ref = kernel_derivative_mp(K, x, alpha, dps=40)
            got = kernel_derivative(K, x, alpha)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (alpha, x, got, ref)
