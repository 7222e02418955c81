"""The finite Borel measure factoring the Wendland transform."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from rbfbench import spectral
from rbfbench._quad import panel_nodes
from rbfbench.spectral import (
    CONV_BLOCK,
    CONV_NODES,
    CONV_PANELS,
    FiniteMeasure,
    amplitude_from_moments,
    build_measure_1d,
    measure_convolve,
    measure_ft,
    wendland_hat,
)

from helpers import PiecewiseLinear, young_trials


@pytest.fixture(scope="module")
def mu1():
    return build_measure_1d(1)


@pytest.fixture(scope="module")
def mu2():
    return build_measure_1d(2)


def test_atom_weights_exact(mu1, mu2):
    assert mu1.atoms == ((0.0, 8.0), (1.0, 2.0), (-1.0, 2.0))
    assert mu2.atoms == ((0.0, 48.0), (1.0, -6.0), (-1.0, -6.0))


def test_atom_weights_match_closed_forms(mu1, mu2):
    for k, mu in ((1, mu1), (2, mu2)):
        B = amplitude_from_moments(1, k)
        root = np.sqrt(2 * np.pi)
        assert mu.atoms[0][1] == pytest.approx(root * B / factorial(k), rel=1e-9, abs=0)
        assert mu.atoms[1][1] == pytest.approx(
            root * B * (-1) ** (k + 1) / (factorial(k) * 2 ** (k + 1)), rel=1e-9, abs=0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_building_the_measure_calibrates_no_transform(k):
    # B_k comes in closed form; the oracle-checked transform is not built.
    spectral.wendland_transform.cache_clear()
    build_measure_1d(k)
    assert spectral.wendland_transform.cache_info().currsize == 0


def test_density_is_kernel_plus_plateau_for_k1(mu1):
    # mu = Phi + Phi'''' : density Phi(t) - 6 on [-1, 1].
    ts = np.linspace(-0.99, 0.99, 21)
    phi = np.where(np.abs(ts) < 1,
                   1 / 12 - ts ** 2 / 2 + 2 * np.abs(ts) ** 3 / 3 - ts ** 4 / 4, 0.0)
    assert np.allclose(mu1.density(ts), phi - 6.0, atol=1e-12)
    assert mu1.density(np.array([1.5])) == 0.0


def test_tv_norm_recomputed(mu1, mu2):
    # Dense trapezoid can take the |.| kinks at the density's sign changes;
    # panel Gauss rules cannot, so it is the sharper independent recompute.
    ts = np.linspace(0.0, 1.0, 2_000_001)
    for mu in (mu1, mu2):
        vals = np.abs(mu.density(ts))
        dens_l1 = 2.0 * np.trapezoid(vals, ts)
        tv = sum(abs(w) for _, w in mu.atoms) + dens_l1
        assert mu.tv_norm == pytest.approx(tv, abs=1e-8)


def test_no_singular_continuous_part(mu1):
    # The type is atoms + absolutely continuous density; nothing else exists.
    assert set(vars(mu1)) >= {"atoms", "density_poly"}
    assert isinstance(mu1, FiniteMeasure)


def test_measure_ft_of_point_mass():
    triv = FiniteMeasure(((0.0, 1.0),), (Fraction(0),), 0.0)
    for w in (0.0, 2.7, 31.0):
        assert measure_ft(triv, w) == pytest.approx(1 / np.sqrt(2 * np.pi), rel=1e-14, abs=0)


def test_measure_ft_of_symmetric_atoms():
    w = 0.35
    pair = FiniteMeasure(((1.0, w), (-1.0, w)), (Fraction(0),), 0.0)
    omegas = np.linspace(0.0, 20.0, 9)
    expected = 2 * w * np.cos(omegas) / np.sqrt(2 * np.pi)
    assert np.allclose(measure_ft(pair, omegas), expected, atol=1e-14)


def test_measure_ft_takes_any_shape(mu1):
    omegas = np.linspace(0.0, 20.0, 6).reshape(2, 3)
    got = measure_ft(mu1, omegas)
    assert got.shape == (2, 3)
    assert np.array_equal(got, measure_ft(mu1, omegas.ravel()).reshape(2, 3))


def test_measure_ft_at_zero_matches_transform(mu1):
    assert measure_ft(mu1, 0.0) == pytest.approx(float(wendland_hat(1, 1, 0.0)),
                                                 rel=1e-10, abs=0)


@pytest.mark.parametrize("k", [1, 2])
def test_factorization_identity(k, mu1, mu2):
    mu = {1: mu1, 2: mu2}[k]
    omegas = np.linspace(0.0, 50.0, 101)
    lhs = np.asarray(measure_ft(mu, omegas)) / (1.0 + np.abs(omegas) ** (2 * k + 2))
    rhs = np.asarray(wendland_hat(1, k, omegas))
    assert np.abs(lhs - rhs).max() < 1e-4


@pytest.mark.parametrize("k", [1, 2])
def test_discrete_part_bounded_below(k, mu1, mu2):
    mu = {1: mu1, 2: mu2}[k]
    B = amplitude_from_moments(1, k)
    omegas = np.linspace(0.0, 50.0, 401)
    disc = np.abs(np.asarray(mu.discrete_ft(omegas)))
    assert disc.min() >= B / (2 * factorial(k)) * (1 - 1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_norms_are_derived_from_atoms_and_density(k):
    # The norms are not constructor arguments: a measure built from its
    # atoms, density and support carries them.
    mu = build_measure_1d(k)
    fresh = FiniteMeasure(mu.atoms, mu.density_poly, mu.support_radius)
    assert fresh.tv_norm == sum(abs(w) for _, w in fresh.atoms) + fresh.density_l1
    assert (fresh.density_l1, fresh.tv_norm) == (mu.density_l1, mu.tv_norm)


def test_convolution_against_direct_quadrature(mu1):
    # Smooth integrand: the fixed panel rule in measure_convolve is exact
    # to roundoff, so an independent quadrature must match tightly.
    f = lambda x: np.cos(1.7 * x) + 0.3 * x
    x0 = 0.37
    direct = sum(w * f(x0 - loc) for loc, w in mu1.atoms)
    T, W = panel_nodes(np.linspace(-1.0, 1.0, 41), 24)
    direct += np.sum(W * f(x0 - T) * mu1.density(T))
    val = measure_convolve(mu1, f, np.array([x0]))[0]
    assert val == pytest.approx(direct, rel=1e-11, abs=0)
    # Kinked integrand: panel rule accuracy degrades gracefully.
    g = lambda x: np.exp(-np.abs(x))
    direct = sum(w * g(x0 - loc) for loc, w in mu1.atoms)
    ts = np.linspace(-1.0, 1.0, 400_001)
    direct += np.trapezoid(g(x0 - ts) * mu1.density(ts), ts)
    val = measure_convolve(mu1, g, np.array([x0]))[0]
    assert val == pytest.approx(direct, rel=1e-5, abs=0)


@pytest.mark.parametrize("k", [1, 2])
def test_young_inequality(k, mu1, mu2):
    mu = {1: mu1, 2: mu2}[k]
    margins = young_trials(mu, 30, seed=k)
    for margin, rhs, p in margins:
        assert margin <= 1e-10 * rhs, f"violation at p={p}: margin {margin}"


# Rows of one measure_convolve block.
ROWS = CONV_BLOCK // (CONV_PANELS * CONV_NODES)


def _one_shot_convolve(mu, f, x):
    """The whole argument matrix x - T at once: the oracle for the blocks."""
    x = np.asarray(x, dtype=float)
    edges = np.linspace(-mu.support_radius, mu.support_radius, CONV_PANELS + 1)
    T, W = panel_nodes(edges, CONV_NODES)
    out = f(x[..., None] - T) @ (W * mu.density(T))
    for loc, w in mu.atoms:
        out = out + w * f(x - loc)
    return out


@pytest.mark.parametrize("k", [1, 2, 5])
def test_blocked_convolution_matches_one_shot(k):
    mu = build_measure_1d(k)
    f = PiecewiseLinear(np.random.default_rng(k))
    tol = 1e-13 * mu.tv_norm * np.abs(f.vals).max()
    span = 3.5 + mu.support_radius
    xs = [0.37] + [np.linspace(-span, span, n) for n in (1, ROWS - 1, ROWS, ROWS + 1, 2801)]
    xs.append(np.linspace(-span, span, 7 * 111).reshape(7, 111))
    for x in xs:
        got = measure_convolve(mu, f, x)
        want = _one_shot_convolve(mu, f, x)
        assert np.shape(got) == np.shape(want)
        assert np.abs(got - want).max() <= tol, (k, np.shape(x))


def test_convolution_passes_on_an_exception_raised_in_f(mu2):
    def f(t):
        if t.ndim == 2 and t[0, 0] > 0.0:
            raise ArithmeticError("f refuses positive arguments")
        return np.cos(t)

    with pytest.raises(ArithmeticError, match="f refuses positive arguments"):
        measure_convolve(mu2, f, np.linspace(-4.5, 4.5, 2801))
