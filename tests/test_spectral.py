"""Partial fractions, f_m, explicit transforms, and their 1-D asymptotics."""

from fractions import Fraction
from math import factorial

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from rbfbench.kernels import wendland_construct
from rbfbench import spectral
from rbfbench.spectral import (
    MAX_M,
    ORACLE_NODES,
    CalibrationError,
    amplitude_from_moments,
    build_measure_1d,
    f_m_eval,
    f_m_series,
    hankel_oracle,
    measure_convolve,
    measure_ft,
    partial_fractions,
    ratio_diagnostic,
    wendland_hat,
    wendland_transform,
)

from helpers import (
    f_m_series_oracle,
    gaussian,
    hankel_oracle_mp,
    multiply_back,
    wend1d_decompose,
)

ACCEPT_PAIRS = [(1, 1), (1, 2), (3, 1), (3, 2)]
# Every pair inside the exact construction guard: odd d <= 9, k <= 5.
SCOPE_PAIRS = [(d, k) for d in (1, 3, 5, 7, 9) for k in range(6)]


# ----------------------------------------------------------------------------
# Partial fraction tables
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(MAX_M + 1))
def test_multiply_back_is_exactly_one(m):
    total = multiply_back(partial_fractions(m))
    assert total[0] == gaussian(1)
    assert all(c == gaussian(0) for c in total[1:])


@pytest.mark.parametrize("m", range(MAX_M + 1))
def test_parity_and_top_coefficients(m):
    t = partial_fractions(m)
    assert t.alpha[m] == 1
    # Forced by the multiply-back identity: substituting s = -i into the
    # cleared equation gives beta_m * (-2)^(m+1) = 1.
    assert t.beta[m].re == Fraction((-1) ** (m + 1), 2 ** (m + 1))
    assert t.beta[m].im == 0
    for j in range(m + 1):
        if (j + m) % 2 == 1:
            assert t.alpha[j] == 0
            assert t.beta[j].re == 0
        else:
            assert t.beta[j].im == 0


def test_known_tables():
    t1 = partial_fractions(1)
    assert t1.alpha == (Fraction(0), Fraction(1))
    assert t1.beta[0] == gaussian(0, Fraction(-3, 4))
    assert t1.beta[1] == gaussian(Fraction(1, 4))
    t2 = partial_fractions(2)
    assert t2.alpha == (Fraction(-3), Fraction(0), Fraction(1))
    assert t2.beta[0] == gaussian(Fraction(3, 2))
    assert t2.beta[1] == gaussian(0, Fraction(9, 16))
    assert t2.beta[2] == gaussian(Fraction(-1, 8))


def test_guard():
    for build in (partial_fractions, f_m_series):
        with pytest.raises(ValueError):
            build(13)
        with pytest.raises(ValueError):
            build(-1)


# ----------------------------------------------------------------------------
# f_m
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 7))
def test_f_m_vanishes_at_zero(m):
    assert f_m_eval(m, 0.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("m,s,expected", [(1, 2.0, Fraction(1, 100)),
                                          (2, 1.0, Fraction(1, 8))])
def test_f_m_laplace_transform_oracle(m, s, expected):
    # Quadrature of f_m(t) e^(-s t) against 1/(s^(m+1) (1+s^2)^(m+1)).
    val, err = quad(lambda x: f_m_eval(m, x) * np.exp(-s * x), 0, 80.0, limit=400)
    assert val == pytest.approx(float(expected), abs=max(1e-10, 3 * err))


@pytest.mark.parametrize("m", range(MAX_M + 1))
def test_f_m_series_matches_trig_form_product(m):
    # The closed-form series against the table's trigonometric form times
    # the Maclaurin series of cos and sin: two independent derivations.
    assert f_m_series(m) == f_m_series_oracle(m)


def test_f_m_series_leading_coefficient_exact():
    for m in range(5):
        series = f_m_series(m)
        lead = 3 * m + 2
        assert all(c == 0 for c in series[:lead])
        assert series[lead] == Fraction(1, factorial(lead))


def test_f_m_known_closed_form():
    # m = 1: f(r) = r + (r/2) cos r - (3/2) sin r.
    rs = np.linspace(0.0, 20.0, 41)
    expected = rs + rs / 2 * np.cos(rs) - 1.5 * np.sin(rs)
    assert np.allclose(f_m_eval(1, rs), expected, atol=1e-14)
    # m = 0: every polynomial of the trigonometric form is one coefficient,
    # f(r) = 1 - cos r, and the value still takes the shape of the radii.
    grid = rs.reshape(1, 41)
    assert f_m_eval(0, grid).shape == (1, 41)
    assert np.allclose(f_m_eval(0, grid), 1.0 - np.cos(grid), atol=1e-15)


# ----------------------------------------------------------------------------
# Transforms and amplitudes
# ----------------------------------------------------------------------------

def test_hat_function_closed_form():
    ws = np.geomspace(0.05, 40.0, 30)
    expected = np.sqrt(2.0 / np.pi) * (1.0 - np.cos(ws)) / ws ** 2
    assert np.allclose(np.asarray(wendland_hat(1, 0, ws)), expected, rtol=1e-9)


def test_amplitude_is_positive_and_validated():
    for d, k in ACCEPT_PAIRS:
        tf = wendland_transform(d, k)
        assert tf.amplitude > 0.0
        assert max(tf.validation_residuals) < 1e-6


def test_cached_transform_residuals_cannot_be_changed():
    # wendland_transform caches its result, so a residual list that a
    # caller could append to would move every later spectral check.
    tf = wendland_transform(1, 2)
    residuals = tf.validation_residuals
    assert isinstance(residuals, tuple) and len(residuals) == 10
    with pytest.raises(AttributeError):
        residuals.append(1.0)
    assert spectral.spectral_check(1, 2)["validation_residuals"] == list(residuals)
    assert max(residuals) < 1e-6


@pytest.mark.parametrize("d,k", SCOPE_PAIRS)
def test_transform_validates_across_scope(d, k):
    tf = wendland_transform(d, k)
    assert tf.amplitude == amplitude_from_moments(d, k)
    assert max(tf.validation_residuals) < 1e-5


def test_no_agreeing_switch_radius_raises(monkeypatch):
    # (3,5) needs r >= 5 before direct evaluation of f_6 agrees with the
    # series; with only small candidates it must refuse, not fall back.
    monkeypatch.setattr(spectral, "SWITCH_CANDIDATES", (0.6, 0.8, 1.0))
    with pytest.raises(CalibrationError, match="no switch radius"):
        wendland_transform.__wrapped__(3, 5)


def test_amplitude_against_exact_moment_formula():
    # Independent one-point calibration: the high-precision oracle at r0 = 1
    # divided by f_m(1), summed exactly from the series.
    for d, k in ACCEPT_PAIRS:
        m = (d - 1) // 2 + k
        lead = 3 * m + 2
        oracle = hankel_oracle_mp(wendland_construct(d, k), d, 1.0, 40)
        calibrated = oracle / float(sum(f_m_series(m)[lead:]))
        assert amplitude_from_moments(d, k) == pytest.approx(calibrated, rel=1e-9, abs=0)


def test_amplitude_frozen_values():
    # Derived from the jumps of the (2k+1)-th derivative of the kernel:
    # sqrt(2 pi) B = 8 for (1,1) and 96 for (1,2).
    assert amplitude_from_moments(1, 1) == pytest.approx(8.0 / np.sqrt(2 * np.pi), rel=1e-9, abs=0)
    assert amplitude_from_moments(1, 2) == pytest.approx(96.0 / np.sqrt(2 * np.pi), rel=1e-9, abs=0)


@pytest.mark.parametrize("d,k", ACCEPT_PAIRS)
def test_transform_agrees_with_float_oracle(d, k):
    K = wendland_construct(d, k)
    for r in (0.5, 1.0, 5.0):
        oracle = hankel_oracle(K, r)
        err = abs(oracle - spectral._hankel_float(K.profile, d, r, 1.0, 32))
        assert float(wendland_hat(d, k, r)) == pytest.approx(
            oracle, rel=1e-6, abs=10 * abs(err))


@pytest.mark.parametrize("m", range(10))
def test_both_paths_match_exact_f_m(m):
    # One (d, k) inside the guard per m <= 9.  On both sides of the switch
    # the reduced transform must match f_m(r) r^(-3m-2) summed at 80 digits
    # from the exact table: f_m(r) = sum_j r^j/j! (alpha_j
    # + 2 Re(beta_j) cos r + 2 Im(beta_j) sin r).
    k = min(m, 5)
    tf = wendland_transform(2 * (m - k) + 1, k)
    table = partial_fractions(m)
    frac = lambda q: mp.mpf(q.numerator) / q.denominator
    with mp.workdps(80):
        def exact(r):
            r = mp.mpf(r)
            c, s = mp.cos(r), mp.sin(r)
            total = mp.mpf(0)
            for j, (a, b) in enumerate(zip(table.alpha, table.beta)):
                total += r ** j / mp.factorial(j) * (
                    frac(a) + 2 * frac(b.re) * c + 2 * frac(b.im) * s)
            return float(total / r ** (3 * m + 2))

        for r in np.linspace(0.05, 4 * tf.series_switch, 40):
            got = float(tf.hat(float(r))) / tf.amplitude
            assert got == pytest.approx(exact(r), rel=1e-9, abs=0), (r, tf.series_switch)


def test_small_radius_series_path():
    for d, k in ((1, 1), (3, 2)):
        tf = wendland_transform(d, k)
        lead = 3 * tf.m + 2
        # The series path continues the transform analytically through small
        # radii; check it against the high-precision oracle at r = 1e-2,
        # where direct evaluation of f_m has fully cancelled away.
        kernel = wendland_construct(d, k)
        oracle = hankel_oracle_mp(kernel, d, 1e-2, 40)
        assert float(wendland_hat(d, k, 1e-2)) == pytest.approx(oracle, rel=1e-9, abs=0)
        # Relative agreement of the two paths where both are solid.
        r = tf.series_switch + 0.05
        direct = float(f_m_eval(tf.m, r)) * r ** (-lead)
        series = float(np.polynomial.polynomial.polyval(r, tf.series))
        assert direct == pytest.approx(series, rel=1e-9, abs=0)


@pytest.mark.parametrize("d,k", ACCEPT_PAIRS)
def test_positivity_and_decay(d, k):
    m = (d - 1) // 2 + k
    rs = np.geomspace(1.0, 1e3, 200)
    vals = np.asarray(wendland_hat(d, k, rs))
    assert np.all(vals > 0.0)
    scaled = rs ** (2 * m + 2) * vals
    running = np.maximum.accumulate(scaled)
    final_decade = running[rs >= 100.0]
    assert final_decade[-1] / final_decade[0] < 1.05


def test_even_dimension_rejected():
    with pytest.raises(ValueError):
        wendland_hat(2, 1, 1.0)


# ----------------------------------------------------------------------------
# Quadrature oracle
# ----------------------------------------------------------------------------

def test_oracle_hat_closed_form():
    K = wendland_construct(1, 0)
    for r in (0.3, 2.0, 17.0):
        expected = np.sqrt(2 / np.pi) * (1 - np.cos(r)) / r ** 2
        assert hankel_oracle(K, r) == pytest.approx(expected, rel=1e-10, abs=0)


def test_oracle_gaussian_self_transform():
    gauss = lambda t: np.exp(-t ** 2 / 2.0)
    for r in (0.5, 1.5, 3.0):
        val = spectral._hankel_float(gauss, 3, r, 12.0, ORACLE_NODES)
        assert val == pytest.approx(np.exp(-r ** 2 / 2.0), rel=1e-9, abs=0)


def test_oracle_cross_checks_transform_in_3d():
    K = wendland_construct(3, 1)
    assert hankel_oracle(K, 1.0) == pytest.approx(
        float(wendland_hat(3, 1, 1.0)), rel=1e-9, abs=0)


def test_oracle_guards():
    K = wendland_construct(1, 1)
    with pytest.raises(ValueError):
        hankel_oracle(K, 0.0)


# ----------------------------------------------------------------------------
# 1-D decomposition
# ----------------------------------------------------------------------------

def test_decomposition_k1_closed_form():
    D = wend1d_decompose(1)
    assert D.const_term == Fraction(1)
    assert D.cos_coeff == Fraction(1, 2)
    assert D.sinc_coeff == Fraction(-3, 2)
    xs = np.array([0.5, 1.0, 3.0, 10.0, 200.0])
    assert np.max(np.abs(D.h_remainder(xs))) < 1e-12


def test_decomposition_k2_closed_form():
    D = wend1d_decompose(2)
    assert D.const_term == Fraction(1, 2)
    assert D.cos_coeff == Fraction(-1, 8)
    assert D.sinc_coeff == Fraction(9, 8)
    # The remainder equals -3 (1 - cos x)/x^2 for this order: the transform
    # of -3 sqrt(pi/2) times the unit hat function.
    xs = np.array([0.5, 1.0, 3.0])
    expected = -3.0 * (1.0 - np.cos(xs)) / xs ** 2
    assert np.allclose(D.h_remainder(xs), expected, atol=1e-8)


def test_decomposition_coefficient_closed_forms():
    for k in (1, 2, 3):
        D = wend1d_decompose(k)
        assert D.const_term == Fraction(1, factorial(k))
        assert D.cos_coeff == Fraction((-1) ** (k + 1), factorial(k) * 2 ** k)


def test_remainder_vanishes_at_infinity():
    for k in (2, 3):
        D = wend1d_decompose(k)
        xs = np.array([10.0, 50.0, 200.0, 1000.0])
        vals = np.abs(D.h_remainder(xs))
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < 1e-5


def test_decomposition_requires_positive_k():
    with pytest.raises(ValueError):
        wend1d_decompose(0)


def test_scaled_transform_tends_to_main_terms():
    # x^(2k+2) hat(Phi) - B (const + cos + sinc) -> 0 on a growing grid.
    for k in (1, 2):
        D = wend1d_decompose(k)
        xs = np.geomspace(10.0, 1e3, 40)
        scaled = xs ** (2 * k + 2) * np.asarray(wendland_hat(1, k, xs))
        resid = np.abs(scaled - D.amplitude * D.main_terms(xs))
        assert resid[-1] < 1e-4 * D.amplitude
        assert resid[-1] <= resid[0]
        if k == 1:   # remainder is identically zero here
            assert resid.max() < 1e-10 * D.amplitude


# ----------------------------------------------------------------------------
# One shape rule for the evaluators
# ----------------------------------------------------------------------------

EVALUATORS = {
    "wendland_hat": lambda x: wendland_hat(3, 1, x),
    "f_m_eval": lambda x: f_m_eval(2, x),
    "discrete_ft": lambda x: build_measure_1d(1).discrete_ft(x),
    "measure_ft": lambda x: measure_ft(build_measure_1d(1), x),
    "density": lambda x: build_measure_1d(1).density(x),
    "measure_convolve": lambda x: measure_convolve(build_measure_1d(1),
                                                   lambda t: np.exp(-t * t), x),
}
SHAPE_INPUTS = {
    "list": [0.5, 2.0, 7.5],
    "tuple": (0.5, 2.0, 7.5),
    "2-D array": np.array([[0.5, 2.0], [7.5, 11.0]]),
    "0-d array": np.array(2.0),
    "float": 2.0,
    "float64": np.float64(2.0),
}


@pytest.mark.parametrize("kind", SHAPE_INPUTS)
@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_share_one_shape_rule(name, kind):
    # A scalar or 0-d input gives a float, with the value of the ndarray
    # call; any array-like gives an array of its shape, with the values of
    # the flat call.
    evaluate, x = EVALUATORS[name], SHAPE_INPUTS[kind]
    got = evaluate(x)
    if np.ndim(x) == 0:
        assert type(got) is float and got == float(evaluate(np.asarray(x, dtype=float)))
    else:
        assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
        assert np.array_equal(got, evaluate(np.ravel(x)).reshape(np.shape(x)))


# ----------------------------------------------------------------------------
# Ratio diagnostic
# ----------------------------------------------------------------------------

def test_ratio_diagnostic_bounded():
    diag = ratio_diagnostic(1, 1)
    assert diag["min"] > 0.0
    assert np.isfinite(diag["max"])
    assert diag["gamma"] == 4


def test_ratio_diagnostic_at_zero():
    diag = ratio_diagnostic(3, 1)
    first = diag["table"][0]
    assert first["omega"] == 0.0
    expected = 1.0 / float(wendland_hat(3, 1, 0.0))
    assert first["ratio"] == pytest.approx(expected, rel=1e-12, abs=0)
    assert diag["min"] > 0.0


def test_ratio_diagnostic_requires_k_at_least_one():
    with pytest.raises(ValueError):
        ratio_diagnostic(1, 0)
