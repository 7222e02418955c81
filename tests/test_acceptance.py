"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable.
"""

import time
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
import pytest

from rbfbench.experiments import RATE_TOLERANCE, ExperimentConfig, run_rate_experiment
from rbfbench.geometry import Box, make_quasi_uniform
from rbfbench.kernels import wendland_construct
from rbfbench.polyrep import LocalPolyBuilder, monomial_exponents, property2_scan
from rbfbench.spectral import (
    amplitude_from_moments,
    build_measure_1d,
    partial_fractions,
    wendland_hat,
)

from helpers import (
    TABULATED_WENDLAND,
    gaussian,
    hankel_oracle_mp,
    multiply_back,
    proportionality_factor,
    tabulated_poly,
    young_trials,
)

ACCEPT_PAIRS = [(1, 1), (1, 2), (3, 1), (3, 2)]


def _report(n, elapsed, detail):
    print(f"\n[criterion {n:>2}] PASS  ({elapsed:6.2f}s)  {detail}")


def test_criterion_01_tabulated_wendland_exact():
    start = time.perf_counter()
    for (d, k) in sorted(TABULATED_WENDLAND):
        lam = proportionality_factor(wendland_construct(d, k).coeffs,
                                     tabulated_poly(d, k))
        assert lam is not None and lam > 0, f"({d},{k}) failed"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed, "7 tabulated Wendland polynomials matched exactly "
                        "(up to a positive rational factor)")


def test_criterion_02_partial_fraction_exactness():
    # Clearing denominators and substituting s = -i forces
    # beta_m * (-2)^(m+1) = 1, i.e. beta_m = (-1)^(m+1)/2^(m+1); the exact
    # multiply-back identity asserted below pins that sign, and the
    # verified cosine coefficient of the asymptotic decomposition
    # ((-1)^(k+1)/(k! 2^k) = 2 beta_k / k!) requires the same value.
    start = time.perf_counter()
    for m in range(9):
        t = partial_fractions(m)
        total = multiply_back(t)
        assert total[0] == gaussian(1)
        assert all(c == gaussian(0) for c in total[1:])
        assert t.alpha[m] == 1
        assert t.beta[m] == gaussian(Fraction((-1) ** (m + 1), 2 ** (m + 1)))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, elapsed, "multiply-back identity exact for m = 0..8; "
                        "alpha_m = 1, |beta_m| = 2^-(m+1) with the sign "
                        "forced by the identity")


def test_criterion_03_transform_agreement():
    start = time.perf_counter()
    radii = np.geomspace(0.1, 50.0, 20)
    worst = {}
    for d, k in ACCEPT_PAIRS:
        kernel = wendland_construct(d, k)
        devs = []
        for r in radii:
            oracle = hankel_oracle_mp(kernel, d, float(r), 35)
            val = float(wendland_hat(d, k, float(r)))
            devs.append(abs(val - oracle) / abs(oracle))
        worst[(d, k)] = max(devs)
        assert worst[(d, k)] < 1e-6, f"({d},{k}): {worst[(d, k)]:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    detail = ", ".join(f"({d},{k}): {v:.1e}" for (d, k), v in worst.items())
    _report(3, elapsed, f"max relative deviation vs quadrature oracle: {detail}")


def test_criterion_04_transform_decay():
    start = time.perf_counter()
    growths = {}
    for d, k in ACCEPT_PAIRS:
        m = (d - 1) // 2 + k
        rs = np.geomspace(1.0, 1e3, 400)
        scaled = rs ** (2 * m + 2) * np.asarray(wendland_hat(d, k, rs))
        assert np.all(np.isfinite(scaled))
        running = np.maximum.accumulate(scaled)
        final = running[rs >= 100.0]
        growth = final[-1] / final[0] - 1.0
        growths[(d, k)] = growth
        assert growth < 0.05
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"({d},{k}): {100 * g:.2f}%" for (d, k), g in growths.items())
    _report(4, elapsed, f"r^(2m+2)-scaled transform bounded; final-decade "
                        f"growth {detail}")


def test_criterion_05_measure_factorization():
    start = time.perf_counter()
    details = []
    for k in (1, 2):
        mu = build_measure_1d(k)
        omegas = np.linspace(0.0, 50.0, 201)
        from rbfbench.spectral import measure_ft
        lhs = np.asarray(measure_ft(mu, omegas)) / (1.0 + np.abs(omegas) ** (2 * k + 2))
        rhs = np.asarray(wendland_hat(1, k, omegas))
        resid = np.abs(lhs - rhs).max()
        assert resid < 1e-4, f"k={k}: {resid:.2e}"
        disc = np.abs(np.asarray(mu.discrete_ft(omegas)))
        bound = amplitude_from_moments(1, k) / (2.0 * factorial(k))
        assert disc.min() >= bound * (1 - 1e-12)
        details.append(f"k={k}: resid {resid:.1e}, disc min {disc.min():.3f} "
                       f">= {bound:.3f}")
    elapsed = time.perf_counter() - start
    _report(5, elapsed, "; ".join(details))


def test_criterion_06_polynomial_reproduction():
    start = time.perf_counter()
    worst_err = 0.0
    worst_l1 = 0.0
    # Padding keeps stars two-sided near the region boundary, as in the
    # rate pipeline (the point sets emulate globally scattered data).
    configs = [(1, 1 / 32, 3, 32.0, 0.75), (2, 1 / 16, 2, 6.0, 0.6)]
    for seed in (1, 2, 3):
        for d, spacing, degree, c3, pad in configs:
            dom = Box((0.0,) * d, (1.0,) * d)
            X = make_quasi_uniform(dom, spacing, jitter=0.25, seed=seed, pad=pad)
            builder = LocalPolyBuilder(X, degree, c3)
            exponents = monomial_exponents(d, degree)
            rng = np.random.default_rng(seed)
            polys = np.array([rng.normal(size=len(exponents)) for _ in range(20)])
            ts = rng.uniform(0, 1, size=(100, d))
            # All 100 t by cube, through the grouping the pipelines use.
            for rows, star, A in builder.weights_by_cube(ts):
                worst_l1 = max(worst_l1, np.abs(A).sum(axis=0).max())
                powers = np.stack([np.prod(X.points[star] ** np.asarray(e), axis=1)
                                   for e in exponents])
                t_powers = np.stack([np.prod(ts[rows] ** np.asarray(e), axis=1)
                                     for e in exponents])
                err = np.abs((polys @ powers) @ A - polys @ t_powers)
                worst_err = max(worst_err, err.max())
    assert worst_err < 1e-9
    assert worst_l1 <= 2.5
    elapsed = time.perf_counter() - start
    _report(6, elapsed, f"1-D and 2-D, seeds 1-3: max reproduction error "
                        f"{worst_err:.1e}, max functional l1 norm {worst_l1:.3f}")


def _rate_report(cfg):
    return run_rate_experiment(cfg)


def test_criterion_07_sobolev_spline_rate():
    start = time.perf_counter()
    cfg = ExperimentConfig(family="sobolev", d=1, gamma=2, p_list=(2.0,),
                           levels=5, h0=1 / 8, jitter=0.25, seed=7)
    rep = _rate_report(cfg)["error_p2"]
    elapsed = time.perf_counter() - start
    assert rep.fitted_rate is not None and rep.fitted_rate >= 1.6
    assert elapsed < 120.0
    _report(7, elapsed, f"gamma=2, d=1, p=2: fitted L2 slope "
                        f"{rep.fitted_rate:.3f} (theory 2.0, floor 1.6)")


def test_criterion_08_wendland_rates():
    start = time.perf_counter()
    cfg1 = ExperimentConfig(family="wendland", d=1, k=1, p_list=(2.0, np.inf),
                            levels=5, h0=1 / 8, jitter=0.25, seed=7)
    reps1 = _rate_report(cfg1)
    s2 = reps1["error_p2"].fitted_rate
    sinf = reps1["error_pinf"].fitted_rate
    assert s2 is not None and s2 >= 1.6
    assert sinf is not None and sinf >= 1.6
    cfg2 = ExperimentConfig(family="wendland", d=1, k=2, p_list=(2.0,),
                            levels=5, h0=1 / 8, jitter=0.25, seed=7)
    s4 = _rate_report(cfg2)["error_p2"].fitted_rate
    assert s4 is not None and s4 >= 3.4
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(8, elapsed, f"k=1: L2 slope {s2:.3f}, Linf slope {sinf:.3f} "
                        f"(floor 1.6); k=2: L2 slope {s4:.3f} (floor 3.4)")


# The paper's L^p claim for 1 <= p <= inf, over one d = 1 matrix of
# (family, order, witness).  Cells that miss the gate today are strict
# xfails, so a mend turns them red until the mark goes.
_FLOAT64_FLOOR = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 7: the k = 3 ls witness stalls at the float64 floor")
_QUASI_PAD = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: gamma = 4 quasi stars reach past the pad of 2")


def _rate_matrix_cells():
    for family, order, witness in [("wendland", 1, "ls"), ("wendland", 2, "ls"),
                                   ("wendland", 3, "ls"), ("sobolev", 2, "ls"),
                                   ("sobolev", 4, "ls"), ("sobolev", 2, "quasi"),
                                   ("sobolev", 4, "quasi")]:
        for p in (1.0, 2.0, np.inf):
            marks = ()
            if family == "wendland" and order == 3:
                marks = _FLOAT64_FLOOR
            elif witness == "quasi" and order == 4 and p > 1:
                marks = _QUASI_PAD
            yield pytest.param(family, order, witness, p, marks=marks,
                               id=f"{family}{order}-{witness}-p{p:g}")


@lru_cache(maxsize=None)
def _matrix_reports(family, order, witness):
    orders = {"k": order} if family == "wendland" else {"gamma": order}
    return run_rate_experiment(ExperimentConfig(
        family=family, d=1, **orders, witness=witness, p_list=(1.0, 2.0, np.inf),
        levels=5, h0=1 / 8, seed=7))


@pytest.mark.parametrize("family,order,witness,p", _rate_matrix_cells())
def test_lp_rate_matrix_d1(family, order, witness, p):
    # Only the lower side is gated: Wendland k = 1 runs at 3.2-3.8
    # against its theory rate of 2.
    rep = _matrix_reports(family, order, witness)[f"error_p{p:g}"]
    assert rep.fitted_rate is not None
    assert rep.fitted_rate >= rep.theory_rate - RATE_TOLERANCE, (
        f"slope {rep.fitted_rate:.3f} against theory {rep.theory_rate}")
    print(f"\n[L^p matrix   ] PASS  {family} order {order} {witness}, p={p:g}: "
          f"slope {rep.fitted_rate:.3f} (theory {rep.theory_rate})")


def test_criterion_09_error_kernel_scaling():
    start = time.perf_counter()
    Phi = wendland_construct(1, 1)
    cs = []
    for spacing in (1 / 16, 1 / 32):
        X = make_quasi_uniform(Box((0.0,), (1.0,)), spacing, jitter=0.25,
                               seed=7, pad=2.0)
        scan = property2_scan(Phi, X, kappa=2.0, ell=2.0, sample_budget=1200,
                              degree=1, c3=16.0, seed=0)
        cs.append(scan.c_emp)
    ratio = cs[0] / cs[1]
    assert 0.25 <= ratio <= 4.0
    elapsed = time.perf_counter() - start
    _report(9, elapsed, f"C_emp(h)/C_emp(h/2) = {ratio:.3f} within [1/4, 4]")


def test_criterion_10_young_inequality():
    start = time.perf_counter()
    worst_rel = -np.inf
    for k in (1, 2):
        mu = build_measure_1d(k)
        for margin, rhs, p in young_trials(mu, 50, seed=k):
            worst_rel = max(worst_rel, margin / rhs)
            assert margin <= 1e-10 * rhs, f"k={k}, p={p}: margin {margin}"
    elapsed = time.perf_counter() - start
    _report(10, elapsed, f"100 convolution trials (p in 1, 2, inf): worst "
                         f"lhs/rhs - 1 = {worst_rel:.2e}")


def test_wendland_3d_smoke():
    # Scaling of the 3-D rate theorem is not verified at desk scale; this
    # smoke run asserts only that the witness error decreases across one
    # halving (the analytical ingredients are covered by criteria 3 and 4).
    start = time.perf_counter()
    cfg = ExperimentConfig(family="wendland", d=3, k=1, p_list=(2.0,),
                           levels=2, h0=1 / 3, jitter=0.0, seed=7, pad=1 / 3,
                           bump_width=0.15, grid_factor=2.05)
    rep = _rate_report(cfg)["error_p2"]
    e0, e1 = rep.levels[0]["error"], rep.levels[-1]["error"]
    assert e1 < e0
    elapsed = time.perf_counter() - start
    print(f"\n[smoke d=3    ] PASS  ({elapsed:6.2f}s)  k=1 witness error "
          f"{e0:.3e} -> {e1:.3e} across one halving")
