"""Test-function synthesis, witnesses, error norms, and rate fitting."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial.distance import cdist

from rbfbench import approx, experiments
from rbfbench._quad import trapezoid_weights
from rbfbench.approx import (
    SmoothBump,
    _ls_fit,
    collocation_matrix,
    evaluate_combination,
    fit_rate,
    lp_error,
    ls_witness,
    quasi_interpolant,
    sobolev_greens_pair,
    synth_test_function,
)
from rbfbench.geometry import Box, make_quasi_uniform
from rbfbench.kernels import ScaledKernel, sobolev_spline_construct, wendland_construct

UNIT_1D = Box((0.0,), (1.0,))


@pytest.fixture(scope="module")
def g2_testfunction():
    G2 = sobolev_spline_construct(2, 1)
    return synth_test_function(G2, SmoothBump((0.5,), 0.2))


def test_synthesized_f_positive_and_smooth(g2_testfunction):
    xs = np.linspace(-0.5, 1.5, 41)
    vals = g2_testfunction.f(xs)
    assert np.all(vals > 0.0)          # convolution of positives
    assert vals.argmax() == 20         # peaked at the bump center


def test_operator_identity_by_finite_differences(g2_testfunction):
    # (1 - d^2/dx^2) f = g, with f'' from a 5-point stencil.
    tf = g2_testfunction
    step = 2e-3
    for x in np.linspace(0.3, 0.7, 10):
        sten = x + step * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        v = tf.f(sten)
        fpp = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * step ** 2)
        assert v[2] - fpp == pytest.approx(tf.Tf(x), abs=1e-6)


def test_greens_pair_continuum_reproduction(g2_testfunction):
    # Replacing the point set by a continuum quadrature grid must give f
    # back: integral of Tf(t) G_green(x - t) dt = f(x) at random points.
    pair = sobolev_greens_pair(2, 1)
    assert pair.smoothness_order == 2
    tf = g2_testfunction
    rng = np.random.default_rng(1)
    ts = np.linspace(0.3, 0.7, 20001)
    w = trapezoid_weights(ts.size, ts[1] - ts[0])
    for x in rng.uniform(-0.5, 1.5, size=12):
        recon = np.sum(w * tf.Tf(ts) * pair.G_green.profile(np.abs(x - ts)))
        assert recon == pytest.approx(tf.f(x), abs=5e-8)


def test_seminorm_equals_source_norm(g2_testfunction):
    tf = g2_testfunction
    for p in (1.0, 2.0):
        direct, err = quad(lambda x: abs(tf.g(x)) ** p, 0.3, 0.7, limit=200)
        assert tf.seminorm(p) == pytest.approx(direct ** (1 / p), abs=1e-8)
    assert tf.seminorm(np.inf) == pytest.approx(1.0)


def test_quasi_interpolant_zero_source(g2_testfunction):
    tf = g2_testfunction
    ps = make_quasi_uniform(UNIT_1D, 1 / 8, pad=1.0)
    silent = synth_test_function(tf.G, SmoothBump((0.5,), 0.2, amplitude=0.0))
    coeffs = quasi_interpolant(silent, silent.G_green, ps, degree=1, c3=8.0)
    assert np.all(coeffs == 0.0)


def test_quasi_interpolant_mass(g2_testfunction):
    # Degree-0 reproduction: weights at each t sum to one, so the total
    # coefficient mass reproduces the mass of the source term.
    tf = g2_testfunction
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, pad=1.0)
    coeffs = quasi_interpolant(tf, tf.G_green, ps, degree=0, c3=4.0)
    mass, _ = quad(tf.g, 0.3, 0.7, limit=100)
    assert coeffs.sum() == pytest.approx(mass, rel=0.01)


def test_quasi_interpolant_refinement_stable(g2_testfunction):
    tf = g2_testfunction
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, pad=1.0)
    c4 = quasi_interpolant(tf, tf.G_green, ps, degree=2, c3=24.0)
    c8 = quasi_interpolant(tf, tf.G_green, ps, degree=2, c3=24.0,
                           spacing=ps.h / 8.0)
    scale = np.abs(c4).max()
    assert np.abs(c4 - c8).max() < 0.01 * scale


def test_ls_witness_recovers_translates():
    # Points inside the fit window keep the translates independent on the
    # grid, so the witness returns the exact unit coefficient vector.
    Phi = wendland_construct(1, 1)
    ps = make_quasi_uniform(UNIT_1D, 1 / 8)
    grid = np.linspace(0, 1, 201)[:, None]
    j0 = ps.n // 2
    f_vals = Phi.profile(np.abs(grid[:, 0] - ps.points[j0, 0]))
    coeffs = ls_witness(f_vals, grid, Phi, ps)
    s_vals = evaluate_combination(coeffs, ps, Phi, grid)
    assert np.abs(f_vals - s_vals).max() < 1e-10
    expected = np.zeros(ps.n)
    expected[j0] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-8)
    # a sum of two translates is recovered exactly as well
    f2 = f_vals + 0.7 * Phi.profile(np.abs(grid[:, 0] - ps.points[j0 - 2, 0]))
    c2 = ls_witness(f2, grid, Phi, ps)
    s2 = evaluate_combination(c2, ps, Phi, grid)
    assert np.abs(f2 - s2).max() < 1e-10
    expected[j0 - 2] = 0.7
    assert np.allclose(c2, expected, atol=1e-8)


def _full_profile_matrix(pts, X, Phi):
    """Reference collocation matrix: the profile evaluated on every pair."""
    return Phi.profile(cdist(np.reshape(pts, (-1, X.dim)), X.points))


COLLOCATION_KERNELS = (
    [pytest.param(wendland_construct(d, k), id=f"wendland_d{d}_k{k}")
     for d in (1, 2, 3) for k in (0, 1, 2, 3)]
    + [pytest.param(ScaledKernel(wendland_construct(2, 1), 0.37), id="scaled_wendland"),
       pytest.param(ScaledKernel(sobolev_spline_construct(4, 3), 0.37),
                    id="scaled_sobolev"),
       pytest.param(sobolev_spline_construct(4, 1), id="sobolev_d1_closed_form"),
       pytest.param(sobolev_spline_construct(4, 3), id="sobolev_d3_closed_form"),
       pytest.param(sobolev_spline_construct(4, 2), id="sobolev_d2_bessel")])


@pytest.mark.parametrize("Phi", COLLOCATION_KERNELS)
def test_collocation_matrix_bit_identical_to_full_profile(Phi):
    # Masking pairs outside the support changes which entries are
    # evaluated, never their values: the least-squares solves downstream
    # are ill-conditioned enough to amplify any last-digit change.
    d = Phi.dim
    X = make_quasi_uniform(Box((0.0,) * d, (1.0,) * d), 1 / 4, seed=5, pad=0.5)
    pts = np.random.default_rng(d).uniform(-0.5, 1.5, size=(60, d))
    A = collocation_matrix(pts, X, Phi)
    assert np.array_equal(A, _full_profile_matrix(pts, X, Phi))
    if np.isfinite(Phi.support_radius):
        outside = cdist(pts, X.points) >= Phi.support_radius
        assert outside.any() and (~outside).any()
        assert np.all(A[outside] == 0.0)


def test_collocation_matrix_takes_flat_points_in_1d():
    Phi = wendland_construct(1, 1)
    ps = make_quasi_uniform(UNIT_1D, 1 / 8)
    coeffs = np.random.default_rng(0).normal(size=ps.n)
    xs = np.linspace(0, 1, 5)
    s_vals = evaluate_combination(coeffs, ps, Phi, xs)
    assert s_vals.shape == (5,)
    assert np.array_equal(s_vals, evaluate_combination(coeffs, ps, Phi, xs[:, None]))
    assert evaluate_combination(coeffs, ps, Phi, 0.5).shape == (1,)


@pytest.mark.parametrize("Phi", [wendland_construct(2, 1), sobolev_spline_construct(4, 2)],
                         ids=["wendland_d2_k1", "sobolev_d2_g4"])
def test_ls_fit_values_equal_evaluate_combination(Phi):
    X = make_quasi_uniform(Box((0.0, 0.0), (1.0, 1.0)), 1 / 4, seed=2, pad=1.0)
    axis = np.linspace(0, 1, 21)
    grid = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], -1)
    f_vals = SmoothBump((0.5, 0.5), 0.3)(grid)
    coeffs, s_vals, rank = _ls_fit(f_vals, grid, Phi, X)
    w_coeffs, w_rank = ls_witness(f_vals, grid, Phi, X, return_rank=True)
    assert np.array_equal(coeffs, w_coeffs) and rank == w_rank
    assert np.array_equal(s_vals, evaluate_combination(w_coeffs, X, Phi, grid))


def test_rate_report_equals_two_build_reference(monkeypatch):
    # One matrix per level gives the same report as solving on a
    # full-profile matrix and building it again to evaluate the witness.
    cfg = experiments.ExperimentConfig(family="wendland", d=2, k=1, levels=2,
                                       h0=1 / 4, p_list=(2.0, np.inf), seed=0)
    fast = {key: rep.to_dict() for key, rep in
            experiments.run_rate_experiment(cfg).items()}

    def two_builds(f_vals, grid, Phi, X):
        coeffs, rank = ls_witness(f_vals, grid, Phi, X, return_rank=True)
        return coeffs, evaluate_combination(coeffs, X, Phi, grid), rank

    monkeypatch.setattr(approx, "collocation_matrix", _full_profile_matrix)
    monkeypatch.setattr(experiments, "_ls_fit", two_builds)
    reference = {key: rep.to_dict() for key, rep in
                 experiments.run_rate_experiment(cfg).items()}
    assert fast == reference


def test_lp_error_basics():
    grid = np.linspace(0, 1, 101)
    w = trapezoid_weights(101, 0.01)
    f = np.sin(grid)
    assert lp_error(f, f, 2, w) == 0.0
    c = 0.37
    assert lp_error(f, f + c, 1, w) == pytest.approx(c, rel=1e-12)
    assert lp_error(f, f + c, 2, w) == pytest.approx(c, rel=1e-12)
    assert lp_error(f, f + c, np.inf) == pytest.approx(c, rel=1e-12)
    with pytest.raises(ValueError):
        lp_error(f, f[:-1], 2, w)
    with pytest.raises(ValueError):
        lp_error(f, f, 2, None)


def test_l2_norm_against_parseval():
    # Periodic case: trapezoid over one period against the transform side.
    n = 1024
    x = np.linspace(0, 2 * np.pi, n, endpoint=False)
    rng = np.random.default_rng(0)
    f = sum(rng.normal() * np.cos(j * x) + rng.normal() * np.sin(j * x)
            for j in range(1, 6))
    w = np.full(n, x[1] - x[0])
    quad_norm = lp_error(f, np.zeros_like(f), 2, w)
    coeffs = np.fft.rfft(f) / n
    power = np.abs(coeffs[0]) ** 2 + 2 * np.sum(np.abs(coeffs[1:]) ** 2)
    parseval = np.sqrt(2 * np.pi * power)
    assert quad_norm == pytest.approx(parseval, rel=1e-6)


def test_fit_rate_exact_power_law():
    hs = [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128]
    slope, residual = fit_rate([(h, 3.7 * h ** 2) for h in hs])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert residual < 1e-12


def test_fit_rate_with_noise():
    rng = np.random.default_rng(42)
    hs = np.geomspace(1 / 8, 1 / 256, 6)
    levels = [(h, 2.0 * h ** 2 * (1 + 0.05 * rng.normal())) for h in hs]
    slope, _ = fit_rate(levels)
    assert abs(slope - 2.0) < 0.15


def test_fit_rate_robust_to_garbage():
    levels = [(1 / 8, 1e-3), (1 / 16, 5e-2), (1 / 32, 1e-4), (1 / 64, 2e-2)]
    slope, residual = fit_rate(levels)
    assert np.isfinite(slope)
    assert residual > 1.0


def test_fit_rate_guards():
    with pytest.raises(ValueError):
        fit_rate([(1 / 8, 1e-3), (1 / 16, 1e-4), (1 / 32, 1e-5)])
    with pytest.raises(ValueError):
        fit_rate([(1 / 8, 0.0), (1 / 16, 1e-4), (1 / 32, 1e-5), (1 / 64, 1e-6)])
    # levels at the noise floor are dropped
    with pytest.raises(ValueError):
        fit_rate([(1 / 8, 1e-15), (1 / 16, 1e-15), (1 / 32, 1e-15),
                  (1 / 64, 1e-15)], f_scale=1.0)


def test_witness_beats_quasi_interpolant(g2_testfunction):
    tf = g2_testfunction
    G2 = tf.G
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, jitter=0.25, seed=7, pad=2.0)
    grid = np.linspace(0, 1, 401)[:, None]
    w = trapezoid_weights(401, grid[1, 0] - grid[0, 0])
    f_vals = tf.f(grid[:, 0])
    cq = quasi_interpolant(tf, tf.G_green, ps, degree=2, c3=24.0)
    eq = lp_error(f_vals, evaluate_combination(cq, ps, tf.G_green, grid), 2, w)
    cw = ls_witness(f_vals, grid, G2, ps)
    ew = lp_error(f_vals, evaluate_combination(cw, ps, G2, grid), 2, w)
    assert ew <= eq


def test_quasi_interpolant_rate(g2_testfunction):
    # The constructive witness alone reaches the second-order rate for the
    # gamma = 2 spline (the least-squares witness can only do better).
    tf = g2_testfunction
    levels = []
    for s in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        ps = make_quasi_uniform(UNIT_1D, s, jitter=0.25, seed=7, pad=2.0)
        grid = np.linspace(0, 1, 401)[:, None]
        w = trapezoid_weights(401, grid[1, 0] - grid[0, 0])
        f_vals = tf.f(grid[:, 0])
        co = quasi_interpolant(tf, tf.G_green, ps, degree=2, c3=24.0)
        s_vals = evaluate_combination(co, ps, tf.G_green, grid)
        levels.append((ps.h, lp_error(f_vals, s_vals, 2, w)))
    slope, _ = fit_rate(levels)
    assert slope >= 1.6


def test_translation_equivariance():
    Phi = wendland_construct(1, 1)
    bump = SmoothBump((0.5,), 0.2)
    shift = 13.75
    bump_s = SmoothBump((0.5 + shift,), 0.2)
    errs = []
    for b, lo in ((bump, 0.0), (bump_s, shift)):
        dom = Box((lo,), (lo + 1.0,))
        ps = make_quasi_uniform(dom, 1 / 16, jitter=0.25, seed=3, pad=2.0)
        grid = np.linspace(lo, lo + 1.0, 401)[:, None]
        w = trapezoid_weights(401, grid[1, 0] - grid[0, 0])
        f_vals = b(grid[:, 0])
        co = ls_witness(f_vals, grid, Phi, ps)
        errs.append(lp_error(f_vals, evaluate_combination(co, ps, Phi, grid), 2, w))
    assert errs[0] == pytest.approx(errs[1], abs=1e-10)


def test_error_grid_refinement_stable():
    Phi = wendland_construct(1, 1)
    bump = SmoothBump((0.5,), 0.2)
    ps = make_quasi_uniform(UNIT_1D, 1 / 32, jitter=0.25, seed=7, pad=2.0)
    errs = []
    for n in (801, 1601):
        grid = np.linspace(0, 1, n)[:, None]
        w = trapezoid_weights(n, grid[1, 0] - grid[0, 0])
        f_vals = bump(grid[:, 0])
        co = ls_witness(f_vals, grid, Phi, ps)
        errs.append(lp_error(f_vals, evaluate_combination(co, ps, Phi, grid), 2, w))
    assert abs(errs[1] - errs[0]) < 0.02 * errs[0]
