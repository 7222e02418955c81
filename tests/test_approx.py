"""Test-function synthesis, witnesses, error norms, and rate fitting."""

import math
import re
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lstsq
from scipy.spatial.distance import cdist

from rbfbench import approx, experiments
from rbfbench._quad import trapezoid_weights
from rbfbench.cli import main
from rbfbench.approx import (
    SmoothBump,
    collocation_matrix,
    evaluate_combination,
    fit_rate,
    lp_error,
    ls_witness,
    quasi_interpolant,
    synth_test_function,
)
from rbfbench.geometry import (
    Box,
    fill_distance,
    make_quasi_uniform,
    separation_radius,
    tensor_grid,
)
from rbfbench.kernels import sobolev_spline_construct, wendland_construct
from rbfbench.polyrep import LocalPolyBuilder

from helpers import cube_of, quasi_interpolant_per_cube, synth_f_oracle

UNIT_1D = Box((0.0,), (1.0,))
G2 = sobolev_spline_construct(2, 1)
GREEN_1D = (2 * np.pi) ** -0.5    # Green's function of 1 - d^2/dx^2 is GREEN_1D * G2


@pytest.fixture(scope="module")
def g2_testfunction():
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
        assert v[2] - fpp == pytest.approx(tf.g(x), abs=1e-6)


def test_greens_pair_continuum_reproduction(g2_testfunction):
    # Replacing the point set by a continuum quadrature grid must give f
    # back: integral of g(t) GREEN_1D G2(x - t) dt = f(x) at random points.
    tf = g2_testfunction
    rng = np.random.default_rng(1)
    ts = np.linspace(0.3, 0.7, 20001)
    w = trapezoid_weights(ts.size, ts[1] - ts[0])
    for x in rng.uniform(-0.5, 1.5, size=12):
        recon = np.sum(w * tf.g(ts) * GREEN_1D * G2.profile(np.abs(x - ts)))
        assert recon == pytest.approx(tf.f(x), abs=5e-8)


@pytest.mark.parametrize("gamma", [2, 4, 6])
def test_synthesis_matches_per_point_oracle(gamma):
    bump = SmoothBump((0.5,), 0.2)
    G = sobolev_spline_construct(gamma, 1)
    tf = synth_test_function(G, bump)
    (a,), (b,) = bump.box.lo, bump.box.hi
    xs = np.concatenate([np.linspace(-0.5, 1.5, 37), [a, b, 0.5, 0.3001, 0.6999]])
    oracle = synth_f_oracle(G, bump)
    want = oracle(xs)
    tol = 1e-14 * np.abs(want).max()
    got = tf.f(xs)
    assert got.shape == xs.shape
    assert np.abs(got - want).max() <= tol
    for x in (a, 0.5, 1.2):
        value = tf.f(x)
        assert isinstance(value, float)
        assert abs(value - oracle(x)) <= tol


def test_synthesis_memory_is_bounded_in_the_number_of_points(g2_testfunction):
    # Points are taken in fixed blocks, so the temporaries do not grow
    # with the number of evaluation points.
    xs = np.linspace(-0.5, 1.5, 20_000)
    tracemalloc.start()
    try:
        g2_testfunction.f(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_smooth_bump_box_holds_its_support():
    bump = SmoothBump((0.5, 0.25), 0.2)
    assert isinstance(bump.box, Box)
    assert bump.box.lo == pytest.approx((0.3, 0.05), rel=0, abs=1e-15)
    assert bump.box.hi == pytest.approx((0.7, 0.45), rel=0, abs=1e-15)
    # Uniform samples, and the first floats past each face of the box.
    lo, hi = np.asarray(bump.box.lo), np.asarray(bump.box.hi)
    pts = np.random.default_rng(3).uniform(-0.5, 1.5, size=(4000, 2))
    faces = []
    for axis in range(2):
        for edge, away in ((lo, -np.inf), (hi, np.inf)):
            pt = np.asarray(bump.center, dtype=float)
            pt[axis] = np.nextafter(edge[axis], away)
            faces.append(pt)
    pts = np.vstack([pts, faces])
    outside = ((pts < lo) | (pts > hi)).any(axis=1)
    assert outside.sum() > 3000
    assert np.all(bump(pts[outside]) == 0.0)
    assert bump(bump.center) == 1.0


class TwoBumps:
    """A source that is not a SmoothBump: two 1-D bumps, and a box that holds both."""

    def __init__(self, left: SmoothBump, right: SmoothBump):
        self.left, self.right = left, right
        self.box = Box(left.box.lo, right.box.hi)

    def __call__(self, t):
        return self.left(t) + self.right(t)


def test_quasi_interpolant_zero_source():
    # A bump on a cube centre, narrower than the gap to the nearest of the
    # cube's midpoints, is zero at every quadrature node.
    ps = make_quasi_uniform(UNIT_1D, 1 / 8, pad=1.0)
    bump = SmoothBump((4 * ps.h,), ps.h / 16)
    coeffs = quasi_interpolant(bump, ps, degree=1, c3=8.0)
    assert np.all(coeffs == 0.0)


@pytest.mark.parametrize("family, d, order, h, source", [
    ("sobolev", 1, 2, 1 / 64, SmoothBump((0.5,), 0.2)),
    ("sobolev", 1, 2, 1 / 64, SmoothBump((0.0,), 0.2)),
    ("wendland", 2, 1, 1 / 8, SmoothBump((0.0, 0.0), 0.2)),
    ("sobolev", 1, 2, 1 / 64, TwoBumps(SmoothBump((0.25,), 0.1), SmoothBump((0.7,), 0.15))),
], ids=["sobolev_g2_d1", "sobolev_g2_d1_center0", "wendland_k1_d2_center0",
        "sobolev_g2_d1_two_bumps"])
def test_quasi_interpolant_equals_the_per_cube_walk(family, d, order, h, source, monkeypatch):
    # The same cubes, in the same order, give the same coefficients bit
    # for bit; with the bump centred at 0 the cube indices of its range
    # go negative.  Cubes where g vanishes on every midpoint are skipped,
    # such as those between the two bumps, and every cube summed lies in
    # the cube range of the source's box.
    fam = experiments.family_kernel(family, d, order if family == "wendland" else None,
                                    order if family == "sobolev" else None)
    X = make_quasi_uniform(Box((0.0,) * d, (1.0,) * d), h, jitter=0.25, seed=7, pad=2.0)
    calls = []
    weights = LocalPolyBuilder.weights

    def recorded(self, idx, ts):
        calls.append(idx)
        return weights(self, idx, ts)

    monkeypatch.setattr(LocalPolyBuilder, "weights", recorded)
    coeffs = quasi_interpolant(source, X, fam.degree, fam.c3)
    cubes, calls[:] = calls[:], []
    ref = quasi_interpolant_per_cube(source, X, fam.degree, fam.c3)
    assert cubes == calls
    assert (min(min(idx) for idx in cubes) < 0) == (min(source.box.lo) < 0)
    first, last = cube_of(source.box.lo, X.h), cube_of(source.box.hi, X.h)
    assert all(a <= i <= b for cube in cubes for a, i, b in zip(first, cube, last))
    assert np.count_nonzero(ref) > 0
    assert np.array_equal(coeffs, ref)


def test_quasi_interpolant_mass(g2_testfunction):
    # Degree-0 reproduction: weights at each t sum to one, so the total
    # coefficient mass reproduces the mass of the source term, once the
    # Green factor (2 pi)^(-1/2) of the G2 coefficients is divided out.
    tf = g2_testfunction
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, pad=1.0)
    coeffs = quasi_interpolant(tf.g, ps, degree=0, c3=4.0)
    mass, _ = quad(tf.g, 0.3, 0.7, limit=100)
    assert coeffs.sum() * (2 * np.pi) ** 0.5 == pytest.approx(mass, rel=0.01, abs=0)


def test_quasi_interpolant_refinement_stable(g2_testfunction, monkeypatch):
    tf = g2_testfunction
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, pad=1.0)
    c4 = quasi_interpolant(tf.g, ps, degree=2, c3=24.0)
    monkeypatch.setattr(approx, "_MIDPOINTS", 8)
    c8 = quasi_interpolant(tf.g, ps, degree=2, c3=24.0)
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
    coeffs, _ = ls_witness(f_vals, grid, Phi, ps)
    s_vals = evaluate_combination(coeffs, ps, Phi, grid)
    assert np.abs(f_vals - s_vals).max() < 1e-10
    expected = np.zeros(ps.n)
    expected[j0] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-8)
    # a sum of two translates is recovered exactly as well
    f2 = f_vals + 0.7 * Phi.profile(np.abs(grid[:, 0] - ps.points[j0 - 2, 0]))
    c2, _ = ls_witness(f2, grid, Phi, ps)
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
    + [pytest.param(sobolev_spline_construct(4, 1), id="sobolev_d1_closed_form"),
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


@pytest.mark.parametrize("Phi", [wendland_construct(2, 1), sobolev_spline_construct(4, 2)],
                         ids=["wendland_d2_k1", "sobolev_d2_g4"])
def test_ls_fit_values_equal_evaluate_combination(Phi):
    # 169 centres against 441 grid points, and against 81, where the
    # solution is longer than the right-hand side.
    X = make_quasi_uniform(Box((0.0, 0.0), (1.0, 1.0)), 1 / 4, seed=2, pad=1.0)
    for n_axis in (21, 9):
        axis = np.linspace(0, 1, n_axis)
        grid = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], -1)
        assert (len(grid) < X.n) == (n_axis == 9)
        f_vals = SmoothBump((0.5, 0.5), 0.3)(grid)
        coeffs, rank = ls_witness(f_vals, grid, Phi, X)
        # The minimum-norm gelsd solution with the default cutoff, on the
        # full-profile matrix (bit-identical to the collocation matrix).
        ref, _, ref_rank, _ = lstsq(_full_profile_matrix(grid, X, Phi), f_vals,
                                    lapack_driver="gelsd")
        assert coeffs.shape == (X.n,)
        assert np.array_equal(coeffs, ref) and rank == ref_rank


def test_ls_witness_holds_one_matrix_at_a_time():
    # The solve overwrites the collocation matrix instead of copying it.
    Phi = wendland_construct(2, 1)
    X = make_quasi_uniform(Box((0.0, 0.0), (1.0, 1.0)), 1 / 8, seed=0, pad=1.0)
    axis = np.linspace(0, 1, 71)
    grid = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], -1)
    f_vals = SmoothBump((0.5, 0.5), 0.2)(grid)
    matrix_bytes = 8 * len(grid) * X.n
    assert matrix_bytes > 20e6
    tracemalloc.start()
    try:
        ls_witness(f_vals, grid, Phi, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * matrix_bytes + 4e6


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_combination_holds_one_block_at_a_time():
    # The grid x centres matrix is 25 MB; the evaluation holds one row
    # block of it, so its peak is the costliest single-block build plus
    # the output vector and at most one more vector of rows.
    Phi = wendland_construct(2, 1)
    X = make_quasi_uniform(Box((0.0, 0.0), (1.0, 1.0)), 1 / 8, seed=0, pad=1.0)
    axis = np.linspace(0, 1, 71)
    grid = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], -1)
    coeffs = np.random.default_rng(1).normal(size=X.n)
    matrix_bytes = 8 * len(grid) * X.n
    assert matrix_bytes > 20e6
    step = approx._BUILD_BLOCK // X.n
    block_peak = max(_traced_peak(lambda: collocation_matrix(grid[s:s + step], X, Phi))
                     for s in range(0, len(grid), step))
    assert block_peak < matrix_bytes / 4
    peak = _traced_peak(lambda: evaluate_combination(coeffs, X, Phi, grid))
    assert peak <= block_peak + 16 * len(grid)


@pytest.fixture(scope="module")
def finest_wendland_k2_level():
    cfg = experiments.ExperimentConfig(family="wendland", d=1, k=2, levels=5)
    *_, finest = experiments.rate_levels(cfg)
    return cfg.fam.kernel, finest


def test_evaluate_combination_rows_do_not_depend_on_the_block_size(
        finest_wendland_k2_level, monkeypatch):
    Phi, lv = finest_wendland_k2_level
    whole = evaluate_combination(lv.coeffs, lv.X, Phi, lv.grid)
    n = lv.X.n
    # 1-row blocks, odd-sized blocks (3 rows, and 7 rows with a short
    # last block) and a single block.
    assert len(lv.grid) % 7
    for build_block in (1, 3 * n, 7 * n, len(lv.grid) * n):
        monkeypatch.setattr(approx, "_BUILD_BLOCK", build_block)
        assert evaluate_combination(lv.coeffs, lv.X, Phi, lv.grid).tobytes() == whole.tobytes()


def test_evaluate_combination_is_within_its_rounding_bound(finest_wendland_k2_level):
    # A sum of n products computed in any order lies within
    # gamma_n = n u / (1 - n u) of the exact sum of |terms|, u = eps / 2;
    # math.fsum of the rounded products lies within 2u of it.  Both fit
    # in 2 n eps sum_i |c_i| |Phi(x - xi_i)|.
    Phi, lv = finest_wendland_k2_level
    A = collocation_matrix(lv.grid, lv.X, Phi)
    ref = np.array([math.fsum(row * lv.coeffs) for row in A])
    bound = 2 * lv.X.n * np.finfo(float).eps * (np.abs(A) @ np.abs(lv.coeffs))
    s_vals = evaluate_combination(lv.coeffs, lv.X, Phi, lv.grid)
    assert np.all(np.abs(s_vals - ref) <= bound)
    assert np.any(s_vals != ref)


@pytest.mark.parametrize("Phi", [wendland_construct(2, 1), sobolev_spline_construct(4, 3),
                                 sobolev_spline_construct(4, 2)],
                         ids=["wendland_d2_k1", "sobolev_d3_closed_form", "sobolev_d2_bessel"])
def test_kernel_matrix_refusal_covers_its_traced_peak(Phi, monkeypatch):
    # One 209 x 625 block with every pair inside the support (the cube
    # [0, 0.55]^d has diameter below 1): the refusal's estimate is at least
    # the traced peak, so a limit one byte below that peak refuses the
    # build.  The warm-up keeps scipy.special's first import out of it.
    d = Phi.dim
    rng = np.random.default_rng(0)
    rows, cols = rng.uniform(0, 0.55, size=(209, d)), rng.uniform(0, 0.55, size=(625, d))
    assert cdist(rows, cols).max() < 1.0
    build = lambda: approx._kernel_matrix(rows, cols, Phi)
    build()
    peak = _traced_peak(build)
    monkeypatch.setattr(approx, "_available_bytes", lambda: (peak - 1.0, "MemAvailable"))
    with pytest.raises(ValueError, match="209 x 625 kernel matrix needs"):
        build()


@pytest.mark.parametrize("d", [1, 2])
def test_smooth_bump_gives_a_float_only_for_a_single_point(d):
    bump = SmoothBump((0.5,) * d, 0.3)
    pts = np.linspace(0.3, 0.7, 3 * d).reshape(3, d)
    assert bump(pts).shape == (3,)
    # The flat and one-point forms are in test_functions_of_points_share_one_point_rule.
    one = bump(np.full(d, 0.5))
    assert isinstance(one, float) and one == 1.0


# ----------------------------------------------------------------------------
# One point rule for every function of points
# ----------------------------------------------------------------------------

def _unit(d):
    return Box((0.0,) * d, (1.0,) * d)


def _point_set(d):
    return make_quasi_uniform(_unit(d), 1 / 4, seed=3, pad=0.5)


# Each function of points as read(x, d), with every other input fixed by d.
# ls_witness gets one function value per d entries of x, so only the way it
# reads the grid decides what it returns.
POINT_READERS = {
    "fill_distance": lambda x, d: fill_distance(x, _unit(d), 0.05),
    "separation_radius": lambda x, d: separation_radius(x),
    "SmoothBump": lambda x, d: SmoothBump((0.5,) * d, 0.3)(x),
    "synthesized f": lambda x, d: synth_test_function(G2, SmoothBump((0.5,), 0.2)).f(x),
    "collocation_matrix": lambda x, d: collocation_matrix(x, _point_set(d),
                                                          wendland_construct(d, 1)),
    "ls_witness": lambda x, d: ls_witness(np.linspace(1.0, 2.0, np.size(x) // d), x,
                                          wendland_construct(d, 1), _point_set(d))[0],
    "evaluate_combination": lambda x, d: evaluate_combination(
        np.ones(_point_set(d).n), _point_set(d), wendland_construct(d, 1), x),
}


# These give one value per point, and a float for a single point given as a
# scalar or a flat array; the other readers give what its (1, d) form gives.
ONE_VALUE = ("SmoothBump", "synthesized f")


def _outcome(read, x, d):
    """read(x, d) as (shape, flat list of values), or the message of its ValueError."""
    try:
        out = read(x, d)
    except ValueError as exc:
        return str(exc)
    return np.shape(out), np.ravel(out).tolist()


# The synthesized f is one-dimensional.  separation_radius takes d from its
# points, the rows of a 2-D array and otherwise R^1, so in d = 2 no column
# count or flat array is wrong for it.
@pytest.mark.parametrize("name, d", [(name, d) for name in POINT_READERS for d in (1, 2)
                                     if d == 1 or name not in ("synthesized f",
                                                               "separation_radius")])
def test_functions_of_points_share_one_point_rule(name, d):
    read = POINT_READERS[name]
    pts = np.linspace(0.2, 0.8, 4 * d).reshape(4, d)
    with pytest.raises(ValueError, match="points of dimension .* in a domain of dimension"):
        read(pts[:, :, None], d)
    if name != "separation_radius":
        wide = np.linspace(0.2, 0.8, 4 * (d + 1)).reshape(4, d + 1)
        with pytest.raises(ValueError,
                           match=f"points of dimension {d + 1} in a domain of dimension {d}"):
            read(wide, d)
    if d == 1:
        assert _outcome(read, pts[:, 0], d) == _outcome(read, pts, d)
        singles = (pts[0, 0], pts[0])
    else:
        with pytest.raises(ValueError,
                           match=f"points of dimension 1 in a domain of dimension {d}"):
            read(pts.ravel(), d)
        singles = (pts[0],)
    # A scalar and the d entries of a flat array are one point.
    one = _outcome(read, pts[:1], d)
    if name in ONE_VALUE:
        assert one[0] == (1,)
        one = ((), one[1])
    for x in singles:
        assert _outcome(read, x, d) == one
    assert _outcome(read, pts[:2], d) != _outcome(read, pts[:1], d)


def test_rate_levels_hand_f_the_grid_of_points():
    cfg = experiments.ExperimentConfig(family="sobolev", d=1, gamma=2, levels=2, h0=0.25)
    f, source = cfg.problem
    shapes = []

    def spy(x):
        shapes.append(np.shape(x))
        return f(x)

    object.__setattr__(cfg, "problem", (spy, source))
    grids = [lv.grid.shape for lv in experiments.rate_levels(cfg)]
    assert shapes == grids and all(len(g) == 2 and g[1] == 1 for g in grids)


def test_ls_witness_refuses_values_that_are_not_one_per_grid_point():
    X = _point_set(1)
    grid = np.linspace(0.0, 1.0, 6)[:, None]
    for f_vals in (np.ones(4), np.ones((6, 1))):
        with pytest.raises(ValueError, match=re.escape(
                f"function values of shape {f_vals.shape} on 6 grid points")):
            ls_witness(f_vals, grid, wendland_construct(1, 1), X)


def test_evaluate_combination_refuses_coefficients_that_are_not_one_per_centre():
    X = _point_set(1)
    Phi = wendland_construct(1, 1)
    for coeffs in (np.ones(X.n - 1), np.ones((X.n, 1))):
        with pytest.raises(ValueError, match=re.escape(
                f"coefficients of shape {coeffs.shape} on {X.n} centres")):
            evaluate_combination(coeffs, X, Phi, np.linspace(0.0, 1.0, 6))
    coeffs = np.ones(X.n)
    coeffs[3] = np.nan
    with pytest.raises(ValueError, match="coefficients must be finite"):
        evaluate_combination(coeffs, X, Phi, np.linspace(0.0, 1.0, 6))


def test_oversize_level_is_refused_before_allocation(monkeypatch, capsys):
    # The first level's collocation matrix is 5929 x 1681 (80 MB); with
    # 50 MB available the run stops with exit 2 before building it.
    monkeypatch.setattr(approx, "_available_bytes", lambda: (50e6, "MemAvailable"))
    tracemalloc.start()
    try:
        code = main(["rates", "--kernel", "wendland", "--d", "2", "--k", "1",
                     "--levels", "2", "--h0", "0.125", "--seed", "0"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 8e6
    assert re.search(r"a 1681 x 5929 kernel matrix needs 0\.08\d* GB, "
                     r"but only 0\.05 GB is available", capsys.readouterr().err)


def test_oversize_later_level_is_refused_before_the_first_solve(monkeypatch, capsys):
    # Level 0 (h = 1/4) fits in 50 MB, level 1's 1681 x 6241 matrix does
    # not; the run is refused before level 0 is solved.
    solves = []
    solve = approx.lstsq

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(approx, "_available_bytes", lambda: (50e6, "MemAvailable"))
    monkeypatch.setattr(approx, "lstsq", counted)
    code = main(["rates", "--kernel", "wendland", "--d", "2", "--k", "1",
                 "--levels", "2", "--h0", "0.25"])
    assert code == 2
    assert "a 1681 x 6241 kernel matrix needs" in capsys.readouterr().err
    assert solves == []


def test_level_over_the_address_space_limit_exits_2():
    # Under a 1.2 GB RLIMIT_AS the first level's 6561 x 24649 matrix
    # (1.29 GB) is refused with exit 2 before numpy fails to allocate it.
    limit = 1_200_000_000

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "rbfbench.cli", "rates", "--kernel", "wendland", "--d", "2",
         "--k", "1", "--levels", "2", "--h0", "0.0625", "--seed", "7"],
        capture_output=True, text=True, preexec_fn=cap)
    # The available share depends on the process's VmSize, which moves
    # with the BLAS thread count, so the two figures are compared, not
    # matched to fixed digits.
    assert proc.returncode == 2, proc.stderr
    found = re.search(r"a 6561 x 24649 kernel matrix needs (\d+(?:\.\d+)?) GB, but only "
                      r"(\d+(?:\.\d+)?) GB is available \(the RLIMIT_AS soft limit less "
                      r"VmSize\)", proc.stderr)
    assert found, proc.stderr
    needed, available = (float(v) * 1e9 for v in found.groups())
    assert available < needed
    assert available <= limit
    assert needed >= 1.29e9                  # the matrix alone, 8 * 6561 * 24649 bytes


def test_evaluate_combination_refuses_a_matrix_that_does_not_fit(monkeypatch):
    Phi = wendland_construct(1, 1)
    ps = make_quasi_uniform(UNIT_1D, 1 / 8)
    monkeypatch.setattr(approx, "_available_bytes", lambda: (1e3, "MemAvailable"))
    with pytest.raises(ValueError, match=f"a 5 x {ps.n} kernel matrix needs"):
        evaluate_combination(np.ones(ps.n), ps, Phi, np.linspace(0, 1, 5))


def test_rate_report_equals_two_build_reference():
    # The in-place solve gives the same report errors as scipy's lstsq on a
    # full-profile matrix built from each level's record, and built again
    # to evaluate the witness with the same BLAS-free row reduction.
    cfg = experiments.ExperimentConfig(family="wendland", d=2, k=1, levels=2,
                                       h0=1 / 4, p_list=(2.0, np.inf), seed=0)
    reports = experiments.run_rate_experiment(cfg)
    fam = experiments.family_kernel(cfg.family, cfg.d, cfg.k, cfg.gamma)
    levels = list(experiments.rate_levels(cfg))
    assert len(levels) == cfg.levels
    for i, lv in enumerate(levels):
        assert lv.grid.tobytes() == tensor_grid(lv.X.domain.candidate_axes(
            lv.X.q / cfg.grid_factor)).tobytes()
        coeffs, _, rank, _ = lstsq(_full_profile_matrix(lv.grid, lv.X, fam.kernel),
                                   lv.f_vals, lapack_driver="gelsd")
        assert rank == lv.rank
        s_vals = np.einsum("ij,j->i", _full_profile_matrix(lv.grid, lv.X, fam.kernel), coeffs)
        for p in cfg.p_list:
            row = reports[f"error_p{p:g}"].levels[i]
            assert (row["h"], row["n_points"]) == (lv.X.h, lv.X.n)
            weights = None if np.isinf(p) else lv.weights
            assert lp_error(lv.f_vals, s_vals, p, weights) == row["error"]


def test_lp_error_basics():
    grid = np.linspace(0, 1, 101)
    w = trapezoid_weights(101, 0.01)
    f = np.sin(grid)
    assert lp_error(f, f, 2, w) == 0.0
    c = 0.37
    assert lp_error(f, f + c, 1, w) == pytest.approx(c, rel=1e-12, abs=0)
    assert lp_error(f, f + c, 2, w) == pytest.approx(c, rel=1e-12, abs=0)
    assert lp_error(f, f + c, np.inf) == pytest.approx(c, rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        lp_error(f, f[:-1], 2, w)
    with pytest.raises(ValueError):
        lp_error(f, f, 2, None)


@pytest.mark.parametrize("p", [0.5, -1.0, 0.0, np.nan, -np.inf])
def test_lp_error_refuses_p_outside_one_to_inf(p):
    f = np.sin(np.linspace(0, 1, 11))
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\]"):
        lp_error(f, f + 0.1, p, trapezoid_weights(11, 0.1))


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
    assert quad_norm == pytest.approx(parseval, rel=1e-6, abs=0)


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
    # a NaN level is refused, not dropped as if below the noise floor,
    # and so is an infinite one
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(1 / 8, 1e-2), (1 / 16, 2.5e-3), (1 / 32, 6e-4), (1 / 64, 1.5e-4),
                      (1 / 128, bad)])
    # so is a spacing h that is not positive and finite
    for bad in (np.nan, -1 / 128, 0.0, np.inf):
        with pytest.raises(ValueError, match="spacings h"):
            fit_rate([(1 / 8, 1e-2), (1 / 16, 2.5e-3), (1 / 32, 6e-4), (1 / 64, 1.5e-4),
                      (bad, 4e-5)])
    # levels at the noise floor are dropped
    with pytest.raises(ValueError):
        fit_rate([(1 / 8, 1e-15), (1 / 16, 1e-15), (1 / 32, 1e-15),
                  (1 / 64, 1e-15)], f_scale=1.0)


def test_witness_beats_quasi_interpolant(g2_testfunction):
    tf = g2_testfunction
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, jitter=0.25, seed=7, pad=2.0)
    grid = np.linspace(0, 1, 401)[:, None]
    w = trapezoid_weights(401, grid[1, 0] - grid[0, 0])
    f_vals = tf.f(grid[:, 0])
    cq = quasi_interpolant(tf.g, ps, degree=2, c3=24.0)
    eq = lp_error(f_vals, evaluate_combination(cq, ps, G2, grid), 2, w)
    cw, _ = ls_witness(f_vals, grid, G2, ps)
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
        co = quasi_interpolant(tf.g, ps, degree=2, c3=24.0)
        s_vals = evaluate_combination(co, ps, G2, grid)
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
        co, _ = ls_witness(f_vals, grid, Phi, ps)
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
        co, _ = ls_witness(f_vals, grid, Phi, ps)
        errs.append(lp_error(f_vals, evaluate_combination(co, ps, Phi, grid), 2, w))
    assert abs(errs[1] - errs[0]) < 0.02 * errs[0]
