"""Reproduction weights, the surrogate kernel, and the error scan."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import null_space

from helpers import basis_matrix_per_term, cube_of, functional, property2_scan_per_sample
from rbfbench import polyrep
from rbfbench.geometry import Box, PointSet, cube_indices, make_quasi_uniform
from rbfbench.kernels import (
    _BLOCK_ENTRY_BYTES,
    _kernel_block,
    sobolev_spline_construct,
    wendland_construct,
)
from rbfbench.polyrep import (
    LocalPolyBuilder,
    _basis_matrix,
    UnisolvencyError,
    kernel_K,
    monomial_exponents,
    property2_scan,
)

UNIT_1D = Box((0.0,), (1.0,))


def _rand_poly_eval(rng, exponents, pts):
    coeffs = rng.normal(size=len(exponents))
    vals = np.zeros(pts.shape[0])
    for c, e in zip(coeffs, exponents):
        vals += c * np.prod(pts ** np.asarray(e), axis=1)
    return coeffs, vals


def _poly_at(coeffs, exponents, t):
    return sum(c * np.prod(t ** np.asarray(e)) for c, e in zip(coeffs, exponents))


def test_two_point_linear_weights():
    ps = PointSet(np.array([[0.0], [1.0]]), UNIT_1D, h=0.5, h_slack=0.0, q=0.5)
    _, weights = functional(LocalPolyBuilder(ps, degree=1, c3=2.0), np.array([0.5]))
    assert np.allclose(np.sort(weights), [0.5, 0.5])
    assert np.abs(weights).sum() == pytest.approx(1.0)


def test_constant_reproduction_always_exact():
    ps = make_quasi_uniform(UNIT_1D, 1 / 8, jitter=0.25, seed=2)
    builder = LocalPolyBuilder(ps, degree=0, c3=2.0)
    for t in np.linspace(0.01, 0.99, 17):
        _, weights = functional(builder, np.array([t]))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reproduction_oracle_1d(seed):
    ps = make_quasi_uniform(UNIT_1D, 1 / 32, jitter=0.25, seed=seed)
    degree = 3
    builder = LocalPolyBuilder(ps, degree, c3=2 * (degree + 1) * 4.0)
    exponents = monomial_exponents(1, degree)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        t = rng.uniform(0, 1, size=1)
        points, weights = functional(builder, t)
        coeffs, vals = _rand_poly_eval(rng, exponents, points)
        worst = max(worst, abs(weights @ vals - _poly_at(coeffs, exponents, t)))
        assert np.abs(weights).sum() <= 2.5
    assert worst < 1e-10


def test_reproduction_oracle_2d():
    ps = make_quasi_uniform(Box((0.0, 0.0), (1.0, 1.0)), 1 / 16, jitter=0.25, seed=1)
    degree = 2
    builder = LocalPolyBuilder(ps, degree, c3=6.0)
    exponents = monomial_exponents(2, degree)
    rng = np.random.default_rng(0)
    for _ in range(25):
        t = rng.uniform(0, 1, size=2)
        points, weights = functional(builder, t)
        coeffs, vals = _rand_poly_eval(rng, exponents, points)
        assert abs(weights @ vals - _poly_at(coeffs, exponents, t)) < 1e-10


def test_minimum_norm_among_solutions():
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, jitter=0.2, seed=5)
    builder = LocalPolyBuilder(ps, degree=2, c3=24.0)
    t = np.array([0.5])
    points, weights = functional(builder, t)
    _, _, anchor, scale, _ = builder.cube_map(cube_of(t, builder.side))
    M = _basis_matrix(points, anchor, scale, builder.exponents)
    N = null_space(M)
    rng = np.random.default_rng(3)
    base = np.linalg.norm(weights)
    for _ in range(10):
        alt = weights + N @ rng.normal(size=N.shape[1])
        assert np.linalg.norm(alt) >= base - 1e-10


def test_weights_continuous_in_t():
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, jitter=0.25, seed=8)
    builder = LocalPolyBuilder(ps, degree=2, c3=24.0)
    t0 = np.array([0.503])
    dt = 1e-6
    points0, weights0 = functional(builder, t0)
    points1, weights1 = functional(builder, t0 + dt)
    assert np.array_equal(points0, points1)
    assert np.abs(weights1 - weights0).max() < 1e-3 * dt / 1e-6


def test_unisolvency_failure_reported():
    ps = PointSet(np.array([[0.0], [1.0]]), UNIT_1D, h=0.5, h_slack=0.0, q=0.5)
    with pytest.raises(UnisolvencyError):
        functional(LocalPolyBuilder(ps, degree=4, c3=1.0), np.array([0.5]))


def test_l1_cap_reported_not_raised(monkeypatch):
    # A 2-point star reproducing degree 1 from an off-center t has l1 > 1;
    # an unreachable cap must still return the weights.
    monkeypatch.setattr(polyrep, "C2_CAP", 1.5)
    ps = PointSet(np.array([[0.45], [0.55]]), Box((0.0,), (1.0,)),
                  h=0.45, h_slack=0.0, q=0.05)
    _, weights = functional(LocalPolyBuilder(ps, degree=1, c3=2.0), np.array([0.9]))
    assert np.abs(weights).sum() > 1.5


def test_kernel_surrogate_basics(monkeypatch):
    Phi = wendland_construct(1, 1)
    ps = make_quasi_uniform(UNIT_1D, 1 / 8)
    builder = LocalPolyBuilder(ps, degree=1, c3=3.0)
    t = np.array([[0.5]])
    # all star points farther than the support radius from x
    far_x = np.array([[5.0]])
    assert kernel_K(Phi, builder, far_x, t) == 0.0
    weights = LocalPolyBuilder.weights

    def zeroed(self, idx, ts):
        star, A = weights(self, idx, ts)
        return star, np.zeros_like(A)

    monkeypatch.setattr(LocalPolyBuilder, "weights", zeroed)
    assert kernel_K(Phi, builder, np.array([[0.4]]), t) == 0.0


def test_single_point_star_reproduces_translate():
    Phi = wendland_construct(1, 1)
    ps = PointSet(np.array([[0.5]]), UNIT_1D, h=0.5, h_slack=0.0, q=0.25)
    builder = LocalPolyBuilder(ps, degree=0, c3=1.0)
    _, weights = functional(builder, np.array([0.5]))
    assert np.allclose(weights, [1.0])
    xs = np.linspace(0, 1, 21)[:, None]
    ts = np.full_like(xs, 0.5)
    err = np.abs(Phi.profile(np.abs(xs[:, 0] - 0.5)) - kernel_K(Phi, builder, xs, ts))
    assert err.max() == 0.0


def test_error_kernel_vanishes_beyond_joint_support():
    Phi = wendland_construct(1, 1)
    ps = make_quasi_uniform(UNIT_1D, 1 / 32, jitter=0.25, seed=3, pad=2.0)
    c3 = 16.0
    builder = LocalPolyBuilder(ps, degree=1, c3=c3)
    c1 = c3 + 0.5
    rng = np.random.default_rng(5)
    ts, xs = np.empty((50, 1)), np.empty((50, 1))
    for i in range(50):
        ts[i] = rng.uniform(0, 1, size=1)
        dist = 1.0 + c1 * ps.h + rng.uniform(0.01, 2.0)
        xs[i] = ts[i] + np.sign(rng.normal()) * dist
    e = Phi.profile(np.abs(xs[:, 0] - ts[:, 0])) - kernel_K(Phi, builder, xs, ts)
    assert np.all(e == 0.0)


def test_scan_covers_near_and_far_field():
    Phi = wendland_construct(1, 1)
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, jitter=0.25, seed=3, pad=2.0)
    scan = property2_scan(Phi, ps, kappa=2.0, ell=2.0, sample_budget=400,
                          degree=1, c3=16.0, seed=1)
    assert (scan.dist_over_h <= 2.0).any()
    assert (scan.dist_over_h > 2.0).any()
    assert np.isfinite(scan.c_emp)


def test_scan_refuses_a_budget_below_8_samples_per_stratum():
    # s_max = (1 + 16.5 h) / h = 32.5 gives the 8 strata with edges
    # 0, 1/2, 1, 2, 4, ..., 32, 32.5, so the smallest budget is 64.
    Phi = wendland_construct(1, 1)
    ps = make_quasi_uniform(UNIT_1D, 1 / 16, jitter=0.25, seed=3, pad=2.0)
    for budget in (-1, 0, 63):
        with pytest.raises(ValueError, match="8 samples for each of the 8 distance strata"):
            property2_scan(Phi, ps, kappa=2.0, ell=2.0, sample_budget=budget,
                           degree=1, c3=16.0, seed=1)
    scan = property2_scan(Phi, ps, kappa=2.0, ell=2.0, sample_budget=64,
                          degree=1, c3=16.0, seed=1)
    assert len(scan.ratio) == 64


def test_scaling_consistency_across_halving():
    Phi = wendland_construct(1, 1)
    cs = []
    for s in (1 / 16, 1 / 32):
        ps = make_quasi_uniform(UNIT_1D, s, jitter=0.25, seed=7, pad=2.0)
        scan = property2_scan(Phi, ps, kappa=2.0, ell=2.0, sample_budget=1000,
                              degree=1, c3=16.0, seed=0)
        cs.append(scan.c_emp)
    assert 0.25 <= cs[0] / cs[1] <= 4.0


def test_sobolev_far_field_decay():
    G4 = sobolev_spline_construct(4, 1)
    ps = make_quasi_uniform(UNIT_1D, 1 / 32, jitter=0.25, seed=7, pad=2.0)
    scan = property2_scan(G4, ps, kappa=3.0, ell=2.0, sample_budget=1500,
                          degree=4, c3=40.0, seed=3)
    far = scan.dist_over_h > 8.0
    slope = np.polyfit(np.log1p(scan.dist_over_h[far]),
                       np.log(scan.abs_e[far] + 1e-300), 1)[0]
    assert slope <= -2.0


SCAN_CASES = pytest.mark.parametrize("Phi, h, degree, c3", [
    (wendland_construct(1, 2), 1 / 64, 3, 32.0),
    (sobolev_spline_construct(4, 1), 1 / 16, 4, 40.0),
    (wendland_construct(2, 1), 1 / 8, 1, 16.0),
], ids=["wendland_d1_k2", "sobolev_d1_g4", "wendland_d2_k1"])


@SCAN_CASES
def test_scan_equals_the_per_sample_scan(Phi, h, degree, c3):
    # The samples are the per-sample scan's bit for bit.  |E| is a sum of
    # n_star + 1 products computed in another order, from reproduction
    # weights of another matrix product: it lies within
    # 2 n_star eps sum |A| |Phi(x - xi)| of the fsum of the same terms.
    d = Phi.dim
    ps = make_quasi_uniform(Box((0.0,) * d, (1.0,) * d), h, seed=7, pad=2.0)
    scan = property2_scan(Phi, ps, 2.0, d + 1.0, 600, degree=degree, c3=c3, seed=7)
    x, t, s, abs_e, e_fsum, bound = property2_scan_per_sample(
        Phi, ps, d + 1.0, 600, degree=degree, c3=c3, seed=7)
    assert np.array_equal(scan.x, x) and np.array_equal(scan.t, t)
    assert np.array_equal(scan.dist_over_h, s)
    assert np.all(np.abs(scan.abs_e - np.abs(e_fsum)) <= bound)
    assert np.all(np.abs(abs_e - np.abs(e_fsum)) <= bound)
    assert (bound > 0).any() and (bound == 0).any() == np.isfinite(Phi.support_radius)


@SCAN_CASES
def test_scan_is_the_kernel_less_the_surrogate(Phi, h, degree, c3):
    # |E| is |Phi(x - t) - kernel_K| bit for bit, and a Wendland surrogate
    # is exactly 0 where x lies beyond the support radius of its whole star.
    d = Phi.dim
    ps = make_quasi_uniform(Box((0.0,) * d, (1.0,) * d), h, seed=7, pad=2.0)
    scan = property2_scan(Phi, ps, 2.0, d + 1.0, 600, degree=degree, c3=c3, seed=7)
    builder = LocalPolyBuilder(ps, degree, c3)
    K = kernel_K(Phi, builder, scan.x, scan.t)
    assert np.array_equal(scan.abs_e, np.abs(_kernel_block(Phi, scan.x.T, scan.t.T) - K))
    if np.isfinite(Phi.support_radius):
        far = np.zeros(len(K), dtype=bool)
        for rows, star, _ in builder.weights_by_cube(scan.t):
            gaps = np.linalg.norm(scan.x[rows, None, :] - ps.points[star][None], axis=-1)
            far[rows] = gaps.min(axis=1) > Phi.support_radius
        assert far.any() and (~far).any()
        assert np.all(K[far] == 0.0) and (K[~far] != 0.0).any()


def test_cube_indices_keep_the_half_open_rule():
    # Cube k is [(k - 1/2) side, (k + 1/2) side): a point on a face
    # belongs to the cube above it, on both sides of the origin.
    side = 0.125
    faces = np.array([[-0.1875], [-0.0625], [0.0625], [0.1875]])
    assert cube_indices(faces, side)[:, 0].tolist() == [-1, 0, 1, 2]
    assert [cube_of(t, side) for t in faces] == [(-1,), (0,), (1,), (2,)]
    assert cube_indices(np.array([0.0625]), side).tolist() == [1]
    # A non-finite coordinate lies in no cube, here and in weights_by_cube.
    ps = make_quasi_uniform(UNIT_1D, 1 / 8, pad=1.0)
    builder = LocalPolyBuilder(ps, degree=1, c3=4.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            cube_indices(np.array([[0.0, bad]]), side)
        with pytest.raises(ValueError, match="non-finite coordinate"):
            cube_indices(np.array([bad]), side)
        with pytest.raises(ValueError, match="non-finite coordinate"):
            next(builder.weights_by_cube(np.array([[0.5], [bad]])))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_weights_by_cube_groups_like_cube_index(d, monkeypatch):
    # Random points on both sides of the origin and points exactly on
    # cube faces: the groups are the per-point cube_of groups, the
    # cubes come in ascending lexicographic order, each cube's rows in
    # input order, and each cube's weights come from one weights call on
    # its rows.
    side = 0.125
    ps = PointSet(np.zeros((1, d)), Box((0.0,) * d, (1.0,) * d), h=side, h_slack=0.0, q=0.5)
    rng = np.random.default_rng(d)
    faces = (rng.integers(-6, 6, size=(60, d)) + 0.5) * side
    ts = rng.permutation(np.vstack([rng.uniform(-1.0, 1.0, size=(300, d)), faces]))
    calls = []

    def recorded(self, idx, pts):
        calls.append((idx, pts.copy()))
        return np.arange(len(calls)), np.full((1, len(pts)), float(len(calls)))

    monkeypatch.setattr(LocalPolyBuilder, "weights", recorded)
    groups = list(LocalPolyBuilder(ps, 0, 1.0).weights_by_cube(ts))

    expected: dict[tuple[int, ...], list[int]] = {}
    for i, t in enumerate(ts):
        expected.setdefault(cube_of(t, side), []).append(i)
    assert [idx for idx, _ in calls] == sorted(expected)
    assert any(min(idx) < 0 for idx in expected) and len(expected) < len(ts)
    for n, ((rows, star, A), (idx, pts)) in enumerate(zip(groups, calls), start=1):
        assert rows.tolist() == expected[idx]
        assert np.array_equal(pts, ts[rows])
        assert np.array_equal(star, np.arange(n)) and np.all(A == n)


def test_weights_by_cube_gives_the_weights_of_each_cube():
    ps = make_quasi_uniform(Box((0.0, 0.0), (1.0, 1.0)), 1 / 8, seed=7, pad=1.0)
    builder = LocalPolyBuilder(ps, degree=1, c3=4.0)
    ts = np.random.default_rng(3).uniform(-0.2, 1.2, size=(50, 2))
    seen = 0
    for rows, star, A in builder.weights_by_cube(ts):
        ref_star, ref_A = builder.weights(cube_of(ts[rows[0]], ps.h), ts[rows])
        assert np.array_equal(star, ref_star) and np.array_equal(A, ref_A)
        seen += len(rows)
    assert seen == len(ts)
    assert list(builder.weights_by_cube(np.empty((0, 2)))) == []


def test_scan_builds_weights_once_per_cube(monkeypatch):
    calls = []
    weights = LocalPolyBuilder.weights

    def counted(self, idx, ts):
        calls.append(idx)
        return weights(self, idx, ts)

    monkeypatch.setattr(LocalPolyBuilder, "weights", counted)
    ps = make_quasi_uniform(Box((0.0, 0.0), (1.0, 1.0)), 1 / 8, seed=7, pad=2.0)
    scan = property2_scan(wendland_construct(2, 1), ps, kappa=2.0, ell=3.0,
                          sample_budget=400, degree=1, c3=16.0, seed=7)
    cubes = {cube_of(t, ps.h) for t in scan.t}
    assert len(calls) == len(set(calls)) == len(cubes) < len(scan.t)
    assert set(calls) == cubes


def test_scan_peak_memory_does_not_grow_with_the_cubes_visited():
    # The scan holds its samples and the work of one cube of t at a time:
    # that cube's map (star indices and the n_star x p pseudo-inverse),
    # the star search over X, and the cube's kernel block with its
    # weights.  The bound is twice the sum of those byte counts, an
    # allowance for allocator overhead and numpy temporaries; keeping the
    # map of every visited cube would exceed it on its own.
    Phi, degree, c3, budget = wendland_construct(2, 1), 1, 16.0, 1200
    ps = make_quasi_uniform(Box((0.0, 0.0), (1.0, 1.0)), 1 / 16, seed=7, pad=2.0)

    def scan():
        return property2_scan(Phi, ps, 2.0, 3.0, budget, degree=degree, c3=c3, seed=7)

    scan()                  # one-time allocations (lazy imports, numpy caches)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = scan()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    rows: dict[tuple[int, ...], int] = {}
    for t in result.t:
        idx = cube_of(t, ps.h)
        rows[idx] = rows.get(idx, 0) + 1
    builder = LocalPolyBuilder(ps, degree, c3)
    maps = [builder.cube_map(idx)[:2] for idx in rows]
    map_bytes = [star.nbytes + V.nbytes for star, V in maps]
    n_star = max(star.size for star, _ in maps)
    # Per sample: its rows of x, t, s, E, |E| and the envelope; its share of
    # the cube grouping (the integer keys, the sort order, the sorted keys
    # and their differences); and its pair of the Phi(x - t) block.
    d = ps.dim
    per_sample = 8 * (2 * d + 4) + (8 * d + 8 + 8 * d + 8 * d) + 8 + _BLOCK_ENTRY_BYTES
    # The star search: squared distances, their partial sums and the mask.
    search = ps.n * (8 + 8 + 1)
    # The busiest cube's kernel block, its temporaries and its weights.
    block = max(rows.values()) * n_star * (8 + _BLOCK_ENTRY_BYTES + 8)
    bound = 2 * (max(map_bytes) + search + block + len(result.t) * per_sample)
    assert len(rows) > 400 and sum(map_bytes) > bound
    assert peak <= bound, f"peak {peak} B above the bound {bound} B"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_basis_matrix_forms_each_power_once_with_the_same_bits(d):
    # Each axis power is formed once and reused; every entry keeps the
    # bits of raising the coordinate anew for each term.
    rng = np.random.default_rng(d)
    pts = rng.uniform(-1.0, 1.0, size=(500, d))
    anchor = rng.uniform(-0.1, 0.1, size=d)
    exponents = monomial_exponents(d, 4)
    got = _basis_matrix(pts, anchor, 0.7, exponents)
    assert np.array_equal(got, basis_matrix_per_term(pts, anchor, 0.7, exponents))
