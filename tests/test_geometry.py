"""Point-set generation, density functionals, and the cube partition."""

from itertools import product

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from rbfbench import geometry
from rbfbench.geometry import (
    MAX_JITTER,
    Box,
    PointSet,
    cube_indices,
    fill_distance,
    make_quasi_uniform,
    separation_radius,
    tensor_grid,
)
from rbfbench.polyrep import LocalPolyBuilder

UNIT_1D = Box((0.0,), (1.0,))
UNIT_2D = Box((0.0, 0.0), (1.0, 1.0))


def test_uniform_grid_1d():
    ps = make_quasi_uniform(UNIT_1D, 0.25)
    assert np.allclose(np.sort(ps.points.ravel()), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert ps.h == pytest.approx(0.125, abs=ps.h_slack)
    assert ps.q == pytest.approx(0.125)


def test_uniform_grid_2d_fill_distance():
    s = 1.0 / 8.0
    ps = make_quasi_uniform(UNIT_2D, s)
    assert ps.h == pytest.approx(s * np.sqrt(2.0) / 2.0, abs=ps.h_slack)
    assert ps.q == pytest.approx(s / 2.0)


def test_determinism_under_fixed_seed():
    a = make_quasi_uniform(UNIT_2D, 1 / 8, jitter=0.25, seed=42)
    b = make_quasi_uniform(UNIT_2D, 1 / 8, jitter=0.25, seed=42)
    assert np.array_equal(a.points, b.points)
    c = make_quasi_uniform(UNIT_2D, 1 / 8, jitter=0.25, seed=43)
    assert not np.array_equal(a.points, c.points)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_jittered_sets_stay_quasi_uniform(seed):
    ps = make_quasi_uniform(UNIT_2D, 1 / 16, jitter=0.25, seed=seed)
    assert ps.rho < 4.0


def test_fill_distance_examples():
    pts = np.array([[0.0], [0.5], [1.0]])
    assert fill_distance(pts, UNIT_1D, 1e-4) == pytest.approx(0.25, abs=2e-4)
    assert fill_distance(np.array([[0.0]]), UNIT_1D, 1e-4) == pytest.approx(1.0, abs=2e-4)


def test_fill_distance_brute_force_oracle():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(50, 2))
    prod = fill_distance(pts, UNIT_2D, 1e-3)
    n = int(np.ceil(1.0 / 4e-4)) + 1    # the candidate grid of resolution 4e-4
    fine = tensor_grid([np.linspace(0.0, 1.0, n)] * 2)
    brute = cKDTree(pts).query(fine)[0].max()
    assert abs(prod - brute) <= 1e-3 * np.sqrt(2.0)


def test_fill_distance_monotone_under_insertion():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(20, 2))
    h0 = fill_distance(pts, UNIT_2D, 1e-3)
    for _ in range(5):
        bigger = np.vstack([pts, rng.uniform(0, 1, size=(1, 2))])
        h1 = fill_distance(bigger, UNIT_2D, 1e-3)
        assert h1 <= h0 + 1e-12
        pts, h0 = bigger, h1


def test_separation_radius_examples_and_oracle():
    assert separation_radius(np.array([[0.0], [0.5], [1.0]])) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        separation_radius(np.array([[0.3]]))
    with pytest.raises(ValueError):
        separation_radius(np.array([[0.3], [0.3]]))
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(1000, 2))
    assert separation_radius(pts) == pytest.approx(pdist(pts).min() / 2.0, rel=1e-14, abs=0)


def _kdtree_h_q(points, domain, resolution):
    """The fill distance and separation radius by cKDTree, the oracle of the cell search."""
    tree = cKDTree(points)
    h = float(tree.query(tensor_grid(domain.candidate_axes(resolution)))[0].max())
    return h, float(tree.query(points, k=2)[0][:, 1].min()) / 2.0


@pytest.mark.parametrize("pad", [0.0, 2.0])
@pytest.mark.parametrize("jitter", [0.0, MAX_JITTER])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_density_functionals_equal_kdtree(d, jitter, pad):
    # Jitter 0 puts every point on the lattice, where distances tie.
    box = Box((0.0,) * d, (1.0,) * d)
    h_target = {1: 1 / 64, 2: 1 / 8, 3: 1 / 4}[d]
    resolution = h_target / 32.0 if d < 3 else h_target / 8.0
    for seed in (0, 5):
        X = make_quasi_uniform(box, h_target, jitter=jitter, seed=seed, pad=pad)
        assert (X.h, X.q) == _kdtree_h_q(X.points, box, resolution)
        if X.n <= 2000:
            assert X.q == pdist(X.points).min() / 2.0


def test_density_functionals_of_scattered_and_single_points():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        box = Box((0.0,) * d, (1.0,) * d)
        pts = rng.uniform(0, 1, size=(300, d))
        h, q = _kdtree_h_q(pts, box, 0.02)
        assert fill_distance(pts, box, 0.02) == h
        assert separation_radius(pts) == q == pdist(pts).min() / 2.0
        one = pts[:1]
        grid = tensor_grid(box.candidate_axes(0.02))
        assert fill_distance(one, box, 0.02) == cKDTree(one).query(grid)[0].max()


def test_duplicate_points_still_refused():
    X = make_quasi_uniform(UNIT_2D, 1 / 8, jitter=0.25, seed=3)
    for pts in (np.vstack([X.points, X.points[40]]), np.zeros((5, 2))):
        with pytest.raises(ValueError, match="duplicate points"):
            separation_radius(pts)


def test_domain_wider_than_the_cloud_is_searched_by_brute_force(monkeypatch):
    searched = []
    brute = geometry._Cells.brute_nearest

    def spy(self, queries, skip=None):
        searched.append(len(queries))
        return brute(self, queries, skip)

    monkeypatch.setattr(geometry._Cells, "brute_nearest", spy)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.45, 0.55, size=(400, 2))
    want = cKDTree(pts).query(tensor_grid(UNIT_2D.candidate_axes(1e-2)))[0].max()
    assert fill_distance(pts, UNIT_2D, 1e-2) == want
    assert searched and searched[0] > 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unresolved_points_are_not_searched_when_any_point_resolves(d, monkeypatch):
    # A far outlier stretches the cells, so the outlier's nearest point lies
    # beyond the cells around it while every cluster point finds its own.
    # The outlier cannot hold the minimum, so no point is brute-forced.
    searched = []
    brute = geometry._Cells.brute_nearest

    def spy(self, queries, skip=None):
        searched.append(len(queries))
        return brute(self, queries, skip)

    monkeypatch.setattr(geometry._Cells, "brute_nearest", spy)
    rng = np.random.default_rng(d)
    pts = np.vstack([rng.uniform(0.0, 0.1, size=(50, d)), np.full((1, d), 10.0)])
    nn = cKDTree(pts).query(pts, k=2)[0][:, 1]
    assert separation_radius(pts) == float(nn.min()) / 2.0
    assert 0 < np.count_nonzero(~(nn ** 2 < geometry._Cells(pts).bound)) < len(pts)
    assert searched == []


@pytest.mark.parametrize("d", [1, 2, 3])
def test_within_ball_at_a_point_s_exact_distance(d):
    # A lattice without jitter: many points sit exactly at a lattice
    # distance from a lattice center, and the ball keeps them.
    box = Box((0.0,) * d, (1.0,) * d)
    X = make_quasi_uniform(box, 1 / 4, pad=0.5)
    tree = cKDTree(X.points)
    center = np.full(d, 0.5)
    for r in (0.25, 0.5, float(np.sqrt(d * 0.0625))):
        got = X.within_ball(center, r)
        assert np.array_equal(got, tree.query_ball_point(center, r, return_sorted=True))
        if r in (0.25, 0.5):
            assert np.any(np.linalg.norm(X.points[got] - center, axis=1) == r)
    jittered = make_quasi_uniform(box, 1 / 4, jitter=MAX_JITTER, seed=2, pad=0.5)
    tree = cKDTree(jittered.points)
    for p in jittered.points[::7]:
        r = float(np.sqrt(np.sum((p - center) ** 2)))
        want = tree.query_ball_point(center, r, return_sorted=True)
        assert np.array_equal(jittered.within_ball(center, r), want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_within_ball_equals_brute_force(d):
    box = Box((0.0,) * d, (1.0,) * d)
    X = make_quasi_uniform(box, 1 / 8 if d < 3 else 1 / 4, jitter=0.25, seed=d, pad=0.25)
    rng = np.random.default_rng(d)
    centers = rng.uniform(-0.4, 1.4, size=(60, d))
    radii = rng.uniform(0.0, 3.0, size=60) * X.h
    want = [np.flatnonzero(np.linalg.norm(X.points - c, axis=1) <= r)
            for c, r in zip(centers, radii)]
    assert any(w.size == 0 for w in want) and any(w.size > 1 for w in want)

    def query(ps):
        return [ps.within_ball(c, r) for c, r in zip(centers, radii)]

    # The same points, queried after builders with different stars and
    # degrees ran on them in either order, give the same answers.
    Y = PointSet(X.points, X.domain, X.h, X.h_slack, X.q)
    idx = tuple(cube_indices(np.full(d, 0.5), X.h).tolist())
    for first, second in ((X, Y), (Y, X)):
        LocalPolyBuilder(first, 1, 3.0).cube_map(idx)
        LocalPolyBuilder(second, 2, 8.0).cube_map(idx)
        for ps in (first, second):
            for got, ref in zip(query(ps), want):
                assert got.dtype.kind == "i" and np.array_equal(got, ref)


def test_cube_assignment_half_open():
    side = 0.25
    # A point exactly on a cube face belongs to the cube on its upper side.
    boundary = side / 2.0
    assert cube_indices(np.array([boundary]), side).tolist() == [1]
    assert cube_indices(np.array([boundary - 1e-12]), side).tolist() == [0]




def test_tensor_grid_rows_follow_product_order():
    for d in range(1, 5):
        rows = [list(corner) for corner in product((-1.0, 1.0), repeat=d)]
        assert tensor_grid([(-1.0, 1.0)] * d).tolist() == rows


@pytest.mark.parametrize("cap,message", [
    (5, "point lattice would need 9 nodes"),
    (100, "candidate grid would need 257 nodes"),
], ids=["lattice", "candidate_grid"])
def test_oversize_grids_refused_before_any_array(cap, message, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built for a refused point set")

    monkeypatch.setattr(geometry, "MAX_CANDIDATES", cap)
    monkeypatch.setattr(geometry, "tensor_grid", no_grid)
    # h = 1/8 on [0, 1]: 9 lattice nodes, and 257 candidates at resolution h/32.
    with pytest.raises(ValueError, match=f"{message}, above the cap of {cap}"):
        make_quasi_uniform(UNIT_1D, 1 / 8, jitter=0.25, seed=1)


def test_generator_guards():
    with pytest.raises(ValueError):
        make_quasi_uniform(UNIT_1D, 2.0)
    with pytest.raises(ValueError):
        make_quasi_uniform(UNIT_1D, 0.25, jitter=0.5)
    for h in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="h_target must be positive"):
            make_quasi_uniform(UNIT_1D, h)
    # Philox keyed with None would draw unreproducible OS entropy.
    for seed in (None, -1, 1.5, True):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            make_quasi_uniform(UNIT_1D, 0.25, jitter=0.25, seed=seed)


def test_generator_refuses_a_negative_or_non_finite_pad(monkeypatch):
    # A negative or NaN pad used to give the unpadded set silently, and an
    # infinite one an OverflowError; each is refused before any lattice.
    monkeypatch.setattr(geometry, "tensor_grid", None)
    for pad in (-1.0, -1e-12, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="pad must be finite and >= 0"):
            make_quasi_uniform(UNIT_1D, 0.25, pad=pad)
    monkeypatch.undo()
    assert make_quasi_uniform(UNIT_1D, 0.25, pad=0.0).n == 5
