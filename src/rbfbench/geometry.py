"""Point sets in a box: fill distance, separation radius, cube partition.

The fill distance h = sup_x min_xi |x - xi| over the domain is estimated on
a candidate grid with an explicit slack bound; the separation radius
q = half the minimum pairwise distance is exact.  Quasi-uniform sets are
generated by jittering a lattice with a counter-based RNG.  The lattice
spans the padded box and one random stream runs over it in lattice order,
so the points depend on the seed, the box and ``pad``: changing the
padding or the box moves every point, not only the added ones.

The cube partition splits R^d into half-open cubes [c - s/2, c + s/2)
centered at the lattice s*Z^d; local stars are anchored at cube centers so
that every t in a given cube sees the same star.  cube_indices holds the
one floor rule that assigns points to cubes.

Distances are numpy's: one helper adds the per-axis squares in axis
order, so every distance is the float a KD-tree or cdist would give.  The
fill distance and the separation radius share one exact nearest-point
search on a fixed grid of cells (Wendland, Scattered Data Approximation,
2005, section 14.1); a star is every point whose squared distance is at
most the squared radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from numbers import Integral

import numpy as np

__all__ = [
    "Box",
    "PointSet",
    "tensor_grid",
    "make_quasi_uniform",
    "fill_distance",
    "separation_radius",
    "cube_indices",
    "cube_center",
]

MAX_CANDIDATES = 4_000_000   # largest point lattice or candidate grid a point set may build
MAX_JITTER = 0.4             # largest lattice jitter, in units of the spacing
_MARGIN = 1e-6               # share of a cell side given up to the rounding of cell indices
_QUERY_BLOCK = 1 << 15       # query-cell pairs per block of a nearest-point search
_BRUTE_BLOCK = 1 << 17       # distances per block of the brute-force search


def tensor_grid(axes) -> np.ndarray:
    """The (n, d) tensor product of d 1-D axes, in meshgrid(indexing="ij") order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box corners must have equal dimension")
        if any(b <= a for a, b in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent in every axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    def pad(self, amount: float) -> "Box":
        return Box(tuple(a - amount for a in self.lo), tuple(b + amount for b in self.hi))

    def candidate_axes(self, resolution: float) -> list[np.ndarray]:
        """Axes of a grid of spacing <= resolution over the box, refused by node count first."""
        counts = _capped("candidate grid", [int(np.ceil(s / resolution)) + 1 for s in self.sides])
        return [np.linspace(a, b, n) for a, b, n in zip(self.lo, self.hi, counts)]


def _capped(what: str, counts: list[int]) -> list[int]:
    """The per-axis node counts of a grid, refused above MAX_CANDIDATES nodes."""
    if prod(counts) > MAX_CANDIDATES:
        raise ValueError(f"{what} would need {prod(counts)} nodes, above the cap of "
                         f"{MAX_CANDIDATES}; coarsen the spacing")
    return counts


def cube_indices(ts: np.ndarray, side: float) -> np.ndarray:
    """Integer index of the half-open cube [c - side/2, c + side/2) containing
    each point of ts, with the shape of ts: one row of d indices per row.

    A point with a non-finite coordinate lies in no cube and is refused
    with a ValueError.
    """
    keys = np.floor(np.asarray(ts, dtype=float) / side + 0.5)
    if not np.isfinite(keys).all():
        raise ValueError("a point with a non-finite coordinate lies in no cube")
    return keys.astype(np.int64)


def cube_center(idx: tuple[int, ...], side: float) -> np.ndarray:
    """Center of cube idx; an (n, d) array of indices gives n centers."""
    return np.asarray(idx, dtype=float) * side


def _squared_distances(a, b, out=None) -> np.ndarray:
    """The sum over k of (a[k] - b[k])**2, added in axis order.

    a and b hold one coordinate array per axis along their first index, and
    those arrays broadcast against each other.  The sum is the squared
    distance a KD-tree or cdist forms, bit for bit, so its square root is
    their distance.  out, when given, receives the result.
    """
    out = np.subtract(a[0], b[0], out=out)
    np.square(out, out=out)
    if len(a) > 1:
        tmp = np.empty_like(out)
        for ak, bk in zip(a[1:], b[1:]):
            np.subtract(ak, bk, out=tmp)
            np.square(tmp, out=tmp)
            out += tmp
    return out


def _points(x, d: int) -> np.ndarray:
    """x as (n, d) points: a 2-D array's rows, d long, or a scalar's or flat
    array's entries, except that the d entries of a flat array are one point.

    A point with a NaN or infinite coordinate is refused, named by its row.
    """
    x = np.asarray(x, dtype=float)
    x = x.reshape(-1, d if x.size == d else 1) if x.ndim < 2 else x
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"points of dimension {x.shape[1] if x.ndim == 2 else x.shape[1:]} "
                         f"in a domain of dimension {d}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        rows = np.flatnonzero(~finite)
        named = ", ".join(f"row {i} {x[i].tolist()}" for i in rows[:3])
        raise ValueError(f"non-finite points ({rows.size} of {len(x)}): {named}"
                         f"{', ...' if rows.size > 3 else ''}")
    return x


def _cell_side(extent: list[float], n: int) -> float:
    """The side of cubes holding about one of n points each over the given box.

    Axes too short to hold one cube are left out of the count, so a flat or
    degenerate box gets no more cubes than points along any axis.
    """
    wide = [e for e in extent if e > 0]
    while wide:
        side = (prod(wide) / n) ** (1.0 / len(wide))
        if min(wide) >= side:
            return side
        wide = [e for e in wide if e >= side]
    return 1.0


class _Cells:
    """Points sorted into a grid of cubic cells, for an exact nearest-point search.

    The cells cover the points' bounding box with about one point each, and
    the grid has one empty cell more on every side, so the 3^d cells
    around any cell exist.  Points outside the 3^d cells around a query's
    cell are at least one side from the query, so the nearest point among
    those cells is the nearest point of all once its squared distance is
    below bound.  A rounded cell index is off by one only within a few
    units in the last place of a cell face, so bound is the squared side
    less _MARGIN, far more than that rounding.
    """

    def __init__(self, points: np.ndarray):
        n, d = points.shape
        self.lo = points.min(axis=0)
        extent = (points.max(axis=0) - self.lo).tolist()
        self.side = _cell_side(extent, n)
        self.last = np.array([int(e // self.side) for e in extent])   # last cell per axis
        shape = (self.last + 3).tolist()
        self.strides = np.array([prod(shape[k + 1:]) for k in range(d)])
        cell = self._cell(points)
        order = np.argsort(cell, kind="stable")
        # Coordinates by axis, in cell order, with one point at infinity
        # (index n) that stands for an empty cell.
        self.coords = np.full((d, n + 1), np.inf)
        self.coords[:, :n] = points[order].T
        self.size = np.bincount(cell, minlength=prod(shape))
        self.first = np.cumsum(self.size) - self.size
        self.head = np.where(self.size > 0, self.first, n)
        self.deepest = int(self.size.max())
        offsets = [0]                       # flat steps to the 3^d cells around a cell
        for s in self.strides.tolist():
            offsets = [o + t for o in offsets for t in (-s, 0, s)]
        self.offsets = np.array(offsets)[:, None]
        self.bound = (self.side * (1.0 - _MARGIN)) ** 2

    def _cell(self, pts: np.ndarray) -> np.ndarray:
        """The flat index of each point's cell; points beyond the box go to its edge cells."""
        idx = np.floor((pts - self.lo) / self.side)
        np.minimum(np.maximum(idx, 0.0, out=idx), self.last, out=idx)
        return (idx.astype(np.intp) + 1) @ self.strides

    @property
    def sorted_points(self) -> np.ndarray:
        """The points in cell order, one per row."""
        return self.coords[:, :-1].T

    def nearest(self, queries: np.ndarray, skip=None) -> tuple[np.ndarray, np.ndarray]:
        """(squared distance to the nearest point in the 3^d cells around each query,
        indices of the queries for which that is not below bound).

        skip, when given, names for each query a point (in cell order) it
        skips, as in brute_nearest.
        """
        best = np.empty(len(queries))
        step = max(1, _QUERY_BLOCK // len(self.offsets))
        for start in range(0, len(queries), step):
            block = slice(start, min(start + step, len(queries)))
            best[block] = self._block_nearest(queries[block], self._cell(queries[block]),
                                              None if skip is None else skip[block])
        return best, np.flatnonzero(~(best < self.bound))

    def _block_nearest(self, queries: np.ndarray, cell: np.ndarray, skip) -> np.ndarray:
        qt = np.ascontiguousarray(queries.T)
        near = cell + self.offsets                          # (3^d, queries)
        idx = self.head.take(near)
        d2 = _squared_distances(qt[:, None, :], self.coords.take(idx, axis=1))
        if skip is not None:
            d2[idx == skip] = np.inf
        best = d2.min(axis=0)
        for j in range(1, self.deepest):
            k, q = np.nonzero(self.size.take(near) > j)
            if not q.size:
                break
            idx = self.first.take(near[k, q]) + j
            d2 = _squared_distances(qt[:, q], self.coords.take(idx, axis=1))
            if skip is not None:
                d2[idx == skip[q]] = np.inf
            np.minimum.at(best, q, d2)
        return best

    def brute_nearest(self, queries: np.ndarray, skip=None) -> np.ndarray:
        """Squared distance from each query to the nearest point of all.

        skip, when given, names for each query a point (in cell order) it
        skips.  Queries go _BRUTE_BLOCK distances at a time.
        """
        n = self.coords.shape[1] - 1
        pts = self.coords[:, None, :n]
        out = np.empty(len(queries))
        step = max(1, _BRUTE_BLOCK // n)
        for start in range(0, len(queries), step):
            block = queries[start:start + step].T[:, :, None]
            d2 = _squared_distances(block, pts)
            if skip is not None:
                d2[np.arange(len(d2)), skip[start:start + step]] = np.inf
            out[start:start + step] = d2.min(axis=1)
        return out


@dataclass(frozen=True, eq=False)
class PointSet:
    """Scattered points with their cached density functionals."""

    points: np.ndarray            # (n, d)
    domain: Box
    h: float                      # fill distance w.r.t. domain
    h_slack: float                # upper error bound of the h estimate
    q: float                      # separation radius (exact)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def rho(self) -> float:
        return self.h / self.q

    def within_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of the points in the closed ball, in ascending order.

        A point is in the ball when its squared distance is at most
        radius**2, as in a KD-tree's ball query, so a point whose rounded
        distance equals radius can still fall outside.
        """
        center = np.asarray(center, dtype=float).reshape(self.dim)
        d2 = _squared_distances(self.points.T, center)
        return np.flatnonzero(d2 <= radius * radius)


def fill_distance(points: np.ndarray, domain: Box, resolution: float) -> float:
    """Estimate sup over the domain of the distance to the nearest point.

    The supremum is taken over a candidate grid of spacing <= resolution;
    the true fill distance exceeds the estimate by at most
    resolution * sqrt(d).  points are read by _points in the domain's
    dimension.
    """
    points = _points(points, domain.dim)
    if points.shape[0] == 0:
        raise ValueError("empty point set")
    grid = tensor_grid(domain.candidate_axes(resolution))
    cells = _Cells(points)
    d2, rest = cells.nearest(grid)
    d2[rest] = cells.brute_nearest(grid[rest])
    return float(np.sqrt(d2.max()))


def separation_radius(points: np.ndarray) -> float:
    """Half the minimum pairwise distance (exact).

    points are read by _points, in the dimension of a 2-D array's rows.
    """
    points = _points(points, np.shape(points)[1] if np.ndim(points) == 2 else 1)
    if points.shape[0] < 2:
        raise ValueError("separation radius needs at least two points")
    cells = _Cells(points)
    pts = cells.sorted_points
    d2, rest = cells.nearest(pts, skip=np.arange(len(pts)))
    # A point whose minimum is not below the bound has no other point
    # nearer than that; it can hold the minimum only if every point does.
    if rest.size == len(pts):
        d2 = cells.brute_nearest(pts, skip=np.arange(len(pts)))
    qmin = float(np.sqrt(d2.min())) / 2.0
    if qmin == 0.0:
        raise ValueError("duplicate points: separation radius is zero")
    return qmin


def make_quasi_uniform(domain: Box, h_target: float, jitter: float = 0.0,
                       seed: int = 0, pad: float = 0.0) -> PointSet:
    """Jittered lattice with spacing h_target covering the padded domain.

    Each lattice point moves by a uniform offset in
    [-jitter*h_target, jitter*h_target] per coordinate, drawn from a
    counter-based generator keyed by the seed (an integer >= 0), so the set
    is reproducible independent of evaluation order.  jitter must lie in
    [0, MAX_JITTER]; any jitter < 0.5 guarantees no collisions.  pad must
    be finite and >= 0.

    h_target must be positive and smaller than the domain's shortest side;
    the returned PointSet caches the measured fill distance (w.r.t. the
    unpadded domain) with its slack bound, separation radius, and mesh ratio.
    """
    if not 0.0 <= jitter <= MAX_JITTER:
        raise ValueError(f"jitter must lie in [0, {MAX_JITTER}]")
    if not h_target > 0:
        raise ValueError(f"h_target must be positive, got {h_target}")
    if h_target >= min(domain.sides):
        raise ValueError("h_target must be smaller than the domain's shortest side")
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if not (np.isfinite(pad) and pad >= 0):
        raise ValueError(f"pad must be finite and >= 0, got {pad}")
    box = domain.pad(pad) if pad > 0 else domain
    counts = _capped("point lattice", [max(1, round((b - a) / h_target)) + 1
                                       for a, b in zip(box.lo, box.hi)])
    resolution = h_target / 32.0 if domain.dim < 3 else h_target / 8.0
    domain.candidate_axes(resolution)           # refused before any grid exists
    pts = tensor_grid([np.linspace(a, b, n) for a, b, n in zip(box.lo, box.hi, counts)])
    if jitter > 0:
        rng = np.random.Generator(np.random.Philox(key=seed))
        pts = pts + rng.uniform(-jitter * h_target, jitter * h_target, size=pts.shape)
    h = fill_distance(pts, domain, resolution)
    q = separation_radius(pts)
    return PointSet(pts, domain, h, resolution * np.sqrt(domain.dim), q)
