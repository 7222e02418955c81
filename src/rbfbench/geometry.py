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
that every t in a given cube sees the same star.  Every neighbour search
(fill distance, separation radius, stars) goes through a KD-tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from numbers import Integral

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "Box",
    "PointSet",
    "tensor_grid",
    "make_quasi_uniform",
    "fill_distance",
    "separation_radius",
    "cube_index",
    "cube_center",
]

MAX_CANDIDATES = 4_000_000   # largest point lattice or candidate grid a point set may build
MAX_JITTER = 0.4             # largest lattice jitter, in units of the spacing


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
        """The axes of candidate_grid, refused by their node count before any is built."""
        counts = _capped("candidate grid", [int(np.ceil(s / resolution)) + 1 for s in self.sides])
        return [np.linspace(a, b, n) for a, b, n in zip(self.lo, self.hi, counts)]

    def candidate_grid(self, resolution: float) -> np.ndarray:
        """Uniform grid of spacing <= resolution covering the box."""
        return tensor_grid(self.candidate_axes(resolution))


def _capped(what: str, counts: list[int]) -> list[int]:
    """The per-axis node counts of a grid, refused above MAX_CANDIDATES nodes."""
    if prod(counts) > MAX_CANDIDATES:
        raise ValueError(f"{what} would need {prod(counts)} nodes, above the cap of "
                         f"{MAX_CANDIDATES}; coarsen the spacing")
    return counts


def cube_index(t: np.ndarray, side: float) -> tuple[int, ...]:
    """Index of the half-open cube [c - side/2, c + side/2) containing t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return tuple(int(i) for i in np.floor(t / side + 0.5))


def cube_center(idx: tuple[int, ...], side: float) -> np.ndarray:
    return np.asarray(idx, dtype=float) * side


@dataclass(frozen=True, eq=False)
class PointSet:
    """Scattered points with cached density functionals and a KD-tree built once."""

    points: np.ndarray            # (n, d)
    domain: Box
    h: float                      # fill distance w.r.t. domain
    h_slack: float                # upper error bound of the h estimate
    q: float                      # separation radius (exact)
    _tree: cKDTree = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_tree", cKDTree(self.points))

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
        """Indices of points with |p - center| <= radius, in ascending order."""
        return np.asarray(self._tree.query_ball_point(center, radius, return_sorted=True),
                          dtype=int)


def fill_distance(points: np.ndarray, domain: Box, resolution: float) -> float:
    """Estimate sup over the domain of the distance to the nearest point.

    The supremum is taken over a candidate grid of spacing <= resolution;
    the true fill distance exceeds the estimate by at most
    resolution * sqrt(d).
    """
    points = np.atleast_2d(points)
    if points.shape[0] == 0:
        raise ValueError("empty point set")
    tree = cKDTree(points)
    grid = domain.candidate_grid(resolution)
    dist, _ = tree.query(grid, k=1)
    return float(dist.max())


def separation_radius(points: np.ndarray) -> float:
    """Half the minimum pairwise distance (exact, by KD-tree)."""
    points = np.atleast_2d(points)
    if points.shape[0] < 2:
        raise ValueError("separation radius needs at least two points")
    tree = cKDTree(points)
    dist, _ = tree.query(points, k=2)
    qmin = float(dist[:, 1].min()) / 2.0
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
    [0, MAX_JITTER]; any jitter < 0.5 guarantees no collisions.

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
