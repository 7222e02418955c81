"""Local polynomial reproduction weights and the kernel error scan.

For each cube Q of the partition, the points of X within c3 * h of the cube
center form the star X(t) shared by every t in Q.  The functional

    lambda_t = sum_{xi in X(t)} A(t, xi) delta_xi,
    lambda_t(p) = p(t) for every polynomial p of total degree <= degree,

is realized by the minimum-norm solution A(t, .) = pinv(M) beta(t) of the
underdetermined system M A = beta, where M_{i,j} = p_i(xi_j) on a monomial
basis shifted to the cube center and scaled by c3 * h for conditioning.
The pseudo-inverse makes A continuous in t within each cube and keeps the
functional norm small.

Substituting kernel translates for point evaluations gives the surrogate
K(x, t) = sum A(t, xi) Phi(x - xi); the scan records how the error kernel
E(x, t) = Phi(x - t) - K(x, t) compares to h^(kappa - d) (1 + |x-t|/h)^(-l).
Every Phi value comes from kernels._kernel_block and every sum over the
star is an einsum, which calls no BLAS.  kernel_K forms K one cube of t at
a time: one weights product for all the t of a cube and one kernel block
for their x against its star.

LocalPolyBuilder.weights_by_cube is the one grouping of points by cube:
kernel_K and approx.quasi_interpolant take their cubes, in ascending
lexicographic order, and each cube's reproduction weights from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometry import PointSet, cube_center, cube_indices, tensor_grid
from .kernels import _kernel_block

__all__ = [
    "ErrorKernelScan",
    "UnisolvencyError",
    "LocalPolyBuilder",
    "kernel_K",
    "property2_scan",
    "monomial_exponents",
]

SVD_CUTOFF = 1e-10     # relative singular-value cutoff of the star pseudo-inverse
C2_CAP = 2.0           # l1 norm above which a star is enlarged
MAX_RETRIES = 4        # star enlargements before a cube counts as unisolvent
FAR_LIMIT = 3.0        # support radius property2_scan assumes for unbounded kernels


class UnisolvencyError(RuntimeError):
    """The local star cannot reproduce the requested polynomial degree."""


def monomial_exponents(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Multi-indices of total degree <= degree, graded order."""
    out = []
    for total in range(degree + 1):
        for combo in product(range(total + 1), repeat=dim):
            if sum(combo) == total:
                out.append(combo)
    return out


def _basis_matrix(pts: np.ndarray, anchor: np.ndarray, scale: float,
                  exponents: list[tuple[int, ...]]) -> np.ndarray:
    """Rows p_i((pts - anchor)/scale) for the shifted-scaled monomials."""
    z = (pts - anchor) / scale
    powers = {}             # z[:, axis] ** power, formed once per (axis, power)
    rows = []
    for e in exponents:
        col = np.ones(z.shape[0])
        for axis, power in enumerate(e):
            if power:
                if (axis, power) not in powers:
                    powers[axis, power] = z[:, axis] ** power
                col = col * powers[axis, power]
        rows.append(col)
    return np.asarray(rows)


class LocalPolyBuilder:
    """Builds reproduction weights, one linear map per cube, and keeps none.

    Cubes have side X.h.  On rank deficiency or an l1 norm above C2_CAP, the
    star radius factor is enlarged by 1.5 and the cube rebuilt, at most
    MAX_RETRIES times.  Rank deficiency that survives all retries raises
    UnisolvencyError; an l1 norm still above the cap is left in the
    weights, not raised.
    """

    def __init__(self, X: PointSet, degree: int, c3: float):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.X = X
        self.degree = degree
        self.c3 = float(c3)
        self.side = X.h
        self.exponents = monomial_exponents(X.dim, degree)
        # Offsets of the cube corners, kept just inside the cube.
        self._corners = self.side / 2.0 * 0.999 * tensor_grid([(-1.0, 1.0)] * X.dim)

    def cube_map(self, idx: tuple[int, ...]):
        """(star indices, pinv factor, anchor, scale, c3 used) for a cube, built anew."""
        anchor = cube_center(idx, self.side)
        c3 = self.c3
        last = None
        for _ in range(MAX_RETRIES + 1):
            star = self.X.within_ball(anchor, c3 * self.X.h)
            if star.size < len(self.exponents):
                c3 *= 1.5
                continue
            pts = self.X.points[star]
            scale = c3 * self.X.h
            M = _basis_matrix(pts, anchor, scale, self.exponents)
            V = np.linalg.pinv(M, rcond=SVD_CUTOFF)
            # Solvability and norm probe at the cube center and all cube
            # corners (the functional norm peaks towards the corners).
            probes = np.vstack([anchor[None, :], anchor + self._corners])
            beta = _basis_matrix(probes, anchor, scale, self.exponents).T
            alpha = beta @ V.T                        # (n_probe, n_star)
            resid = np.abs(alpha @ M.T - beta).max()
            if resid > 1e-8:
                last = None
                c3 *= 1.5
                continue
            last = (star, V, anchor, scale, c3)
            if np.abs(alpha).sum(axis=1).max() > C2_CAP:
                c3 *= 1.5
                continue
            break
        if last is None:
            raise UnisolvencyError(
                f"cube {idx} (center {anchor}): star cannot reproduce "
                f"degree {self.degree} after {MAX_RETRIES} enlargements")
        return last

    def weights(self, idx: tuple[int, ...], ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(star, A) for the points ts of cube idx, one column A(t, .) per row t of ts."""
        star, V, anchor, scale, _ = self.cube_map(idx)
        return star, V @ _basis_matrix(ts, anchor, scale, self.exponents)

    def weights_by_cube(self, ts: np.ndarray):
        """Yield (rows, star, A) for each cube that holds rows of ts.

        ts holds one point per row.  The rows are grouped by
        geometry.cube_indices with one stable sort, so the cubes come in
        ascending lexicographic index order (the order of np.ndindex) and
        each cube's rows in their input order; rows indexes ts, and A has
        one column A(t, .) per row, from one weights call per cube.
        """
        keys = cube_indices(ts, self.side)
        if not len(keys):
            return                  # np.split would make one empty group
        order = np.lexsort(keys.T[::-1])
        starts = np.flatnonzero(np.diff(keys[order], axis=0).any(axis=1)) + 1
        for rows in np.split(order, starts):
            star, A = self.weights(tuple(keys[rows[0]].tolist()), ts[rows])
            yield rows, star, A


def kernel_K(Phi, builder: LocalPolyBuilder, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Surrogate K(x, t) = sum_xi A(t, xi) Phi(x - xi) for each row pair (x, t) of xs and ts.

    The pairs are grouped by the cube of t with builder.weights_by_cube,
    and each cube makes one kernels._kernel_block call for its x against
    its star; each row is reduced against its own column A(t, .) by
    einsum, which calls no BLAS.
    """
    K = np.zeros(len(xs))
    for rows, star, A in builder.weights_by_cube(ts):
        block = _kernel_block(Phi, xs[rows].T[:, :, None], builder.X.points[star].T[:, None, :])
        K[rows] = np.einsum("ij,ji->i", block, A)
    return K


@dataclass(frozen=True, eq=False)
class ErrorKernelScan:
    """Stratified samples of |E(x,t)| against the claimed envelope, one per row."""

    x: np.ndarray
    t: np.ndarray
    dist_over_h: np.ndarray
    abs_e: np.ndarray
    bound: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        return self.abs_e / self.bound

    @property
    def c_emp(self) -> float:
        return float(self.ratio.max())


def property2_scan(Phi, X: PointSet, kappa: float, ell: float,
                   sample_budget: int, *, degree: int, c3: float,
                   seed: int = 0) -> ErrorKernelScan:
    """Sample the error kernel and record C_emp = max |E| / envelope.

    (x, t) pairs are stratified by s = |x - t|/h over [0, s_max], where
    s_max covers the kernel support plus the star radius; kernels with
    unbounded support count as supported on FAR_LIMIT.  t is drawn
    uniformly in the domain.  The sample budget is split evenly over the
    strata; a budget below 8 samples per stratum is refused with a
    ValueError.  The samples are drawn first into preallocated arrays, t,
    s and the direction of x - t in turn for each; E is then Phi(x - t)
    less the surrogate that kernel_K forms by cube of t.
    """
    d = X.dim
    h = X.h
    c1 = c3 + np.sqrt(d) / 2.0
    support = Phi.support_radius
    if np.isinf(support):
        support = FAR_LIMIT
    s_max = (support + c1 * h) / h
    edges = [0.0, 0.5, 1.0]
    while edges[-1] < s_max:
        edges.append(min(edges[-1] * 2.0, s_max))
    strata = len(edges) - 1
    if sample_budget < 8 * strata:
        raise ValueError(f"sample budget {sample_budget} is below 8 samples for each "
                         f"of the {strata} distance strata ({8 * strata})")
    builder = LocalPolyBuilder(X, degree, c3)
    rng = np.random.Generator(np.random.Philox(key=seed))
    lo = np.asarray(X.domain.lo)
    hi = np.asarray(X.domain.hi)
    bounds = np.repeat(list(zip(edges[:-1], edges[1:])), sample_budget // strata, axis=0)
    xs, ts, ss = np.empty((len(bounds), d)), np.empty((len(bounds), d)), np.empty(len(bounds))
    for i, (a, b) in enumerate(bounds):
        ts[i] = rng.uniform(lo, hi)
        ss[i] = rng.uniform(a, b)
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        xs[i] = ts[i] + ss[i] * h * u
    es = np.abs(_kernel_block(Phi, xs.T, ts.T) - kernel_K(Phi, builder, xs, ts))
    return ErrorKernelScan(xs, ts, ss, es, h ** (kappa - d) * (1.0 + ss) ** (-ell))
