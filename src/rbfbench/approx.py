"""Approximants from kernel translate spaces and L^p error measurement.

Two routes into the translate space S_X(G) are provided:

* a constructive quasi-interpolant whose coefficient of G(. - xi) is
  (2 pi)^(-d/2) times the quadrature of g(t) A(t, xi) over the cubes whose
  star contains xi, the finite realization of integrating the source term
  against the local surrogate kernel K(., t) (the Green's function of the
  operator is (2 pi)^(-d/2) G under the symmetric transform convention); and
* a least-squares witness that minimizes the discrete l^2 error on an
  evaluation grid, giving an upper bound on the best-approximation error
  (the same coefficient vector witnesses the L^1 and L^inf errors).

Kernel matrices are built in row blocks into one preallocated array, each
block written by kernels._kernel_block, the one owner of kernel values at
point pairs.  The least-squares solve overwrites its matrix in place, so
a witness holds one dense matrix at a time; a matrix that does not fit in
the available memory, with the workspace of one block, is refused before
it is allocated.  A witness is evaluated one row block at a time and
summed without BLAS, so no dense evaluation matrix is made and the values
do not depend on the BLAS thread count.  Errors are
composite-quadrature L^p norms on an interior region; fitted log-log
slopes against the fill distance are the empirical convergence rates.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import resource
import sys
from dataclasses import dataclass
from math import pi
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from ._quad import panel_nodes
from .geometry import (Box, PointSet, _points, _squared_distances, cube_center, cube_indices,
                       tensor_grid)
from .kernels import _BLOCK_ENTRY_BYTES, _kernel_block
from .polyrep import LocalPolyBuilder

__all__ = [
    "SmoothBump",
    "TestFunction",
    "synth_test_function",
    "quasi_interpolant",
    "ls_witness",
    "evaluate_combination",
    "lp_error",
    "fit_rate",
]

_GL_NODES = 48         # Gauss-Legendre nodes per panel of the f = (2 pi)^(-d/2) G * g quadrature
_PANELS_PER_SIDE = 4   # panels on each side of the kink at t = x
_BLOCK = 128           # evaluation points per block of that quadrature
_MIDPOINTS = 4         # midpoints per axis of each cube in the quasi-interpolant rule
_BUILD_BLOCK = 1 << 17  # entries per block of a kernel matrix build


@dataclass(frozen=True)
class SmoothBump:
    """Radial C^inf bump: exp(1 - 1/(1 - u^2)), u = |x - center|/width."""

    center: tuple[float, ...]
    width: float

    @property
    def dim(self) -> int:
        return len(self.center)

    def radial(self, r, out=None) -> np.ndarray:
        """The bump at radius r (vectorized); zero for r >= width and for NaN.

        out, an array of r's shape, receives the values and may be r
        itself; beyond it one byte per radius is allocated.
        """
        r = np.asarray(r, dtype=float)
        u2 = np.divide(r, self.width, out=np.empty(r.shape) if out is None else out)
        np.square(u2, out=u2)
        outside = ~(u2 < 1.0)
        u2[outside] = 0.0
        vals = np.subtract(1.0, u2, out=u2)
        np.divide(1.0, vals, out=vals)
        np.subtract(1.0, vals, out=vals)
        np.exp(vals, out=vals)
        vals[outside] = 0.0
        return vals

    def __call__(self, x) -> np.ndarray | float:
        """The bump at the points x, read by geometry._points: one value per
        point, a float for one point given as a scalar or flat array.
        """
        pts = _points(x, self.dim)
        r = _squared_distances(pts.T, np.asarray(self.center))
        out = self.radial(np.sqrt(r, out=r), out=r)
        return float(out[0]) if np.ndim(x) <= 1 and len(pts) == 1 else out

    @property
    def box(self) -> Box:
        """The box center +- width on every axis, outside which the bump is 0."""
        return Box(tuple(c - self.width for c in self.center),
                   tuple(c + self.width for c in self.center))


def _green_factor(d: int) -> float:
    """(2 pi)^(-d/2): the Green's function of the operator is this times G."""
    return (2.0 * pi) ** (-d / 2.0)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Test function f = (2 pi)^(-d/2) G * g with exactly known source term g.

    (2 pi)^(-d/2) G is the Green's function of the operator T, so T f = g
    holds with no stray constant.
    """

    g: SmoothBump
    f: Callable


def synth_test_function(G, bump: SmoothBump) -> TestFunction:
    """Construct f = (2 pi)^(-d/2) G * g in d = 1 by panel quadrature; f reads points as g does.

    The factor (2 pi)^(-d/2) makes T f = g hold exactly under the
    symmetric transform convention (e.g. the Green's function of
    1 - Laplacian in d = 1 is exp(-|x|)/2).  The integrand has a kink at
    t = x, so the bump's box [a, b] is cut at c = clip(x, a, b), and
    the same _PANELS_PER_SIDE panels of _GL_NODES Gauss-Legendre nodes are
    mapped onto [a, c] and onto [c, b]; the bump vanishes to all orders at
    a and b, so this reaches near machine precision.  The kernel values at
    the pairs (x, t) come from kernels._kernel_block.  f(x) is then one
    weighted row sum, formed for _BLOCK points at a time so the
    temporaries stay _BLOCK x 384 floats however many points are asked for.
    """
    if bump.dim != 1:
        raise ValueError("convolution synthesis is implemented for d = 1")
    factor = _green_factor(bump.dim)
    (a,), (b,) = bump.box.lo, bump.box.hi
    center = bump.center[0]
    u, wu = panel_nodes(np.linspace(0.0, 1.0, _PANELS_PER_SIDE + 1), _GL_NODES)

    def f(xs):
        flat = _points(xs, 1)[:, 0]
        out = np.empty(flat.size)
        for start in range(0, flat.size, _BLOCK):
            x = flat[start:start + _BLOCK, None]
            c = np.clip(x, a, b)
            t = np.hstack([a + (c - a) * u, c + (b - c) * u])
            w = np.hstack([(c - a) * wu, (b - c) * wu])
            vals = factor * _kernel_block(G, x[None], t[None]) * bump.radial(np.abs(t - center))
            out[start:start + _BLOCK] = np.sum(w * vals, axis=1)
        return float(out[0]) if np.ndim(xs) <= 1 and flat.size == 1 else out

    return TestFunction(bump, f)


def quasi_interpolant(g, X: PointSet, degree: int, c3: float) -> np.ndarray:
    """Constructive coefficients of G(. - xi) for f = (2 pi)^(-d/2) G * g.

    The source g is any vectorized callable of (n, d) points whose box, a
    geometry.Box, holds every t where g may be nonzero.  c_xi is (2 pi)^(-d/2)
    times the integral of g(t) A(t, xi) dt over the cubes meeting g.box, with
    a midpoint rule of _MIDPOINTS points per axis inside each cube of side h.
    The midpoints of every cube in the range are built and g evaluated on them
    at once; cubes where g vanishes on every midpoint are dropped, and the
    rest are grouped by LocalPolyBuilder(X, degree, c3).weights_by_cube,
    which gives A(t, .) for all midpoints of a cube at once and takes the
    cubes in np.ndindex order.  Returns one coefficient per point of X.
    """
    d = X.dim
    side = X.h
    m = _MIDPOINTS
    offsets = tensor_grid([(np.arange(m) + 0.5) / m * side - side / 2.0] * d)
    w_quad = (side / m) ** d
    lo, hi = cube_indices(np.array([g.box.lo, g.box.hi]), side)
    centers = cube_center(tensor_grid([np.arange(a, b + 1) for a, b in zip(lo, hi)]), side)
    samples = (centers[:, None, :] + offsets).reshape(-1, d)
    gv = g(samples)
    kept = np.repeat(gv.reshape(len(centers), -1).any(axis=1), len(offsets))
    samples, gv = samples[kept], gv[kept]
    coeffs = np.zeros(X.n)
    for rows, star, alpha in LocalPolyBuilder(X, degree, c3).weights_by_cube(samples):
        coeffs[star] += w_quad * (alpha @ gv[rows])
    return coeffs * _green_factor(d)


def _proc_bytes(path: str, key: str, unread: float) -> float:
    """The kB entry key of a /proc file in bytes, or unread where it cannot be read."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return 1024.0 * int(line.split()[1])
    except OSError:
        pass
    return unread


def _available_bytes() -> tuple[float, str]:
    """(bytes, name) of the tighter limit: MemAvailable, or RLIMIT_AS less VmSize."""
    memory = _proc_bytes("/proc/meminfo", "MemAvailable:", float("inf"))
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    address_space = (float("inf") if soft == resource.RLIM_INFINITY
                     else soft - _proc_bytes("/proc/self/status", "VmSize:", 0.0))
    if address_space < memory:
        return address_space, "the RLIMIT_AS soft limit less VmSize"
    return memory, "MemAvailable"


def _refuse_oversize(n_rows: int, n_cols: int, workspace_bytes: int = 0) -> None:
    """Refuse with a ValueError a kernel matrix too big to build (see _kernel_matrix)."""
    step = max(1, _BUILD_BLOCK // max(n_cols, 1))
    need = 8.0 * n_rows * n_cols + workspace_bytes + _BLOCK_ENTRY_BYTES * min(step, n_rows) * n_cols
    available, limit = _available_bytes()
    if need > available:
        raise ValueError(f"a {n_rows} x {n_cols} kernel matrix needs {need / 1e9:.3g} GB, "
                         f"but only {available / 1e9:.3g} GB is available ({limit})")


def _kernel_matrix(rows: np.ndarray, cols: np.ndarray, Phi,
                   workspace_bytes: int = 0) -> np.ndarray:
    """C-order matrix of Phi(|row - col|), built _BUILD_BLOCK entries at a time.

    Each block of rows is written in place by kernels._kernel_block, so
    every entry is the one a single full-size build would give.  Before
    the matrix is allocated, its 8 rows cols bytes plus workspace_bytes
    plus the _BLOCK_ENTRY_BYTES a pair that one block allocates are
    compared with _available_bytes(), and a matrix that does not fit is
    refused with a ValueError; a non-finite entry is refused as well.
    """
    n_rows, n_cols = len(rows), len(cols)
    _refuse_oversize(n_rows, n_cols, workspace_bytes)
    step = max(1, _BUILD_BLOCK // max(n_cols, 1))
    out = np.empty((n_rows, n_cols))
    cols_t = np.ascontiguousarray(cols.T)[:, None, :]
    for start in range(0, n_rows, step):
        _kernel_block(Phi, rows.T[:, start:start + step, None], cols_t, out=out[start:start + step])
    return out


def collocation_matrix(pts: np.ndarray, X: PointSet, Phi) -> np.ndarray:
    """Matrix of Phi(|pt - xi|): one row per point of pts, one column per xi in X.

    pts are read by geometry._points in X's dimension.  The matrix is the
    only full-size array made, about 8 rows cols bytes; one that does not
    fit in the available memory is refused with a ValueError before it is
    allocated.
    """
    return _kernel_matrix(_points(pts, X.dim), X.points, Phi)


def _flapack():
    """scipy's f2py LAPACK module, scipy.linalg._flapack, without scipy.linalg.

    The module is loaded from its file under scipy's folder, which is found
    without importing scipy, and registered under its own name, so a later
    import of scipy.linalg reuses this one module.  Where no such file is
    found or it does not load, the ordinary import is used instead.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    folders = (scipy_spec and scipy_spec.submodule_search_locations) or ()
    paths = [os.path.join(folder, "linalg", "_flapack" + suffix)
             for folder in folders for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is not None:
        spec = importlib.util.spec_from_file_location(name, path)
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
        except BaseException as exc:
            # Creating a single-phase extension module already registers
            # it, so a failure at any step takes the entry out again.
            sys.modules.pop(name, None)
            if not isinstance(exc, ImportError):
                raise
    return importlib.import_module(name)


def _gelsd_workspace(m: int, n: int) -> tuple[int, int]:
    """(lwork, liwork) of a one-column gelsd solve with an m x n matrix."""
    work, iwork, info = _flapack().dgelsd_lwork(m, n, 1)
    if info != 0:
        raise ValueError(f"gelsd workspace query failed: {info}")
    return int(work), int(iwork)


def _ls_workspace_bytes(m: int, n: int) -> int:
    """Bytes of the gelsd work, iwork, b and s arrays of an m x n solve."""
    lwork, liwork = _gelsd_workspace(m, n)
    return 8 * (lwork + max(m, n) + min(m, n)) + 4 * liwork


def lstsq(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm least-squares solution of A x = b by LAPACK gelsd: (x, rank).

    A is a Fortran-order float64 matrix and is overwritten, so no copy of
    it is made.  Singular values below machine epsilon times the largest
    are treated as zero.  The arithmetic is that of scipy.linalg.lstsq with
    lapack_driver="gelsd": the routine is the dgelsd that
    scipy.linalg.get_lapack_funcs returns for float64, the same function
    object of scipy's f2py LAPACK module.  That module is loaded alone,
    without the scipy.linalg package: with scipy 1.17 on x86-64 Linux,
    importing the package (mostly scipy's array API support) cost a fresh
    process about 0.3 s and 27 MB RSS, the module alone 6 ms and 2.5 MB.
    The solve keeps this module-level name so that it can be timed from
    outside.
    """
    m, n = A.shape
    gelsd = _flapack().dgelsd
    # gelsd writes the n-entry solution into b, so b is padded to
    # max(m, n) rows, as lstsq does.
    rhs = np.zeros(max(m, n))
    rhs[:m] = b
    lwork, liwork = _gelsd_workspace(m, n)
    # cond = machine epsilon keeps every singular value above it: a fixed
    # coarse cutoff (e.g. 1e-12) visibly floors the error of the smoothest
    # kernels, whose collocation spectra decay below it while the discarded
    # modes still carry needed signal.
    x, _, rank, info = gelsd(A, rhs, lwork, liwork, float(np.finfo(float).eps),
                             overwrite_a=True, overwrite_b=True)
    if info > 0:
        raise LinAlgError("SVD did not converge in Linear Least Squares")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gelsd")
    return x[:n], int(rank)


def ls_witness(f_vals: np.ndarray, grid: np.ndarray, Phi,
               X: PointSet) -> tuple[np.ndarray, int]:
    """Least-squares witness on the grid, read by geometry._points: (coefficients, rank).

    The coefficients minimize the discrete l^2 error on the grid.  They are
    solved by an SVD-based factorization and the minimum-norm solution is
    taken, so a rank-deficient collocation matrix (grid too coarse, or
    translates with no support on the grid) stays well posed; the returned
    effective rank shows the deficiency.  The solve overwrites the
    collocation matrix, about 8 rows cols bytes, in place and releases it
    before returning; evaluate_combination then forms the fitted values
    one row block at a time, never holding a second full matrix.  A level
    whose matrix and solver workspace do not fit in the available memory
    is refused with a ValueError before the matrix is allocated, and so
    are function values that are not one per grid point.
    """
    grid = _points(grid, X.dim)
    if np.shape(f_vals) != (len(grid),):
        raise ValueError(f"function values of shape {np.shape(f_vals)} on {len(grid)} grid points")
    if not np.isfinite(f_vals).all():
        raise ValueError("function values must be finite")
    # Rows are centres, so the transpose is the Fortran-order collocation
    # matrix, which the solve overwrites without a copy.
    A = _kernel_matrix(X.points, grid, Phi, _ls_workspace_bytes(len(grid), X.n)).T
    return lstsq(A, f_vals)


def evaluate_combination(coeffs: np.ndarray, X: PointSet, Phi, pts: np.ndarray) -> np.ndarray:
    """Evaluate sum_xi c_xi Phi(. - xi) at the given points.

    The points are taken _BUILD_BLOCK // X.n at a time (at least one), so
    only one block's matrix is alive.  Each block comes from
    collocation_matrix, so its memory refusal and non-finite check apply
    per block.  The rows are reduced against coeffs by einsum, which calls
    no BLAS: every value is the same sum in the same order whatever the
    block size or the BLAS thread count, and numpy's BLAS threads stay
    idle.  The points are read by geometry._points in X's dimension, and
    coefficients that are not one finite value per centre are refused.
    """
    pts = _points(pts, X.dim)
    if np.shape(coeffs) != (X.n,):
        raise ValueError(f"coefficients of shape {np.shape(coeffs)} on {X.n} centres")
    if not np.isfinite(coeffs).all():
        raise ValueError("coefficients must be finite")
    out = np.empty(len(pts))
    step = max(1, _BUILD_BLOCK // max(X.n, 1))
    for start in range(0, len(pts), step):
        np.einsum("ij,j->i", collocation_matrix(pts[start:start + step], X, Phi), coeffs,
                  out=out[start:start + step])
    return out


def lp_error(f_vals: np.ndarray, s_vals: np.ndarray, p: float,
             weights: np.ndarray | None = None) -> float:
    """Composite-quadrature L^p norm of f - s on a common grid.

    p = inf is the grid maximum; finite p requires quadrature weights.
    A p outside [1, inf] (NaN included) is refused.
    """
    if not 1 <= p <= np.inf:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    f_vals = np.asarray(f_vals)
    s_vals = np.asarray(s_vals)
    if f_vals.shape != s_vals.shape:
        raise ValueError("mismatched grids")
    diff = np.abs(f_vals - s_vals)
    if np.isinf(p):
        return float(diff.max())
    if weights is None:
        raise ValueError("finite p needs quadrature weights")
    if np.asarray(weights).shape != diff.shape:
        raise ValueError("mismatched quadrature weights")
    return float(np.sum(weights * diff ** p) ** (1.0 / p))


def fit_rate(levels, f_scale: float = 1.0) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(h).

    Levels with error below 100 * machine epsilon * f_scale are dropped as
    noise floor; at least 4 usable levels are required, and every spacing
    h and every error must be positive and finite.  Returns (slope, rms
    residual of the fit).
    """
    levels = [(float(h), float(e)) for h, e in levels]
    if not all(0 < h < np.inf for h, _ in levels):
        raise ValueError("spacings h must be positive and finite")
    if not all(0 < e < np.inf for _, e in levels):
        raise ValueError("errors must be positive and finite")
    floor = 100.0 * np.finfo(float).eps * f_scale
    usable = [(h, e) for h, e in levels if e > floor]
    if len(usable) < 4:
        raise ValueError(f"need at least 4 usable levels, have {len(usable)}")
    lh = np.log([h for h, _ in usable])
    le = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(lh, le, 1)
    fit = slope * lh + intercept
    residual = float(np.sqrt(np.mean((le - fit) ** 2)))
    return float(slope), residual
