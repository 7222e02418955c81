"""Configuration-driven convergence-rate experiments with JSON/CSV reports.

A rate experiment runs a geometric schedule of lattice spacings.
rate_levels yields one frozen Level per spacing, coarsest first: a
quasi-uniform set (padded beyond the evaluation region so boundary
effects stay out of the interior error norms), the evaluation grid and
its weights, the test function there, and the witness coefficients in
the kernel translate space.  run_rate_experiment folds the levels: it
measures L^p errors on the interior region and fits the log-log slope
against the measured fill distance.  Star parameters are derived, not
configured (family_kernel, polyrep.C2_CAP, RHO_MAX).  A least-squares
level holds one dense collocation matrix at a time, about 8 rows cols
bytes, and a Level holds none: the solve overwrites it in place and
releases it.  evaluate_combination then evaluates either witness on the
grid one row block at a time, so no level holds a dense evaluation
matrix and a quasi level holds no dense matrix at all.  Every point set
is built first, and a least-squares level whose matrix and solver
workspace do not fit in the available memory is refused with a
ValueError before any level is solved.  property2_run scans the
Property-2 error-kernel envelope of a family kernel on the same jittered,
padded lattice, one spacing only.  Reports are deterministic for a
fixed config, BLAS build and thread count: the config hash is embedded
and no timestamps are written.  The witness evaluation calls no BLAS and
does not depend on the thread count; the least-squares solve does.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from math import prod
from numbers import Integral
from pathlib import Path

import numpy as np

from ._quad import trapezoid_weights
from .approx import (
    SmoothBump,
    _ls_workspace_bytes,
    _refuse_oversize,
    evaluate_combination,
    fit_rate,
    lp_error,
    ls_witness,
    quasi_interpolant,
    synth_test_function,
)
from .geometry import MAX_JITTER, Box, PointSet, make_quasi_uniform, tensor_grid
from .kernels import sobolev_spline_construct, wendland_construct
from .polyrep import ErrorKernelScan, property2_scan

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "Level",
    "rate_levels",
    "run_rate_experiment",
    "FamilyKernel",
    "family_kernel",
    "config_hash",
    "report_to_json",
    "report_to_csv",
    "property2_run",
    "scan_to_csv",
]

RATE_TOLERANCE = 0.4   # fitted slope must reach theory_rate - RATE_TOLERANCE
RHO_MAX = 4.0          # bound on the mesh ratio of each level's point set
DEFAULT_PAD = 2.0      # point-set padding beyond the evaluation region
DEFAULT_JITTER = 0.25  # lattice jitter of rate runs and Property-2 scans
_NUMBER_FIELDS = ("h0", "ratio", "jitter", "pad", "bump_center", "bump_width", "grid_factor")


@dataclass(frozen=True)
class ExperimentConfig:
    """Checked, frozen parameters of one rate experiment; physical ones are explicit."""

    family: str                      # "wendland" | "sobolev"
    d: int
    k: int | None = None             # wendland smoothness
    gamma: int | None = None         # sobolev spline order
    p_list: tuple[float, ...] = (2.0,)
    levels: int = 5
    h0: float = 1.0 / 8.0            # coarsest lattice spacing
    ratio: float = 0.5               # geometric schedule factor (< 1)
    jitter: float = DEFAULT_JITTER
    seed: int = 7
    pad: float | None = None         # point-set padding (None: DEFAULT_PAD)
    bump_center: float = 0.5
    bump_width: float = 0.2
    witness: str = "ls"              # "ls" | "quasi"
    grid_factor: float = 2.5         # evaluation grid spacing = q / grid_factor

    def __post_init__(self):
        # The run's FamilyKernel, built once (not a field); refuses bad orders.
        object.__setattr__(self, "fam", family_kernel(self.family, self.d, self.k, self.gamma))
        numbers = [(name, getattr(self, name)) for name in _NUMBER_FIELDS]
        for name, val in numbers + [("p_list", p) for p in self.p_list]:
            if isinstance(val, bool):
                raise ValueError(f"{name} must hold numbers, got {val!r}")
        if not 0 < self.ratio < 1:
            raise ValueError("schedule ratio must lie in (0, 1)")
        for name, low in (("levels", 2), ("seed", 0)):
            val = getattr(self, name)
            if not isinstance(val, Integral) or isinstance(val, bool) or val < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {val!r}")
        if not 0 < self.h0 < 1:
            raise ValueError("coarsest spacing h0 must be positive and below 1, the side "
                             f"of the evaluation region [0, 1]^d, got {self.h0}")
        for name in ("bump_width", "grid_factor"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if self.pad is not None and not 0 <= self.pad < np.inf:
            raise ValueError(f"pad must be non-negative and finite, got {self.pad}")
        if not 0 <= self.jitter <= MAX_JITTER:
            raise ValueError(f"jitter must lie in [0, {MAX_JITTER}], got {self.jitter}")
        if not 0 <= self.bump_center <= 1:
            raise ValueError("bump_center must lie in the evaluation region [0, 1], "
                             f"got {self.bump_center}")
        if not self.p_list or not all(1 <= p <= np.inf for p in self.p_list):
            raise ValueError("p_list needs one or more p, each in [1, inf], "
                             f"got {list(self.p_list)}")
        if self.witness not in ("ls", "quasi"):
            raise ValueError(f"unknown witness type {self.witness!r}")
        object.__setattr__(self, "problem", rate_problem(self))  # (f, source), not a field

    def __reduce__(self):
        # Rebuilt from its fields, so fam and problem (a local f) are derived anew.
        return ExperimentConfig, tuple(getattr(self, f.name) for f in fields(self))

    def to_dict(self) -> dict:
        out = asdict(self)
        out["p_list"] = [("inf" if np.isinf(p) else p) for p in self.p_list]
        return out

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        data = dict(data)
        if "p_list" in data:
            if not isinstance(data["p_list"], (list, tuple)):
                raise ValueError(f"p_list must be a list, got {data['p_list']!r}")
            # A bool stays a bool, for __post_init__ to refuse.
            data["p_list"] = tuple(p if isinstance(p, bool) else float(p) for p in data["p_list"])
        return ExperimentConfig(**data)


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class ExperimentReport:
    kernel: dict
    p: float
    levels: list[dict]               # h, q, rho, n_points, error, witness
    fitted_rate: float | None
    fit_residual: float | None
    theory_rate: float
    seed: int
    config_hash: str

    @property
    def passed(self) -> bool:
        if self.fitted_rate is None:
            return len(self.levels) >= 2 and (
                self.levels[-1]["error"] < self.levels[0]["error"])
        return self.fitted_rate >= self.theory_rate - RATE_TOLERANCE

    def to_dict(self) -> dict:
        out = asdict(self)
        out["p"] = "inf" if np.isinf(self.p) else self.p
        return out


@dataclass(frozen=True)
class FamilyKernel:
    """The kernel of a run and every value its family and order fix."""

    kernel: object
    order: int           # k for Wendland, gamma for Sobolev splines
    theory_rate: float   # 2k; gamma in odd d, gamma - 1 in even d
    kappa: float         # Property-2 envelope h^(kappa - d) (1 + |x - t|/h)^(-ell):
    ell: int             # kappa = 2k or gamma - d, ell = d + 1
    degree: int          # local reproduction degree: max(1, 2k - 1) or gamma
    c3: float            # star radius factor 2 (degree + 1) RHO_MAX


def family_kernel(family: str, d: int, k: int | None, gamma: int | None) -> FamilyKernel:
    """The FamilyKernel of a family and its order (k or gamma) in dimension d.

    The Wendland reproduction degree max(1, 2k - 1) comes from the
    comparison order 2k of the local Taylor argument.  Refuses an unknown
    family, a missing or cross-family order, a d or order that is not an
    integer (bool included), and Wendland k < 1, whose theory rate 2k no
    fitted slope can miss, before building anything.
    """
    if family not in ("wendland", "sobolev"):
        raise ValueError(f"unknown kernel family {family!r}")
    wendland = family == "wendland"
    own, other = ("k", "gamma") if wendland else ("gamma", "k")
    order, rival = (k, gamma) if wendland else (gamma, k)
    if order is None:
        raise ValueError(f"{family} kernels need {own}")
    if rival is not None:
        raise ValueError(f"{family} kernels take {own}, not {other}")
    for name, val in (("d", d), (own, order)):
        if not isinstance(val, Integral) or isinstance(val, bool):
            raise ValueError(f"{name} must be an integer, got {val!r}")
    if wendland:
        if k < 1:
            raise ValueError(f"wendland kernels need k >= 1 (theory rate 2k), got {k}")
        kernel, degree = wendland_construct(d, k), max(1, 2 * k - 1)
        rate = kappa = 2.0 * k
    else:
        kernel, degree = sobolev_spline_construct(gamma, d), gamma
        rate, kappa = float(gamma if d % 2 == 1 else gamma - 1), float(gamma - d)
    return FamilyKernel(kernel, order, rate, kappa, d + 1, degree,
                        2.0 * (degree + 1) * RHO_MAX)


def property2_run(family: str, d: int, k: int | None, gamma: int | None, h: float,
                  seed: int, budget: int) -> tuple[dict, ErrorKernelScan]:
    """(report, scan) of the Property-2 envelope scan of one family kernel.

    The point set is the lattice of spacing h on [0, 1]^d with the rate
    runs' DEFAULT_JITTER and DEFAULT_PAD, and the scan takes kappa, ell,
    degree and c3 from family_kernel.  The report names the kernel and
    holds h, kappa, l, C_emp and the sample count.
    """
    fam = family_kernel(family, d, k, gamma)
    X = make_quasi_uniform(Box((0.0,) * d, (1.0,) * d), h, jitter=DEFAULT_JITTER,
                           seed=seed, pad=DEFAULT_PAD)
    scan = property2_scan(fam.kernel, X, fam.kappa, fam.ell, budget,
                          degree=fam.degree, c3=fam.c3, seed=seed)
    kernel = (f"wendland_d{d}_k{fam.order}" if family == "wendland"
              else f"sobolev_gamma{fam.order}_d{d}")
    report = {"kernel": kernel, "h": X.h, "kappa": fam.kappa, "l": fam.ell,
              "C_emp": scan.c_emp, "samples": len(scan.abs_e)}
    return report, scan


def rate_problem(cfg: ExperimentConfig):
    """(f, source) of cfg, the one owner of which f a (family, witness, d) row
    approximates and which source its quasi witness integrates: Sobolev f =
    (2 pi)^(-d/2) G * g is synthesized in d = 1 only, Wendland f is the bump g.
    """
    if cfg.witness == "quasi" and cfg.family != "sobolev":
        raise ValueError("the constructive witness needs a synthesized "
                         "test function (sobolev family)")
    if cfg.family == "sobolev" and cfg.d != 1:
        raise ValueError("sobolev experiments synthesize their test function "
                         f"in d = 1 only, got d={cfg.d}")
    bump = SmoothBump((cfg.bump_center,) * cfg.d, cfg.bump_width)
    return (synth_test_function(cfg.fam.kernel, bump).f if cfg.family == "sobolev" else bump), bump


@dataclass(frozen=True, eq=False)
class Level:
    """One level of a rate run: every input of its errors, no matrix."""

    X: PointSet
    grid: np.ndarray       # evaluation points, shape (n, d)
    weights: np.ndarray    # trapezoid weights of the grid
    f_vals: np.ndarray     # test function on the grid
    coeffs: np.ndarray     # witness coefficients over the translates of X
    rank: int | None       # rank of the ls_witness solve; None for quasi


def rate_levels(cfg: ExperimentConfig):
    """Yield one Level per spacing h0 ratio^i of cfg, coarsest first."""
    domain = Box((0.0,) * cfg.d, (1.0,) * cfg.d)
    pad = cfg.pad if cfg.pad is not None else DEFAULT_PAD
    f, source = cfg.problem
    schedule = []
    for i in range(cfg.levels):
        X = make_quasi_uniform(domain, cfg.h0 * cfg.ratio ** i, jitter=cfg.jitter,
                               seed=cfg.seed, pad=pad)
        if X.rho > RHO_MAX:
            raise RuntimeError(f"mesh ratio {X.rho:.3f} exceeds RHO_MAX={RHO_MAX}")
        axes = domain.candidate_axes(X.q / cfg.grid_factor)
        if cfg.witness == "ls":
            m = prod(ax.size for ax in axes)
            _refuse_oversize(X.n, m, _ls_workspace_bytes(m, X.n))
        schedule.append((X, axes))
    for X, axes in schedule:
        grid = tensor_grid(axes)
        weights = tensor_grid([trapezoid_weights(ax.size, ax[1] - ax[0])
                               for ax in axes]).prod(axis=1)
        f_vals = f(grid)
        if cfg.witness == "quasi":
            coeffs, rank = quasi_interpolant(source, X, cfg.fam.degree, cfg.fam.c3), None
        else:
            coeffs, rank = ls_witness(f_vals, grid, cfg.fam.kernel, X)
        yield Level(X, grid, weights, f_vals, coeffs, rank)


def run_rate_experiment(cfg: ExperimentConfig) -> dict[str, ExperimentReport]:
    """Fold the levels of rate_levels into one report per requested p."""
    rows, errors, f_scale = [], [], 0.0
    for lv in rate_levels(cfg):
        f_scale = max(f_scale, float(np.abs(lv.f_vals).max()))
        s_vals = evaluate_combination(lv.coeffs, lv.X, cfg.fam.kernel, lv.grid)
        rows.append({"h": lv.X.h, "q": lv.X.q, "rho": lv.X.rho, "n_points": lv.X.n})
        errors.append({p: lp_error(lv.f_vals, s_vals, p, lv.weights) for p in cfg.p_list})

    chash = config_hash(cfg)
    label = {"family": cfg.family, "d": cfg.d, "k_or_gamma": cfg.fam.order}
    reports = {}
    for p in cfg.p_list:
        levels = [{**row, "error": err[p], "witness": cfg.witness}
                  for row, err in zip(rows, errors)]
        fitted = residual = None
        if len(levels) >= 4:
            fitted, residual = fit_rate([(lv["h"], lv["error"]) for lv in levels],
                                        f_scale=f_scale)
        reports[f"error_p{p:g}"] = ExperimentReport(
            label, p, levels, fitted, residual, cfg.fam.theory_rate, cfg.seed, chash)
    return reports


def report_to_json(reports: dict[str, ExperimentReport], path: str | Path | None):
    payload = [r.to_dict() for r in reports.values()]
    if len(payload) == 1:
        payload = payload[0]
    text = json.dumps(payload, indent=2)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def report_to_csv(reports: dict[str, ExperimentReport], path: str | Path) -> None:
    """CSV mirror: one row per (p, level)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "h", "q", "rho", "n_points", "error", "witness",
                         "fitted_rate", "theory_rate", "config_hash"])
        for rep in reports.values():
            for lv in rep.levels:
                writer.writerow([f"{rep.p:g}", lv["h"], lv["q"], lv["rho"],
                                 lv["n_points"], lv["error"], lv["witness"],
                                 rep.fitted_rate, rep.theory_rate,
                                 rep.config_hash])


def scan_to_csv(scan: ErrorKernelScan, path: str | Path) -> None:
    """CSV mirror of a Property-2 scan: one row per sample."""
    d = scan.x.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + [f"t{i}" for i in range(d)]
                        + ["dist_over_h", "abs_E", "bound", "ratio"])
        writer.writerows(np.column_stack((scan.x, scan.t, scan.dist_over_h, scan.abs_e,
                                          scan.bound, scan.ratio)))
