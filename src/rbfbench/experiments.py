"""Configuration-driven convergence-rate experiments with JSON/CSV reports.

A rate experiment runs a geometric schedule of lattice spacings, builds a
quasi-uniform set per level (padded beyond the evaluation region so
boundary effects stay out of the interior error norms), fits a
least-squares witness in the kernel translate space, measures L^p errors
on the interior region, and fits the log-log slope against the measured
fill distance.  Each level builds one collocation matrix on its
evaluation grid: the least-squares solve uses it, and the witness values
on the grid are taken from it.  Reports are deterministic for a fixed
config: the config hash is embedded and no timestamps are written.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._quad import trapezoid_weights
from .approx import (
    SmoothBump,
    TestFunction,
    _ls_fit,
    evaluate_combination,
    fit_rate,
    lp_error,
    quasi_interpolant,
    synth_test_function,
)
from .geometry import Box, make_quasi_uniform
from .kernels import sobolev_spline_construct, wendland_construct

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_rate_experiment",
    "reproduction_defaults",
    "config_hash",
    "report_to_json",
    "report_to_csv",
]

RATE_TOLERANCE = 0.4   # fitted slope must reach theory_rate - RATE_TOLERANCE
RHO_MAX = 4.0          # default bound on the mesh ratio of each level's point set


@dataclass
class ExperimentConfig:
    """Parameters of one rate experiment.  Physical parameters are explicit."""

    family: str                      # "wendland" | "sobolev"
    d: int
    k: int | None = None             # wendland smoothness
    gamma: int | None = None         # sobolev spline order
    p_list: tuple[float, ...] = (2.0,)
    levels: int = 5
    h0: float = 1.0 / 8.0            # coarsest lattice spacing
    ratio: float = 0.5               # geometric schedule factor (< 1)
    jitter: float = 0.25
    seed: int = 7
    c3: float | None = None          # star radius factor (default per degree)
    c2_cap: float = 2.0
    rho_max: float = RHO_MAX
    pad: float | None = None         # point-set padding beyond the region
    bump_center: float = 0.5
    bump_width: float = 0.2
    witness: str = "ls"              # "ls" | "quasi"
    grid_factor: float = 2.5         # evaluation grid spacing = q / grid_factor

    def __post_init__(self):
        if self.family not in ("wendland", "sobolev"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "wendland" and self.k is None:
            raise ValueError("wendland experiments need k")
        if self.family == "sobolev" and self.gamma is None:
            raise ValueError("sobolev experiments need gamma")
        if not 0 < self.ratio < 1:
            raise ValueError("schedule ratio must lie in (0, 1)")
        if self.levels < 1:
            raise ValueError("need at least one level")
        if self.witness not in ("ls", "quasi"):
            raise ValueError(f"unknown witness type {self.witness!r}")

    @property
    def kernel_label(self) -> dict:
        return {"family": self.family, "d": self.d,
                "k_or_gamma": self.k if self.family == "wendland" else self.gamma}

    @property
    def theory_rate(self) -> float:
        if self.family == "wendland":
            return 2.0 * self.k
        return float(self.gamma if self.d % 2 == 1 else self.gamma - 1)

    def spacings(self) -> list[float]:
        return [self.h0 * self.ratio ** i for i in range(self.levels)]

    def to_dict(self) -> dict:
        out = asdict(self)
        out["p_list"] = [("inf" if np.isinf(p) else p) for p in self.p_list]
        return out

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        data = dict(data)
        if "p_list" in data:
            data["p_list"] = tuple(np.inf if p in ("inf", "Infinity") else float(p)
                                   for p in data["p_list"])
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
        return {
            "kernel": self.kernel,
            "p": "inf" if np.isinf(self.p) else self.p,
            "levels": self.levels,
            "fitted_rate": self.fitted_rate,
            "fit_residual": self.fit_residual,
            "theory_rate": self.theory_rate,
            "seed": self.seed,
            "config_hash": self.config_hash,
        }


def _build_kernel(cfg: ExperimentConfig):
    if cfg.family == "wendland":
        return wendland_construct(cfg.d, cfg.k)
    return sobolev_spline_construct(cfg.gamma, cfg.d)


def reproduction_defaults(family: str, order: int,
                          rho_max: float = RHO_MAX) -> tuple[int, float]:
    """Default local reproduction degree and star radius factor c3.

    order is k for the Wendland family and gamma for Sobolev splines.  The
    degree is max(1, 2k - 1) for Wendland, from the comparison order 2k of
    the local Taylor argument, and gamma for Sobolev splines; the star
    radius factor is c3 = 2 (degree + 1) rho_max.
    """
    degree = max(1, 2 * order - 1) if family == "wendland" else order
    return degree, 2.0 * (degree + 1) * rho_max


def run_rate_experiment(cfg: ExperimentConfig) -> dict[str, ExperimentReport]:
    """Run the level schedule and return one report per requested p."""
    kernel = _build_kernel(cfg)
    domain = Box((0.0,) * cfg.d, (1.0,) * cfg.d)
    support = kernel.support_radius if np.isfinite(kernel.support_radius) else 1.0
    pad = cfg.pad if cfg.pad is not None else 2.0 * support
    bump = SmoothBump((cfg.bump_center,) * cfg.d, cfg.bump_width)
    tf: TestFunction | None = None
    if cfg.family == "sobolev":
        tf = synth_test_function(kernel, bump)
        f = tf.f
    else:
        f = bump

    order = cfg.k if cfg.family == "wendland" else cfg.gamma
    degree, c3 = reproduction_defaults(cfg.family, order, cfg.rho_max)
    c3 = cfg.c3 if cfg.c3 is not None else c3
    level_rows: list[dict] = []
    errors: dict[float, list[tuple[float, float]]] = {p: [] for p in cfg.p_list}
    f_scale = 0.0
    for spacing in cfg.spacings():
        X = make_quasi_uniform(domain, spacing, jitter=cfg.jitter, seed=cfg.seed,
                               pad=pad)
        if X.rho > cfg.rho_max:
            raise RuntimeError(f"mesh ratio {X.rho:.3f} exceeds rho_max={cfg.rho_max}")
        grid_spacing = X.q / cfg.grid_factor
        counts = [int(np.ceil(1.0 / grid_spacing)) + 1] * cfg.d
        axes = [np.linspace(0.0, 1.0, n) for n in counts]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=-1)
        w1 = [trapezoid_weights(n, ax[1] - ax[0]) for n, ax in zip(counts, axes)]
        weights = w1[0]
        for extra in w1[1:]:
            weights = np.outer(weights, extra).ravel()
        f_vals = f(grid if cfg.d > 1 else grid[:, 0])
        f_scale = max(f_scale, float(np.abs(f_vals).max()))
        if cfg.witness == "quasi":
            if tf is None:
                raise ValueError("the constructive witness needs a synthesized "
                                 "test function (sobolev family)")
            coeffs = quasi_interpolant(tf, tf.G_green, X, degree, c3)
            s_vals = evaluate_combination(coeffs, X, tf.G_green, grid)
        else:
            _, s_vals, _ = _ls_fit(f_vals, grid, kernel, X)
        row = {"spacing": spacing, "h": X.h, "q": X.q, "rho": X.rho,
               "n_points": X.n, "witness": cfg.witness}
        for p in cfg.p_list:
            err = lp_error(f_vals, s_vals, p, None if np.isinf(p) else weights)
            errors[p].append((X.h, err))
            row[_p_key(p)] = err
        level_rows.append(row)

    chash = config_hash(cfg)
    reports = {}
    for p in cfg.p_list:
        fitted = residual = None
        if len(errors[p]) >= 4:
            fitted, residual = fit_rate(errors[p], f_scale=f_scale)
        rows = [{"h": r["h"], "q": r["q"], "rho": r["rho"],
                 "n_points": r["n_points"], "error": r[_p_key(p)],
                 "witness": r["witness"]} for r in level_rows]
        reports[_p_key(p)] = ExperimentReport(
            cfg.kernel_label, p, rows, fitted, residual, cfg.theory_rate,
            cfg.seed, chash)
    return reports


def _p_key(p: float) -> str:
    return "error_pinf" if np.isinf(p) else f"error_p{p:g}"


def report_to_json(reports: dict[str, ExperimentReport], path: str | Path | None):
    payload = [r.to_dict() for r in reports.values()]
    if len(payload) == 1:
        payload = payload[0]
    text = json.dumps(payload, indent=2)
    if path is None:
        return text
    Path(path).write_text(text + "\n")
    return text


def report_to_csv(reports: dict[str, ExperimentReport], path: str | Path) -> None:
    """CSV mirror: one row per (p, level)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "h", "q", "rho", "n_points", "error", "witness",
                         "fitted_rate", "theory_rate", "config_hash"])
        for rep in reports.values():
            p_str = "inf" if np.isinf(rep.p) else f"{rep.p:g}"
            for lv in rep.levels:
                writer.writerow([p_str, lv["h"], lv["q"], lv["rho"],
                                 lv["n_points"], lv["error"], lv["witness"],
                                 rep.fitted_rate, rep.theory_rate,
                                 rep.config_hash])
