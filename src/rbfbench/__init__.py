"""Radial basis function kernels, explicit Fourier transforms, local
polynomial reproduction, and empirical L^p convergence-rate experiments.

Names load on first use: ``import rbfbench`` binds only the table below,
and the first lookup of an exported name (or of a submodule such as
``rbfbench.spectral``) imports the submodule that defines it (PEP 562).
So ``rbfbench.wendland_construct`` never loads scipy, and
``rbfbench.ls_witness`` loads only scipy's LAPACK extension module,
``scipy.linalg._flapack``, and only when it solves.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "approx": (
        "SmoothBump",
        "TestFunction",
        "evaluate_combination",
        "fit_rate",
        "lp_error",
        "ls_witness",
        "quasi_interpolant",
        "synth_test_function",
    ),
    "experiments": (
        "ExperimentConfig",
        "ExperimentReport",
        "Level",
        "rate_levels",
        "run_rate_experiment",
    ),
    "geometry": (
        "Box",
        "PointSet",
        "fill_distance",
        "make_quasi_uniform",
        "separation_radius",
    ),
    "kernels": (
        "PiecewisePolyRadial",
        "SobolevSpline",
        "sobolev_spline_construct",
        "wendland_construct",
    ),
    "polyrep": (
        "LocalPolyBuilder",
        "kernel_K",
        "property2_scan",
    ),
    "spectral": (
        "FiniteMeasure",
        "PartialFractionTable",
        "amplitude_from_moments",
        "build_measure_1d",
        "f_m_eval",
        "hankel_oracle",
        "measure_convolve",
        "measure_ft",
        "partial_fractions",
        "ratio_diagnostic",
        "wendland_hat",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    # Not cached in globals(): the submodule's attribute stays the one
    # source, so a name rebound there is seen here too.
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _SOURCE:
        return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
