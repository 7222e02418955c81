"""Spans and counters recorded around calls into the rbfbench layers.

The library is not edited.  Each target is wrapped from outside, at every
name a calling module looks up at call time: a module-level function is
replaced in each loaded ``rbfbench`` module that binds the same object
under that name, and a method is replaced on its class.  ``uninstall``
puts the originals back.

A target that a later version of the library no longer has is recorded as
absent instead of raising; its metrics then read 0 and ``trace.absent``
counts it.  Counting hooks never change a result, and the time they take
is excluded from every span, so it shows only in ``trace.overhead_s``.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    metric: str                    # span name, "<layer>.<function>"
    module: str                    # module that defines the object
    attr: str                      # "name" or "Class.method"
    hook: Callable | None = None   # hook(tracer, args, result) -> result or None


def _count_points(tr, args, X):
    tr.add("geometry.points", X.n)


def _count_radii(tr, args, result):
    r = np.asarray(args[1], dtype=float)
    tr.add("kernels.profile.evals", r.size)
    tr.add("kernels.profile.nonzero", np.count_nonzero(r < args[0].support_radius))


def _count_matrix(tr, args, A):
    mb = A.shape[0] * A.shape[1] * 8 / 1e6
    tr.add("approx.collocation_matrix.mb", mb)
    tr.peak("approx.collocation_matrix.max_mb", mb)
    tr.add("approx.collocation_matrix.zero_cols", np.count_nonzero(~A.any(axis=0)))


def _wrap_test_function(tr, args, tf):
    f = tf.f

    @wraps(f)
    def traced_f(xs):
        with tr.span("approx.test_function"):
            out = f(xs)
        tr.add("approx.test_function.points", np.size(xs))
        return out

    return dataclasses.replace(tf, f=traced_f)


def _count_cube(tr, args, result):
    builder, idx = args[0], args[1]
    seen = tr.cubes.setdefault(id(builder), (builder, set()))[1]
    if idx in seen:
        return
    seen.add(idx)
    star, c3_used = result[0], result[4]
    tr.add("polyrep.cube_map.builds", 1)
    tr.add("polyrep.star_size.total", len(star))
    if c3_used > builder.c3:
        tr.add("polyrep.cube_map.enlarged", 1)


def _count_levels(tr, args, result):
    tr.add("experiments.levels", args[0].levels)


TARGETS = (
    Target("geometry.make_quasi_uniform", "rbfbench.geometry", "make_quasi_uniform",
           _count_points),
    Target("geometry.fill_distance", "rbfbench.geometry", "fill_distance"),
    Target("geometry.separation_radius", "rbfbench.geometry", "separation_radius"),
    Target("geometry.within_ball", "rbfbench.geometry", "PointSet.within_ball"),
    Target("kernels.profile", "rbfbench.kernels", "PiecewisePolyRadial.profile",
           _count_radii),
    Target("kernels.profile", "rbfbench.kernels", "SobolevSpline.profile", _count_radii),
    Target("kernels.construct", "rbfbench.kernels", "wendland_construct"),
    Target("kernels.construct", "rbfbench.kernels", "sobolev_spline_construct"),
    Target("approx.collocation_matrix", "rbfbench.approx", "collocation_matrix",
           _count_matrix),
    Target("approx.lstsq", "rbfbench.approx", "lstsq"),
    Target("approx.evaluate_combination", "rbfbench.approx", "evaluate_combination"),
    Target("approx.synth_test_function", "rbfbench.approx", "synth_test_function",
           _wrap_test_function),
    Target("approx.quasi_interpolant", "rbfbench.approx", "quasi_interpolant"),
    Target("polyrep.cube_map", "rbfbench.polyrep", "LocalPolyBuilder.cube_map",
           _count_cube),
    Target("polyrep.kernel_K", "rbfbench.polyrep", "kernel_K"),
    Target("polyrep.property2_scan", "rbfbench.polyrep", "property2_scan"),
    Target("spectral.wendland_transform", "rbfbench.spectral", "wendland_transform"),
    Target("spectral.hankel_oracle", "rbfbench.spectral", "hankel_oracle"),
    Target("spectral.partial_fractions", "rbfbench.spectral", "partial_fractions"),
    Target("spectral.f_m_series", "rbfbench.spectral", "f_m_series"),
    Target("spectral.measure_ft", "rbfbench.spectral", "measure_ft"),
    Target("spectral.measure_convolve", "rbfbench.spectral", "measure_convolve"),
    Target("quad.gl_panel_quad", "rbfbench._quad", "gl_panel_quad"),
    Target("experiments.run_rate_experiment", "rbfbench.experiments",
           "run_rate_experiment", _count_levels),
    Target("cli.main", "rbfbench.cli", "main"),
)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
# Each is taken per pass over a workload's ops and reported as the median
# over the traced passes; ``trace.passes`` is that sample count.
PER_LAYER = (
    ("geometry.points", "count"),
    ("geometry.make_quasi_uniform.self_s", "s"),
    ("geometry.fill_distance.s", "s"),
    ("geometry.separation_radius.s", "s"),
    ("geometry.within_ball.calls", "count"),
    ("geometry.within_ball.s", "s"),
    ("kernels.profile.calls", "count"),
    ("kernels.profile.evals", "count"),
    ("kernels.profile.self_s", "s"),
    ("kernels.profile.nonzero_frac", "1"),
    ("kernels.construct.s", "s"),
    ("approx.collocation_matrix.calls", "count"),
    ("approx.collocation_matrix.mb", "MB"),
    ("approx.collocation_matrix.max_mb", "MB"),
    ("approx.collocation_matrix.zero_cols", "count"),
    ("approx.collocation_matrix.self_s", "s"),
    ("approx.lstsq.calls", "count"),
    ("approx.lstsq.s", "s"),
    ("approx.evaluate_combination.self_s", "s"),
    ("approx.test_function.points", "count"),
    ("approx.test_function.s", "s"),
    ("approx.quasi_interpolant.self_s", "s"),
    ("polyrep.cube_map.calls", "count"),
    ("polyrep.cube_map.builds", "count"),
    ("polyrep.cube_map.hit_frac", "1"),
    ("polyrep.cube_map.enlarged", "count"),
    ("polyrep.cube_map.self_s", "s"),
    ("polyrep.star_size.mean", "count"),
    ("polyrep.kernel_K.self_s", "s"),
    ("polyrep.property2_scan.self_s", "s"),
    ("spectral.wendland_transform.self_s", "s"),
    ("spectral.hankel_oracle.calls", "count"),
    ("spectral.hankel_oracle.s", "s"),
    ("spectral.partial_fractions.s", "s"),
    ("spectral.f_m_series.s", "s"),
    ("spectral.measure_ft.s", "s"),
    ("spectral.measure_convolve.s", "s"),
    ("quad.gl_panel_quad.calls", "count"),
    ("cli.import.s", "s"),
    ("cli.import.sympy_s", "s"),
    ("cli.import.scipy_s", "s"),
    ("cli.import.mpmath_s", "s"),
    ("cli.main.s", "s"),
    ("experiments.run_rate_experiment.self_s", "s"),
    ("experiments.levels", "count"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.passes", "count"),
    ("trace.absent", "count"),
    ("ops.failed_frac", "1"),
    ("probe.failed", "count"),
)


def derive(stats: dict) -> dict:
    """Ratios and means from the raw sums of one pass."""
    s = defaultdict(float, stats)
    out = dict(stats)
    out["kernels.profile.nonzero_frac"] = _ratio(s["kernels.profile.nonzero"],
                                                 s["kernels.profile.evals"])
    calls, builds = s["polyrep.cube_map.calls"], s["polyrep.cube_map.builds"]
    out["polyrep.cube_map.hit_frac"] = _ratio(calls - builds, calls)
    out["polyrep.star_size.mean"] = _ratio(s["polyrep.star_size.total"], builds)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory spans with self time, plus counters, for one process.

    ``clock`` is replaceable so that tests can drive spans with a fake clock.
    """

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.cubes: dict[int, tuple] = {}   # id(builder) -> (builder, cubes seen)
        self._open: list[float] = []      # child time covered, per open span
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        start = self.clock()
        self._open.append(0.0)
        try:
            yield
        finally:
            covered = self._open.pop()
            dur = self.clock() - start
            self.stats[f"{name}.calls"] += 1
            self.stats[f"{name}.s"] += dur
            self.stats[f"{name}.self_s"] += dur - covered
            if self._open:
                self._open[-1] += dur

    def add(self, key: str, value: float) -> None:
        self.stats[key] += value

    def peak(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats[key], value)

    def take(self) -> dict:
        """The counters so far, as a plain dict; the tracer starts afresh."""
        out = dict(self.stats)
        self.stats = defaultdict(float)
        self.cubes = {}
        return out

    def install(self) -> None:
        for target in self.targets:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.absent.add(f"{target.metric} ({target.module}.{target.attr})")
                continue
            wrapper = self._wrap(target, original)
            if owner is None:
                for mod in _library_modules():
                    if vars(mod).get(name) is original:
                        self._patch(mod, name, original, wrapper)
            else:
                self._patch(owner, name, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, name, original = self._patches.pop()
            setattr(obj, name, original)

    def _patch(self, obj, name, original, wrapper) -> None:
        setattr(obj, name, wrapper)
        self._patches.append((obj, name, original))

    def _wrap(self, target: Target, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(target.metric):
                result = fn(*args, **kwargs)
            if target.hook is not None:
                result = tracer._run_hook(target, args, result)
            return result

        return wrapper

    def _run_hook(self, target: Target, args, result):
        start = self.clock()
        try:
            replaced = target.hook(self, args, result)
        except Exception:     # library changed shape: lose the counter, not the op
            self.absent.add(f"{target.metric} counters ({target.module}.{target.attr})")
            replaced = None
        if self._open:
            self._open[-1] += self.clock() - start
        return result if replaced is None else replaced


def _resolve(target: Target):
    """(class or None, attribute name, original object) for a target."""
    mod = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, name = target.attr.split(".", 1)
        cls = getattr(mod, cls_name)
        return cls, name, cls.__dict__[name]
    return None, target.attr, getattr(mod, target.attr)


def _library_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "rbfbench" or n.startswith("rbfbench."))]
