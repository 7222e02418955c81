"""Print how far measure_convolve's fixed rule is from a refined rule.

spectral.measure_convolve integrates the density part of f * mu with a
fixed rule: CONV_PANELS panels of CONV_NODES Gauss-Legendre nodes on the
support.  This script evaluates f * mu at POINTS points of
[-(3.5 + R), 3.5 + R], R the support radius, with that rule and with the
same rule on REFINE times as many panels, and prints one line per k and
test function: the largest |fixed - refined| over the largest |refined|.
The test functions are a Gaussian, smooth everywhere, and random
piecewise-linear functions of 40 knots on [-2, 2] (the Young-inequality
trials' functions), one per seed:

    python tools/convolve_accuracy.py [--k 1 2] [--seeds 4]

It imports rbfbench from the ``src`` tree of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rbfbench._quad import panel_nodes  # noqa: E402
from rbfbench.spectral import (  # noqa: E402
    CONV_NODES, CONV_PANELS, build_measure_1d, measure_convolve)

POINTS = 281
REFINE = 64


def refined_convolve(mu, f, x: np.ndarray) -> np.ndarray:
    """f * mu at each x by the fixed rule on REFINE times as many panels."""
    edges = np.linspace(-mu.support_radius, mu.support_radius, REFINE * CONV_PANELS + 1)
    T, W = panel_nodes(edges, CONV_NODES)
    weights = W * mu.density(T)
    out = np.array([f(xi - T) @ weights for xi in x])
    for loc, w in mu.atoms:
        out += w * f(x - loc)
    return out


def piecewise_linear(rng):
    knots = np.concatenate([[-2.0], np.sort(rng.uniform(-2.0, 2.0, 38)), [2.0]])
    vals = rng.normal(size=40)
    vals[0] = vals[-1] = 0.0
    return lambda t: np.interp(t, knots, vals, left=0.0, right=0.0)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--seeds", type=int, default=4)
    args = parser.parse_args(argv)
    print(f"{CONV_PANELS} x {CONV_NODES} nodes against {REFINE * CONV_PANELS} x {CONV_NODES}, "
          f"{POINTS} points; max |fixed - refined| / max |refined|")
    for k in args.k:
        mu = build_measure_1d(k)
        span = 3.5 + mu.support_radius
        x = np.linspace(-span, span, POINTS)
        tests = [("gaussian", lambda t: np.exp(-t * t))]
        tests += [(f"piecewise-linear seed {seed}", piecewise_linear(np.random.default_rng(seed)))
                  for seed in range(args.seeds)]
        for name, f in tests:
            ref = refined_convolve(mu, f, x)
            err = np.abs(measure_convolve(mu, f, x) - ref).max() / np.abs(ref).max()
            print(f"k = {k}  {name:<26} {err:.2e}")


if __name__ == "__main__":
    main()
