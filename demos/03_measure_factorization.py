"""The finite Borel measure behind the improved one-dimensional rates.

Multiplying the Wendland transform by 1 + |x|^(2k+2) is, in physical space,
adding the (2k+2)-th distributional derivative.  That produces a measure
with three point atoms (at 0 and +-1) and a piecewise polynomial density
whose transform factors exactly through the kernel transform.  The atoms
dominate the transform's oscillating part, which is what makes the measure
algebra invertible and the rate argument work.
"""

from math import factorial

import numpy as np

from rbfbench import (
    amplitude_from_moments,
    build_measure_1d,
    measure_convolve,
    measure_ft,
    partial_fractions,
    wendland_hat,
)

for k in (1, 2):
    # The asymptotic terms of x^(2k+2) phi^(x), read from the exact table of m = k.
    t = partial_fractions(k)
    B = amplitude_from_moments(1, k)
    print(f"k={k}: scaled transform = B ({t.alpha[k] / factorial(k)} "
          f"+ ({2 * t.beta[k].re / factorial(k)}) cos x "
          f"+ ({2 * t.beta[k - 1].im / factorial(k - 1)}) sin(x)/x + h^(x)), "
          f"B = {B:.6g}")
    mu = build_measure_1d(k)
    print(f"     atoms: {mu.atoms}")
    print(f"     density on [-1,1]: exact polynomial of degree "
          f"{len(mu.density_poly) - 1}, |mu| = {mu.tv_norm:.6f}")

    omegas = np.linspace(0.0, 50.0, 11)
    lhs = np.asarray(measure_ft(mu, omegas)) / (1 + omegas ** (2 * k + 2))
    rhs = np.asarray(wendland_hat(1, k, omegas))
    print(f"     factorization |mu^ / (1+w^(2k+2)) - phi^| on w=0..50: "
          f"max {np.abs(lhs - rhs).max():.2e}")

    disc = np.abs(np.asarray(mu.discrete_ft(np.linspace(0, 50, 501))))
    print(f"     |atomic part^| >= {disc.min():.4f} "
          f"(lower bound B/(2 k!) = {B / (2 * factorial(k)):.4f})")

# Convolution contracts every L^p norm by at most the total variation.
mu = build_measure_1d(1)
f = lambda x: np.maximum(0.0, 1.0 - np.abs(x))
x = np.linspace(-4, 4, 1601)
conv = measure_convolve(mu, f, x)
w = np.full(x.size, x[1] - x[0])
for p in (1.0, 2.0):
    lhs = np.sum(w * np.abs(conv) ** p) ** (1 / p)
    rhs = np.sum(w * np.abs(f(x)) ** p) ** (1 / p) * mu.tv_norm
    print(f"p={p}: |f*mu|_p = {lhs:.4f} <= |f|_p |mu| = {rhs:.4f}")
