"""Explicit Wendland transforms and their ingredients.

For odd d = 2n+1 and m = n+k the transform is B_m f_m(r) r^(-3m-2), with
f_m recovered from an exact partial fraction table and B_m taken in closed
form from the exact moment of the kernel.  The script prints the exact
tables, cross-checks the transform against an independent quadrature
oracle, and shows the r^(-2m-2) decay.
"""

import numpy as np

from rbfbench import (
    amplitude_from_moments,
    f_m_eval,
    hankel_oracle,
    partial_fractions,
    ratio_diagnostic,
    wendland_construct,
    wendland_hat,
)

# --- exact partial fractions of 1/(s^(m+1)(1+s^2)^(m+1)) -------------------
for m in (1, 2):
    t = partial_fractions(m)
    print(f"m={m}: alpha = {[str(a) for a in t.alpha]}")
    print(f"     beta  = {[f'{b.re}+{b.im}i' for b in t.beta]}")

# f_1(r) = r + (r/2) cos r - (3/2) sin r, vanishing to order 5 at zero.
r = np.array([1e-3, 0.5, 2.0, 10.0])
print("\nf_1:", f_m_eval(1, r))

# --- transform vs quadrature oracle -----------------------------------------
print("\n(d,k)   r      explicit hat      oracle          rel.dev")
for d, k in [(1, 1), (3, 2)]:
    K = wendland_construct(d, k)
    for rr in (0.5, 5.0, 20.0):
        explicit = float(wendland_hat(d, k, rr))
        oracle = hankel_oracle(K, rr)
        print(f"({d},{k})  {rr:5.1f}  {explicit:.10e}  {oracle:.10e}  "
              f"{abs(explicit - oracle) / oracle:.1e}")

# --- amplitudes and decay ----------------------------------------------------
print("\namplitudes:")
for d, k in [(1, 1), (1, 2), (3, 1), (3, 2)]:
    print(f"  B({d},{k}) = {amplitude_from_moments(d, k):.9g}")
print("sqrt(2 pi) B(1,1) =", np.sqrt(2 * np.pi) * amplitude_from_moments(1, 1),
      "(the exact atom weight 8 of the associated measure)")

rs = np.geomspace(1, 1000, 7)
m = 2
scaled = rs ** (2 * m + 2) * np.asarray(wendland_hat(1, 2, rs))
print("\nr^(2m+2) hat(phi)_{1,2} on r = 1..1000:", np.round(scaled, 4))

# --- ratio against the matched Sobolev spline -------------------------------
diag = ratio_diagnostic(1, 1)
print(f"\n(1+w^2)^(-2) / hat(phi)_{{1,1}} on w in [0, 1e3]: "
      f"min {diag['min']:.4f}, max {diag['max']:.4f} "
      "(bounded above and below by positive constants)")
