"""Local polynomial reproduction and the kernel error envelope.

Each cube of the partition gets one set of nearby points and one linear map
sending t to the point-evaluation weights A(t, .); the weights reproduce
polynomials exactly, stay uniformly l1-bounded, and turn kernel translates
into the local surrogate K(x, t).  The scan at the end measures how the
error kernel Phi(x - t) - K(x, t) compares to the claimed envelope
h^(kappa - d) (1 + |x - t|/h)^(-l).
"""

import numpy as np

from rbfbench import (
    Box,
    LocalPolyBuilder,
    make_quasi_uniform,
    property2_scan,
)
from rbfbench.experiments import family_kernel

dom = Box((0.0,), (1.0,))
X = make_quasi_uniform(dom, 1 / 32, jitter=0.25, seed=7, pad=0.75)
print(f"point set: n={X.n}, h={X.h:.4f}, q={X.q:.4f}, mesh ratio {X.rho:.2f}")

builder = LocalPolyBuilder(X, degree=3, c3=32.0)
rng = np.random.default_rng(0)
ts, cs = np.empty((200, 1)), np.empty((200, 4))
for i in range(200):
    ts[i] = rng.uniform(0, 1, size=1)
    cs[i] = rng.normal(size=4)


def cubic(c, x):
    return c[..., 0] + c[..., 1] * x + c[..., 2] * x ** 2 + c[..., 3] * x ** 3


worst = 0.0
l1s = []
# One weights product per cube: A holds one column A(t, .) per t of the cube.
for rows, star, A in builder.weights_by_cube(ts):
    l1s.extend(np.abs(A).sum(axis=0))
    star_vals = cubic(cs[rows, None, :], X.points[star, 0])      # (t, star point)
    reproduced = np.einsum("ij,ji->i", star_vals, A)
    worst = max(worst, np.abs(reproduced - cubic(cs[rows], ts[rows, 0])).max())
print(f"cubic reproduction over 200 random t: worst error {worst:.2e}, "
      f"functional norms in [{min(l1s):.3f}, {max(l1s):.3f}]")

fam = family_kernel("wendland", 1, 1, None)
X2 = make_quasi_uniform(dom, 1 / 32, jitter=0.25, seed=7, pad=2.0)
scan = property2_scan(fam.kernel, X2, fam.kappa, fam.ell, sample_budget=1500,
                      degree=fam.degree, c3=fam.c3, seed=0)
print(f"\nerror-kernel scan for phi_{{1,1}}: {len(scan.ratio)} samples, "
      f"C_emp = {scan.c_emp:.1f}")
for lo, hi in [(0, 1), (1, 4), (4, 16), (16, 70)]:
    band = (scan.dist_over_h >= lo) & (scan.dist_over_h < hi)
    if band.any():
        print(f"  |x-t|/h in [{lo:>2},{hi:>2}): max |E| = "
              f"{scan.abs_e[band].max():.3e}")
print("beyond the joint support the error kernel vanishes identically")
