"""Tour of the kernel constructions.

Wendland functions are built in exact rational arithmetic by repeatedly
applying the integral operator f -> integral_r^1 t f(t) dt to a truncated
power, so every coefficient below is an exact fraction.  Sobolev splines
carry the half-integer Matern closed form in odd dimension.
"""

import numpy as np

from rbfbench import sobolev_spline_construct, wendland_construct

# --- exact Wendland coefficients -------------------------------------------
for d, k in [(1, 0), (1, 1), (3, 1), (3, 2)]:
    K = wendland_construct(d, k)
    terms = " + ".join(f"({c}) r^{i}" for i, c in enumerate(K.coeffs) if c != 0)
    print(f"phi_{{{d},{k}}}(r) = {terms}   on [0, 1], C^{2 * k} smooth")

# The (3,1) kernel is 1/20 times the classical (1-r)^4 (4r+1).
K31 = wendland_construct(3, 1)
r = np.linspace(0.0, 1.2, 7)
print("\nprofile phi_{3,1}:", np.round(K31.profile(r), 6))
print("20 * phi_{3,1}(r) vs (1-r)^4 (4r+1):",
      np.allclose(20 * K31.profile(r), np.where(r < 1, (1 - r) ** 4 * (4 * r + 1), 0)))

# --- evaluation at points ---------------------------------------------------
# A radial kernel's value at x in R^d is its profile at |x|.
print("\nphi_{1,0} at x=0.25:", float(wendland_construct(1, 0).profile(0.25)))
x = np.array([[0.3, 0.2, 0.1], [0.9, 0.9, 0.9]])
print("phi_{3,1} at (0.3, 0.2, 0.1) and (0.9, 0.9, 0.9), outside the support:",
      K31.profile(np.linalg.norm(x, axis=1)))

# --- Sobolev splines ---------------------------------------------------------
G2 = sobolev_spline_construct(2, 1)
print("\nG_2 in d=1 equals sqrt(pi/2) exp(-|x|):",
      np.allclose(G2.profile(r), np.sqrt(np.pi / 2) * np.exp(-r)))
G4 = sobolev_spline_construct(4, 1)
print("G_4 in d=1 profile poly (times prefactor * exp(-r)):", G4.poly)
G42 = sobolev_spline_construct(4, 2)
print("G_4 in d=2 (modified-Bessel path), values on r=0..1.2:",
      np.round(G42.profile(r), 6))
