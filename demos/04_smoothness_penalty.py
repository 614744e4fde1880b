"""General Tikhonov with a first-difference penalty, and why preserving the
solution structure matters: on deriv2 the subspace-projected variant loses
an order of magnitude while the range-preserving one tracks the direct
solver.

Run:  python3 demos/04_smoothness_penalty.py
"""

import numpy as np

from rsvdreg import (
    NoiseSpec,
    RsvdConfig,
    first_difference,
    form_B,
    gen_tikhonov_direct,
    make_problem,
    rsvd_auto,
    rsvd_gen_tikhonov_projected,
    rsvd_gen_tikhonov_range,
)
from rsvdreg.harness import alpha_selector
from rsvdreg.solvers import Regularization

prob = make_problem("deriv2", 500, NoiseSpec(0.01, seed=5))
A, b = prob.A, prob.b
L = first_difference(A.shape[1])
reg = Regularization(A, L)
bundle = reg.bundle

# The standard-form reduction smooths the operator: B = A @ L_sharp decays
# faster than A, so a small factorization rank goes further.
B = form_B(A, bundle)
sA = np.linalg.svd(A, compute_uv=False)
sB = np.linalg.svd(B.toarray(), compute_uv=False)
print(f"sigma_20/sigma_1:  A: {sA[19] / sA[0]:.2e}   B = A L_sharp: {sB[19] / sB[0]:.2e}")

approx_sel = rsvd_auto(B, RsvdConfig(k=100, p=5, seed=2))
# the error of every alpha on the grid from its k coefficients, through the
# basis L_sharp V of the range-preserving solutions, factored once
alpha_star, _ = alpha_selector(reg, approx_sel)(prob)

direct = gen_tikhonov_direct(A, L, b, alpha_star, bundle)
k = 20
hat = rsvd_gen_tikhonov_projected(rsvd_auto(A, RsvdConfig(k=k, p=5, seed=9)), L, b, alpha_star)
tilde = rsvd_gen_tikhonov_range(A, L, rsvd_auto(B, RsvdConfig(k=k, p=5, seed=9)), b, alpha_star, bundle)

e = np.linalg.norm(direct.x - prob.x_true)
e_xz = np.linalg.norm(hat.x - prob.x_true)
e_ij = np.linalg.norm(tilde.x - prob.x_true)
print(f"\nalpha* = {alpha_star:.3e}, rank k = {k}")
print(f"direct general Tikhonov error:        {e:.4e}")
print(f"projected variant error:              {e_xz:.4e}   ({e_xz / e_ij:.1f}x the range-preserving one)")
print(f"range-preserving variant error:       {e_ij:.4e}")
print("\nthe projected variant parameterizes the solution in a subspace "
      "adapted to A alone,\nso the penalty geometry is lost; the "
      "range-preserving variant keeps x in range(Gamma A.T).")
