"""The dual view of randomized Tikhonov and iterative refinement toward the
full-accuracy minimizer.

Run:  python3 demos/05_duality_and_refinement.py
"""

import numpy as np

from rsvdreg import (
    RsvdConfig,
    dual_maximizer,
    dual_objective,
    form_B,
    gen_tikhonov_direct,
    iterative_refine,
    primal_objective,
    rsvd_auto,
    rsvd_gen_tikhonov_range,
    weighted_pinv,
)
from rsvdreg.smoothing import custom

rng = np.random.default_rng(0)
n, k = 60, 12
U = np.linalg.qr(rng.standard_normal((n, n)))[0]
V = np.linalg.qr(rng.standard_normal((n, n)))[0]
A = U @ np.diag(0.75 ** np.arange(n)) @ V.T
b = rng.standard_normal(n)

# An invertible gradient-with-anchor penalty keeps the dual machinery exact.
L = custom(np.eye(n) + np.diag(-0.9 * np.ones(n - 1), -1))
bundle = weighted_pinv(A, L)
B = form_B(A, bundle)
sB = np.linalg.svd(B.toarray(), compute_uv=False)
alpha = 3.0 * sB[k] ** 2

x_star = gen_tikhonov_direct(A, L, b, alpha, bundle).x
approx = rsvd_auto(B, RsvdConfig(k=k, p=5, seed=1))

# Solving through the dual: maximize the concave dual in closed form, then
# map back through the reduced duality relation alpha L x = B_k.T xi.  For
# factors of a left sketch (B.T U = V diag(sigma)) that map is the
# range-preserving solver's back-transform, so that solver is the dual solve.
sol = rsvd_gen_tikhonov_range(A, L, approx, b, alpha, bundle)
xi = dual_maximizer(approx, b, alpha)
gap = primal_objective(A, L, b, alpha, sol.x) - dual_objective(approx, b, alpha, xi)
print(f"rank-{k} dual solve:  ||x - x_star|| / ||x_star|| = "
      f"{np.linalg.norm(sol.x - x_star) / np.linalg.norm(x_star):.3e}")
print(f"primal-dual objective mismatch at rank {k}: {gap:.3e}")

# With exact factors the mismatch collapses to rounding (strong duality).
from rsvdreg import from_exact_svd

exact = from_exact_svd(B.toarray(), n)
x_exact = rsvd_gen_tikhonov_range(A, L, exact, b, alpha, bundle).x
xi_exact = dual_maximizer(exact, b, alpha)
gap0 = primal_objective(A, L, b, alpha, x_exact) - dual_objective(exact, b, alpha, xi_exact)
print(f"with exact factors the gap closes: {gap0:.3e}")

# Refinement drives the rank-k solution to the full-accuracy minimizer.
state = iterative_refine(A, bundle, approx, b, alpha, max_iter=50, tol=1e-12)
err = np.linalg.norm(state.x - x_star) / np.linalg.norm(x_star)
print(f"\nrefinement: {state.iterations} iterations, converged={state.converged}")
print("step sizes:", np.array2string(np.array(state.history[:8]), precision=2))
print(f"final relative error to the direct minimizer: {err:.2e}")
