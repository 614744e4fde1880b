"""Solving a noisy inverse problem three ways: direct Tikhonov, the
projected randomized variant, and the range-preserving randomized variant.

Run:  python3 demos/03_regularized_inversion.py
"""

from rsvdreg import (
    NoiseSpec,
    RsvdConfig,
    error_report,
    identity,
    make_problem,
    rsvd_auto,
    rsvd_tikhonov_projected,
    rsvd_tikhonov_range,
    tikhonov_solve_direct,
)
from rsvdreg.harness import alpha_selector
from rsvdreg.solvers import Regularization

prob = make_problem("gravity", 500, NoiseSpec(0.01, seed=3))
A, b = prob.A, prob.b
print(f"gravity n=500, 1% noise, realized ||e|| = {prob.noise_norm:.4f}")

# Pick the regularization parameter by minimizing the reconstruction error
# of a generous-rank randomized solver over a log grid.  The solutions of
# one factorization lie in one k-dimensional affine space, so each alpha's
# error comes from its k coefficients, with no solution formed.
reg = Regularization(A, identity(A.shape[1]))
approx_sel = rsvd_auto(A, RsvdConfig(k=100, p=5, seed=11))
alpha_star, curve = alpha_selector(reg, approx_sel)(prob)
print(f"selected alpha* = {alpha_star:.3e} "
      f"(grid of {curve.alphas.size}, boundary hit: "
      f"{curve.at_lower_boundary or curve.at_upper_boundary})")

# Solve with the full-accuracy direct method and the two rank-20 variants.
direct = tikhonov_solve_direct(A, b, alpha_star)
approx = rsvd_auto(A, RsvdConfig(k=20, p=5, seed=7))
hat = rsvd_tikhonov_projected(approx, b, alpha_star)
tilde = rsvd_tikhonov_range(A, approx, b, alpha_star)

rep = error_report(hat.x, tilde.x, direct.x, prob.x_true)
print(f"\n||x_direct - x_true||      = {rep.e:.4e}   ({direct.wall_time * 1e3:7.2f} ms)")
print(f"||x_projected - x_true||   = {rep.e_xz:.4e}   ({hat.wall_time * 1e3:7.2f} ms + factorization)")
print(f"||x_range - x_true||       = {rep.e_ij:.4e}   ({tilde.wall_time * 1e3:7.2f} ms + factorization)")
print(f"deviation from direct: projected {rep.e_tilde_xz:.2e}, "
      f"range-preserving {rep.e_tilde_ij:.2e}")
