"""Dual-space view of the randomized Tikhonov solver and iterative refinement.

For a penalty with trivial null space, minimizing
``J(x) = 1/2 ||A x - b||^2 + alpha/2 ||L x||^2`` is equivalent to
maximizing the concave dual
``-(2 alpha)^-1 ||B.T xi||^2 - 1/2 ||xi - b||^2`` over the data-space
variable ``xi``, with ``B = A L^+``; the primal is recovered through
``x = alpha^-1 Gamma A.T xi``.  Substituting the rank-k factors of ``B``
into the dual gives its maximizer in closed form (:func:`dual_maximizer`),
at which ``B_k.T xi = alpha V (sigma * c)`` with ``c_i = (u_i, b) /
(sigma_i^2 + alpha)``.  The reduced duality relation ``alpha L x = B_k.T
xi`` then gives ``x = L_sharp V (sigma * c)``: as every factorization of
:mod:`rsvdreg.rsvd` satisfies ``B.T U = V diag(sigma)``, the back-transform
of :func:`rsvdreg.solvers.rsvd_gen_tikhonov_range`, which is therefore the
dual solve.  :func:`dual_objective` and :func:`primal_objective` measure
the gap between the two problems.

The refinement loop then improves the rank-k solution by solving, at each
step, the correction problem projected onto the captured right subspace;
the full-accuracy minimizer is a fixed point of the update.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import as_matrix, as_vector


def _require_trivial_null_space(bundle, who):
    if bundle.null_dim != 0:
        raise ValueError(
            f"{who} requires a penalty with trivial null space "
            f"(N(L) = {{0}}), but this penalty has a "
            f"{bundle.null_dim}-dimensional kernel"
        )


def dual_maximizer(approx_B, b, alpha):
    """Closed-form maximizer ``xi = alpha (B_k B_k.T + alpha I)^-1 b``
    of the rank-k dual functional."""
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    U, sigma = approx_B.U, approx_B.sigma
    coeff = U.T @ b
    # Spectral resolvent: alpha/(sigma^2+alpha) on the captured range,
    # identity on its complement.
    return U @ (alpha * coeff / (sigma**2 + alpha) - coeff) + b


def dual_objective(approx_B, b, alpha, xi):
    """Value of the concave rank-k dual functional at ``xi``, normalized so
    that strong duality makes its maximum equal the primal minimum (the
    data-only constant ``||b||^2 / 2`` is added back)."""
    return float(
        -0.5 / alpha * np.sum((approx_B.sigma * (approx_B.U.T @ xi)) ** 2)
        - 0.5 * np.sum((xi - b) ** 2)
        + 0.5 * np.sum(b**2)
    )


def primal_objective(A, L, b, alpha, x):
    """Value of ``1/2 ||A x - b||^2 + alpha/2 ||L x||^2``."""
    return float(
        0.5 * np.sum((A @ x - b) ** 2) + 0.5 * alpha * np.sum(L.apply(x) ** 2)
    )


@dataclass(eq=False)
class RefineState:
    """Outcome of the refinement loop.

    ``history[j]`` records ``||x^{j+1} - x^j||`` for every completed
    iteration; ``converged`` reports whether the relative-change stopping
    rule fired before the iteration cap.
    """

    x: np.ndarray
    xi: np.ndarray
    iterations: int
    history: list = field(default_factory=list)
    converged: bool = False


def iterative_refine(
    A, bundle, approx_B, b, alpha, max_iter=100, tol=1e-8, x0=None
):
    """Fixed-point refinement of the rank-k regularized solution.

    Each sweep solves the k-by-k Galerkin projection of the correction
    problem onto the captured right subspace ``V_k`` (using the *exact*
    operator ``B`` through products, not its rank-k stand-in), updates the
    dual variable, and maps back to the primal:

    1. ``(V_k.T B.T B V_k + alpha I) z = V_k.T B.T (b - A x) - alpha V_k.T L x``
    2. ``xi = b - A x - B V_k z``
    3. ``x_next = alpha^-1 Gamma A.T xi``

    Stops when ``||x_next - x|| <= tol * ||x_next||`` or after
    ``max_iter`` sweeps.  Raises ``RuntimeError`` if the step sizes grow by
    more than 10x over three consecutive iterations (diverging iteration).
    """
    A = as_matrix(A)
    b = as_vector(b)
    _require_trivial_null_space(bundle, "iterative_refine")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    Vk = approx_B.V
    # B V_k with the true B = A L^+, formed once: k products with each factor.
    BVk = A @ bundle.sharp_apply(Vk)
    M = BVk.T @ BVk
    M[np.diag_indices_from(M)] += alpha
    chol = scipy.linalg.cho_factor(M)

    x = np.zeros(A.shape[1]) if x0 is None else np.asarray(x0, dtype=float).copy()
    xi = np.zeros(A.shape[0])
    state = RefineState(x=x, xi=xi, iterations=0)
    for _ in range(max_iter):
        residual = b - A @ x
        rhs = BVk.T @ residual - alpha * (Vk.T @ bundle.L.apply(x))
        z = scipy.linalg.cho_solve(chol, rhs)
        xi = residual - BVk @ z
        x_next = bundle.gamma_apply(A.T @ xi) / alpha
        step = float(np.linalg.norm(x_next - x))
        state.history.append(step)
        state.iterations += 1
        state.x = x_next
        state.xi = xi
        if step <= tol * np.linalg.norm(x_next):
            state.converged = True
            break
        h = state.history
        if len(h) >= 4 and all(h[-i] > 10.0 * h[-i - 1] for i in (1, 2, 3)):
            raise RuntimeError(
                "iterative refinement is diverging: step sizes grew by more "
                f"than 10x over three consecutive iterations ({h[-4:]}); the "
                "first iteration of this configuration is not contractive"
            )
        x = x_next
    return state
