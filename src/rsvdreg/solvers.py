"""Regularized solvers for discrete linear inverse problems.

Two families, each in a direct flavor and randomized flavors:

* truncated SVD: exact (``tsvd_solve``), randomized projected
  (``trsvd_solve_projected``) and randomized range-preserving
  (``trsvd_solve_range``);
* Tikhonov with a penalty ``L``, through the standard-form reduction of
  :func:`rsvdreg.smoothing.weighted_pinv`: direct
  (``gen_tikhonov_direct``), projected (``rsvd_gen_tikhonov_projected``)
  and range-preserving (``rsvd_gen_tikhonov_range``).

The identity is the order-0 penalty (``L_sharp = Gamma = I``, ``B = A``):
``tikhonov_solve_direct`` and ``rsvd_tikhonov_range`` call the general
solvers with it.  Only ``rsvd_tikhonov_projected`` has its own code, a
closed form for its diagonal k-by-k system (the one identity choice of
:class:`Regularization`, which the harness solves through).  The direct
solvers take the dual form, factoring the n-by-n ``B B.T + alpha I``,
and validate ``A``; the range-preserving solvers never read ``A`` densely.

The range-preserving flavors keep the solution inside ``range(A.T)``
(resp. ``range(Gamma A.T)``): they map the filter
``sum_i (u_i, b) / (sigma_i^2 + alpha) u_i`` over the captured modes back
by ``Gamma A.T``, dropping the component of ``b`` orthogonal to the
captured range rather than amplifying it by ``1/alpha`` (so ``alpha -> 0``
recovers the truncated solver).  Factors of ``B`` cut from a left sketch
(``RankKApprox.left_sketch``) satisfy ``B.T U = V diag(sigma)`` exactly, so
``Gamma A.T U = L_sharp B.T U = L_sharp V diag(sigma)``: for them the
solution is ``L_sharp V (sigma * c) + W (A W)^+ b``, in
``range(Gamma A.T)`` by that identity, at O(m k d) and with no product
with ``A``.  Wide-path factors take one product with ``A.T``.
"""

import functools
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import smoothing
from .linalg import (
    as_matrix,
    as_vector,
    default_pinv_rtol,
    shifted_gram_coeffs,
    solve_spd,
)

METHODS = (
    "tsvd",
    "trsvd_proj",
    "trsvd_range",
    "tikh_direct",
    "tikh_proj",
    "tikh_range",
    "gtikh_direct",
    "gtikh_proj",
    "gtikh_range",
)


@dataclass(frozen=True)
class SolverResult:
    """Solution vector plus the knobs that produced it."""

    x: np.ndarray
    method: str
    alpha: float | None
    k: int | None
    wall_time: float


def _result(x, method, alpha, k, t0):
    return SolverResult(x, method, alpha, k, time.perf_counter() - t0)


def _check_positive_spectrum(sigma, what):
    zero = np.flatnonzero(np.asarray(sigma) <= 0.0)
    if zero.size:
        raise ValueError(f"{what} requires positive singular values, but "
                         f"sigma[{zero[0]}] = {sigma[zero[0]]}")


def tsvd_solve(svd, k, b):
    """Truncated SVD solution ``sum_{i<=k} (u_i, b)/sigma_i * v_i``.

    ``k`` must not exceed the numerical rank of the factored matrix.
    """
    b = as_vector(b)
    t0 = time.perf_counter()
    sigma = svd.sigma
    cutoff = default_pinv_rtol((svd.U.shape[0], svd.V.shape[0])) * sigma[0]
    rank = int(np.sum(sigma > cutoff))
    if k > rank:
        raise ValueError(
            f"truncation level k={k} exceeds numerical rank {rank} "
            f"(sigma_k would be {sigma[k - 1] if k <= sigma.size else 0.0:.3e}, "
            f"cutoff {cutoff:.3e})"
        )
    coeff = (svd.U[:, :k].T @ b) / sigma[:k]
    return _result(svd.V[:, :k] @ coeff, "tsvd", None, k, t0)


def trsvd_solve_projected(approx, b):
    """Truncated randomized SVD in the projected form
    ``V diag(1/sigma) U.T b``."""
    b = as_vector(b)
    t0 = time.perf_counter()
    _check_positive_spectrum(approx.sigma, "trsvd_solve_projected")
    coeff = (approx.U.T @ b) / approx.sigma
    return _result(approx.V @ coeff, "trsvd_proj", None, approx.k, t0)


def trsvd_solve_range(A, approx, b):
    """Range-preserving truncated randomized SVD
    ``A.T @ sum_i (u_i, b)/sigma_i^2 u_i``: :func:`rsvd_tikhonov_range` at
    ``alpha = 0``."""
    b = as_vector(b)
    t0 = time.perf_counter()
    _check_positive_spectrum(approx.sigma, "trsvd_solve_range")
    eye = smoothing.weighted_pinv(A, smoothing.identity(A.shape[1]))
    x = _range_solve(A, eye, approx, b, 0.0)
    return _result(x, "trsvd_range", None, approx.k, t0)


def _sharp_image(A, approx, bundle, C=None):
    """``B.T U C`` (``B.T U`` for ``C`` None) of factors of ``B = A @
    L_sharp`` and coefficients ``C`` (k or k-by-j): ``V diag(sigma) C`` for
    left-sketch factors, else ``L_sharp.T A.T U C``."""
    if approx.left_sketch:
        return approx.V * approx.sigma if C is None else approx.V @ (approx.sigma * C.T).T
    Y = approx.U if C is None else approx.U @ C
    # A.T @ Y; OpenBLAS is faster with the thin block on the left
    return bundle.sharp_t_apply(A.T @ Y if Y.ndim == 1 else (Y.T @ A).T)


def _range_solve(A, bundle, approx, b, alpha):
    c = shifted_gram_coeffs(approx.U.T @ b, approx.sigma, alpha)
    return bundle.sharp_solution(_sharp_image(A, approx, bundle, c), b)


def _gram(A, bundle):
    B = smoothing.dense_B(A, bundle)
    return B @ B.T


def direct_gram(A, bundle):
    """The unshifted Gram matrix ``B @ B.T`` a direct Tikhonov solve
    factors, with ``B = A @ L_sharp`` the dense target of ``bundle`` (see
    :func:`rsvdreg.smoothing.dense_B`): ``A`` for the identity, otherwise
    formed in O(n m d), so ``B @ B.T`` is the only O(n^3) step.
    Forming it is the part of a direct solve that depends neither on
    ``alpha`` nor on the data, so runs that solve one matrix many times
    form it once and pass it to :func:`gen_tikhonov_direct` as ``gram``.
    """
    return _gram(as_matrix(A), bundle)


def tikhonov_solve_direct(A, b, alpha, gram=None):
    """Classical Tikhonov solution of ``(A.T A + alpha I) x = A.T b``: the
    order-0 entry point of :func:`gen_tikhonov_direct`, in the dual form
    ``A.T (A A.T + alpha I)^-1 b`` whatever the shape of ``A``.  ``gram`` is
    ``A @ A.T``, formed here when not given (it is left unchanged).
    """
    A = as_matrix(A)
    result = gen_tikhonov_direct(A, smoothing.identity(A.shape[1]), b, alpha,
                                 gram=gram)
    return replace(result, method="tikh_direct")


def rsvd_tikhonov_projected(approx, b, alpha):
    """Projected randomized Tikhonov
    ``(A_k.T A_k + alpha I)^-1 A_k.T b`` computed in factor space."""
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t0 = time.perf_counter()
    coeff = approx.sigma * (approx.U.T @ b) / (approx.sigma**2 + alpha)
    return _result(approx.V @ coeff, "tikh_proj", alpha, approx.k, t0)


def rsvd_tikhonov_range(A, approx, b, alpha):
    """Range-preserving randomized Tikhonov
    ``A.T @ sum_i (u_i, b)/(sigma_i^2 + alpha) u_i``: the order-0 entry
    point of :func:`rsvd_gen_tikhonov_range`, O(nk) after a tall-path
    factorization."""
    result = rsvd_gen_tikhonov_range(A, smoothing.identity(A.shape[1]),
                                     approx, b, alpha)
    return replace(result, method="tikh_range")


def range_tikhonov_path(basis, approx, b, bundle):
    """Range-preserving Tikhonov solutions for one factorization and one
    data vector, as a function ``alpha -> x``.

    ``basis`` is ``Gamma A.T @ U`` of the same ``approx`` and ``bundle``
    (:meth:`Regularization.basis`).  Agrees to rounding with
    :func:`rsvd_gen_tikhonov_range`.  Each ``alpha`` costs O(mk): the
    shape of a parameter sweep.
    """
    b = as_vector(b)
    x0 = bundle.w_term(b)
    Utb = approx.U.T @ b

    def solve(alpha):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return basis @ shifted_gram_coeffs(Utb, approx.sigma, alpha) + x0

    return solve


def range_tikhonov_block(A, approxes, b, alphas, bundle):
    """Range-preserving Tikhonov solutions of one data vector for every
    factorization in ``approxes`` (each of ``B = A @ L_sharp``) and several
    ``alphas`` at once.

    Returns one m-by-len(alphas) array per factorization, in order; a
    single factorization is a one-element list.  Column j of each agrees to
    rounding with :func:`rsvd_gen_tikhonov_range` at ``alphas[j]``.  The
    blocks of all factorizations are stacked, so ``L_sharp`` and the
    null-space term are applied once each.
    """
    b = as_vector(b)
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas <= 0):
        raise ValueError(f"alpha must be positive, got {alphas}")
    Z = np.hstack([
        _sharp_image(A, ap, bundle, shifted_gram_coeffs(
            (ap.U.T @ b)[:, None], ap.sigma[:, None], alphas))
        for ap in approxes])
    return np.hsplit(bundle.sharp_solution(Z, b), len(approxes))


def gen_tikhonov_direct(A, L, b, alpha, bundle=None, gram=None):
    """General-penalty Tikhonov minimizer of
    ``||A x - b||^2 + alpha ||L x||^2``.

    Solved through the standard-form reduction: with ``B = A @ L_sharp``
    and ``Gamma = L_sharp L_sharp.T``,

        ``x = Gamma A.T (B B.T + alpha I)^-1 b + W (A W)^+ b``,

    where the second term resolves the penalty's null-space component
    exactly.  Agrees with a dense solve of the regularized normal
    equations ``(A.T A + alpha L.T L) x = A.T b``.  ``gram`` is
    ``direct_gram(A, bundle)``, formed here when not given (it is left
    unchanged).  ``Gamma`` is applied through the bundle's structured
    factors, so besides the bundle's O(n m d) set-up the only O(n^3) work
    is forming and factoring the Gram matrix.
    """
    A = as_matrix(A)
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if bundle is None:
        bundle = smoothing.weighted_pinv(A, L)
    t0 = time.perf_counter()
    # the shift and the Cholesky factorization work in place on one array
    M = _gram(A, bundle) if gram is None else gram.copy()
    M[np.diag_indices_from(M)] += alpha
    xi = solve_spd(M, b, "shifted dual Gram matrix")
    x = bundle.solution(A.T @ xi, b)
    return _result(x, "gtikh_direct", alpha, None, t0)


def rsvd_gen_tikhonov_projected(approx_A, L, b, alpha):
    """Projected comparison variant built from a randomized SVD of ``A``
    alone: restricts the solution to the captured right subspace and
    projects the penalty into it, solving the k-by-k system

        ``(diag(sigma^2) + alpha (L V_k).T (L V_k)) z = diag(sigma) U_k.T b``

    with ``x = V_k z``.  Cheap (everything happens in the reduced space)
    and identical to the projected standard solver when ``L`` is the
    identity, but the probed subspace is adapted to ``A`` only, so nothing
    preserves the structure the penalty imposes on the minimizer; that is
    precisely the failure mode the range-preserving variant avoids.
    """
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t0 = time.perf_counter()
    LV = L.apply(approx_A.V)
    M = alpha * (LV.T @ LV)
    M[np.diag_indices_from(M)] += approx_A.sigma**2
    rhs = approx_A.sigma * (approx_A.U.T @ b)
    try:
        z = scipy.linalg.solve(M, rhs, assume_a="pos")
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"projected general Tikhonov system of shape {M.shape} is "
            f"singular: {exc}"
        ) from exc
    return _result(approx_A.V @ z, "gtikh_proj", alpha, approx_A.k, t0)


def rsvd_gen_tikhonov_range(A, L, approx_B, b, alpha, bundle=None):
    """Range-preserving randomized general Tikhonov.

    ``approx_B`` must factor ``B = A @ L_sharp`` (see
    :func:`rsvdreg.smoothing.form_B`).  The smooth component is
    ``Gamma A.T @ sum_i (u_i, b)/(sigma_i^2 + alpha) u_i`` (``L_sharp V
    (sigma * c)`` for left-sketch factors, see the module docstring) and
    the null-space term ``W (A W)^+ b`` is added exactly.  ``weighted_pinv``
    validates ``A`` for a penalty.
    """
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if bundle is None:
        bundle = smoothing.weighted_pinv(A, L)
    t0 = time.perf_counter()
    x = _range_solve(A, bundle, approx_B, b, alpha)
    return _result(x, "gtikh_range", alpha, approx_B.k, t0)


class Regularization:
    """Tikhonov regularization of ``A`` with the penalty ``L``.

    The methods call the general solvers with the :attr:`bundle` of
    :func:`rsvdreg.smoothing.weighted_pinv`, built on first use, so a
    projected solve never pays for it; ``projected`` solves the identity in
    closed form.  Each method equals its public solver bit for bit;
    ``projected`` factors ``A``, the others :attr:`target`.
    """

    def __init__(self, A, L):
        self.A = A
        self.L = L

    @functools.cached_property
    def bundle(self):
        return smoothing.weighted_pinv(self.A, self.L)

    @functools.cached_property
    def target(self):
        """``B = A @ L_sharp``: ``A`` itself for the identity."""
        return smoothing.form_B(self.A, self.bundle)

    @functools.cached_property
    def gram(self):
        """:func:`direct_gram` of ``(A, bundle)``, formed once."""
        return direct_gram(self.A, self.bundle)

    def direct(self, b, alpha, gram=None):
        return gen_tikhonov_direct(self.A, self.L, b, alpha, self.bundle,
                                   gram=gram)

    def projected(self, approx_A, b, alpha):
        # order 0: (L V_k).T (L V_k) = I, so the k-by-k system is diagonal
        # and its closed form replaces the Cholesky solve (which would round
        # differently)
        if self.L.order == 0:
            return rsvd_tikhonov_projected(approx_A, b, alpha)
        return rsvd_gen_tikhonov_projected(approx_A, self.L, b, alpha)

    def range(self, approx, b, alpha):
        return rsvd_gen_tikhonov_range(self.A, self.L, approx, b, alpha,
                                       self.bundle)

    def basis(self, approx):
        """``Gamma A.T @ U`` of factors of :attr:`target`, for :meth:`path`."""
        return self.bundle.sharp_apply(_sharp_image(self.A, approx, self.bundle))

    def path(self, basis, approx, b):
        return range_tikhonov_path(basis, approx, b, self.bundle)

    def block(self, approxes, b, alphas):
        return range_tikhonov_block(self.A, approxes, b, alphas, self.bundle)
