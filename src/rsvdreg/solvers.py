"""Regularized solvers for discrete linear inverse problems.

Three families, each in a direct flavor and randomized flavors:

* truncated SVD: exact (``tsvd_solve``), randomized projected
  (``trsvd_solve_projected``) and randomized range-preserving
  (``trsvd_solve_range``);
* Tikhonov: direct (``tikhonov_solve_direct``), projected
  (``rsvd_tikhonov_projected``) and range-preserving
  (``rsvd_tikhonov_range``);
* general Tikhonov with a smoothness penalty: direct
  (``gen_tikhonov_direct``), projected (``rsvd_gen_tikhonov_projected``)
  and range-preserving (``rsvd_gen_tikhonov_range``).

:class:`Regularization`, built from ``(A, L)``, is the one place that
tells the identity from a penalty; the drivers solve through it.

The range-preserving flavors keep the solution inside ``range(A.T)``
(resp. ``range(Gamma A.T)``) by construction: they only consume the left
factors ``(U, sigma)`` of the randomized SVD and touch the data space
through a single product with ``A.T``.  Their spectral filter is the sum
``sum_i (u_i, b) / (sigma_i^2 + alpha) u_i`` over the captured modes; the
component of ``b`` orthogonal to the captured range is dropped rather than
amplified by ``1/alpha``, which is also what makes the ``alpha -> 0``
limit recover the truncated solver.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import smoothing
from .linalg import (
    as_matrix,
    as_vector,
    default_pinv_rtol,
    shifted_gram_coeffs,
    solve_shifted_gram,
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
    """Range-preserving truncated randomized SVD:
    ``A.T @ sum_i (u_i, b)/sigma_i^2 u_i``.

    Only needs the left factors plus one product with ``A.T``; the result
    lies in ``range(A.T)`` by construction.
    """
    b = as_vector(b)
    t0 = time.perf_counter()
    _check_positive_spectrum(approx.sigma, "trsvd_solve_range")
    x = A.T @ solve_shifted_gram(approx.U, approx.sigma, 0.0, b)
    return _result(x, "trsvd_range", None, approx.k, t0)


def _gram(A, bundle):
    if bundle is not None:
        Bt = bundle.sharp_t_apply(A.T)  # B.T = L_sharp.T @ A.T, O(n m d)
        return Bt.T @ Bt
    n, m = A.shape
    return A @ A.T if n <= m else A.T @ A


def direct_gram(A, bundle=None):
    """The unshifted Gram matrix a direct Tikhonov solve factors.

    ``A @ A.T`` when rows <= cols and ``A.T @ A`` otherwise; given the
    ``bundle`` of a general penalty, ``B @ B.T`` with ``B = A @ L_sharp``
    formed in O(n m d) through the bundle's structured ``L_sharp.T``
    (see :meth:`rsvdreg.smoothing.ProductOperator.toarray`), so the
    product ``B @ B.T`` is the only O(n^3) step.
    Forming it is the part of a direct solve that depends neither on
    ``alpha`` nor on the data, so runs that solve one matrix many times
    form it once and pass it to :func:`tikhonov_solve_direct` or
    :func:`gen_tikhonov_direct` as ``gram``.
    """
    return _gram(as_matrix(A), bundle)


def _solve_shifted(A, bundle, gram, alpha, rhs, name):
    """Solve ``(gram + alpha I) y = rhs``.  The shift and the Cholesky
    factorization work in place on one n-by-n array: a copy of ``gram``,
    or a fresh Gram matrix of ``(A, bundle)`` when ``gram`` is None."""
    M = _gram(A, bundle) if gram is None else gram.copy()
    M[np.diag_indices_from(M)] += alpha
    return solve_spd(M, rhs, name)


def tikhonov_solve_direct(A, b, alpha, gram=None):
    """Classical Tikhonov solution of ``(A.T A + alpha I) x = A.T b``.

    Uses the data-space (dual) form ``A.T (A A.T + alpha I)^-1 b`` when
    rows <= cols and the parameter-space (primal) normal equations
    otherwise; the two agree to rounding.  ``gram`` is
    ``direct_gram(A)``, formed here when not given (it is left unchanged).
    """
    A = as_matrix(A)
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t0 = time.perf_counter()
    n, m = A.shape
    if n <= m:
        x = A.T @ _solve_shifted(A, None, gram, alpha, b, "shifted Gram matrix")
    else:
        x = _solve_shifted(A, None, gram, alpha, A.T @ b,
                           "regularized normal equations")
    return _result(x, "tikh_direct", alpha, None, t0)


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
    ``A.T @ sum_i (u_i, b)/(sigma_i^2 + alpha) u_i``.

    Cost after the factorization is one product with ``A.T`` plus O(nk).
    """
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t0 = time.perf_counter()
    x = A.T @ solve_shifted_gram(approx.U, approx.sigma, alpha, b)
    return _result(x, "tikh_range", alpha, approx.k, t0)


def range_tikhonov_basis(A, approx, bundle=None):
    """``A.T @ U`` of a factorization ``approx`` of ``A`` or, given the
    ``bundle`` of a general penalty (``approx`` then factors ``B``),
    ``Gamma A.T @ U``.

    This is the part of :func:`range_tikhonov_path` that depends neither
    on the data nor on ``alpha``: one O(n m k) product, formed once and
    shared by the paths of every data vector solved with ``approx``.
    """
    AtU = (approx.U.T @ A).T  # A.T @ U; OpenBLAS is faster this way round
    return AtU if bundle is None else bundle.gamma_apply(AtU)


def range_tikhonov_path(basis, approx, b, bundle=None):
    """Range-preserving Tikhonov solutions for one factorization and one
    data vector, as a function ``alpha -> x``.

    ``basis`` is :func:`range_tikhonov_basis` of the same ``approx`` and
    ``bundle``.  Agrees to rounding with :func:`rsvd_tikhonov_range` or,
    given the ``bundle`` of a general penalty, with
    :func:`rsvd_gen_tikhonov_range`.  Each ``alpha`` costs O(mk) instead of
    a product with ``A.T``: the shape of a parameter sweep.
    """
    b = as_vector(b)
    x0 = 0.0 if bundle is None else bundle.w_term(b)
    Utb = approx.U.T @ b

    def solve(alpha):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return basis @ shifted_gram_coeffs(Utb, approx.sigma, alpha) + x0

    return solve


def range_tikhonov_block(A, approxes, b, alphas, bundle=None):
    """Range-preserving Tikhonov solutions of one data vector for every
    factorization in ``approxes`` and several ``alphas`` at once.

    Returns one m-by-len(alphas) array per factorization, in order; a
    single factorization is a one-element list.  Column j of each agrees to
    rounding with :func:`rsvd_tikhonov_range` at ``alphas[j]`` or, given
    the ``bundle`` of a general penalty (the factorizations then factor
    ``B``), with :func:`rsvd_gen_tikhonov_range`.  The coefficient blocks
    of all factorizations are stacked, so ``A.T`` is applied in one product
    with an n-by-(len(approxes) len(alphas)) block, and a penalty's
    ``Gamma`` and null-space term once each, instead of one matrix-vector
    product per factorization and ``alpha``.
    """
    b = as_vector(b)
    alphas = np.asarray(alphas, dtype=float)
    if np.any(alphas <= 0):
        raise ValueError(f"alpha must be positive, got {alphas}")
    Y = np.hstack([
        ap.U @ shifted_gram_coeffs((ap.U.T @ b)[:, None], ap.sigma[:, None],
                                   alphas)
        for ap in approxes])
    X = (Y.T @ A).T  # A.T @ Y, faster this way round
    if bundle is not None:
        X = bundle.gamma_apply(X) + bundle.w_term(b)[:, None]
    return np.hsplit(X, len(approxes))


def _ensure_bundle(A, L, bundle):
    return smoothing.weighted_pinv(A, L) if bundle is None else bundle


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
    bundle = _ensure_bundle(A, L, bundle)
    t0 = time.perf_counter()
    xi = _solve_shifted(A, bundle, gram, alpha, b, "shifted dual Gram matrix")
    x = bundle.gamma_apply(A.T @ xi) + bundle.w_term(b)
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
    ``Gamma A.T @ sum_i (u_i, b)/(sigma_i^2 + alpha) u_i`` and the
    null-space term ``W (A W)^+ b`` is added exactly.
    """
    A = as_matrix(A)
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    bundle = _ensure_bundle(A, L, bundle)
    t0 = time.perf_counter()
    v = solve_shifted_gram(approx_B.U, approx_B.sigma, alpha, b)
    x = bundle.gamma_apply(A.T @ v) + bundle.w_term(b)
    return _result(x, "gtikh_range", alpha, approx_B.k, t0)


class Regularization:
    """Tikhonov regularization of ``A`` with the penalty ``L``.

    The identity is the degenerate penalty (``L_sharp = Gamma = I``, no
    null-space term): for it the methods call the standard solvers, with no
    :attr:`bundle`.  Otherwise they call the general solvers with the bundle
    of :func:`rsvdreg.smoothing.weighted_pinv`, built on first use, so a
    projected solve never pays for it.  Each method equals its public solver
    bit for bit; ``projected`` factors ``A``, the others :attr:`target`.
    """

    def __init__(self, A, L):
        self.A = A
        self.L = L
        self.identity = L.kind == "identity"

    @functools.cached_property
    def bundle(self):
        return None if self.identity else smoothing.weighted_pinv(self.A, self.L)

    @functools.cached_property
    def target(self):
        """``A`` for the identity, else ``B = A @ L_sharp``."""
        return self.A if self.identity else smoothing.form_B(self.A, self.bundle)

    @functools.cached_property
    def gram(self):
        """:func:`direct_gram` of ``(A, bundle)``, formed once."""
        return direct_gram(self.A, self.bundle)

    def direct(self, b, alpha, gram=None):
        if self.identity:
            return tikhonov_solve_direct(self.A, b, alpha, gram=gram)
        return gen_tikhonov_direct(self.A, self.L, b, alpha, self.bundle,
                                   gram=gram)

    def projected(self, approx_A, b, alpha):
        if self.identity:
            return rsvd_tikhonov_projected(approx_A, b, alpha)
        return rsvd_gen_tikhonov_projected(approx_A, self.L, b, alpha)

    def range(self, approx, b, alpha):
        if self.identity:
            return rsvd_tikhonov_range(self.A, approx, b, alpha)
        return rsvd_gen_tikhonov_range(self.A, self.L, approx, b, alpha,
                                       self.bundle)

    def basis(self, approx):
        return range_tikhonov_basis(self.A, approx, self.bundle)

    def path(self, basis, approx, b):
        return range_tikhonov_path(basis, approx, b, self.bundle)

    def block(self, approxes, b, alphas):
        return range_tikhonov_block(self.A, approxes, b, alphas, self.bundle)
