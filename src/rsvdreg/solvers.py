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
``tikhonov_solve_direct``, ``rsvd_tikhonov_projected`` and
``rsvd_tikhonov_range`` call the general solvers with it, and so does
:class:`Regularization`, which the harness solves through.  The direct
solvers take the dual form, factoring the n-by-n ``B B.T + alpha I``,
and validate ``A`` unless ``gen_tikhonov_direct`` is handed its Gram matrix
(``direct_gram`` validated it); the range-preserving solvers never read
``A`` densely.  No solver forms a dense ``B``: ``direct_gram`` sums ``B
B.T`` over column panels of ``B`` with ``dsyrk``, so a penalized direct
solve holds the n-by-n arrays of an identity one, ``A`` and the Gram
matrix.

The range-preserving flavors keep the solution inside ``range(A.T)``
(resp. ``range(Gamma A.T)``): they map the filter
``sum_i (u_i, b) / (sigma_i^2 + alpha) u_i`` over the captured modes back
by ``Gamma A.T``, dropping the component of ``b`` orthogonal to the
captured range rather than amplifying it by ``1/alpha`` (so ``alpha -> 0``
recovers the truncated solver).  Every factorization of
:mod:`rsvdreg.rsvd` satisfies ``B.T U = V diag(sigma)``, so
``Gamma A.T U = L_sharp B.T U = L_sharp V diag(sigma)``: the solution is
``L_sharp V (sigma * c) + W (A W)^+ b``, in ``range(Gamma A.T)`` by that
identity, at O(m k d) and with no product with ``A``.  One function
computes it, ``_range_block``, which both range-preserving solvers call.
Where only the errors of the solutions are wanted, none is formed: the
alpha selection takes them from k coefficients per alpha
(:func:`range_error_curve`), and a rank sweep takes every rank's from the
coefficients of its solutions in the bases of the one sketch the ranks
are cut from (:func:`rank_errors`).  Every penalized solution is assembled
by the one ``WeightedPinvBundle.sharp_solution``, and every ``L_sharp.T``
is taken in the bundle's row panels.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from . import smoothing
from .linalg import (
    _householder,
    as_matrix,
    as_vector,
    default_pinv_rtol,
    mirror_upper,
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


@dataclass(frozen=True, eq=False)
class SolverResult:
    """Solution vector plus the knobs that produced it."""

    x: np.ndarray
    alpha: float | None
    k: int | None
    wall_time: float


def _result(x, alpha, k, t0):
    return SolverResult(x, alpha, k, time.perf_counter() - t0)


def _check_positive_spectrum(sigma, what):
    zero = np.flatnonzero(np.asarray(sigma) <= 0.0)
    if zero.size:
        raise ValueError(f"{what} requires positive singular values, but "
                         f"sigma[{zero[0]}] = {sigma[zero[0]]}")


def tsvd_solve(svd, k, b):
    """Truncated SVD solution ``sum_{i<=k} (u_i, b)/sigma_i * v_i``.

    ``k`` must be at least 1 and must not exceed the numerical rank of the
    factored matrix.
    """
    b = as_vector(b)
    if k < 1:
        raise ValueError(f"truncation level k must be at least 1, got k={k}")
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
    return _result(svd.V[:, :k] @ coeff, None, k, t0)


def trsvd_solve_projected(approx, b):
    """Truncated randomized SVD in the projected form
    ``V diag(1/sigma) U.T b``."""
    b = as_vector(b)
    t0 = time.perf_counter()
    _check_positive_spectrum(approx.sigma, "trsvd_solve_projected")
    coeff = (approx.U.T @ b) / approx.sigma
    return _result(approx.V @ coeff, None, approx.k, t0)


def trsvd_solve_range(A, approx, b):
    """Range-preserving truncated randomized SVD
    ``A.T @ sum_i (u_i, b)/sigma_i^2 u_i``: :func:`rsvd_tikhonov_range` at
    ``alpha = 0``."""
    b = as_vector(b)
    t0 = time.perf_counter()
    _check_positive_spectrum(approx.sigma, "trsvd_solve_range")
    eye = smoothing.weighted_pinv(A, smoothing.identity(A.shape[1]))
    x = _range_block(approx, b, [0.0], eye)[:, 0]
    return _result(x, None, approx.k, t0)


def _gram(A, bundle):
    """``B @ B.T`` of a validated ``A``, summed over the row panels of
    ``B.T`` in place into one C-ordered array (see :func:`direct_gram`)."""
    n = A.shape[0]
    G = np.zeros((n, n))
    for P in bundle.sharp_t_panels(A.T):
        # G.T is column-major, so dsyrk adds P.T P to it in place; its
        # lower triangle is G's upper one.  BLAS reads a column-major P,
        # or the transpose of a row-major one, without a copy.
        if P.flags.f_contiguous:
            blas.dsyrk(1.0, P, beta=1.0, c=G.T, trans=1, lower=1, overwrite_c=1)
        else:
            blas.dsyrk(1.0, P.T, beta=1.0, c=G.T, trans=0, lower=1, overwrite_c=1)
        del P  # before the next panel is formed
    mirror_upper(G)
    return G


def direct_gram(A, bundle):
    """The unshifted Gram matrix ``B @ B.T`` a direct Tikhonov solve
    factors, with ``B = A @ L_sharp`` the target of ``bundle``.  No dense
    ``B`` is formed: each row panel of ``B.T = L_sharp.T A.T`` from
    :meth:`rsvdreg.smoothing.WeightedPinvBundle.sharp_t_panels` (O(n m d)
    in all) adds its ``P.T P`` in place to the upper triangle of one
    C-ordered n-by-n array by BLAS ``dsyrk``, and the lower one is
    mirrored.  So ``A`` and the result are the only n-by-n arrays, and the
    ``syrk`` the only O(n^3) step.  The identity's one panel is ``A.T``
    itself, and its result ``A @ A.T`` bit for bit.  The result depends
    neither on ``alpha`` nor on the data: runs that solve one matrix many
    times form it once and pass it to :func:`gen_tikhonov_direct` as
    ``gram``, which borrows it and restores it bit for bit, so it is
    returned symmetric bit for bit.  Validates ``A``, so solves handed the
    result do not.
    """
    return _gram(as_matrix(A), bundle)


def tikhonov_solve_direct(A, b, alpha):
    """Classical Tikhonov solution of ``(A.T A + alpha I) x = A.T b``: the
    order-0 entry point of :func:`gen_tikhonov_direct`, in the dual form
    ``A.T (A A.T + alpha I)^-1 b`` whatever the shape of ``A``.
    """
    A = as_matrix(A)
    return gen_tikhonov_direct(A, smoothing.identity(A.shape[1]), b, alpha)


def rsvd_tikhonov_projected(approx, b, alpha):
    """Projected randomized Tikhonov ``(A_k.T A_k + alpha I)^-1 A_k.T b``:
    the order-0 entry point of :func:`rsvd_gen_tikhonov_projected`, in
    factor space."""
    return rsvd_gen_tikhonov_projected(
        approx, smoothing.identity(approx.V.shape[0]), b, alpha)


def rsvd_tikhonov_range(A, approx, b, alpha):
    """Range-preserving randomized Tikhonov
    ``A.T @ sum_i (u_i, b)/(sigma_i^2 + alpha) u_i``: the order-0 entry
    point of :func:`rsvd_gen_tikhonov_range`, O(nk) after the
    factorization."""
    return rsvd_gen_tikhonov_range(A, smoothing.identity(A.shape[1]),
                                   approx, b, alpha)


def _range_block(approx, b, alphas, bundle):
    """The one range-preserving solve: for factors ``approx`` of ``B = A @
    L_sharp``, the m-by-len(alphas) block whose column j is the solution of
    ``b`` at ``alphas[j]`` (unchecked, so :func:`trsvd_solve_range` can pass
    ``alpha = 0``).  The image ``B.T U C`` is ``V diag(sigma) C``, which
    ``bundle.sharp_solution`` maps back."""
    C = shifted_gram_coeffs((approx.U.T @ b)[:, None], approx.sigma[:, None], alphas)
    return bundle.sharp_solution(approx.V @ (approx.sigma * C.T).T, b)


def _split_distances(M, orthonormal):
    """``distances(r) -> norms(G)``: ``||M g - r||`` for every column ``g``
    of ``G`` (overwritten), for an m-by-k ``M``.  With ``M = Q R`` factored
    once (Householder; none for an orthonormal ``M``, ``Q = M`` and ``R =
    I``) and ``Q.T r`` taken once per ``r``, each norm is ``sqrt(||R g -
    Q.T r||^2 + ||(I - Q Q.T) r||^2)``; the expansion ``||r||^2 - 2 g.T M.T
    r + g.T M.T M g`` would cancel."""
    k = M.shape[1]
    if orthonormal:
        Q = M
    else:
        qr, tau = _householder(M, overwrite=True)
        del M  # dgeqrf's copy of a row-major M is all that is kept
        R = np.triu(qr[:k])

    def distances(r):
        if orthonormal:
            Qtr = Q.T @ r
            rest = r - Q @ Qtr
        else:  # Q.T r over all m rows (Q m-by-m), its tail (I - Q Q.T) r
            Qtr = lapack.dormqr("L", "T", qr, tau, r[:, None], lwork=64)[0][:, 0]
            Qtr, rest = Qtr[:k], Qtr[k:]
        tail = rest @ rest

        def norms(G):
            if not orthonormal:
                G = R @ G
            G -= Qtr[:, None]
            return np.sqrt(np.einsum("ij,ij->j", G, G) + tail)

        return norms

    return distances


def range_error_curve(approx, bundle):
    """``errors(b, x_true, alphas)``: ``||x - x_true||`` for the
    range-preserving solution ``x`` of ``b`` at each of ``alphas`` (factors
    ``approx`` of ``B = A @ L_sharp``), with no solution formed: ``x = M g +
    W (A W)^+ b`` with k coefficients ``g = sigma * c`` per alpha and ``M =
    L_sharp V`` (``V`` itself for the identity: ``Q = V`` and ``R = I``),
    factored once, and each error taken from ``g`` and ``r = x_true - W (A
    W)^+ b`` in split form (:func:`_split_distances`)."""
    U, sigma = approx.U, approx.sigma
    orthonormal = bundle.L.order == 0
    # M is not held here, so that it goes once factored
    distances = _split_distances(
        approx.V if orthonormal else bundle.sharp_apply(approx.V), orthonormal)

    def errors(b, x_true, alphas):
        b = as_vector(b)
        G = shifted_gram_coeffs((U.T @ b)[:, None], sigma[:, None], alphas)
        G *= sigma[:, None]
        return distances(x_true - bundle.w_term(b))(G)

    return errors


def rank_errors(ranks, bundle, b, x_true, alphas):
    """``||x - x_true||`` for the range-preserving solution ``x`` of ``b``
    at each of ``alphas`` from each of ``ranks``, the
    :class:`rsvdreg.rsvd.SketchRank` views of one sketch of ``B = A @
    L_sharp``, as a len(ranks)-by-len(alphas) array, with no factor or
    solution formed.

    Every rank's solution is ``L_sharp Z t + W (A W)^+ b`` with ``Z`` the
    sketch's right basis and ``t = Zm[:, :k] (sigma * c)`` (``rank.lift``)
    the coefficients of ``V (sigma * c)``, where ``c`` is the filter of
    ``U.T b = Wtl[:k] (Q.T b)[:ell]`` (``rank.left_coefficients``).  So the
    sketch's ``M = L_sharp Z`` is factored once for all ranks (``Z`` itself
    for the identity), ``Q.T b`` and ``Q.T r`` are taken once, and each
    rank costs O(ell^2) per alpha (:func:`_split_distances`)."""
    sketch = ranks[0].sketch
    b = as_vector(b)
    orthonormal = bundle.L.order == 0
    norms = _split_distances(sketch.Z if orthonormal else bundle.sharp_apply(sketch.Z),
                             orthonormal)(x_true - bundle.w_term(b))
    Qtb = sketch.Q.T @ b
    out = np.empty((len(ranks), len(alphas)))
    for i, rank in enumerate(ranks):
        sigma = rank.sigma[:, None]
        C = shifted_gram_coeffs(rank.left_coefficients(Qtb)[:, None], sigma, alphas)
        out[i] = norms(rank.lift(sigma * C))
    return out


def gen_tikhonov_direct(A, L, b, alpha, bundle=None, gram=None):
    """General-penalty Tikhonov minimizer of
    ``||A x - b||^2 + alpha ||L x||^2``.

    Solved through the standard-form reduction: with ``B = A @ L_sharp``
    and ``Gamma = L_sharp L_sharp.T``,

        ``x = Gamma A.T (B B.T + alpha I)^-1 b + W (A W)^+ b``,

    where the second term resolves the penalty's null-space component
    exactly.  Agrees with a dense solve of the regularized normal
    equations ``(A.T A + alpha L.T L) x = A.T b``.  ``Gamma`` is applied
    through the bundle's structured factors, so besides the bundle's
    O(n m d) set-up the only O(n^3) work is forming and factoring the Gram
    matrix.

    ``gram`` is ``direct_gram(A, bundle)``, formed here when not given.  A
    given ``gram`` is borrowed, not copied: it is shifted and factored in
    place, then its diagonal and lower triangle are restored from the
    saved diagonal and the untouched upper triangle, also when the
    factorization fails, so it comes back bit for bit.  It must be
    writable and must not be read concurrently, by another solve or
    otherwise.  ``A`` is then trusted, as :func:`direct_gram` validated it.
    """
    A = as_matrix(A) if gram is None else np.asarray(A, dtype=float)
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if bundle is None:
        bundle = smoothing.weighted_pinv(A, L)
    t0 = time.perf_counter()
    # the shift and the Cholesky factorization work in place on one array
    M = _gram(A, bundle) if gram is None else gram
    diag = M.diagonal().copy()
    M[np.diag_indices_from(M)] += alpha
    try:
        xi = solve_spd(M, b, "shifted dual Gram matrix")
    finally:
        if gram is not None:
            # the factor holds M's lower triangle; the upper one is intact
            M[np.diag_indices_from(M)] = diag
            mirror_upper(M)
    x = bundle.solution(A.T @ xi, b)
    return _result(x, alpha, None, t0)


def rsvd_gen_tikhonov_projected(approx_A, L, b, alpha):
    """Projected comparison variant built from a randomized SVD of ``A``
    alone: restricts the solution to the captured right subspace and
    projects the penalty into it, solving the k-by-k system

        ``(diag(sigma^2) + alpha (L V_k).T (L V_k)) z = diag(sigma) U_k.T b``

    with ``x = V_k z``.  For the identity (order 0) ``(L V_k).T (L V_k) =
    I``, so the system is diagonal and solved in closed form (a Cholesky
    solve would round differently).  Cheap (everything happens in the
    reduced space), but the probed subspace is adapted to ``A`` only, so
    nothing preserves the structure the penalty imposes on the minimizer;
    that is precisely the failure mode the range-preserving variant avoids.
    """
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t0 = time.perf_counter()
    sigma = approx_A.sigma
    if L.order == 0:
        z = sigma * (approx_A.U.T @ b) / (sigma**2 + alpha)
    else:
        LV = L.apply(approx_A.V)
        M = alpha * (LV.T @ LV)
        M[np.diag_indices_from(M)] += sigma**2
        try:
            z = scipy.linalg.solve(M, sigma * (approx_A.U.T @ b), assume_a="pos")
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"projected general Tikhonov system of shape {M.shape} is "
                f"singular: {exc}"
            ) from exc
    return _result(approx_A.V @ z, alpha, approx_A.k, t0)


def rsvd_gen_tikhonov_range(A, L, approx_B, b, alpha, bundle=None):
    """Range-preserving randomized general Tikhonov.

    ``approx_B`` must factor ``B = A @ L_sharp`` (see
    :func:`rsvdreg.smoothing.form_B`).  The smooth component is
    ``Gamma A.T @ sum_i (u_i, b)/(sigma_i^2 + alpha) u_i`` (``L_sharp V
    (sigma * c)``, see the module docstring) and
    the null-space term ``W (A W)^+ b`` is added exactly.  ``weighted_pinv``
    validates ``A`` for a penalty.
    """
    b = as_vector(b)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if bundle is None:
        bundle = smoothing.weighted_pinv(A, L)
    t0 = time.perf_counter()
    x = _range_block(approx_B, b, [alpha], bundle)[:, 0]
    return _result(x, alpha, approx_B.k, t0)


class Regularization:
    """Tikhonov regularization of ``A`` with the penalty ``L``.

    The methods call the general solvers with the :attr:`bundle` of
    :func:`rsvdreg.smoothing.weighted_pinv`, built on first use, so a
    projected solve never pays for it.  Each method equals its public
    solver bit for bit; ``projected`` factors ``A``, the others
    :attr:`target`.
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
        """:func:`gen_tikhonov_direct`.  A ``gram`` (:attr:`gram`) is
        borrowed: factored in place and returned bit for bit, so it must be
        writable and no other thread may read it during the call."""
        return gen_tikhonov_direct(self.A, self.L, b, alpha, self.bundle,
                                   gram=gram)

    def projected(self, approx_A, b, alpha):
        return rsvd_gen_tikhonov_projected(approx_A, self.L, b, alpha)

    def range(self, approx, b, alpha):
        return rsvd_gen_tikhonov_range(self.A, self.L, approx, b, alpha,
                                       self.bundle)
