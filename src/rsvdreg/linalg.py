"""Dense matrix/vector kernels shared by every solver in the package.

All routines operate on plain float64 ndarrays.  Matrices are validated on
entry (finite entries, sensible shapes) and never mutated, except the
matrices handed to ``solve_spd`` (factored in place, saving an n-by-n copy),
``mirror_upper`` and ``svd_tall`` (its QR overwrites a Fortran-ordered
input, saving a copy of the sketch), so results are safe to share across
threads.  The one shared matrix that is mutated is the ``gram`` a direct
solve borrows: factored in place and restored bit for bit
(``rsvdreg.solvers.gen_tikhonov_direct``), so no other thread may read it
meanwhile.  ``rsvdreg.solvers.direct_gram`` forms it without a dense ``B``:
BLAS ``dsyrk`` adds the panels of ``B.T`` into its upper triangle in place,
and ``mirror_upper`` copies that onto the lower one, so it is symmetric bit
for bit.  A solve's ``A`` goes through ``as_matrix`` where it is read
densely: ``direct_gram``, the direct solvers when not given its Gram
matrix, and ``weighted_pinv`` but for the identity.

The thin factorizations of a randomized SVD (``qr_thin`` of the sample and
``svd_tall`` of the sketch) call LAPACK's ``dgeqrf``/``dorgqr``/``dgesdd``
through ``scipy.linalg.lapack`` instead of ``np.linalg``, whose per-call
cost is large next to the work at a few hundred rows and whose QR is slower
at a few thousand.  Best of many calls on one BLAS thread: the QR of a
250-by-25 sample takes 57 us against 75 us, and of a 2000-by-105 one 7.7 ms
against 9.8 ms; the SVD of deriv2's 250-by-25 sketch 145 us against 159 us,
and of its 2000-by-105 sketch 9.7 ms against 11.4 ms.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import lapack


class RankDeficiencyWarning(UserWarning):
    """Emitted when a factorization detects numerical rank deficiency."""


class SvdTriple(NamedTuple):
    """Thin SVD ``A = U @ diag(sigma) @ V.T``.

    Attributes
    ----------
    U : ndarray, shape (n, r)
        Left singular vectors (orthonormal columns).
    sigma : ndarray, shape (r,)
        Singular values, sorted nonincreasingly, ``r = min(n, m)``.
    V : ndarray, shape (m, r)
        Right singular vectors (orthonormal columns).
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def as_matrix(A, name="A"):
    """Validate and return ``A`` as a 2-d float64 array with finite entries."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={A.ndim}")
    if A.shape[0] == 0 or A.shape[1] == 0:
        raise ValueError(f"{name} must be nonempty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_vector(b, name="b"):
    """Validate and return ``b`` as a 1-d float64 array with finite entries."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got ndim={b.ndim}")
    if not np.all(np.isfinite(b)):
        raise ValueError(f"{name} contains non-finite entries")
    return b


def svd_full(A):
    """Thin SVD of a dense matrix.

    Parameters
    ----------
    A : ndarray, shape (n, m)

    Returns
    -------
    SvdTriple
        Factors with ``min(n, m)`` singular values sorted nonincreasingly.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the underlying iterative eigensolver fails to converge; the
        message names the matrix shape.
    """
    A = as_matrix(A)
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD did not converge for matrix of shape {A.shape} "
            f"within the LAPACK iteration cap"
        ) from exc
    return SvdTriple(U, s, Vt.T)


#: LAPACK workspace per column, room for the blocked Householder code
_LWORK_PER_COL = 64


def _householder(A, overwrite=False):
    """LAPACK ``dgeqrf`` of a tall ``A``: R on and above the diagonal of the
    result, the Householder vectors below it, and their scalars ``tau``."""
    qr, tau, _, info = lapack.dgeqrf(A, lwork=_LWORK_PER_COL * A.shape[1],
                                     overwrite_a=overwrite)
    if info:
        raise ValueError(f"dgeqrf rejected argument {-info}")
    return qr, tau


def _householder_basis(qr, tau):
    """The orthonormal ``Q`` of a :func:`_householder` result (``dorgqr``),
    formed in its storage."""
    Q, _, info = lapack.dorgqr(qr, tau, lwork=_LWORK_PER_COL * qr.shape[1],
                               overwrite_a=True)
    if info:
        raise ValueError(f"dorgqr rejected argument {-info}")
    return Q


def qr_thin(A, warn_deficient=True):
    """Orthonormal basis of the column space via thin Householder QR.

    For full-column-rank input, ``range(Q) == range(A)``.  Rank-deficient
    input still yields orthonormal columns (Householder completes them)
    but triggers a :class:`RankDeficiencyWarning`, read off the diagonal
    of ``R``.  ``A`` is left unchanged.

    Parameters
    ----------
    A : ndarray, shape (n, m) with n >= m

    Returns
    -------
    Q : ndarray, shape (n, m)
    """
    A = as_matrix(A)
    n, m = A.shape
    if n < m:
        raise ValueError(f"qr_thin needs rows >= cols, got shape {A.shape}")
    qr, tau = _householder(A)
    if warn_deficient:
        diag = np.abs(np.diagonal(qr))
        if diag.min() <= max(n, m) * np.finfo(float).eps * diag.max():
            warnings.warn(
                f"qr_thin: input of shape {A.shape} is numerically "
                f"rank-deficient; basis columns beyond the rank are arbitrary",
                RankDeficiencyWarning,
                stacklevel=2,
            )
    return _householder_basis(qr, tau)


def svd_tall(X):
    """Thin SVD ``X = U @ diag(s) @ Vt`` of a tall ``X`` (at least as many
    rows as columns), returned like ``np.linalg.svd(X, full_matrices=False)``
    but with ``U`` in Fortran order, so that its leading columns are one
    contiguous block.

    Householder QR ``X = Q R``, ``dgesdd`` of the small square ``R =
    U_R diag(s) Vt`` and ``U = Q U_R``: the steps LAPACK takes for a tall
    matrix, without numpy's per-call cost.  A Fortran-ordered float64 ``X``
    is overwritten; pass one the caller owns.
    """
    n, ell = X.shape
    if n < ell:
        raise ValueError(f"svd_tall needs rows >= cols, got shape {X.shape}")
    qr, tau = _householder(X, overwrite=True)
    R = np.triu(qr[:ell])
    if not np.isfinite(R).all():
        raise np.linalg.LinAlgError(
            f"SVD did not converge for matrix of shape {X.shape}: "
            f"non-finite entries")
    u, s, vt, info = lapack.dgesdd(R, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(
            f"SVD did not converge for matrix of shape {X.shape} (dgesdd info {info})")
    return (u.T @ _householder_basis(qr, tau).T).T, s, vt


def default_pinv_rtol(shape):
    """Relative cutoff max(n, m) * eps used to declare singular values zero."""
    return max(shape) * np.finfo(float).eps


def pinv(A):
    """Moore-Penrose pseudoinverse with a relative singular value cutoff.

    Singular values below ``default_pinv_rtol(A.shape) * sigma_1``, that is
    ``max(n, m) * eps * sigma_1`` (the usual numerical-rank convention),
    are treated as zero.
    """
    A = as_matrix(A)
    return np.linalg.pinv(A, rcond=default_pinv_rtol(A.shape))


def spectral_norm(A):
    """Largest singular value of ``A``, the package's one matrix 2-norm.

    Computed as the square root of the top eigenvalue of the smaller Gram
    matrix (``A.T @ A`` or ``A @ A.T``), taken alone by
    ``scipy.linalg.eigvalsh`` and clamped at 0, so the zero matrix gives
    exactly 0.0.  About half the cost of a full SVD at n = 200.  The result
    agrees with ``np.linalg.norm(A, 2)`` to about ``n * eps`` relative.
    The Gram matrix squares the entries: it overflows for entries above
    about 1e154 (and loses entries below about 1e-154 to underflow).
    """
    A = as_matrix(A)
    G = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
    r = G.shape[0]
    top = scipy.linalg.eigvalsh(G, subset_by_index=[r - 1, r - 1], check_finite=False)
    return math.sqrt(max(0.0, float(top[0])))


def estimate_spectral_norm(A, iterations=30, seed=0):
    """Cheap power-iteration estimate of the spectral norm.

    Used where only a tolerance scale is needed and a full SVD would be
    wasteful.  Underestimates by at most a few percent after ~30 iterations
    on generic matrices.
    """
    n, m = A.shape
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iterations):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        est = np.sqrt(nw)
        v = w / nw
    return float(est)


def solve_shifted_gram(U, sigma, alpha, b):
    """Spectral sum ``sum_i (u_i, b) / (sigma_i^2 + alpha) * u_i`` for
    orthonormal ``U`` (n-by-k), a nonnegative ``sigma`` and ``alpha >= 0``
    (``alpha == 0`` needs ``sigma > 0``): the inverse of the shifted Gram
    matrix ``U diag(sigma^2) U.T + alpha I`` restricted to ``span(U)``.
    The range-preserving solvers use only its coefficients
    (:func:`shifted_gram_coeffs`), mapped back without this n-vector.
    """
    U = as_matrix(U, "U") if U.size else np.asarray(U, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    b = as_vector(b)
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0.0:
        zero = np.flatnonzero(sigma <= 0.0)
        if zero.size:
            raise ValueError(
                f"alpha = 0 requires positive spectrum, but sigma[{zero[0]}] = "
                f"{sigma[zero[0]]}"
            )
    if U.size == 0:
        return np.zeros_like(b)
    return U @ shifted_gram_coeffs(U.T @ b, sigma, alpha)


def shifted_gram_coeffs(Utb, sigma, alpha):
    """Coefficients ``(u_i, b) / (sigma_i^2 + alpha)`` of the spectral sum in
    :func:`solve_shifted_gram`, given ``Utb = U.T @ b``: the filter of the one
    range-preserving solve, which broadcasts a k-by-1 ``Utb`` and ``sigma``
    against its alphas (``rsvdreg.solvers._range_block``)."""
    return Utb / (sigma**2 + alpha)


def solve_spd(M, rhs, name="system"):
    """Solve a symmetric positive definite system by Cholesky, with a clear
    failure mode.

    The factorization overwrites ``M``, which saves an n-by-n copy; callers
    pass a matrix they own.  ``M`` and ``rhs`` must be finite (the solvers
    build them from validated input).
    """
    try:
        # M.T is M (symmetric) in Fortran order, which LAPACK factors in place
        factor = scipy.linalg.cho_factor(M.T, overwrite_a=True, check_finite=False)
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"failed to solve SPD {name} of shape {M.shape}: {exc}"
        ) from exc


#: rows and columns of the square tiles :func:`mirror_upper` copies: a
#: tile and its transpose stay in cache
_MIRROR_TILE = 128


def mirror_upper(M):
    """Copy the strict upper triangle of the square ``M`` onto its strict
    lower triangle, in place, tile by transposed tile.

    ``solve_spd`` factors ``M`` into its lower triangle and leaves the
    strict upper one untouched, so for a matrix symmetric bit for bit this
    and a restore of the diagonal give back the matrix it was handed, with
    no n-by-n copy.  Takes about as long as that copy (3 ms at n = 2000).
    """
    n = M.shape[0]
    t = _MIRROR_TILE
    below = np.tri(t, k=-1, dtype=bool)
    for i in range(0, n, t):
        rows = slice(i, i + t)
        for j in range(0, i, t):
            M[rows, j:j + t] = M[j:j + t, rows].T
        diag = M[rows, rows]
        np.copyto(diag, diag.T, where=below[:diag.shape[0], :diag.shape[0]])
