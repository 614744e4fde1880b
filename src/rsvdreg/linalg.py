"""Dense matrix/vector kernels shared by every solver in the package.

All routines operate on plain float64 ndarrays.  Matrices are validated on
entry (finite entries, sensible shapes) and never mutated, except the
matrix handed to ``solve_spd``, so results are safe to share across threads.
A solve's ``A`` goes through ``as_matrix`` where it is read densely: the
direct solvers and ``direct_gram``, and ``weighted_pinv`` but for the identity.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np
import scipy.linalg


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


def qr_thin(A, warn_deficient=True):
    """Orthonormal basis of the column space via thin Householder QR.

    For full-column-rank input, ``range(Q) == range(A)``.  Rank-deficient
    input still yields orthonormal columns (Householder completes them)
    but triggers a :class:`RankDeficiencyWarning`.

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
    Q, R = np.linalg.qr(A)
    if warn_deficient:
        diag = np.abs(np.diag(R))
        cutoff = max(n, m) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
        if diag.size and diag.min() <= cutoff:
            warnings.warn(
                f"qr_thin: input of shape {A.shape} is numerically "
                f"rank-deficient; basis columns beyond the rank are arbitrary",
                RankDeficiencyWarning,
                stacklevel=2,
            )
    return Q


def default_pinv_rtol(shape):
    """Relative cutoff max(n, m) * eps used to declare singular values zero."""
    return max(shape) * np.finfo(float).eps


def pinv(A, rtol=None):
    """Moore-Penrose pseudoinverse with a relative singular value cutoff.

    Singular values below ``rtol * sigma_1`` are treated as zero.  The
    default ``rtol`` is ``max(n, m) * eps`` (the usual numerical-rank
    convention).
    """
    A = as_matrix(A)
    if rtol is None:
        rtol = default_pinv_rtol(A.shape)
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must lie in (0, 1), got {rtol}")
    return np.linalg.pinv(A, rcond=rtol)


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
    :func:`solve_shifted_gram`, given ``Utb = U.T @ b``: the filter every
    range-preserving solver applies."""
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
