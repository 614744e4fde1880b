"""Randomized SVD with Gaussian range probing, power iterations and
oversampling, plus the probabilistic accuracy bounds used to audit it.

One factorization serves every shape (Halko, Martinsson & Tropp, SIAM Rev.
53, 2011, Alg. 4.1 and 5.1): probe the columns of ``A``, take an
orthonormal basis ``Q`` of the sample and factor the sketch ``Q.T @ A``.
Its factors satisfy ``A.T @ U == V @ diag(sigma)`` to rounding, which the
range-preserving solvers of :mod:`rsvdreg.solvers` rely on.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import default_pinv_rtol, qr_thin, spectral_norm, svd_full, svd_tall


@dataclass(frozen=True)
class RsvdConfig:
    """Parameters of one randomized factorization.

    Attributes
    ----------
    k : int
        Target rank (positive).
    p : int
        Oversampling: number of extra probe columns (default 5).
    q : int
        Power iteration exponent (default 0).
    seed : int
        Seed for the Gaussian probe; identical configs give bit-identical
        factors.
    """

    k: int
    p: int = 5
    q: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"target rank k must be positive, got {self.k}")
        if self.p < 0:
            raise ValueError(f"oversampling p must be nonnegative, got {self.p}")
        if self.q < 0:
            raise ValueError(f"power exponent q must be nonnegative, got {self.q}")

    def validate_shape(self, shape):
        if self.k + self.p > min(shape):
            raise ValueError(
                f"k + p = {self.k + self.p} exceeds min{tuple(shape)} = "
                f"{min(shape)}; shrink the rank or oversampling"
            )


class _Factors:
    """What every rank-k factorization offers besides its factors."""

    @property
    def k(self):
        return self.sigma.shape[0]

    def matrix(self):
        """Materialize ``U @ diag(sigma) @ V.T``."""
        return (self.U * self.sigma) @ self.V.T


@dataclass(frozen=True, eq=False)
class RankKApprox(_Factors):
    """Rank-k factors ``A ~= U @ diag(sigma) @ V.T`` plus their provenance.

    Factors of :func:`rsvd_tall` and :func:`from_exact_svd`, of any shape,
    satisfy ``A.T @ U == V @ diag(sigma)`` (``U = Q Wt.T`` with the SVD
    ``Q.T @ A = Wt.T diag(s) Z.T``) and with it the projection identity
    ``U @ diag(sigma) @ V.T == (U @ U.T) @ A``, both to rounding.

    ``probe_rank`` is the numerical rank of the (k+p)-row sketch the factors
    were cut from: its singular values above ``default_pinv_rtol`` times
    the largest.  Below k+p, the probe captured fewer directions than it
    had columns.  None for factors not taken from a probe.

    :func:`rsvd_nested` returns :class:`SketchRank` views instead, with
    the same attributes.  Holding arrays, factors compare by identity.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    config: RsvdConfig = field(repr=False)
    probe_rank: int | None = None


@dataclass(frozen=True, eq=False)
class Sketch:
    """One probe of ``A``, factored once, which every rank of
    :func:`rsvd_nested` is cut from.

    ``Q`` is the orthonormal n-by-ell basis of the probe (:func:`range_basis`,
    ``ell = k + p`` of the widest rank ``config``) and ``Z diag(s) Wt`` the
    SVD of the sketch ``(Q.T @ A).T``: ``Z`` has ``A.shape[1]`` orthonormal
    rows and ell columns, and every rank's right factor lies in its span.
    """

    Q: np.ndarray
    Z: np.ndarray
    s: np.ndarray
    Wt: np.ndarray
    config: RsvdConfig

    def rank(self, cfg):
        """The rank-``cfg.k`` view of the sketch (``cfg.p`` as the widest
        rank's).  The widest rank reads the sketch's own SVD; a narrower one
        takes the SVD of ``diag(s) Wt[:, :ell]``, the leading ``ell = k + p``
        rows of the sketch in the basis ``Z``, which is O(ell^3)."""
        ell = cfg.k + cfg.p
        if cfg.k == self.config.k:
            Zm, sl, Wtl = None, self.s, self.Wt
        else:
            Zm, sl, Wtl = svd_tall(self.s[:, None] * self.Wt[:, :ell])
        rank = int(np.sum(sl > default_pinv_rtol((ell, self.Z.shape[0])) * sl[0]))
        return SketchRank(self, cfg, sl[:cfg.k], rank, Zm, Wtl)


@dataclass(frozen=True, eq=False)
class SketchRank(_Factors):
    """The rank-k factors of a :class:`Sketch`, as a view: ``sigma`` and
    ``probe_rank`` (see :class:`RankKApprox`) plus the rank's small SVD
    ``Zm diag(sigma) Wtl`` of the sketch's leading ell rows (``Zm`` None for
    the widest rank, whose basis is ``Z`` itself).

    ``U = Q[:, :ell] @ Wtl[:k].T`` and ``V = Z @ Zm[:, :k]`` (``Z[:, :k]``
    for the widest rank) are formed when first read and then kept.
    :meth:`left_coefficients` and :meth:`lift` give ``U.T @ b`` and ``V @
    g`` in coefficients of ``Q`` and ``Z`` without either, so that many
    ranks of one sketch are solved in the sketch's bases.
    """

    sketch: Sketch = field(repr=False)
    config: RsvdConfig = field(repr=False)
    sigma: np.ndarray
    probe_rank: int
    Zm: np.ndarray | None = field(repr=False)
    Wtl: np.ndarray = field(repr=False)

    @functools.cached_property
    def U(self):
        ell = self.config.k + self.config.p
        return self.sketch.Q[:, :ell] @ self.Wtl[:self.k].T

    @functools.cached_property
    def V(self):
        Z = self.sketch.Z
        return Z[:, :self.k] if self.Zm is None else Z @ self.Zm[:, :self.k]

    def factors(self):
        """The explicit :class:`RankKApprox` of this rank: its ``U`` and
        ``V``, without the sketch."""
        return RankKApprox(self.U, self.sigma, self.V, self.config, self.probe_rank)

    def left_coefficients(self, Qtb):
        """``U.T @ b`` from the sketch's ``Qtb = Q.T @ b``, without ``U``."""
        return self.Wtl[:self.k] @ Qtb[:self.config.k + self.config.p]

    def lift(self, g):
        """The coefficients of ``V @ g`` in the sketch's basis ``Z``, for a
        k-by-j ``g``, without ``V``."""
        if self.Zm is not None:
            return self.Zm[:, :self.k] @ g
        t = np.zeros((self.sketch.Z.shape[1], g.shape[1]))
        t[:self.k] = g
        return t


def from_exact_svd(A, k, seed=0):
    """Rank-k factors taken from the exact SVD (oracle substitution)."""
    tri = svd_full(A)
    cfg = RsvdConfig(k=k, p=0, q=0, seed=seed)
    return RankKApprox(tri.U[:, :k].copy(), tri.sigma[:k].copy(),
                       tri.V[:, :k].copy(), cfg)


def _gaussian_probe_tall(m, ell, seed):
    # Column-major fill: a narrower probe of one seed is the leading columns
    # of a wider one (rsvd_nested relies on it), and every seeded output
    # depends on this stream.
    rng = np.random.default_rng(seed)
    return rng.standard_normal(m * ell).reshape((m, ell), order="F")


def _thin_product(A, X):
    """``A @ X`` for a thin ``X``, formed as ``(X.T @ A.T).T``: the same
    product to rounding, which OpenBLAS computes up to twice as fast with
    the thin factor on the left."""
    return (X.T @ A.T).T


def _powered_sample(A, omega, q):
    """Compute ``(A A^T)^q A @ omega``, re-orthonormalizing for large q."""
    Y = _thin_product(A, omega)
    if q <= 2:
        for _ in range(q):
            Y = _thin_product(A, _thin_product(A.T, Y))
    else:
        # Plain products lose the trailing digits once the spectrum has been
        # raised to a high power; interleave QR to keep the basis usable.
        for _ in range(q):
            Y = qr_thin(Y, warn_deficient=False)
            Y = _thin_product(A, _thin_product(A.T, Y))
    return Y


def range_basis(A, k, p, seed, q=0):
    """Orthonormal basis of the probed range (steps 3-5 of the
    factorization).

    Returns the n-by-(k+p) matrix ``Q`` spanning ``range((A A^T)^q A Omega)``
    for the seeded Gaussian probe ``Omega``, for ``A`` of any shape.
    """
    omega = _gaussian_probe_tall(A.shape[1], k + p, seed)
    Y = _powered_sample(A, omega, q)
    return qr_thin(Y)


def rsvd_nested(A, ks, p=5, q=0, seed=0):
    """Randomized rank-k SVDs of ``A`` for every rank in ``ks`` from one
    factorization: one probe of ``max(ks) + p`` columns, one sample, one
    QR (:func:`range_basis`), one product ``Q.T @ A`` and one SVD of that
    widest sketch; each narrower rank adds only a (max(ks)+p)-by-(k+p) SVD.

    The probe is filled column-major, column j of the sample depends only
    on the leading j+1 probe columns (on column j alone when ``q <= 2``) and
    the leading l columns of a Householder basis span the leading l columns
    of the sample, so the basis of the width-(k+p) probe is the leading
    k+p columns of the widest basis.  Each rank therefore factors the
    leading ``l = k+p`` rows of the one sketch ``B = Q.T @ A``; its factors
    agree to rounding with the lone ``rsvd_tall(A, RsvdConfig(k, p, q,
    seed))``.  With ``q`` of 1 or 2 the sample is not re-orthonormalized,
    and on a fast-decaying spectrum its rounding errors are amplified alike
    in both computations.

    Only the widest sketch is factored, ``B.T = Z diag(s) Wt``, exactly as
    a lone call factors it, so the widest rank is bit for bit the lone
    call.  ``B.T`` is tall whatever the shape of ``A``, as ``k + p`` is at
    most ``min(A.shape)``.  Then ``B[:l].T = Z M`` with the small
    ``M = diag(s) Wt[:, :l]``, and ``Z`` has orthonormal columns, so a
    narrower rank takes the SVD of ``M`` (O((k+p)^3) instead of O(m (k+p)^2))
    and maps its left factor back through ``Z`` (:meth:`Sketch.rank`).

    Returns the :class:`SketchRank` views of the one :class:`Sketch`, one
    per entry of ``ks``, in input order (duplicates included); they form
    ``U`` and ``V`` only when read.  Raises ``ValueError`` for an empty
    ``ks`` and when ``max(ks) + p`` exceeds ``min(A.shape)``.
    """
    cfgs = [RsvdConfig(k=k, p=p, q=q, seed=seed) for k in ks]
    if not cfgs:
        raise ValueError("rsvd_nested needs at least one rank")
    widest = max(cfgs, key=lambda c: c.k)
    widest.validate_shape(A.shape)
    Q = range_basis(A, widest.k, widest.p, widest.seed, widest.q)
    sketch = Sketch(Q, *svd_tall((Q.T @ A).T), widest)
    out = {}
    for cfg in cfgs:
        if cfg.k not in out:
            out[cfg.k] = sketch.rank(cfg)
    return [out[cfg.k] for cfg in cfgs]


def rsvd_tall(A, cfg):
    """Randomized rank-k SVD of ``A``, of any shape.

    Pipeline: Gaussian probe, optional power iterations, thin QR of the
    sample (:func:`range_basis`), exact SVD of the small projected matrix
    ``Q.T @ A``, truncation of the oversampled factors from k+p down to k.
    This is the one-rank case of :func:`rsvd_nested`, returned as explicit
    factors: a lone rank's view would hold ``Q``, wider than its ``U``.

    ``A`` may be any object supporting ``shape``, ``.T`` and products with
    arrays on either side (dense ndarray or a lazy product operator).
    """
    return rsvd_nested(A, [cfg.k], cfg.p, cfg.q, cfg.seed)[0].factors()


#: The factorization for every shape, under the name its callers use.
rsvd_auto = rsvd_tall


def refine_singular_values(A, approx):
    """Rayleigh-quotient style refinement ``sigma_i = ||A.T @ u_i||``.

    Recomputes each singular value estimate from the captured left vector
    and the full matrix.  Returns a length-k vector.
    """
    if A.shape[0] != approx.U.shape[0]:
        raise ValueError(
            f"matrix rows {A.shape[0]} do not match factor rows {approx.U.shape[0]}"
        )
    return np.linalg.norm(A.T @ approx.U, axis=0)


def theorem_spectral_bounds(sigma, k, p):
    """The two probabilistic range-capture bounds evaluated on a spectrum.

    For a Gaussian probe with oversampling ``p >= 4`` and no power
    iterations, ``||A - Q Q.T A||`` is bounded, except on a small failure
    set, by

    * ``(1 + 6 sqrt((k+p) p log p)) sigma_{k+1} + 3 sqrt(k+p) tail``
      (probability at least ``1 - 3 p^-p``), and
    * ``(1 + 16 sqrt(1 + k/(p+1))) sigma_{k+1} + 8 sqrt(k+p)/(p+1) tail``
      (probability at least ``1 - 3 e^-p``),

    with ``tail = sqrt(sum_{j>k} sigma_j^2)``.

    Returns
    -------
    (float, float)
        The two right-hand sides.
    """
    sigma = np.asarray(sigma, dtype=float)
    if k >= sigma.size:
        sig_next = 0.0
        tail = 0.0
    else:
        sig_next = sigma[k]
        tail = math.sqrt(float(np.sum(sigma[k:] ** 2)))
    first = (1.0 + 6.0 * math.sqrt((k + p) * p * math.log(p))) * sig_next
    first += 3.0 * math.sqrt(k + p) * tail
    second = (1.0 + 16.0 * math.sqrt(1.0 + k / (p + 1.0))) * sig_next
    second += 8.0 * math.sqrt(k + p) / (p + 1.0) * tail
    return first, second


def exponential_decay_bounds(c0, c1, k, p):
    """Closed-form range-capture bounds for ``sigma_j = c0 * c1**j``.

    The square-summable tail collapses, leaving a bracketed factor times
    ``sigma_{k+1}``.
    """
    if not 0.0 < c1 < 1.0:
        raise ValueError(f"decay ratio c1 must lie in (0, 1), got {c1}")
    sig_next = c0 * c1 ** (k + 1)
    first = (
        1.0
        + 6.0 * math.sqrt((k + p) * p * math.log(p))
        + 3.0 * math.sqrt(k + p) / math.sqrt(1.0 - c1**2)
    ) * sig_next
    second = (
        (1.0 + 16.0 * math.sqrt(1.0 + k / (p + 1.0)))
        + 8.0 * math.sqrt(k + p) / ((p + 1.0) * math.sqrt(1.0 - c1**2))
    ) * sig_next
    return first, second


@dataclass(frozen=True)
class RsvdErrorReport:
    """Measured approximation errors next to their probabilistic bounds.

    ``err_rank_k`` is ``||A - U diag(sigma) V.T||``; ``err_range`` is
    ``||A - Q Q.T A||`` for the regenerated (k+p)-column probe basis.  The
    two bounds apply to ``err_range`` when the factorization used ``q = 0``
    and ``p >= 4`` (see ``bounds_applicable``).
    """

    err_rank_k: float
    err_range: float
    bound_first: float
    bound_second: float
    bounds_applicable: bool


def rsvd_error(A, approx):
    """Audit a factorization: measured errors plus the theoretical bounds.

    The probe basis is regenerated deterministically from the stored seed,
    so no extra state needs to ride along with the factors.
    """
    n, m = A.shape
    cfg = approx.config
    if approx.U.shape[0] != n or approx.V.shape[0] != m:
        raise ValueError(
            f"factors of shape {approx.U.shape}/{approx.V.shape} do not "
            f"match matrix shape {A.shape}"
        )
    err_rank_k = spectral_norm(A - approx.matrix())
    Q = range_basis(A, cfg.k, cfg.p, cfg.seed, cfg.q)
    err_range = spectral_norm(A - Q @ (Q.T @ A))
    sigma = svd_full(A).sigma
    first, second = theorem_spectral_bounds(sigma, cfg.k, cfg.p)
    applicable = cfg.q == 0 and cfg.p >= 4
    return RsvdErrorReport(err_rank_k, err_range, first, second, applicable)
