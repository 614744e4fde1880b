"""Smoothness penalty operators and their structured (pseudo)inverses.

The structured penalties are forward differences of order ``d``, with no
boundary rows: the identity (``d = 0``), the first difference (``d = 1``)
and the second difference (``d = 2``).  Each is the ``(m - d)``-by-``m``
matrix ``np.diff(np.eye(m), n=d, axis=0)``; its null space holds the
polynomials of degree below ``d`` (nothing, constants, constants plus a
ramp), and its pseudoinverse is ``d`` cumulative sums followed by a
projection out of that null space, O(m d) per column.  Custom penalties
are dense and factored once: one full SVD gives both their null space and
their pseudoinverse.  The weighted pseudoinverse machinery reduces a
general-penalty least-squares problem to standard form: the penalty's
null-space component is resolved exactly through ``W (A W)^+ b`` while
the smooth component travels through ``L_sharp = (I - W (A W)^+ A) L^+``.
The identity's special cases live here: its ``L^+`` is a copy, its bundle
has no null-space term and is built without reading ``A`` (every other
penalty's validates ``A``), and its ``B`` is ``A``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, default_pinv_rtol, pinv

#: difference order of each penalty kind (``None``: a dense custom matrix)
_ORDERS = {"identity": 0, "first_difference": 1, "second_difference": 2, "custom": None}
KINDS = tuple(_ORDERS)


class SmoothingOperator:
    """Penalty matrix ``L`` with structured apply/solve paths.

    Parameters
    ----------
    kind : str
        One of ``identity``, ``first_difference``, ``second_difference``,
        ``custom``.
    m : int
        Number of columns (solution dimension).
    matrix : ndarray, optional
        Required for ``custom``; ignored otherwise (difference operators
        materialize on demand).

    Attributes
    ----------
    order : int or None
        Difference order ``d`` of a structured kind (0, 1 or 2), also the
        dimension of its null space; ``None`` for ``custom``.
    ell : int
        Number of rows of ``L``: ``m - d``, or the custom matrix's.
    """

    def __init__(self, kind, m, matrix=None):
        if kind not in KINDS:
            raise ValueError(f"unknown penalty kind {kind!r}, expected one of {KINDS}")
        self.kind = kind
        self.m = int(m)
        self.order = d = _ORDERS[kind]
        self._matrix = None
        if d is None:
            self._matrix = as_matrix(matrix, "L")
            if self._matrix.shape[1] != m:
                raise ValueError(
                    f"custom penalty has {self._matrix.shape[1]} columns, expected {m}"
                )
            self.ell = self._matrix.shape[0]
        elif m <= d:
            raise ValueError(f"{kind} needs m >= {d + 1}")
        else:
            self.ell = self.m - d

    @property
    def shape(self):
        return (self.ell, self.m)

    def matrix(self):
        """Materialize ``L`` as a dense array."""
        if self.order is None:
            return self._matrix
        return np.diff(np.eye(self.m), n=self.order, axis=0)

    def apply(self, x):
        """Compute ``L @ x`` (x may be a vector or a stack of columns)."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.m:
            raise ValueError(f"expected leading dimension {self.m}, got {x.shape}")
        if self.order is None:
            return self._matrix @ x
        # np.diff hands back its input for d = 0; the copy keeps x private
        return np.diff(x, n=self.order, axis=0) if self.order else x.copy()

    def pinv_apply(self, y):
        """Compute ``L^+ @ y`` (minimum-norm solution of ``L x = y``).

        Structured kinds take ``d`` cumulative sums under ``d`` zero rows
        (a particular solution) and project the result out of the null
        space, which reproduces the SVD pseudoinverse to rounding; custom
        kinds fall back to a dense pseudoinverse.
        """
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.ell:
            raise ValueError(f"expected leading dimension {self.ell}, got {y.shape}")
        d = self.order
        if d == 0:  # L^+ = I: a private copy in y's layout
            return y.copy(order="K")
        Y = y.reshape(self.ell, -1)
        if d is None:
            X = self._dense_pinv @ Y
        else:
            # d = 1 keeps Y's layout (a transposed block stays column-major)
            # and d = 2 is row-major: later products round by layout, and
            # this is the layout the seeded outputs were produced with
            X = np.zeros_like(Y, shape=(self.m, Y.shape[1]), order="K" if d < 2 else "C")
            X[d:] = Y
            for _ in range(d):
                np.cumsum(X[d:], axis=0, out=X[d:])
            if d == 1:  # W W.T X for the constant W, as a column mean
                X -= X.mean(axis=0, keepdims=True)
            else:
                W = self.null_basis()
                X -= W @ (W.T @ X)
        return X[:, 0] if y.ndim == 1 else X

    def pinv_t_apply(self, x):
        """Compute ``(L^+).T @ x``, the adjoint of :meth:`pinv_apply`.

        For the structured kinds ``L^+ = P C``, with ``C`` the ``d``-fold
        cumulative sum padded by ``d`` leading zero rows and ``P`` the
        projector out of the null space, so ``(L^+).T x = C.T P x``:
        project, drop the ``d`` padded rows and take ``d`` reversed
        cumulative sums.  O(m d) per column; custom kinds use the dense
        pseudoinverse.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.m:
            raise ValueError(f"expected leading dimension {self.m}, got {x.shape}")
        d = self.order
        if d is None:
            return self._dense_pinv.T @ x
        if d == 0:  # L^+ = I: a private copy in x's layout
            return x.copy(order="K")
        if d == 1:  # W W.T x for the constant W, as a column mean
            Z = x[1:] - x.mean(axis=0)
        else:
            W = self.null_basis()
            Z = x[d:] - _outer_t(W.T @ x, W[d:])
        for _ in range(d):  # Z[j] <- sum_{i >= j} Z[i], in place
            np.cumsum(Z[::-1], axis=0, out=Z[::-1])
        return Z

    @functools.cached_property
    def _svd(self):
        """``(U, sigma, Vt, rank)`` of a custom penalty: its one full SVD and
        its numerical rank under the default cutoff, which ``null_basis``
        and the dense pseudoinverse share."""
        U, sigma, Vt = np.linalg.svd(self._matrix, full_matrices=True)
        rank = int(np.sum(sigma > default_pinv_rtol(self._matrix.shape) * sigma[0]))
        return U, sigma, Vt, rank

    @functools.cached_property
    def _dense_pinv(self):
        """Dense ``L^+`` of a custom penalty from the shared SVD, with the
        cutoff and product order of ``np.linalg.pinv`` (``linalg.pinv``),
        so that a square penalty gets the same bits."""
        U, sigma, Vt, rank = self._svd
        p = sigma.size
        inv = np.zeros_like(sigma)
        inv[:rank] = 1.0 / sigma[:rank]
        return Vt[:p].T @ (inv[:, None] * U[:, :p].T)

    def null_basis(self):
        """Orthonormal basis of the null space of ``L`` (m-by-d).

        Analytic for the structured kinds: the first ``d`` of the constants
        and the centred linear ramp, as a C-contiguous array (empty for the
        identity).  Custom penalties take the trailing right singular
        vectors of their one full SVD, past the default rank cutoff.
        """
        m, d = self.m, self.order
        if d is None:
            _, _, Vt, rank = self._svd
            return Vt[rank:].T
        basis = np.empty((m, d))
        basis[:, :1] = 1.0 / np.sqrt(m)  # no column for d = 0
        if d == 2:
            ramp = np.arange(m, dtype=float)
            ramp -= ramp.mean()
            ramp /= np.linalg.norm(ramp) or 1.0  # m = 1 has no ramp to scale
            basis[:, 1] = ramp
        return basis


def _outer_t(v, F):
    """``F @ v`` for a thin ``F`` (rows-by-d), formed as ``(v.T @ F.T).T``
    so that it comes out column-major, the layout of the transposed blocks
    (``A.T``, ``(X @ A).T``) it is subtracted from: mixed layouts make the
    subtraction several times slower."""
    return (v.T @ F.T).T


def identity(m):
    return SmoothingOperator("identity", m)


def first_difference(m):
    return SmoothingOperator("first_difference", m)


def second_difference(m):
    return SmoothingOperator("second_difference", m)


def custom(matrix):
    matrix = as_matrix(matrix, "L")
    return SmoothingOperator("custom", matrix.shape[1], matrix)


@dataclass(frozen=True)
class WeightedPinvBundle:
    """Standard-form reduction data for a pair ``(A, L)``.

    Holds only O((n + m) d) numbers, ``d`` the null-space dimension of
    ``L``, and applies the A-weighted pseudoinverse
    ``L_sharp = (I - W E) L^+`` with ``E = (A W)^+ A`` through the
    structured ``L^+`` of the penalty: each of :meth:`sharp_apply`,
    :meth:`sharp_t_apply` and :meth:`gamma_apply` costs O(m k d) on an
    m-by-k (or ell-by-k) block for the difference kinds.

    Attributes
    ----------
    L : SmoothingOperator
    W : ndarray, shape (m, d)
        Orthonormal null-space basis of ``L``.
    AW_pinv : ndarray, shape (d, n)
        Pseudoinverse of ``A @ W``.
    E : ndarray, shape (d, m)
        ``AW_pinv @ A``, the oblique part of ``L_sharp``.
    """

    L: SmoothingOperator
    W: np.ndarray
    AW_pinv: np.ndarray
    E: np.ndarray

    @property
    def null_dim(self):
        return self.W.shape[1]

    @functools.cached_property
    def L_sharp(self):
        """Dense ``L_sharp`` (m-by-ell), formed on first access.  The
        solvers never read it; they use the structured applies."""
        return self.sharp_apply(np.eye(self.L.ell))

    def sharp_apply(self, y):
        """``L_sharp @ y = L^+ y - W (E L^+ y)``."""
        x = self.L.pinv_apply(y)
        if self.null_dim:
            x -= self.W @ (self.E @ x)
        return x

    def sharp_t_apply(self, x):
        """``L_sharp.T @ x = (L^+).T (x - E.T (W.T x))``."""
        if self.null_dim:
            x = x - _outer_t(self.W.T @ x, self.E.T)
        return self.L.pinv_t_apply(x)

    def gamma_apply(self, x):
        """Apply ``Gamma = L_sharp @ L_sharp.T`` (symmetric smoother)."""
        return self.sharp_apply(self.sharp_t_apply(x))

    def w_term(self, b):
        """Null-space component ``W (A W)^+ b`` of the solution."""
        return self.W @ (self.AW_pinv @ b)

    def solution(self, y, b):
        """``Gamma y + W (A W)^+ b`` for ``y = A.T v`` (a vector or columns,
        all for the data ``b``); ``y`` itself for the identity."""
        return y if self.L.order == 0 else self.sharp_solution(self.sharp_t_apply(y), b)

    def sharp_solution(self, z, b):
        """``L_sharp z + W (A W)^+ b`` for ``z = B.T v = L_sharp.T A.T v``,
        so ``L_sharp z = Gamma A.T v``; ``z`` itself for the identity."""
        if self.L.order == 0:
            return z
        w = self.w_term(b)
        return self.sharp_apply(z) + (w if z.ndim == 1 else w[:, None])


def weighted_pinv(A, L):
    """Build the standard-form reduction bundle for ``(A, L)``.

    Costs O(n m d) for a null space of dimension ``d``: the products
    ``A @ W`` and ``E = (A W)^+ A``.  ``A`` is never multiplied by an
    m-by-ell matrix; ``L_sharp`` is applied through its factors (see
    :class:`WeightedPinvBundle`).

    Requires the null spaces of ``A`` and ``L`` to intersect trivially,
    checked as ``sigma_min(A @ W) > 1e-10 * ||A||_F``; otherwise the
    penalized problem has no unique minimizer and a ``ValueError`` is
    raised.  The Frobenius norm bounds the spectral norm from above, so
    the check is at least as strict as one scaled by ``||A||_2``.

    When ``L`` has a trivial null space the bundle degenerates to
    ``L_sharp = L^+``; the identity's ``L_sharp = Gamma = I`` is built from
    ``A``'s shape alone, without reading or validating ``A``.
    """
    if L.order != 0:
        A = as_matrix(A)
    n, m = np.shape(A)
    if m != L.m:
        raise ValueError(f"A has {m} columns but L expects {L.m}")
    W = L.null_basis()
    if W.shape[1] == 0:
        return WeightedPinvBundle(L, W, np.zeros((0, n)), np.zeros((0, m)))
    AW = A @ W
    sv = np.linalg.svd(AW, compute_uv=False)
    scale = np.linalg.norm(A, "fro")
    if sv.size == 0 or sv[-1] <= 1e-10 * scale:
        raise ValueError(
            "uniqueness assumption violated: N(A) and N(L) intersect "
            f"nontrivially (sigma_min(A @ W) = {0.0 if sv.size == 0 else sv[-1]:.3e} "
            f"<= 1e-10 * ||A||_F = {1e-10 * scale:.3e})"
        )
    AW_pinv = pinv(AW)
    return WeightedPinvBundle(L, W, AW_pinv, AW_pinv @ A)


class ProductOperator:
    """Lazy ``B = A @ L_sharp`` exposing just enough of the ndarray
    protocol (``shape``, ``@`` on either side, ``.T``) for the randomized
    SVD pipeline.  Every product is one product with ``A`` plus the
    bundle's structured applies, never a product with a dense
    ``L_sharp``."""

    # makes ``ndarray @ operator`` defer to __rmatmul__
    __array_ufunc__ = None

    def __init__(self, A, bundle):
        self.A = A
        self.bundle = bundle
        self.shape = (A.shape[0], bundle.L.ell)

    def __matmul__(self, X):
        return self.A @ self.bundle.sharp_apply(X)

    def __rmatmul__(self, X):
        # X @ A @ L_sharp = (L_sharp.T @ (X @ A).T).T
        return self.bundle.sharp_t_apply((X @ self.A).T).T

    @property
    def T(self):
        return _TransposedProductOperator(self)

    def toarray(self):
        """Dense ``B``, formed as ``(L_sharp.T @ A.T).T`` in O(n m d)."""
        return self.bundle.sharp_t_apply(self.A.T).T


class _TransposedProductOperator:
    __array_ufunc__ = None

    def __init__(self, parent):
        self.parent = parent
        self.shape = (parent.shape[1], parent.shape[0])

    def __matmul__(self, Y):
        return self.parent.bundle.sharp_t_apply(self.parent.A.T @ Y)

    def __rmatmul__(self, X):
        # X @ L_sharp.T @ A.T = (L_sharp @ X.T).T @ A.T
        return self.parent.bundle.sharp_apply(X.T).T @ self.parent.A.T

    @property
    def T(self):
        return self.parent

    def toarray(self):
        return self.parent.toarray().T


def form_B(A, bundle):
    """Operator handle for ``B = A @ L_sharp``.

    Returns ``A`` itself for the identity penalty; otherwise a lazy
    :class:`ProductOperator` whose products cost one product with ``A``
    plus O(m k d).  ``.toarray()`` forms the dense ``B`` in O(n m d).
    """
    if bundle.L.order == 0:
        return A
    return ProductOperator(A, bundle)


def dense_B(A, bundle):
    """Dense ``B``: ``A`` itself for the identity, else formed in O(n m d)."""
    B = form_B(A, bundle)
    return B if B is A else B.toarray()
