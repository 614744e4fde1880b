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
penalty's validates ``A``), and its ``B`` is ``A``.  ``L_sharp.T x`` has one
implementation, the row panels of :meth:`WeightedPinvBundle.sharp_t_panels`:
``sharp_t_apply`` writes them into one array, and the direct reference sums
``B B.T`` over the panels of ``L_sharp.T A.T`` with no dense ``B``.  The
solution ``L_sharp z + W (A W)^+ b`` has one assembly,
:meth:`WeightedPinvBundle.sharp_solution`, into a fresh array from a
row-major image block ``z``.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .linalg import as_matrix, default_pinv_rtol, pinv

#: rows of each panel :meth:`WeightedPinvBundle.sharp_t_panels` yields
_PANEL_ROWS = 128

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
            # and d = 2 is row-major: later products round by layout.  The
            # seeded outputs hold it (a row-major d = 1 moves d1's alpha_star),
            # as does the d1 rank sweep's 8.3e-13 test reading (row-major 6.9e-13)
            X = np.zeros_like(Y, shape=(self.m, Y.shape[1]), order="K" if d < 2 else "C")
            X[d:] = Y
            for _ in range(d):
                np.cumsum(X[d:], axis=0, out=X[d:])
            if d == 1:  # W W.T X for the constant W, as a column mean
                X -= X.mean(axis=0, keepdims=True)
            else:
                W = self.null_basis()
                _subtract_product(X, W, W.T @ X)
        return X[:, 0] if y.ndim == 1 else X

    # (L^+).T x = C.T P x in steps that work on row panels of x (see
    # WeightedPinvBundle.sharp_t_panels), with C the d-fold cumulative sum
    # under d zero rows and P the projector out of the null space.

    def _null_part(self, x, rows):
        """What rows ``rows`` of an m-row block, given as ``x``, add to its
        null-space coefficients: their column sums for ``d = 1`` (the
        column mean once divided by m), ``W[rows].T @ x`` for ``d = 2``."""
        return x.sum(axis=0) if self.order == 1 else self.null_basis()[rows].T @ x

    def _project_rows(self, Z, coeffs, rows):
        """Project rows ``rows`` of a block, given as ``Z``, out of the
        null space in place, from the coefficients :meth:`_null_part`
        summed over all of its rows."""
        if self.order == 1:  # W W.T x for the constant W, as a column mean
            Z -= coeffs / self.m
            return Z
        return _subtract_product(Z, self.null_basis()[rows], coeffs)

    def _suffix_sums(self, Z, carry):
        """``d`` reversed cumulative sums of ``Z`` in place: row j becomes
        the sum of rows j onwards.  ``carry`` (d-by-k) holds the sums of the
        rows below ``Z`` at each level: a panel's last row is seeded with
        it, which makes the additions of one sum over all rows in the same
        order, and it is updated for the panel above."""
        for k in range(self.order):
            Z[-1] += carry[k]
            np.cumsum(Z[::-1], axis=0, out=Z[::-1])
            carry[k] = Z[0]
        return Z

    @functools.cached_property
    def _factored(self):
        """``(L^+, null basis)`` of a custom penalty from its one full SVD,
        with the rank under the default cutoff; the factors themselves are
        dropped.  ``L^+`` has the cutoff and product order of
        ``np.linalg.pinv`` (``linalg.pinv``), so that a square penalty gets
        the same bits.  The null basis is a copy of the trailing right
        singular vectors in the layout of ``Vt[rank:].T``."""
        U, sigma, Vt = np.linalg.svd(self._matrix, full_matrices=True)
        rank = int(np.sum(sigma > default_pinv_rtol(self._matrix.shape) * sigma[0]))
        p = sigma.size
        inv = np.zeros_like(sigma)
        inv[:rank] = 1.0 / sigma[:rank]
        return Vt[:p].T @ (inv[:, None] * U[:, :p].T), Vt[rank:].copy().T

    @property
    def _dense_pinv(self):
        """Dense ``L^+`` of a custom penalty."""
        return self._factored[0]

    def null_basis(self):
        """Orthonormal basis of the null space of ``L`` (m-by-d).

        Analytic for the structured kinds: the first ``d`` of the constants
        and the centred linear ramp, as a C-contiguous array (empty for the
        identity).  Custom penalties take the trailing right singular
        vectors of their one full SVD, past the default rank cutoff.
        """
        m, d = self.m, self.order
        if d is None:
            return self._factored[1]
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


def _subtract_product(x, F, v):
    """``x -= F @ v`` in place for a thin ``F`` (rows-by-d), without an
    x-sized temporary: one BLAS ``dgemm`` into a contiguous ``x`` of two
    or more rows and columns, which rounds each entry as ``x - F @ v`` and
    ``x - _outer_t(v, F)`` do.  NumPy takes a vector product for a vector
    or a single row or column, so those subtract ``_outer_t(v, F)``.
    Returns ``x``."""
    if x.ndim == 2 and min(x.shape) > 1 and x.flags.f_contiguous:
        blas.dgemm(-1.0, F, v, beta=1.0, c=x, overwrite_c=1)
    elif x.ndim == 2 and min(x.shape) > 1 and x.flags.c_contiguous:
        blas.dgemm(-1.0, v.T, F.T, beta=1.0, c=x.T, overwrite_c=1)
    else:
        x -= _outer_t(v, F)
    return x


def identity(m):
    return SmoothingOperator("identity", m)


def first_difference(m):
    return SmoothingOperator("first_difference", m)


def second_difference(m):
    return SmoothingOperator("second_difference", m)


def custom(matrix):
    matrix = as_matrix(matrix, "L")
    return SmoothingOperator("custom", matrix.shape[1], matrix)


@dataclass(frozen=True, eq=False)
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
        return _subtract_product(x, self.W, self.E @ x) if self.null_dim else x

    def sharp_t_apply(self, x):
        """``L_sharp.T @ x``: the panels of :meth:`sharp_t_panels` in one
        fresh array in their layout (``x``'s, row-major for a custom kind),
        a single fresh panel itself.  A vector goes in as one column."""
        L = self.L
        x = np.asarray(x, dtype=float)
        if x.shape[0] != L.m:
            raise ValueError(f"expected leading dimension {L.m}, got {x.shape}")
        shape = (L.ell,) + x.shape[1:]
        # the panels hold the only reference to x, so that a temporary x
        # (the X @ A of a left product) goes once they are done with it
        panels = self.sharp_t_panels(x.reshape(L.m, -1))
        del x
        out = P = next(panels)
        if len(P) < L.ell or L.order == 0:
            out = np.empty_like(P, shape=(L.ell, P.shape[1]))
            stop = L.ell
            while P is not None:
                out[stop - len(P):stop] = P
                stop -= len(P)
                P = next(panels, None)
        return out.reshape(shape)

    def sharp_t_panels(self, x):
        """Row panels of ``L_sharp.T @ x`` for an m-by-j ``x`` (such as
        ``A.T``), bottom-up: the one implementation of ``L_sharp.T``.  A
        block wider than ``_PANEL_ROWS`` comes in panels of that many rows
        (the top one may have fewer), so that its ell-by-j result is never
        held whole; a thinner one, whose result is no larger than such a
        panel of a square block, is one panel.  The identity yields ``x``
        itself; the difference kinds yield fresh arrays in ``x``'s layout
        and custom kinds row-major ones, contiguous for a contiguous ``x``
        so that BLAS reads them without a copy.

        The difference kinds take the steps of :class:`SmoothingOperator`
        on the rows of each panel of ``x - E.T (W.T x)``.  Its null-space
        coefficients are summed over all its rows in a first pass, O(m j
        d), and the suffix sums carry from panel to panel, so several
        panels differ from one in rounding only.  Custom kinds take
        ``(L^+)[:, rows].T x`` less the oblique term through the d-by-ell
        ``E L^+``: one product with the dense ``L^+`` and no m-by-j ``x -
        E.T (W.T x)``.
        """
        L, d = self.L, self.L.order
        if d == 0:
            yield x
            return
        # a thin block is one panel: a height no panel reaches
        height = _PANEL_ROWS if x.shape[1] > _PANEL_ROWS else L.m + L.ell
        c = self.W.T @ x
        if d is None:
            EL = self.E @ L._dense_pinv
            for stop in range(L.ell, 0, -height):
                rows = slice(max(stop - height, 0), stop)
                P = L._dense_pinv[:, rows].T @ x
                yield _subtract_product(P, EL[:, rows].T, c) if self.null_dim else P
                del P  # before the next panel is formed
            return

        def oblique(rows):
            """Rows ``rows`` of ``x - E.T c``, fresh in ``x``'s layout."""
            return _subtract_product(np.array(x[rows], order="K"), self.E.T[rows], c)

        # a single panel forms x - E.T c once, for its coefficients and
        # itself (a row range formed apart can round differently, as BLAS
        # takes other kernels for it), and drops x, so a temporary x can go
        whole = None
        if height >= L.m:
            whole, x = oblique(slice(None)), None
        coeffs = (L._null_part(whole, slice(None)) if whole is not None else
                  sum(L._null_part(oblique(rows), rows)
                      for rows in (slice(i, i + height) for i in range(0, L.m, height))))
        carry = np.zeros(c.shape)  # d-by-j
        for stop in range(L.ell, 0, -height):
            # row i of L_sharp.T x sums rows i + d onwards of the projection
            rows = slice(max(stop - height, 0) + d, stop + d)
            Y = oblique(rows) if whole is None else np.array(whole[rows], order="K")
            P = L._suffix_sums(L._project_rows(Y, coeffs, rows), carry)
            yield P
            del P, Y  # before the next panel is formed

    def gamma_apply(self, x):
        """Apply ``Gamma = L_sharp @ L_sharp.T`` (symmetric smoother)."""
        return self.sharp_apply(self.sharp_t_apply(x))

    def w_term(self, b):
        """Null-space component ``W (A W)^+ b`` of the solution."""
        return self.W @ (self.AW_pinv @ b)

    def solution(self, y, b):
        """``Gamma y + W (A W)^+ b`` for ``y = A.T v`` (a vector or columns):
        :meth:`sharp_solution` of ``L_sharp.T y`` copied into a row-major
        block; ``y`` itself for the identity."""
        if self.L.order == 0:
            return y
        Z = np.ascontiguousarray(self.sharp_t_apply(np.reshape(y, (self.L.m, -1))))
        return self.sharp_solution(Z, b).reshape(np.shape(y))

    def sharp_solution(self, z, b):
        """``L_sharp z + W (A W)^+ b`` for an ell-by-k ``z`` such as ``B.T v``:
        the one assembly of the penalized solution, fresh (``z`` itself for
        the identity), from row-major blocks (see ``L.pinv_apply``)."""
        if self.L.order == 0:
            return z
        x = self.sharp_apply(z)
        x += self.w_term(b)[:, None]
        return x


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
