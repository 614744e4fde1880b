import sys

import numpy as np
import pytest

from rsvdreg import smoothing
from rsvdreg.linalg import pinv
from rsvdreg.problems import generate
from rsvdreg.smoothing import (
    KINDS,
    ProductOperator,
    SmoothingOperator,
    custom,
    first_difference,
    form_B,
    identity,
    second_difference,
    weighted_pinv,
)
from rsvdreg.solvers import gen_tikhonov_direct


class TestOperators:
    def test_first_difference_matrix(self):
        L = first_difference(4).matrix()
        assert L.shape == (3, 4)
        assert np.allclose(L @ np.ones(4), 0)
        assert np.allclose(L, [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]])

    def test_second_difference_annihilates_linear(self):
        L = second_difference(6)
        ramp = np.arange(6, dtype=float)
        assert np.allclose(L.apply(np.ones(6)), 0)
        assert np.allclose(L.apply(ramp), 0)
        assert L.shape == (4, 6)

    def test_apply_matches_matrix(self, rng):
        for L in (identity(9), first_difference(9), second_difference(9)):
            x = rng.standard_normal(9)
            assert np.allclose(L.apply(x), L.matrix() @ x)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown penalty kind"):
            SmoothingOperator("third_difference", 5)


class TestNullBasis:
    def test_first_difference(self):
        W = first_difference(4).null_basis()
        assert np.allclose(W, np.full((4, 1), 0.5))

    def test_identity_empty(self):
        assert identity(3).null_basis().shape == (3, 0)

    def test_second_difference_vs_svd_oracle(self):
        L = second_difference(5)
        W = L.null_basis()
        assert np.linalg.norm(L.matrix() @ W, 2) <= 1e-12
        assert np.allclose(W.T @ W, np.eye(2), atol=1e-12)
        # cross-check dimension against the SVD null space
        s = np.linalg.svd(L.matrix(), compute_uv=False)
        assert np.sum(s > 1e-10) == 3

    @pytest.mark.parametrize("make", [identity, first_difference, second_difference])
    def test_bases_are_c_contiguous(self, rng, make):
        """``W`` and the products built from it are C-contiguous: a column
        slice of a stacked basis is strided, and a strided ``W`` moves the
        BLAS products it enters (the first-difference ``e`` of a seeded
        table by 9e-11 relative), so the seeded outputs stop reproducing."""
        A = rng.standard_normal((12, 10))
        L = make(10)
        bundle = weighted_pinv(A, L)
        for arr in (L.null_basis(), bundle.W, bundle.AW_pinv, bundle.E):
            assert arr.flags.c_contiguous
        assert np.array_equal(bundle.W, L.null_basis())

    def test_custom_kernel_via_svd(self):
        M = np.array([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]])
        W = custom(M).null_basis()
        assert W.shape == (3, 2)
        assert np.linalg.norm(M @ W, 2) <= 1e-12


class TestStructuredPinv:
    def test_identity(self, rng):
        y = rng.standard_normal(5)
        assert np.allclose(identity(5).pinv_apply(y), y)

    def test_identity_keeps_layout(self, rng):
        # a transposed block (A.T, (U.T @ A).T) must come back column-major
        # and unchanged, or the products it meets next round differently
        Y = rng.standard_normal((3, 5)).T
        bundle = weighted_pinv(rng.standard_normal((4, 5)), identity(5))
        for got in (identity(5).pinv_apply(Y), bundle.sharp_t_apply(Y)):
            assert got.flags.f_contiguous and np.array_equal(got, Y)
            assert not np.shares_memory(got, Y)

    def test_right_inverse_first_difference(self, rng):
        L = first_difference(8)
        y = rng.standard_normal(7)
        assert np.allclose(L.apply(L.pinv_apply(y)), y, atol=1e-12)

    @pytest.mark.parametrize("make", [identity, first_difference, second_difference])
    def test_matches_dense_pinv(self, rng, make):
        L = make(20)
        y = rng.standard_normal(L.ell)
        dense = pinv(L.matrix()) @ y
        assert np.linalg.norm(L.pinv_apply(y) - dense) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="leading dimension"):
            first_difference(5).pinv_apply(np.ones(5))


class TestCustomPenalty:
    @staticmethod
    def _count_svds(monkeypatch):
        # np.linalg.pinv reaches svd through its defining module, so both
        # bindings are counted
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(a)
            return svd(a, *args, **kwargs)

        for module in {np.linalg, sys.modules.get("numpy.linalg._linalg", np.linalg)}:
            monkeypatch.setattr(module, "svd", counting)
        return calls

    def test_one_svd_per_operator(self, rng, monkeypatch):
        # an invertible penalty: weighted_pinv takes no SVD of A @ W
        M = np.eye(30) - np.eye(30, k=-1)
        A = rng.standard_normal((35, 30))
        calls = self._count_svds(monkeypatch)
        L = custom(M)
        L.null_basis()
        bundle = weighted_pinv(A, L)
        L.pinv_apply(rng.standard_normal(30))
        bundle.sharp_t_apply(rng.standard_normal((30, 3)))
        L.null_basis()
        assert len(calls) == 1

    def test_one_svd_of_the_penalty_with_null_space(self, rng, monkeypatch):
        L = custom(np.diff(np.eye(30), axis=0))
        A = rng.standard_normal((35, 30))
        calls = self._count_svds(monkeypatch)
        bundle = weighted_pinv(A, L)
        bundle.sharp_apply(rng.standard_normal((29, 2)))
        bundle.sharp_t_apply(rng.standard_normal((30, 2)))
        L.null_basis()
        assert sum(a.shape == L.shape for a in calls) == 1

    def test_keeps_no_factor_of_the_penalty(self, rng):
        # the null basis copies the trailing rows of Vt, in the layout of
        # Vt[rank:].T, rather than holding the square U and Vt alive
        m, ell = 50, 48
        L = custom(np.diff(np.eye(m), n=2, axis=0))
        W = L.null_basis()
        L.pinv_apply(rng.standard_normal(ell))
        assert W.shape == (m, 2) and W.strides == (8, 8 * m)
        assert L.null_basis() is W
        held = []
        for value in vars(L).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    held += [arr] if arr.base is None else [arr, arr.base]
        assert not [a.shape for a in held if a.shape in {(m, m), (ell, ell)}]

    @pytest.mark.parametrize("m", [5, 40, 200])
    def test_square_pinv_equals_linalg_pinv(self, rng, m):
        # an invertible penalty has no null space: L_sharp.T is (L^+).T
        for M in (np.eye(m) - np.eye(m, k=-1), rng.standard_normal((m, m))):
            L = custom(M)
            bundle = weighted_pinv(rng.standard_normal((m + 1, m)), L)
            assert bundle.null_dim == 0
            Y = rng.standard_normal((m, 3))
            assert np.array_equal(L.pinv_apply(Y), pinv(M) @ Y)
            assert np.array_equal(bundle.sharp_t_apply(Y), pinv(M).T @ Y)
            assert np.array_equal(bundle.sharp_t_apply(Y[:, 0]), pinv(M).T @ Y[:, 0])

    @pytest.mark.parametrize("make", [
        lambda rng: np.diff(np.eye(200), axis=0),
        lambda rng: rng.standard_normal((30, 50)),
        lambda rng: rng.standard_normal((60, 40)),
    ], ids=["d1_199x200", "wide", "tall"])
    def test_rectangular_pinv_matches_linalg_pinv(self, rng, make):
        M = make(rng)
        dense = custom(M).pinv_apply(np.eye(M.shape[0]))
        ref = pinv(M)
        assert np.linalg.norm(dense - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


class TestWeightedPinv:
    def test_identity_bundle(self, rng):
        A = rng.standard_normal((6, 4))
        bundle = weighted_pinv(A, identity(4))
        assert bundle.null_dim == 0
        assert np.allclose(bundle.L_sharp, np.eye(4))

    def test_square_invertible_custom(self, rng):
        M = np.eye(5) + 0.3 * np.diag(np.ones(4), -1)
        A = rng.standard_normal((7, 5))
        bundle = weighted_pinv(A, custom(M))
        assert np.linalg.norm(bundle.L_sharp - np.linalg.inv(M), 2) <= 1e-10

    def test_oblique_orthogonality(self, rng):
        # The weighted pseudoinverse makes range(A L_sharp) orthogonal to
        # range(A W).
        A = rng.standard_normal((9, 7))
        bundle = weighted_pinv(A, first_difference(7))
        ALs = A @ bundle.L_sharp
        AW = A @ bundle.W
        assert np.linalg.norm(ALs.T @ AW, 2) <= 1e-8 * np.linalg.norm(A, 2) ** 2

    def test_overlapping_null_spaces_rejected(self, rng):
        # A annihilates constants, and so does the first difference.
        A = rng.standard_normal((6, 5))
        A -= A.mean(axis=1, keepdims=True)
        with pytest.raises(ValueError, match="uniqueness"):
            weighted_pinv(A, first_difference(5))

    def test_gamma_symmetry(self, rng):
        A = rng.standard_normal((8, 6))
        bundle = weighted_pinv(A, first_difference(6))
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        assert bundle.gamma_apply(u) @ v == pytest.approx(
            u @ bundle.gamma_apply(v), rel=1e-10)

    def test_solution_decomposition_matches_direct(self, rng):
        # x = L_sharp xi + W (A W)^+ b reproduces the dense minimizer.
        A = rng.standard_normal((10, 8))
        b = rng.standard_normal(10)
        L = first_difference(8)
        bundle = weighted_pinv(A, L)
        alpha = 0.37
        x_direct = gen_tikhonov_direct(A, L, b, alpha, bundle).x
        ALs = A @ bundle.L_sharp
        xi = np.linalg.solve(ALs.T @ ALs + alpha * np.eye(L.ell), ALs.T @ b)
        x_split = bundle.L_sharp @ xi + bundle.w_term(b)
        assert np.linalg.norm(x_split - x_direct) <= 1e-8 * np.linalg.norm(x_direct)


class TestFormB:
    def test_identity_returns_matrix(self, rng):
        A = rng.standard_normal((5, 4))
        assert form_B(A, weighted_pinv(A, identity(4))) is A

    def test_handle_matches_materialized(self, rng):
        A = rng.standard_normal((7, 6))
        bundle = weighted_pinv(A, first_difference(6))
        B = form_B(A, bundle)
        assert isinstance(B, ProductOperator)
        assert B.shape == (7, 5)
        X = rng.standard_normal((5, 3))
        assert np.linalg.norm(B @ X - B.toarray() @ X, 2) <= 1e-10
        assert np.allclose(B.T.toarray(), B.toarray().T)

    def test_adjoint_consistency(self, rng):
        A = rng.standard_normal((7, 6))
        B = form_B(A, weighted_pinv(A, first_difference(6)))
        x, y = rng.standard_normal(5), rng.standard_normal(7)
        assert (B @ x) @ y == pytest.approx(x @ (B.T @ y), rel=1e-10)

    def test_products_from_the_left(self, rng):
        A = rng.standard_normal((7, 6))
        B = form_B(A, weighted_pinv(A, first_difference(6)))
        X, Y = rng.standard_normal((3, 7)), rng.standard_normal((3, 5))
        assert np.allclose(X @ B, X @ B.toarray(), atol=1e-12)
        assert np.allclose(Y @ B.T, Y @ B.toarray().T, atol=1e-12)


def _penalty(kind, m, rng):
    if kind == "custom":
        # a generic penalty with a two-dimensional null space
        return custom(rng.standard_normal((m - 2, m)))
    return SmoothingOperator(kind, m)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestStructuredSharp:
    """The structured applies against the dense formula
    ``L_sharp = L^+ - W (A W)^+ A L^+``."""

    n, m = 50, 40

    @pytest.fixture(params=KINDS)
    def case(self, request, rng):
        A = rng.standard_normal((self.n, self.m))
        L = _penalty(request.param, self.m, rng)
        L_pinv = pinv(L.matrix())
        W = L.null_basis()
        dense = L_pinv - W @ (pinv(A @ W) @ (A @ L_pinv)) if W.shape[1] else L_pinv
        return A, L, L_pinv, dense, weighted_pinv(A, L)

    def test_pinv_t_apply(self, case, rng):
        # L_sharp.T = (L^+).T (I - E.T W.T) is (L^+).T on the complement of
        # the null space, which (L^+).T also annihilates
        _, L, L_pinv, _, bundle = case
        X = rng.standard_normal((self.m, 3))
        W = L.null_basis()
        X_perp = X - W @ (W.T @ X)
        assert _rel(bundle.sharp_t_apply(X_perp), L_pinv.T @ X) <= 1e-12
        assert _rel(bundle.sharp_t_apply(X_perp[:, 0]), L_pinv.T @ X[:, 0]) <= 1e-12

    def test_sharp_applies(self, case, rng):
        _, L, _, dense, bundle = case
        Y = rng.standard_normal((L.ell, 3))
        X = rng.standard_normal((self.m, 3))
        assert _rel(bundle.sharp_apply(Y), dense @ Y) <= 1e-12
        assert _rel(bundle.sharp_t_apply(X), dense.T @ X) <= 1e-12
        assert _rel(bundle.gamma_apply(X), dense @ (dense.T @ X)) <= 1e-12
        assert _rel(bundle.gamma_apply(X[:, 0]), dense @ (dense.T @ X[:, 0])) <= 1e-12
        assert _rel(bundle.L_sharp, dense) <= 1e-12

    def test_form_B(self, case, rng):
        A, L, _, dense, bundle = case
        B = form_B(A, bundle)
        if L.kind == "identity":
            assert B is A
            return
        Bd = A @ dense
        assert _rel(B.toarray(), Bd) <= 1e-12
        assert _rel(B.T.toarray(), Bd.T) <= 1e-12
        Y, X = rng.standard_normal((L.ell, 3)), rng.standard_normal((3, self.n))
        assert _rel(B @ Y, Bd @ Y) <= 1e-12
        assert _rel(X @ B, X @ Bd) <= 1e-12
        assert _rel(B.T @ X.T, Bd.T @ X.T) <= 1e-12
        assert _rel(Y.T @ B.T, Y.T @ Bd.T) <= 1e-12

    @pytest.mark.parametrize("make", [first_difference, second_difference])
    def test_bundle_holds_no_m_by_ell_array(self, rng, make):
        n, m = 30, 20
        A = rng.standard_normal((n, m))
        bundle = weighted_pinv(A, make(m))
        d = bundle.null_dim
        sizes = [bundle.W.size, bundle.AW_pinv.size, bundle.E.size]
        assert sizes == [m * d, d * n, d * m]
        assert "L_sharp" not in vars(bundle)
        form_B(A, bundle).toarray()
        bundle.gamma_apply(rng.standard_normal(m))
        assert "L_sharp" not in vars(bundle)
        assert bundle.L_sharp.shape == (m, m - d)
        assert "L_sharp" in vars(bundle)

    @pytest.mark.parametrize("rows", ["below", "equal", "above"])
    @pytest.mark.parametrize("layout", ["vector", "C", "F"])
    def test_sharp_t_apply_stacks_the_panels(self, case, rng, monkeypatch, layout, rows):
        # sharp_t_apply is the panels of sharp_t_panels in one array, bit
        # for bit, in x's layout (row-major for a custom kind); a block
        # wider than the panel height comes in several panels, a thinner
        # one (and a vector, as one column) in one
        _, L, _, _, bundle = case
        r = {"below": L.ell // 4, "equal": L.ell, "above": L.ell + 5}[rows]
        monkeypatch.setattr(smoothing, "_PANEL_ROWS", r)
        for width in (L.ell + 6, 3):
            x = {"vector": rng.standard_normal(self.m),
                 "C": rng.standard_normal((self.m, width)),
                 "F": rng.standard_normal((width, self.m)).T}[layout]
            X = x.reshape(self.m, -1)
            panels = list(bundle.sharp_t_panels(X))
            thin = X.shape[1] <= r or L.kind == "identity"
            assert len(panels) == (1 if thin else -(-L.ell // r))
            got = bundle.sharp_t_apply(x)
            assert got.shape == (L.ell,) + x.shape[1:]
            assert np.array_equal(got.reshape(L.ell, -1), np.vstack(panels[::-1]))
            assert not np.shares_memory(got, x)
            if x.ndim == 2:
                major = "C" if L.kind == "custom" else layout
                assert got.flags[f"{major}_CONTIGUOUS"]


def _sharp_t_longdouble(bundle, x):
    """``L_sharp.T x = C.T P (x - E.T W.T x)`` in long double, from the
    bundle's ``E`` and ``W``: ``P`` projects out of the null space and
    ``C.T`` takes ``d`` suffix sums and drops the first ``d`` rows."""
    W, E, x = (np.asarray(v, dtype=np.longdouble) for v in (bundle.W, bundle.E, x))
    y = x - E.T @ (W.T @ x)
    y -= W @ (W.T @ y)
    d = bundle.L.order
    for _ in range(d):
        y = np.cumsum(y[::-1], axis=0)[::-1]
    return y[d:]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("make", [first_difference, second_difference])
@pytest.mark.parametrize("name", ["baart", "foxgood", "shaw"])
def test_sharp_t_apply_against_long_double(name, make):
    # L_sharp.T forms x - E.T (W.T x) and projects it out of the null space
    # although E W = I: without the projection, or with the coefficients
    # taken as W.T x - (E W).T (W.T x), the d2 error grows tenfold
    n = 400
    A, _, _ = generate(name, n)
    bundle = weighted_pinv(A, make(n))
    for x in (A.T, A.T[:, ::16]):  # 128-row panels, then one 25-column panel
        want = _sharp_t_longdouble(bundle, x)
        err = np.linalg.norm((bundle.sharp_t_apply(x) - want).astype(float))
        assert err <= 4e-14 * float(np.linalg.norm(want))
