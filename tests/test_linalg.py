import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsvdreg.linalg import (
    RankDeficiencyWarning,
    SvdTriple,
    pinv,
    qr_thin,
    solve_shifted_gram,
    spectral_norm,
    svd_full,
)


def jacobi_svd(A, tol=1e-14, max_sweeps=60):
    """One-sided Jacobi SVD, the oracle the LAPACK path is checked against.

    Orthogonalizes the columns of a working copy of ``A`` by plane
    rotations.  Slow (O(m^2 n) per sweep) but simple enough to trust
    independently of LAPACK.  Raises ``RuntimeError`` if the sweep loop
    does not converge within ``max_sweeps``.
    """
    A = np.asarray(A, dtype=float)
    transposed = A.shape[0] < A.shape[1]
    W = (A.T if transposed else A).copy()
    n, m = W.shape
    V = np.eye(m)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                app = W[:, p] @ W[:, p]
                aqq = W[:, q] @ W[:, q]
                apq = W[:, p] @ W[:, q]
                if abs(apq) <= tol * np.sqrt(app * aqq):
                    continue
                off = max(off, abs(apq))
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                rot = np.array([[c, s], [-s, c]])
                W[:, [p, q]] = W[:, [p, q]] @ rot
                V[:, [p, q]] = V[:, [p, q]] @ rot
        if off == 0.0:
            break
    else:
        raise RuntimeError(
            f"one-sided Jacobi SVD did not converge for shape {A.shape} "
            f"within {max_sweeps} sweeps"
        )
    sigma = np.linalg.norm(W, axis=0)
    order = np.argsort(-sigma)
    sigma = sigma[order]
    W = W[:, order]
    V = V[:, order]
    U = np.zeros_like(W)
    nonzero = sigma > 0
    U[:, nonzero] = W[:, nonzero] / sigma[nonzero]
    if transposed:
        return SvdTriple(V, sigma, U)
    return SvdTriple(U, sigma, V)


class TestSvdFull:
    def test_diagonal(self):
        tri = svd_full(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(tri.sigma, [3, 2, 1])
        assert np.allclose(np.abs(tri.U), np.eye(3), atol=1e-12)
        assert np.allclose(np.abs(tri.V), np.eye(3), atol=1e-12)

    def test_permutation(self):
        tri = svd_full(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(tri.sigma, [1.0, 1.0])

    def test_matches_jacobi_oracle(self, rng):
        A = rng.standard_normal((7, 5))
        tri = svd_full(A)
        oracle = jacobi_svd(A)
        assert np.allclose(tri.sigma, oracle.sigma, rtol=0, atol=1e-10)

    def test_invariants(self, rng):
        A = rng.standard_normal((9, 6))
        U, s, V = svd_full(A)
        assert np.linalg.norm(U.T @ U - np.eye(6), 2) <= 1e-10
        assert np.linalg.norm(V.T @ V - np.eye(6), 2) <= 1e-10
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.linalg.norm(A - (U * s) @ V.T, 2) <= 1e-8 * s[0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd_full(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match="nonempty"):
            svd_full(np.zeros((0, 3)))


class TestJacobiOracle:
    def test_wide_input(self, rng):
        A = rng.standard_normal((4, 6))
        oracle = jacobi_svd(A)
        assert np.allclose(oracle.sigma, np.linalg.svd(A, compute_uv=False),
                           atol=1e-10)
        assert np.linalg.norm(
            A - (oracle.U * oracle.sigma) @ oracle.V.T, 2) <= 1e-10 * oracle.sigma[0]


class TestQrThin:
    def test_identity(self):
        Q = qr_thin(np.eye(4))
        assert np.allclose(np.abs(Q), np.eye(4))

    def test_single_column(self):
        Q = qr_thin(np.array([[3.0], [4.0]]))
        assert np.allclose(np.abs(Q[:, 0]), [0.6, 0.8])

    def test_projector_property(self, rng):
        A = rng.standard_normal((6, 3))
        Q = qr_thin(A)
        assert np.linalg.norm(Q.T @ Q - np.eye(3), 2) <= 1e-12
        assert np.linalg.norm(Q @ (Q.T @ A) - A, 2) <= 1e-10 * np.linalg.norm(A, 2)

    def test_rank_deficient_warns_and_completes(self, rng):
        A = rng.standard_normal((5, 2))
        A = np.column_stack([A, A[:, 0] + A[:, 1]])
        with pytest.warns(RankDeficiencyWarning):
            Q = qr_thin(A)
        assert np.linalg.norm(Q.T @ Q - np.eye(3), 2) <= 1e-12

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match="rows >= cols"):
            qr_thin(np.ones((2, 3)))


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_orthonormal_columns(self, rng):
        Q = qr_thin(rng.standard_normal((6, 3)))
        assert np.allclose(pinv(Q), Q.T, atol=1e-12)

    def test_product_rule_full_rank_factors(self, rng):
        # (A B)^+ = B^+ A^+ when A has full column rank and B full row rank.
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((3, 5))
        lhs = pinv(A @ B)
        rhs = pinv(B) @ pinv(A)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-8

    def test_zero_matrix(self):
        Z = pinv(np.zeros((2, 3)))
        assert Z.shape == (3, 2) and np.all(Z == 0)

    def test_moore_penrose_conditions(self, rng):
        A = rng.standard_normal((5, 3))
        P = pinv(A)
        tol = 1e-8 * np.linalg.norm(P, 2)
        assert np.linalg.norm(A @ P @ A - A, 2) <= tol * np.linalg.norm(A, 2)
        assert np.linalg.norm(P @ A @ P - P, 2) <= tol
        assert np.linalg.norm((A @ P).T - A @ P, 2) <= tol
        assert np.linalg.norm((P @ A).T - P @ A, 2) <= tol

    def test_rtol_validation(self):
        with pytest.raises(ValueError, match="rtol"):
            pinv(np.eye(2), rtol=2.0)


class TestSpectralNorm:
    def test_values(self, rng):
        assert spectral_norm(np.diag([3.0, 2.0])) == pytest.approx(3.0)
        assert spectral_norm(np.zeros((3, 2))) == 0.0
        A = rng.standard_normal((10, 10))
        assert spectral_norm(A) == pytest.approx(svd_full(A).sigma[0], rel=1e-10)
        # tall and wide take the two Gram matrices
        for X in (
            rng.standard_normal((60, 7)),
            rng.standard_normal((7, 60)),
            rng.standard_normal((30, 3)) @ rng.standard_normal((3, 25)),
            1e-6 * rng.standard_normal((25, 20)),
        ):
            assert spectral_norm(X) == pytest.approx(np.linalg.norm(X, 2), rel=1e-13)
        for shape in ((1, 1), (4, 9), (9, 4), (12, 12)):
            got = spectral_norm(np.zeros(shape))
            assert got == 0.0 and not math.isnan(got)


class TestSolveShiftedGram:
    def test_identity_factors(self):
        out = solve_shifted_gram(np.eye(2), np.array([2.0, 1.0]), 2.0,
                                 np.array([6.0, 3.0]))
        assert np.allclose(out, [1.0, 1.0])

    def test_zero_shift_equals_pinv_solve(self, rng):
        U = qr_thin(rng.standard_normal((6, 3)))
        sigma = np.array([3.0, 2.0, 1.0])
        b = rng.standard_normal(6)
        out = solve_shifted_gram(U, sigma, 0.0, b)
        gram = (U * sigma**2) @ U.T
        assert np.allclose(out, pinv(gram) @ b, atol=1e-10)

    def test_single_mode(self):
        sigma, alpha = 1.7, 0.3
        e1 = np.eye(3)[:, :1]
        out = solve_shifted_gram(e1, np.array([sigma]), alpha, sigma**2 * e1[:, 0])
        assert np.allclose(out, (sigma**2 / (sigma**2 + alpha)) * e1[:, 0])

    def test_zero_sigma_with_zero_shift(self):
        with pytest.raises(ValueError, match=r"sigma\[1\]"):
            solve_shifted_gram(np.eye(2), np.array([1.0, 0.0]), 0.0,
                               np.ones(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31), st.floats(0.01, 10.0), st.floats(-5, 5),
           st.floats(-5, 5))
    def test_linear_in_data(self, seed, alpha, c1, c2):
        r = np.random.default_rng(seed)
        U = qr_thin(r.standard_normal((5, 2)))
        sigma = np.sort(r.uniform(0.1, 3.0, 2))[::-1]
        b1, b2 = r.standard_normal(5), r.standard_normal(5)
        lhs = solve_shifted_gram(U, sigma, alpha, c1 * b1 + c2 * b2)
        rhs = c1 * solve_shifted_gram(U, sigma, alpha, b1) + \
            c2 * solve_shifted_gram(U, sigma, alpha, b2)
        assert np.allclose(lhs, rhs, atol=1e-9 * (1 + abs(c1) + abs(c2)))


class TestMatrixAnalysisProperties:
    def test_singular_value_stability(self):
        # |sigma_i(A+B) - sigma_i(A)| <= ||B|| over seeded pairs.
        for seed in range(50):
            r = np.random.default_rng(seed)
            A = r.standard_normal((8, 6))
            B = r.standard_normal((8, 6)) * r.uniform(0.01, 3.0)
            sa = np.linalg.svd(A, compute_uv=False)
            sab = np.linalg.svd(A + B, compute_uv=False)
            assert np.max(np.abs(sab - sa)) <= np.linalg.norm(B, 2) + 1e-10

    def test_pinv_perturbation_psd_pairs(self):
        # ||A^+ - B^+|| <= ||A^+|| ||B^+|| ||B - A|| for equal-rank
        # symmetric PSD pairs sharing a range.
        for seed in range(50):
            r = np.random.default_rng(seed)
            m, rk = 9, 4
            U = np.linalg.qr(r.standard_normal((m, rk)))[0]
            S1, S2 = r.standard_normal((rk, rk)), r.standard_normal((rk, rk))
            A = U @ (S1 @ S1.T) @ U.T
            B = U @ (S2 @ S2.T) @ U.T
            Ap, Bp = pinv(A), pinv(B)
            lhs = np.linalg.norm(Ap - Bp, 2)
            rhs = np.linalg.norm(Ap, 2) * np.linalg.norm(Bp, 2) * \
                np.linalg.norm(B - A, 2)
            assert lhs <= rhs + 1e-10

    def test_best_rank_k_error(self, rng):
        # || A - A_k || equals sigma_{k+1} for the SVD truncation.
        A = rng.standard_normal((12, 9))
        U, s, V = svd_full(A)
        for k in (1, 3, 6):
            Ak = (U[:, :k] * s[:k]) @ V[:, :k].T
            assert np.linalg.norm(A - Ak, 2) == pytest.approx(s[k], rel=1e-9)
