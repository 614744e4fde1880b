import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_decaying
from rsvdreg import harness, problems, smoothing, solvers
from rsvdreg.diagnostics import default_alpha_grid
from rsvdreg.linalg import shifted_gram_coeffs, solve_shifted_gram, svd_full
from rsvdreg.rsvd import (RankKApprox, RsvdConfig, from_exact_svd, rsvd_auto,
                          rsvd_nested)
from rsvdreg.smoothing import (custom, first_difference, form_B, identity,
                               second_difference, weighted_pinv)
from rsvdreg.solvers import (
    Regularization,
    direct_gram,
    _range_block,
    gen_tikhonov_direct,
    rsvd_gen_tikhonov_projected,
    rsvd_gen_tikhonov_range,
    rsvd_tikhonov_projected,
    rsvd_tikhonov_range,
    tikhonov_solve_direct,
    trsvd_solve_projected,
    trsvd_solve_range,
    tsvd_solve,
)


class TestTsvd:
    def test_hand_evaluated_spectral_sum(self):
        svd = svd_full(np.diag([3.0, 2.0, 1.0]))
        x = tsvd_solve(svd, 2, np.array([3.0, 4.0, 5.0])).x
        assert np.allclose(x, [1.0, 2.0, 0.0])

    def test_full_rank_inverts(self, rng):
        A = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        b = rng.standard_normal(5)
        x = tsvd_solve(svd_full(A), 5, b).x
        assert np.allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_orthogonal_data_gives_zero(self):
        svd = svd_full(np.diag([3.0, 2.0, 1.0]))
        b = np.array([0.0, 0.0, 5.0])  # orthogonal to u_1, u_2
        assert np.allclose(tsvd_solve(svd, 2, b).x, 0.0)

    def test_rank_overflow_names_cutoff(self):
        svd = svd_full(np.diag([1.0, 1e-20, 0.0]))
        with pytest.raises(ValueError, match="numerical rank"):
            tsvd_solve(svd, 3, np.ones(3))


class TestTrsvdProjected:
    def test_exact_factors_match_tsvd(self, rng):
        A = random_decaying(rng, 8, 8)
        b = rng.standard_normal(8)
        k = 4
        xk = tsvd_solve(svd_full(A), k, b).x
        xh = trsvd_solve_projected(from_exact_svd(A, k), b).x
        assert np.linalg.norm(xk - xh) <= 1e-10 * np.linalg.norm(xk)

    def test_rank_one_least_squares(self, rng):
        u = np.array([0.6, 0.8, 0.0])
        v = np.array([1.0, 0.0])
        A = 2.0 * np.outer(u, v)
        b = rng.standard_normal(3)
        ap = rsvd_auto(A, RsvdConfig(k=1, p=1, seed=0))
        x = trsvd_solve_projected(ap, b).x
        assert np.allclose(x, np.linalg.lstsq(A, b, rcond=None)[0], atol=1e-10)

    def test_zero_sigma_rejected(self):
        ap = RankKApprox(np.eye(2), np.array([1.0, 0.0]), np.eye(2),
                         RsvdConfig(k=2, p=0))
        with pytest.raises(ValueError, match="positive singular values"):
            trsvd_solve_projected(ap, np.ones(2))

    def test_relative_distance_to_tsvd_within_bound(self, rng):
        # Randomized vs exact truncated solutions stay within
        # 4 (1 + s1/sk) ||A_k - Ak_tilde|| / sk of each other when the
        # factorization error is below sk / 2.
        for seed in range(5):
            r = np.random.default_rng(seed)
            A = random_decaying(r, 20, 20, decay=0.4)
            b = r.standard_normal(20)
            k = 5
            svd = svd_full(A)
            ap = rsvd_auto(A, RsvdConfig(k=k, p=5, q=2, seed=seed))
            err = np.linalg.norm(A - ap.matrix(), 2)
            assert err < svd.sigma[k - 1] / 2
            Ak = (svd.U[:, :k] * svd.sigma[:k]) @ svd.V[:, :k].T
            gap = np.linalg.norm(Ak - ap.matrix(), 2)
            xk = tsvd_solve(svd, k, b).x
            xh = trsvd_solve_range(A, ap, b).x
            rel = np.linalg.norm(xk - xh) / np.linalg.norm(xk)
            assert rel <= 4 * (1 + svd.sigma[0] / svd.sigma[k - 1]) * gap / svd.sigma[k - 1] + 1e-9


class TestTrsvdRange:
    def test_exact_factors_match_tsvd(self, rng):
        A = random_decaying(rng, 9, 7)
        b = rng.standard_normal(9)
        k = 4
        xk = tsvd_solve(svd_full(A), k, b).x
        xt = trsvd_solve_range(A, from_exact_svd(A, k), b).x
        assert np.linalg.norm(xk - xt) <= 1e-10 * np.linalg.norm(xk)

    def test_orthogonal_matrix_full_rank(self, rng):
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        b = rng.standard_normal(5)
        x = trsvd_solve_range(Q, from_exact_svd(Q, 5), b).x
        assert np.allclose(x, Q.T @ b, atol=1e-10)

    def test_vanishing_shift_limit(self, rng):
        A = random_decaying(rng, 10, 10)
        b = rng.standard_normal(10)
        ap = rsvd_auto(A, RsvdConfig(k=4, p=3, seed=2))
        x0 = trsvd_solve_range(A, ap, b).x
        xa = rsvd_tikhonov_range(A, ap, b, 1e-14 * ap.sigma[0] ** 2).x
        assert np.linalg.norm(x0 - xa) <= 1e-8 * np.linalg.norm(x0)


class TestTikhonovDirect:
    def test_identity_matrix(self):
        x = tikhonov_solve_direct(np.eye(2), np.array([2.0, 4.0]), 1.0).x
        assert np.allclose(x, [1.0, 2.0])

    def test_diagonal_closed_form(self):
        x = tikhonov_solve_direct(np.diag([2.0, 1.0]), np.array([6.0, 3.0]), 2.0).x
        assert np.allclose(x, [2.0, 1.0])

    def test_norm_decreases_with_shift(self, rng):
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        norms = [np.linalg.norm(tikhonov_solve_direct(A, b, a).x)
                 for a in np.logspace(-3, 3, 13)]
        assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms, norms[1:]))

    @pytest.mark.parametrize("shape", [(9, 5), (5, 9), (6, 6)])
    def test_primal_dual_agreement(self, rng, shape):
        A = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        alpha = 0.3
        x = tikhonov_solve_direct(A, b, alpha).x
        ref = np.linalg.solve(A.T @ A + alpha * np.eye(shape[1]), A.T @ b)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_rejects_nonpositive_alpha(self, rng):
        with pytest.raises(ValueError, match="alpha"):
            tikhonov_solve_direct(np.eye(2), np.ones(2), 0.0)

    @pytest.mark.parametrize("shape", [(9, 5), (5, 9)])
    def test_shared_gram_matches_and_is_kept(self, rng, shape):
        A = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        gram = direct_gram(A, weighted_pinv(A, identity(shape[1])))
        kept = gram.copy()
        for alpha in (0.3, 1e-4):
            x = tikhonov_solve_direct(A, b, alpha, gram=gram).x
            ref = tikhonov_solve_direct(A, b, alpha).x
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(gram, kept)


class TestTikhonovProjected:
    def test_exact_diagonal_top_modes(self):
        A = np.diag([2.0, 1.0])
        b = np.array([6.0, 3.0])
        x = rsvd_tikhonov_projected(from_exact_svd(A, 2), b, 2.0).x
        assert np.allclose(x, tikhonov_solve_direct(A, b, 2.0).x, atol=1e-12)

    def test_orthogonal_data_gives_zero(self, rng):
        A = np.diag([3.0, 2.0, 1.0])
        ap = from_exact_svd(A, 2)
        b = np.array([0.0, 0.0, 1.0])
        assert np.allclose(rsvd_tikhonov_projected(ap, b, 0.5).x, 0.0)

    def test_vanishing_shift_limit(self, rng):
        A = random_decaying(rng, 8, 8)
        b = rng.standard_normal(8)
        ap = rsvd_auto(A, RsvdConfig(k=3, p=2, seed=4))
        x0 = trsvd_solve_projected(ap, b).x
        xa = rsvd_tikhonov_projected(ap, b, 1e-14 * ap.sigma[0] ** 2).x
        assert np.linalg.norm(xa - x0) <= 1e-8 * np.linalg.norm(x0)


class TestTikhonovRange:
    def test_exact_full_rank_matches_direct(self):
        A = np.diag([2.0, 1.0])
        b = np.array([6.0, 3.0])
        x = rsvd_tikhonov_range(A, from_exact_svd(A, 2), b, 2.0).x
        assert np.allclose(x, [2.0, 1.0], atol=1e-12)

    def test_empty_factors_give_zero(self):
        ap = RankKApprox(np.zeros((4, 0)), np.zeros(0), np.zeros((4, 0)),
                         RsvdConfig(k=1, p=0))
        x = rsvd_tikhonov_range(np.eye(4), ap, np.ones(4), 0.5).x
        assert np.allclose(x, 0.0)

    def test_error_to_direct_shrinks_with_rank(self, rng):
        A = random_decaying(rng, 20, 20, decay=0.75)
        b = rng.standard_normal(20)
        alpha = 0.05
        x_dir = tikhonov_solve_direct(A, b, alpha).x
        errs = []
        for k in (2, 8, 16):
            ap = rsvd_auto(A, RsvdConfig(k=k, p=4, q=1, seed=7))
            errs.append(np.linalg.norm(
                rsvd_tikhonov_range(A, ap, b, alpha).x - x_dir))
        assert errs[2] < errs[1] < errs[0]

    def test_range_preservation(self, rng):
        # Solutions live in range(A.T) even for rank-deficient A.
        A = random_decaying(rng, 10, 8)
        A[:, -2:] = 0.0  # null directions
        b = rng.standard_normal(10)
        ap = rsvd_auto(A, RsvdConfig(k=3, p=2, seed=5))
        x = rsvd_tikhonov_range(A, ap, b, 0.1).x
        tri = svd_full(A)
        rank = int(np.sum(tri.sigma > 1e-12 * tri.sigma[0]))
        P = tri.V[:, :rank] @ tri.V[:, :rank].T
        assert np.linalg.norm(x - P @ x) <= 1e-8 * np.linalg.norm(x)


class TestGenTikhonovDirect:
    def test_identity_penalty_reduces_to_standard(self, rng):
        A = rng.standard_normal((7, 5))
        b = rng.standard_normal(7)
        x1 = gen_tikhonov_direct(A, identity(5), b, 0.4).x
        x2 = tikhonov_solve_direct(A, b, 0.4).x
        assert np.linalg.norm(x1 - x2) <= 1e-10 * np.linalg.norm(x2)

    def test_null_space_data_recovered_exactly(self, rng):
        # With b in range(A W), the null-space term reproduces the
        # penalty-free component and the smooth part vanishes.
        A = rng.standard_normal((9, 6))
        L = first_difference(6)
        bundle = weighted_pinv(A, L)
        c = rng.standard_normal(1)
        b = (A @ bundle.W) @ c
        x = gen_tikhonov_direct(A, L, b, 0.7, bundle).x
        assert np.allclose(x, bundle.W @ c, atol=1e-8)
        ref = np.linalg.solve(
            A.T @ A + 0.7 * (L.matrix().T @ L.matrix()), A.T @ b)
        assert np.allclose(x, ref, atol=1e-8)

    def test_matches_normal_equations(self, rng):
        A = rng.standard_normal((30, 30))
        b = rng.standard_normal(30)
        for L in (first_difference(30), custom(np.eye(30) - 0.5 * np.diag(np.ones(29), 1))):
            alpha = 0.2
            x = gen_tikhonov_direct(A, L, b, alpha).x
            Lm = L.matrix()
            ref = np.linalg.solve(A.T @ A + alpha * (Lm.T @ Lm), A.T @ b)
            assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


class TestBorrowedGram:
    """A direct solve handed ``gram`` shifts and factors it in place and
    gives it back bit for bit, also when the factorization fails."""

    @pytest.mark.parametrize("n", [5, 128, 300])
    def test_kept_and_same_solution(self, rng, n):
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        for L in (identity(n), first_difference(n)):
            bundle = weighted_pinv(A, L)
            gram = direct_gram(A, bundle)
            kept = gram.copy()
            for alpha in (1e-2, 1.0):
                x = gen_tikhonov_direct(A, L, b, alpha, bundle, gram=gram).x
                assert np.array_equal(gram, kept)
                assert np.array_equal(
                    x, gen_tikhonov_direct(A, L, b, alpha, bundle).x)

    @pytest.mark.parametrize("fails_at", ["first", "last"])
    def test_kept_after_failed_factorization(self, rng, fails_at):
        n = 300
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        if fails_at == "first":
            gram = -np.eye(n)
        else:
            # SPD but for the last leading minor: the factorization writes
            # all of the lower triangle before it fails
            gram = direct_gram(A, weighted_pinv(A, identity(n)))
            gram[-1, -1] = -gram[-1, -1]
        kept = gram.copy()
        with pytest.raises(np.linalg.LinAlgError, match="shifted dual Gram"):
            tikhonov_solve_direct(A, b, 0.5, gram=gram)
        assert np.array_equal(gram, kept)

    def test_read_only_gram_is_refused_unchanged(self, rng):
        A = rng.standard_normal((6, 6))
        gram = direct_gram(A, weighted_pinv(A, identity(6)))
        kept = gram.copy()
        gram.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            tikhonov_solve_direct(A, rng.standard_normal(6), 0.1, gram=gram)
        assert np.array_equal(gram, kept)


@pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
@pytest.mark.parametrize("penalty", ["none", "d1", "d2", "custom"])
def test_direct_gram_is_symmetric_bit_for_bit(name, penalty):
    # a borrowed Gram matrix is restored from its upper triangle
    n = 72
    A = problems.make_problem(name, n).A
    L = {"none": identity(n), "d1": first_difference(n),
         "d2": second_difference(n),
         "custom": custom(np.eye(n) - 0.5 * np.eye(n, k=1))}[penalty]
    gram = direct_gram(A, weighted_pinv(A, L))
    assert np.array_equal(gram, gram.T)


def _panel_rows(ell, which):
    """A panel height below ``ell``, equal to it, above it, or below it and
    not dividing it."""
    return {"below": ell // 4, "equal": ell, "above": ell + 5,
            "ragged": next(r for r in range(ell // 3, ell) if ell % r)}[which]


@pytest.mark.parametrize("shape", [(40, 40), (60, 40), (30, 50)],
                         ids=["square", "tall", "wide"])
@pytest.mark.parametrize("penalty", ["d1", "d2", "custom"])
@pytest.mark.parametrize("rows", ["below", "equal", "above", "ragged"])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_direct_gram_sums_the_panels_of_B(monkeypatch, shape, penalty, rows, layout):
    # B.T comes in row panels, bottom-up, and their syrk sum is B @ B.T
    rng = np.random.default_rng(21)
    n, m = shape
    A = rng.standard_normal(shape)
    if layout == "F":
        A = np.asfortranarray(A)
    # the custom penalty has a three-dimensional null space
    L = {"d1": first_difference(m), "d2": second_difference(m),
         "custom": custom(rng.standard_normal((m - 3, m)))}[penalty]
    bundle = weighted_pinv(A, L)
    B = form_B(A, bundle).toarray()
    r = _panel_rows(L.ell, rows)
    monkeypatch.setattr(smoothing, "_PANEL_ROWS", r)
    panels = list(bundle.sharp_t_panels(A.T))
    assert len(panels) == -(-L.ell // r)
    assert all(P.shape == (r, n) for P in panels[:-1])
    assert all(P.flags.f_contiguous or P.flags.c_contiguous for P in panels)
    BT = np.vstack(panels[::-1])
    assert np.linalg.norm(BT - B.T) <= 1e-13 * np.linalg.norm(B)
    gram = direct_gram(A, bundle)
    assert gram.flags.c_contiguous and np.array_equal(gram, gram.T)
    ref = B @ B.T
    assert np.linalg.norm(gram - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("penalty", ["none", "d1", "d2", "custom"])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_direct_gram_copies_no_panel(penalty, layout):
    # BLAS reads every panel in place, also the row-major A.T of a
    # column-major A: the Gram matrix and one panel of 128 rows (0.21 n^2
    # at n = 600) are all that is allocated, where a copy of a panel would
    # add 0.21 n^2 (1 n^2 for the identity's A.T)
    n = 600
    A = np.random.default_rng(5).standard_normal((n, n))
    if layout == "F":
        A = np.asfortranarray(A)
    L = {"none": identity(n), "d1": first_difference(n),
         "d2": second_difference(n),
         "custom": custom(np.eye(n) - 0.5 * np.eye(n, k=1))}[penalty]
    bundle = weighted_pinv(A, L)
    tracemalloc.start()
    try:
        gram = direct_gram(A, bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.35 * 8 * n * n
    assert gram.flags.c_contiguous
    if penalty == "none":
        assert np.array_equal(gram, A @ A.T)


@pytest.mark.parametrize("penalty", ["none", "d1", "d2", "custom"])
def test_range_block_is_the_assembly_of_its_images(penalty, rng):
    # the block of left-sketch factors is bit for bit the one assembly of
    # their image V diag(sigma) C, and that assembly is L_sharp z + W (A W)^+ b
    n, m = 60, 50
    A = random_decaying(rng, n, m)
    b = rng.standard_normal(n)
    L = {"none": identity(m), "d1": first_difference(m),
         "d2": second_difference(m),
         "custom": custom(rng.standard_normal((m - 2, m)))}[penalty]
    reg = Regularization(A, L)
    approxes = [rsvd_auto(reg.target, RsvdConfig(k=k, p=4, seed=2)) for k in (5, 9)]
    assert all(ap.left_sketch for ap in approxes)
    alphas = np.array([1e-4, 1e-2, 1.0])
    Z = [ap.V @ (ap.sigma * shifted_gram_coeffs(
        (ap.U.T @ b)[:, None], ap.sigma[:, None], alphas).T).T for ap in approxes]
    for ap, z in zip(approxes, Z):
        X = reg.block(ap, b, alphas)
        assert np.array_equal(X, reg.bundle.sharp_solution(z, b))
        ref = reg.bundle.L_sharp @ z + reg.bundle.w_term(b)[:, None]
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [(7, 5), (7, 1), (1, 5), (7,), (0, 3)])
@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("d", [1, 2])
def test_subtract_product_in_place_rounds_as_the_product(shape, layout, d, rng):
    # the in-place dgemm gives the bits of x - F @ v and x - _outer_t(v, F)
    x = rng.standard_normal(shape)
    if layout == "F":
        x = np.asfortranarray(x)
    F = rng.standard_normal((shape[0], d))
    v = rng.standard_normal((d,) + shape[1:]) * 1e3
    ref, ref_t = x - F @ v, x - smoothing._outer_t(v, F)
    got = smoothing._subtract_product(x, F, v)
    assert got is x
    assert np.array_equal(got, ref) and np.array_equal(got, ref_t)


class TestGenTikhonovRandomized:
    def test_projected_identity_penalty_consistency(self, rng):
        A = random_decaying(rng, 10, 8)
        b = rng.standard_normal(10)
        ap = rsvd_auto(A, RsvdConfig(k=4, p=3, seed=6))
        xh1 = rsvd_gen_tikhonov_projected(ap, identity(8), b, 0.3).x
        xh2 = rsvd_tikhonov_projected(ap, b, 0.3).x
        assert np.array_equal(xh1, xh2)

    def test_range_identity_penalty_reduces(self, rng):
        A = random_decaying(rng, 10, 8)
        b = rng.standard_normal(10)
        bundle = weighted_pinv(A, identity(8))
        ap = rsvd_auto(A, RsvdConfig(k=4, p=3, seed=6))
        x1 = rsvd_gen_tikhonov_range(A, identity(8), ap, b, 0.3, bundle).x
        x2 = rsvd_tikhonov_range(A, ap, b, 0.3).x
        assert np.linalg.norm(x1 - x2) <= 1e-10 * np.linalg.norm(x2)

    def test_exact_factors_match_direct(self, rng):
        A = rng.standard_normal((12, 10))
        b = rng.standard_normal(12)
        L = first_difference(10)
        bundle = weighted_pinv(A, L)
        B = form_B(A, bundle).toarray()
        alpha = 0.15
        apB = from_exact_svd(B, min(B.shape))
        x1 = rsvd_gen_tikhonov_range(A, L, apB, b, alpha, bundle).x
        x2 = gen_tikhonov_direct(A, L, b, alpha, bundle).x
        assert np.linalg.norm(x1 - x2) <= 1e-8 * np.linalg.norm(x2)

    def test_shared_gram_matches_and_is_kept(self, rng):
        A = rng.standard_normal((12, 10))
        b = rng.standard_normal(12)
        L = first_difference(10)
        bundle = weighted_pinv(A, L)
        gram = direct_gram(A, bundle)
        kept = gram.copy()
        x = gen_tikhonov_direct(A, L, b, 0.15, bundle, gram=gram).x
        ref = gen_tikhonov_direct(A, L, b, 0.15, bundle).x
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(gram, kept)

    def test_smooth_component_in_weighted_range(self, rng):
        A = rng.standard_normal((12, 10))
        b = rng.standard_normal(12)
        L = first_difference(10)
        bundle = weighted_pinv(A, L)
        B = form_B(A, bundle)
        apB = rsvd_auto(B, RsvdConfig(k=4, p=3, seed=9))
        x = rsvd_gen_tikhonov_range(A, L, apB, b, 0.15, bundle).x
        smooth = x - bundle.w_term(b)
        # the smooth component lies in range(Gamma A.T) by construction
        GAt = bundle.gamma_apply(A.T)
        coeff, *_ = np.linalg.lstsq(GAt, smooth, rcond=None)
        assert np.linalg.norm(GAt @ coeff - smooth) <= \
            1e-8 * np.linalg.norm(smooth)


class TestAdjointPinvProductWindow:
    def test_product_norm_bounded_under_accuracy_hypothesis(self):
        # || A.T (Ak_tilde.T)^+ || <= 2 whenever ||A - Ak_tilde|| <= sk/2.
        for seed in range(50):
            r = np.random.default_rng(seed)
            A = random_decaying(r, 15, 12, decay=0.55)
            k = 4
            ap = rsvd_auto(A, RsvdConfig(k=k, p=5, q=1, seed=seed))
            sk = np.linalg.svd(A, compute_uv=False)[k - 1]
            if np.linalg.norm(A - ap.matrix(), 2) > sk / 2:
                continue
            M = (A.T @ ap.U) / ap.sigma
            assert np.linalg.norm(M @ ap.V.T, 2) <= 2.0 + 1e-8


class TestRangePath:
    def test_block_matches_single_alpha_solvers(self, rng):
        A = random_decaying(rng, 14, 12)
        b = rng.standard_normal(14)
        alphas = (1e-6, 1e-2, 1.0)
        ap = rsvd_auto(A, RsvdConfig(k=5, p=3, seed=2))
        L = first_difference(12)
        bundle = weighted_pinv(A, L)
        apB = rsvd_auto(form_B(A, bundle), RsvdConfig(k=5, p=3, seed=2))
        eye = Regularization(A, identity(12))
        X = eye.block(ap, b, alphas)
        gen_X = Regularization(A, L).block(apB, b, alphas)
        assert X.shape == gen_X.shape == (12, 3)
        for j, alpha in enumerate(alphas):
            x = rsvd_tikhonov_range(A, ap, b, alpha).x
            assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x)
            x = rsvd_gen_tikhonov_range(A, L, apB, b, alpha, bundle).x
            assert np.linalg.norm(gen_X[:, j] - x) <= 1e-12 * np.linalg.norm(x)
        with pytest.raises(ValueError, match="alpha"):
            eye.block(ap, b, (1.0, 0.0))


class TestRegularization:
    """Each method of the class is its public general solver, bit for bit,
    and for the identity also the order-0 entry point; a projected solve
    never builds the bundle."""

    @pytest.fixture(params=[(name, pen) for name in ("deriv2", "shaw")
                            for pen in ("none", "d1", "d2")],
                    ids=lambda c: "-".join(c))
    def case(self, request):
        name, penalty = request.param
        n = 40
        prob = problems.make_problem(name, n, problems.NoiseSpec(0.01, 3))
        L = harness.make_penalty(penalty, n)
        bundle = weighted_pinv(prob.A, L)
        cfg = RsvdConfig(k=8, p=5, q=0, seed=4)
        return (prob.A, prob.b, L, bundle, rsvd_auto(prob.A, cfg),
                rsvd_auto(form_B(prob.A, bundle), cfg))

    def test_methods_equal_public_solvers(self, case):
        A, b, L, bundle, ap, apT = case
        reg = Regularization(A, L)
        alphas = np.array([1e-6, 1e-3, 0.1])
        direct = gen_tikhonov_direct(A, L, b, 1e-3, bundle).x
        rng_ = rsvd_gen_tikhonov_range(A, L, apT, b, 1e-3, bundle).x
        # Gamma A.T U C of tall-path factors is L_sharp V diag(sigma) C
        C = shifted_gram_coeffs((apT.U.T @ b)[:, None], apT.sigma[:, None], alphas)
        block = bundle.sharp_solution(apT.V @ (apT.sigma * C.T).T, b)
        assert np.array_equal(reg.direct(b, 1e-3).x, direct)
        assert np.array_equal(reg.direct(b, 1e-3, gram=reg.gram).x, direct)
        assert np.array_equal(reg.gram, direct_gram(A, bundle))
        assert np.array_equal(reg.range(apT, b, 1e-3).x, rng_)
        X = reg.block(apT, b, alphas)
        assert np.array_equal(X, block)
        x = reg.block(apT, b, [1e-3])
        assert np.array_equal(x[:, 0], rng_)
        assert np.array_equal(X, _range_block(A, apT, b, alphas, bundle))
        if L.order == 0:
            # the one identity choice: the projected closed form
            proj = rsvd_tikhonov_projected(ap, b, 1e-3).x
            assert np.array_equal(direct, tikhonov_solve_direct(A, b, 1e-3).x)
            assert np.array_equal(rng_, rsvd_tikhonov_range(A, apT, b, 1e-3).x)
            assert reg.target is A
        else:
            proj = rsvd_gen_tikhonov_projected(ap, L, b, 1e-3).x
            B = reg.target.toarray()
            assert np.array_equal(B, form_B(A, bundle).toarray())
        assert np.array_equal(reg.projected(ap, b, 1e-3).x, proj)

    def test_projected_never_builds_the_bundle(self, case, monkeypatch):
        A, b, L, _, ap, _ = case
        built = []
        real = smoothing.weighted_pinv
        monkeypatch.setattr(smoothing, "weighted_pinv",
                            lambda A, L: built.append(L.kind) or real(A, L))
        reg = Regularization(A, L)
        reg.projected(ap, b, 1e-3)
        assert built == []
        reg.range(rsvd_auto(reg.target, RsvdConfig(k=8, p=5, seed=4)), b, 1e-3)
        reg.direct(b, 1e-3)
        assert built == [L.kind]


class _ShapeOnly:
    """Stands in for a matrix: it has a shape, and counts every other
    attribute read and every conversion to an array."""

    def __init__(self, shape):
        self.shape = shape
        self.reads = 0

    def __getattr__(self, name):
        self.reads += 1
        raise AttributeError(name)

    def __array__(self, *args, **kwargs):
        self.reads += 1
        raise TypeError("read")


def test_identity_bundle_never_validates_or_reads_A(monkeypatch):
    invertible = custom(np.eye(20) - np.eye(20, k=-1))
    checked = []
    real = smoothing.as_matrix
    monkeypatch.setattr(smoothing, "as_matrix",
                        lambda A, name="A": checked.append(name) or real(A, name))
    A = _ShapeOnly((30, 20))
    reg = Regularization(A, identity(20))
    assert reg.target is A
    assert reg.bundle.null_dim == 0
    assert reg.bundle.AW_pinv.shape == (0, 30) and reg.bundle.E.shape == (0, 20)
    assert checked == [] and A.reads == 0
    # a custom invertible penalty also has no null space, but validates A
    assert weighted_pinv(np.ones((30, 20)), invertible).null_dim == 0
    assert checked == ["A"]


@pytest.mark.parametrize("layout", ["vector", "C", "F"])
def test_order_zero_bundle_is_the_identity(layout, rng):
    # the identity's order-0 bundle: its applies return x bit for bit as a
    # private array in x's layout, the null-space term is zero (so the
    # solution is the smooth part itself), B is A, and the direct Gram
    # matrix is A @ A.T
    n, m = 12, 9
    A = rng.standard_normal((n, m))
    bundle = weighted_pinv(A, identity(m))
    x = {"vector": rng.standard_normal(m),
         "C": rng.standard_normal((m, 4)),
         "F": rng.standard_normal((4, m)).T}[layout]
    for apply in (bundle.sharp_apply, bundle.sharp_t_apply, bundle.gamma_apply):
        got = apply(x)
        assert np.array_equal(got, x) and not np.shares_memory(got, x)
        assert got.flags.c_contiguous == x.flags.c_contiguous
        assert got.flags.f_contiguous == x.flags.f_contiguous
    b = rng.standard_normal(n)
    w = bundle.w_term(b)
    assert w.shape == (m,) and not np.any(w)
    assert bundle.solution(x, b) is x
    assert form_B(A, bundle) is A
    # one panel, A.T itself
    AT = A.T
    [panel] = bundle.sharp_t_panels(AT)
    assert panel is AT
    gram = direct_gram(A, bundle)
    assert gram.flags.c_contiguous and np.array_equal(gram, A @ A.T)


@pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
def test_identity_bundle_path_equals_bundleless_path(name):
    # the identity's bundle degenerates to Gamma = I with no null-space
    # term, and its block over the alpha grid is the bundle-less arithmetic
    # V (Sigma (Sigma^2 + alpha)^-1 U.T b) of the tall-path identity
    # A.T U = V Sigma, bit for bit
    n = 64
    prob = problems.make_problem(name, n, problems.NoiseSpec(0.01, 1))
    A, b = prob.A, prob.b
    bundle = weighted_pinv(A, identity(n))
    ap = rsvd_auto(A, RsvdConfig(k=20, p=5, seed=2))
    lo, hi, count = default_alpha_grid(ap.sigma[0])
    alphas = np.logspace(np.log10(lo), np.log10(hi), count)
    X = _range_block(A, ap, b, alphas, bundle)
    C = shifted_gram_coeffs((ap.U.T @ b)[:, None], ap.sigma[:, None], alphas)
    assert np.array_equal(X, ap.V @ (ap.sigma * C.T).T)


@pytest.mark.parametrize("penalty", ["none", "d1", "d2"])
def test_back_transform_equals_product_form(penalty):
    # on full-rank tall-path sketches, L_sharp V (sigma * c) + W (A W)^+ b
    # equals Gamma A.T U c + W (A W)^+ b: the lone solvers and the block.
    # Below alpha ~ 1e-5 sigma_1^2 the product
    # form's own rounding, amplified by 1/(sigma_k^2 + alpha), exceeds
    # 1e-12 with d2 (1.4e-12 at 1e-6 sigma_1^2, 3.4e-12 at 1e-8)
    n = 64
    prob = problems.make_problem("deriv2", n, problems.NoiseSpec(0.01, 2))
    A, b = prob.A, prob.b
    reg = Regularization(A, harness.make_penalty(penalty, n))
    approxes = rsvd_nested(reg.target, [6, 20], p=5, seed=3)
    assert all(ap.left_sketch and ap.probe_rank == ap.k + 5 for ap in approxes)
    # the same factors without the flag take the product with A.T
    ref = [replace(ap.factors(), left_sketch=False) for ap in approxes]

    def close(x, y):
        return np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    alphas = np.array([1e-5, 1e-3, 1e-1]) * approxes[1].sigma[0] ** 2
    for ap, ap_ref in zip(approxes, ref):
        assert close(reg.block(ap, b, alphas), reg.block(ap_ref, b, alphas))
        for alpha in alphas:
            assert close(reg.range(ap, b, alpha).x, reg.range(ap_ref, b, alpha).x)
    if penalty == "none":
        for ap, ap_ref in zip(approxes, ref):
            assert close(trsvd_solve_range(A, ap, b).x,
                         trsvd_solve_range(A, ap_ref, b).x)


@pytest.mark.parametrize("penalty", ["none", "d1", "d2"])
def test_rank_errors_match_explicit_solutions(penalty):
    # the errors of every rank of a sketch, taken in its bases, agree with
    # the norms of the explicitly formed solutions at the sweep's scalings
    # of the selected alpha and three decades beyond them
    n = 200
    ks = [2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 50, 60]
    base = problems.make_problem("deriv2", n)
    reg = Regularization(base.A, harness.make_penalty(penalty, n))
    for seed in range(2):
        prob = problems.with_noise(base, problems.NoiseSpec(0.01, seed))
        select, *ranks = harness.selection_probe(reg, 100, ks, 5, 0, seed + 7)
        alpha_star, _ = harness.alpha_selector(reg, select)(prob)
        alphas = alpha_star * np.array([1.0, 10.0, 0.1, 1e3, 1e-3])
        errors = solvers.rank_errors(ranks, reg.bundle, prob.b, prob.x_true, alphas)
        assert errors.shape == (len(ks), alphas.size)
        for rank, errs in zip(ranks, errors):
            X = reg.block(rank, prob.b, alphas)
            e = np.linalg.norm(X - prob.x_true[:, None], axis=0)
            assert np.all(np.abs(errs - e) <= 1e-12 * e), (seed, rank.k)


@pytest.mark.parametrize("penalty", ["none", "d1"])
def test_wide_factors_take_the_product(penalty, rng):
    # wide-path factors do not satisfy A.T U = V Sigma; they go through one
    # product with A.T, bit for bit the arithmetic of the product form
    n, m = 30, 50
    A = random_decaying(rng, n, m)
    b = rng.standard_normal(n)
    L = harness.make_penalty(penalty, m)
    reg = Regularization(A, L)
    bundle = reg.bundle
    ap = rsvd_auto(reg.target, RsvdConfig(k=6, p=4, seed=1))
    assert not ap.left_sketch
    alphas = np.array([1e-3, 1e-1])
    for alpha in alphas:
        v = solve_shifted_gram(ap.U, ap.sigma, alpha, b)
        assert np.array_equal(reg.range(ap, b, alpha).x,
                              bundle.solution(A.T @ v, b))
        x = reg.block(ap, b, [alpha])
        assert np.array_equal(x[:, 0], bundle.solution(A.T @ v, b))
    Y = ap.U @ shifted_gram_coeffs((ap.U.T @ b)[:, None], ap.sigma[:, None],
                                   alphas)
    X = reg.block(ap, b, alphas)
    assert np.array_equal(X, bundle.solution((Y.T @ A).T, b))
    if penalty == "none":
        assert np.array_equal(trsvd_solve_range(A, ap, b).x,
                              A.T @ solve_shifted_gram(ap.U, ap.sigma, 0.0, b))


@pytest.mark.parametrize("penalty", ["none", "d1", "d2", "custom"])
def test_wide_range_block_is_the_product_form_solution(penalty, rng):
    # the block of wide-path factors is bit for bit the solution of the
    # product form A.T U C, assembled as bundle.solution assembles Gamma y
    n, m = 30, 50
    A = random_decaying(rng, n, m)
    b = rng.standard_normal(n)
    L = {"none": identity(m), "d1": first_difference(m),
         "d2": second_difference(m),
         "custom": custom(rng.standard_normal((m - 2, m)))}[penalty]
    reg = Regularization(A, L)
    approxes = [rsvd_auto(reg.target, RsvdConfig(k=k, p=4, seed=3)) for k in (4, 7)]
    assert not any(ap.left_sketch for ap in approxes)
    alphas = np.array([1e-4, 1e-2, 1.0])
    Y = [ap.U @ shifted_gram_coeffs((ap.U.T @ b)[:, None], ap.sigma[:, None], alphas)
         for ap in approxes]
    for ap, Yi in zip(approxes, Y):
        X = reg.block(ap, b, alphas)
        assert np.array_equal(X, reg.bundle.solution((Yi.T @ A).T, b))


@pytest.mark.parametrize("call, penalty, where", [
    ("tikhonov_solve_direct", "none", "A"), ("tikhonov_solve_direct", "none", "b"),
    ("gen_tikhonov_direct", "d1", "A"), ("gen_tikhonov_direct", "d1", "b"),
    ("direct_gram", "none", "A"), ("direct_gram", "d1", "A"),
    ("weighted_pinv", "d1", "A"), ("weighted_pinv", "custom", "A"),
    ("rsvd_gen_tikhonov_range", "d1", "A"),
    ("rsvd_gen_tikhonov_range", "d1", "b"),
    ("rsvd_gen_tikhonov_range", "custom", "A"),
    ("rsvd_gen_tikhonov_range", "custom", "b"),
])
def test_nonfinite_input_rejected(call, penalty, where, rng):
    # every solver that reads A densely rejects a non-finite entry; the
    # range solver's A is validated by the bundle it builds (bundle=None)
    n = m = 10
    A, b = rng.standard_normal((n, m)), rng.standard_normal(n)
    L = {"none": identity(m), "d1": first_difference(m),
         "custom": custom(np.eye(m) - np.eye(m, k=-1))}[penalty]
    ap = from_exact_svd(A, 4)
    bundle = weighted_pinv(A, L)
    if where == "A":
        A = A.copy()
        A[3, 2] = np.nan
    else:
        b = b.copy()
        b[1] = np.inf
    calls = {
        "tikhonov_solve_direct": lambda: tikhonov_solve_direct(A, b, 0.1),
        "gen_tikhonov_direct": lambda: gen_tikhonov_direct(A, L, b, 0.1),
        "direct_gram": lambda: direct_gram(A, bundle),
        "weighted_pinv": lambda: weighted_pinv(A, L),
        "rsvd_gen_tikhonov_range": lambda: rsvd_gen_tikhonov_range(
            A, L, ap, b, 0.1, None),
    }
    with pytest.raises(ValueError, match="non-finite"):
        calls[call]()
