import numpy as np
import pytest

from conftest import random_decaying
from rsvdreg.refine import (
    dual_maximizer,
    dual_objective,
    dual_solve,
    iterative_refine,
    primal_objective,
)
from rsvdreg.rsvd import RsvdConfig, from_exact_svd, rsvd_auto
from rsvdreg.smoothing import custom, first_difference, form_B, identity, weighted_pinv
from rsvdreg.solvers import (
    gen_tikhonov_direct,
    rsvd_gen_tikhonov_range,
    tikhonov_solve_direct,
)


def anchored_gradient(m):
    """Square invertible finite-difference penalty."""
    L = np.eye(m)
    idx = np.arange(1, m)
    L[idx, idx - 1] = -0.9
    return custom(L)


@pytest.fixture
def setup(rng):
    n = 24
    A = random_decaying(rng, n, n, decay=0.7)
    b = rng.standard_normal(n)
    L = anchored_gradient(n)
    bundle = weighted_pinv(A, L)
    B = form_B(A, bundle)
    return A, b, L, bundle, B


class TestDualSolve:
    def test_identity_penalty_exact_factors(self, rng):
        A = random_decaying(rng, 12, 12)
        b = rng.standard_normal(12)
        alpha = 0.2
        bundle = weighted_pinv(A, identity(12))
        apx = from_exact_svd(A, 12)
        x = dual_solve(A, bundle, apx, b, alpha).x
        ref = tikhonov_solve_direct(A, b, alpha).x
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_extremality_relations_exact_factors(self, setup):
        A, b, L, bundle, B = setup
        alpha = 0.3
        apx = from_exact_svd(B.toarray(), A.shape[0])
        x = dual_solve(A, bundle, apx, b, alpha).x
        xi = dual_maximizer(apx, b, alpha)
        scale = np.linalg.norm(b)
        Lm = L.matrix()
        assert np.linalg.norm(alpha * (Lm.T @ (Lm @ x)) - A.T @ xi) <= 1e-8 * scale
        assert np.linalg.norm(xi - (b - A @ x)) <= 1e-8 * scale

    def test_matches_range_solver_smooth_component(self, setup):
        A, b, L, bundle, B = setup
        alpha = 0.25
        apx = rsvd_auto(B, RsvdConfig(k=6, p=4, seed=13))
        x_dual = dual_solve(A, bundle, apx, b, alpha).x
        x_range = rsvd_gen_tikhonov_range(A, L, apx, b, alpha, bundle).x
        assert np.linalg.norm(x_dual - x_range) <= 1e-9 * np.linalg.norm(x_range)

    def test_wide_factors_map_through_v_sigma(self, rng):
        A = random_decaying(rng, 10, 16)
        b = rng.standard_normal(10)
        bundle = weighted_pinv(A, anchored_gradient(16))
        apx = rsvd_auto(form_B(A, bundle).toarray(), RsvdConfig(k=4, p=3, seed=5))
        assert not apx.left_sketch
        alpha = 0.3
        x = dual_solve(A, bundle, apx, b, alpha).x
        coeff = apx.sigma * (apx.U.T @ b) / (apx.sigma**2 + alpha)
        ref = bundle.sharp_apply(apx.V @ coeff)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_nonfinite_A_rejected(self, setup):
        A, b, L, bundle, B = setup
        apx = rsvd_auto(B.toarray(), RsvdConfig(k=6, p=4, seed=13))
        A = A.copy()
        A[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dual_solve(A, bundle, apx, b, 0.25)

    def test_duality_gap_vanishes_with_exact_factors(self, setup):
        A, b, L, bundle, B = setup
        alpha = 0.4
        apx = from_exact_svd(B.toarray(), A.shape[0])
        x = dual_solve(A, bundle, apx, b, alpha).x
        xi = dual_maximizer(apx, b, alpha)
        gap = primal_objective(A, L, b, alpha, x) - dual_objective(apx, b, alpha, xi)
        assert abs(gap) <= 1e-8 * (1.0 + abs(primal_objective(A, L, b, alpha, x)))

    def test_requires_trivial_null_space(self, rng):
        A = rng.standard_normal((8, 6))
        L = first_difference(6)
        bundle = weighted_pinv(A, L)
        apx = rsvd_auto(form_B(A, bundle).toarray(), RsvdConfig(k=2, p=2, seed=0))
        with pytest.raises(ValueError, match=r"N\(L\) = \{0\}"):
            dual_solve(A, bundle, apx, b=np.ones(8), alpha=0.1)


class TestIterativeRefine:
    def test_exact_minimizer_is_fixed_point(self, setup):
        A, b, L, bundle, B = setup
        alpha = 0.2
        x_star = gen_tikhonov_direct(A, L, b, alpha, bundle).x
        apx = rsvd_auto(B, RsvdConfig(k=6, p=4, seed=3))
        state = iterative_refine(A, bundle, apx, b, alpha, max_iter=1, x0=x_star)
        assert np.linalg.norm(state.x - x_star) <= 1e-9 * np.linalg.norm(x_star)

    def test_exhaustive_subspace_converges_in_one_step(self, setup):
        A, b, L, bundle, B = setup
        alpha = 0.2
        x_star = gen_tikhonov_direct(A, L, b, alpha, bundle).x
        apx = from_exact_svd(B.toarray(), A.shape[0])
        state = iterative_refine(A, bundle, apx, b, alpha, max_iter=1)
        assert np.linalg.norm(state.x - x_star) <= 1e-8 * np.linalg.norm(x_star)

    def test_geometric_convergence_when_contractive(self):
        reached = 0
        for seed in range(10):
            r = np.random.default_rng(seed)
            n, k = 30, 10
            A = random_decaying(r, n, n, decay=0.7)
            b = r.standard_normal(n)
            L = anchored_gradient(n)
            bundle = weighted_pinv(A, L)
            B = form_B(A, bundle)
            sB = np.linalg.svd(B.toarray(), compute_uv=False)
            alpha = 3.0 * sB[k] ** 2
            x_star = gen_tikhonov_direct(A, L, b, alpha, bundle).x
            apx = rsvd_auto(B, RsvdConfig(k=k, p=5, seed=seed + 100))
            first = iterative_refine(A, bundle, apx, b, alpha, max_iter=1)
            c1 = np.linalg.norm(first.x - x_star) / np.linalg.norm(x_star)
            if c1 >= 1.0:
                continue  # not contractive for this draw: outside the regime
            state = iterative_refine(A, bundle, apx, b, alpha, max_iter=50,
                                     tol=1e-12)
            err = np.linalg.norm(state.x - x_star) / np.linalg.norm(x_star)
            assert err <= 1e-6
            # step sizes shrink geometrically once the map contracts
            h = state.history
            assert h[-1] <= h[0]
            reached += 1
        assert reached >= 8

    def test_update_is_affine(self, setup, rng):
        A, b, L, bundle, B = setup
        alpha = 0.3
        apx = rsvd_auto(B, RsvdConfig(k=6, p=4, seed=21))
        xa, xb = rng.standard_normal(A.shape[1]), rng.standard_normal(A.shape[1])
        lam = 0.3

        def update(x0):
            return iterative_refine(A, bundle, apx, b, alpha, max_iter=1, x0=x0).x

        mix = update(lam * xa + (1 - lam) * xb)
        ref = lam * update(xa) + (1 - lam) * update(xb)
        assert np.linalg.norm(mix - ref) <= 1e-9 * (1 + np.linalg.norm(ref))

    def test_divergence_detected(self, rng):
        n, k = 24, 4
        A = random_decaying(rng, n, n, decay=0.95)  # slow decay: poor capture
        b = rng.standard_normal(n)
        L = anchored_gradient(n)
        bundle = weighted_pinv(A, L)
        B = form_B(A, bundle)
        apx = rsvd_auto(B, RsvdConfig(k=k, p=2, seed=0))
        with pytest.raises(RuntimeError, match="diverging"):
            iterative_refine(A, bundle, apx, b, alpha=1e-6, max_iter=60)

    def test_history_recorded(self, setup):
        A, b, L, bundle, B = setup
        apx = rsvd_auto(B, RsvdConfig(k=8, p=4, seed=2))
        sB = np.linalg.svd(B.toarray(), compute_uv=False)
        state = iterative_refine(A, bundle, apx, b, alpha=3 * sB[8] ** 2,
                                 max_iter=30)
        assert state.iterations == len(state.history)
        assert all(np.isfinite(h) for h in state.history)

    def test_requires_trivial_null_space(self, rng):
        A = rng.standard_normal((8, 6))
        L = first_difference(6)
        bundle = weighted_pinv(A, L)
        apx = rsvd_auto(form_B(A, bundle).toarray(), RsvdConfig(k=2, p=2, seed=0))
        with pytest.raises(ValueError, match="trivial null space"):
            iterative_refine(A, bundle, apx, np.ones(8), alpha=0.1)
