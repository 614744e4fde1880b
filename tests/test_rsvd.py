import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_decaying

from rsvdreg import problems
from rsvdreg.linalg import svd_full, svd_tall
from rsvdreg.rsvd import (
    RankKApprox,
    RsvdConfig,
    exponential_decay_bounds,
    from_exact_svd,
    range_basis,
    refine_singular_values,
    rsvd_auto,
    rsvd_error,
    rsvd_nested,
    rsvd_tall,
    rsvd_wide,
    theorem_spectral_bounds,
)
from rsvdreg.smoothing import SmoothingOperator, form_B, weighted_pinv


def embedded_diag(values, n):
    A = np.zeros((n, len(values)))
    A[: len(values), :] = np.diag(values)
    return A


class TestConfig:
    def test_defaults(self):
        cfg = RsvdConfig(k=3, seed=0)
        assert cfg.p == 5 and cfg.q == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            RsvdConfig(k=0)
        with pytest.raises(ValueError, match="k \\+ p"):
            RsvdConfig(k=3, p=3).validate_shape((10, 4))


class TestTall:
    def test_rank_one_exact_capture(self):
        A = np.zeros((3, 3))
        A[0, 0] = 2.0
        ap = rsvd_tall(A, RsvdConfig(k=1, p=1, seed=11))
        assert ap.sigma[0] == pytest.approx(2.0, abs=1e-10)
        assert np.linalg.norm(A - ap.matrix(), 2) <= 1e-10

    def test_median_accuracy_full_capture(self):
        A = embedded_diag([4.0, 2.0, 1.0, 0.5], 6)
        s1 = [rsvd_tall(A, RsvdConfig(k=2, p=2, seed=s)).sigma[0] for s in range(100)]
        s2 = [rsvd_tall(A, RsvdConfig(k=2, p=2, seed=s)).sigma[1] for s in range(100)]
        assert abs(np.median(s1) - 4.0) <= 0.04
        assert abs(np.median(s2) - 2.0) <= 0.10

    @pytest.mark.parametrize("diag_values,k,p", [
        (np.arange(1, 21, dtype=float) ** -0.5, 3, 2),  # slow decay: q matters
        (np.array([4.0, 2.0, 1.0, 0.5]), 2, 2),         # full capture: q moot
    ])
    def test_power_iteration_improves_capture(self, diag_values, k, p):
        # One power pass must not hurt the median range capture.
        A = np.zeros((len(diag_values) + 2, len(diag_values)))
        A[: len(diag_values)] = np.diag(diag_values)
        def med(q):
            errs = []
            for s in range(100):
                Q = range_basis(A, k, p, s, q=q)
                errs.append(np.linalg.norm(A - Q @ (Q.T @ A), 2))
            return np.median(errs)
        assert med(1) <= med(0) + 1e-14

    def test_invariants_and_projection_identity(self, rng):
        A = rng.standard_normal((12, 7))
        ap = rsvd_tall(A, RsvdConfig(k=4, p=3, seed=5))
        k = ap.k
        assert np.linalg.norm(ap.U.T @ ap.U - np.eye(k), 2) <= 1e-10
        assert np.linalg.norm(ap.V.T @ ap.V - np.eye(k), 2) <= 1e-10
        assert np.all(np.diff(ap.sigma) <= 0)
        lhs = np.linalg.norm(ap.matrix() - ap.U @ (ap.U.T @ A), 2)
        assert lhs <= 1e-10 * np.linalg.norm(A, 2)

    def test_deterministic(self, rng):
        A = rng.standard_normal((10, 6))
        cfg = RsvdConfig(k=3, p=2, q=1, seed=99)
        a1, a2 = rsvd_tall(A, cfg), rsvd_tall(A, cfg)
        assert np.array_equal(a1.U, a2.U)
        assert np.array_equal(a1.sigma, a2.sigma)
        assert np.array_equal(a1.V, a2.V)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 8), st.integers(1, 4),
           st.integers(0, 3), st.integers(0, 2), st.integers(0, 2**31))
    def test_projection_identity_property(self, m, extra, k, p, q, seed):
        # holds for every admissible shape, rank, oversampling and seed
        n = m + extra
        k = min(k, m)
        p = min(p, m - k)
        A = np.random.default_rng(seed).standard_normal((n, m))
        ap = rsvd_tall(A, RsvdConfig(k=k, p=p, q=q, seed=seed))
        lhs = np.linalg.norm(ap.matrix() - ap.U @ (ap.U.T @ A), 2)
        assert lhs <= 1e-10 * np.linalg.norm(A, 2)

    def test_shape_errors(self, rng):
        with pytest.raises(ValueError, match="rows >= cols"):
            rsvd_tall(rng.standard_normal((3, 5)), RsvdConfig(k=1, p=1))
        with pytest.raises(ValueError, match="k \\+ p"):
            rsvd_tall(rng.standard_normal((5, 3)), RsvdConfig(k=3, p=3, seed=0))


class TestWide:
    def test_rank_one_wide(self):
        A = np.zeros((3, 5))
        A[0, 0] = 3.0
        ap = rsvd_wide(A, RsvdConfig(k=1, p=1, seed=2))
        assert ap.sigma[0] == pytest.approx(3.0, abs=1e-12)

    def test_transpose_duality(self, rng):
        A = rng.standard_normal((4, 9))
        cfg = RsvdConfig(k=3, p=1, seed=31)
        w = rsvd_wide(A, cfg)
        t = rsvd_tall(A.T, cfg)
        assert np.allclose(w.U, t.V) and np.allclose(w.V, t.U)
        assert np.array_equal(w.sigma, t.sigma)

    def test_weyl_window(self, rng):
        A = rng.standard_normal((4, 9))
        ap = rsvd_wide(A, RsvdConfig(k=3, p=1, seed=8))
        s = np.linalg.svd(A, compute_uv=False)
        err = np.linalg.norm(A - ap.matrix(), 2)
        assert np.all(np.abs(ap.sigma - s[:3]) <= err + 1e-10)

    def test_wide_projection_identity(self, rng):
        A = rng.standard_normal((5, 11))
        ap = rsvd_wide(A, RsvdConfig(k=3, p=2, seed=4))
        lhs = np.linalg.norm(ap.matrix() - (A @ ap.V) @ ap.V.T, 2)
        assert lhs <= 1e-10 * np.linalg.norm(A, 2)


class TestAutoDispatch:
    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_dispatch(self, rng, shape):
        A = rng.standard_normal(shape)
        cfg = RsvdConfig(k=2, p=1, seed=3)
        auto = rsvd_auto(A, cfg)
        ref = rsvd_tall(A, cfg) if shape[0] >= shape[1] else rsvd_wide(A, cfg)
        assert np.array_equal(auto.U, ref.U)
        assert np.array_equal(auto.sigma, ref.sigma)


def rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestNested:
    KS = [12, 3, 7, 3]  # unsorted, with a duplicate

    @staticmethod
    def target(kind):
        # a moderate decay keeps a powered sample well conditioned, so two
        # factorizations that differ only in rounding agree closely
        A = random_decaying(np.random.default_rng(11), 60, 40, decay=0.9)
        if kind == "wide":
            return A.T
        if kind == "form_B":
            return form_B(A, weighted_pinv(A, SmoothingOperator("first_difference", 40)))
        return A

    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["tall", "wide", "form_B"])
    def test_each_rank_matches_lone_call(self, kind, q):
        M = self.target(kind)
        out = rsvd_nested(M, self.KS, p=5, q=q, seed=4)
        assert [a.k for a in out] == self.KS
        for k, approx in zip(self.KS, out):
            lone = rsvd_auto(M, RsvdConfig(k=k, p=5, q=q, seed=4))
            assert approx.config == lone.config
            assert approx.U.shape == lone.U.shape and approx.V.shape == lone.V.shape
            assert rel(approx.sigma, lone.sigma) <= 1e-12
            assert rel(approx.matrix(), lone.matrix()) <= 1e-12

    @pytest.mark.parametrize("kind", ["tall", "wide"])
    def test_widest_rank_is_the_lone_call(self, kind):
        # same probe, same basis, same sketch: bit for bit
        M = self.target(kind)
        widest = rsvd_nested(M, self.KS, p=5, q=1, seed=4)[0]
        lone = rsvd_auto(M, RsvdConfig(k=12, p=5, q=1, seed=4))
        for name in ("U", "sigma", "V"):
            assert np.array_equal(getattr(widest, name), getattr(lone, name))
        assert widest.probe_rank == lone.probe_rank == 17

    @pytest.mark.parametrize("kind", ["tall", "form_B"])
    def test_views_form_the_nested_factors(self, kind, rng):
        # each view's U and V are, bit for bit, the leading-rows factors of
        # the widest sketch: Q[:, :l] Wtl[:k].T and Z Zm[:, :k] from the SVD
        # of diag(s) Wt[:, :l], and the widest sketch's own for its rank; its
        # coefficient forms give U.T b and V g to rounding
        M = self.target(kind)
        out = rsvd_nested(M, self.KS, p=5, q=1, seed=4)
        Q = range_basis(M, 12, 5, 4, q=1)
        Z, s, Wt = svd_tall((Q.T @ M).T)
        b, g = rng.standard_normal(M.shape[0]), rng.standard_normal((12, 3))
        assert not any({"U", "V"} & vars(view).keys() for view in out)
        for k, view in zip(self.KS, out):
            ell = k + 5
            if k == 12:
                sigma, U, V = s[:k], Q[:, :ell] @ Wt[:k].T, Z[:, :k]
            else:
                Zm, sl, Wtl = svd_tall(s[:, None] * Wt[:, :ell])
                sigma, U, V = sl[:k], Q[:, :ell] @ Wtl[:k].T, Z @ Zm[:, :k]
            assert np.array_equal(view.sigma, sigma)
            assert np.array_equal(view.U, U) and np.array_equal(view.V, V)
            assert view.U is view.U and view.V is view.V
            assert rel(view.left_coefficients(Q.T @ b), U.T @ b) <= 1e-13
            assert rel(Z @ view.lift(g[:k]), V @ g[:k]) <= 1e-13
            factors = view.factors()
            assert factors.U is view.U and factors.V is view.V
            assert factors.left_sketch and factors.probe_rank == view.probe_rank

    def test_duplicates_and_order(self):
        out = rsvd_nested(self.target("tall"), [5, 2, 5], p=2, seed=1)
        assert [a.k for a in out] == [5, 2, 5]
        assert np.array_equal(out[0].U, out[2].U)

    @pytest.mark.parametrize("shape", [(10, 6), (6, 10)])
    def test_too_wide_raises_like_lone_call(self, rng, shape):
        M = rng.standard_normal(shape)
        with pytest.raises(ValueError) as lone:
            rsvd_auto(M, RsvdConfig(k=3, p=4, seed=0))
        with pytest.raises(ValueError) as nested:
            rsvd_nested(M, [1, 3], p=4, seed=0)
        assert str(nested.value) == str(lone.value)

    def test_empty_ranks_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one rank"):
            rsvd_nested(rng.standard_normal((8, 5)), [])

    def test_probe_rank_counts_captured_directions(self, rng):
        # exact rank 4: a sketch of 6 or more rows holds only 4 directions
        A = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 20))
        out = rsvd_nested(A, [1, 4, 8], p=2, seed=0)
        assert [a.probe_rank for a in out] == [3, 4, 4]
        assert from_exact_svd(A, 2).probe_rank is None

    def test_left_sketch_provenance(self, rng):
        # tall-path and exact factors satisfy A.T U = V diag(sigma) and say
        # so; wide-path factors and hand-built ones do not claim it
        tall = rng.standard_normal((30, 20))
        cfg = RsvdConfig(k=5, p=3, seed=1)
        left = [rsvd_tall(tall, cfg), *rsvd_nested(tall, [2, 5], p=3, seed=1),
                from_exact_svd(tall, 5), from_exact_svd(tall.T, 5)]
        for ap in left:
            M = tall if ap.U.shape[0] == 30 else tall.T
            assert ap.left_sketch
            assert np.allclose(M.T @ ap.U, ap.V * ap.sigma, rtol=0, atol=1e-12)
        right = [rsvd_wide(tall.T, cfg), *rsvd_nested(tall.T, [2, 5], p=3, seed=1),
                 RankKApprox(np.eye(3), np.ones(3), np.eye(3), cfg)]
        assert not any(ap.left_sketch for ap in right)

    @pytest.mark.filterwarnings("ignore::rsvdreg.linalg.RankDeficiencyWarning")
    @pytest.mark.parametrize("penalty", [None, "first_difference"])
    def test_probe_rank_cutoffs_match_lone_calls(self, penalty):
        # the narrower ranks take their singular values from a small SVD
        # of the widest sketch's factors; on shaw, whose spectrum runs out
        # inside the probe, the rank cutoffs must not move
        ks = [2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 50, 60]
        A = problems.generate("shaw", 200)[0]
        if penalty:
            A = form_B(A, weighted_pinv(A, SmoothingOperator(penalty, 200)))
        for seed in range(3):
            out = rsvd_nested(A, ks, p=5, seed=seed)
            lone = [rsvd_auto(A, RsvdConfig(k=k, p=5, seed=seed)).probe_rank
                    for k in ks]
            assert [a.probe_rank for a in out] == lone
            assert min(lone) == 7 and max(lone) < 30


class TestRefineSingularValues:
    def test_exact_capture_unchanged(self):
        A = np.zeros((3, 3))
        A[0, 0] = 2.0
        ap = rsvd_tall(A, RsvdConfig(k=1, p=1, seed=0))
        refined = refine_singular_values(A, ap)
        assert refined[0] == pytest.approx(ap.sigma[0], abs=1e-12)

    def test_within_weyl_window(self):
        A = np.diag([4.0, 2.0, 1.0])
        ap = rsvd_tall(A, RsvdConfig(k=2, p=0, seed=1))
        refined = refine_singular_values(A, ap)
        err = np.linalg.norm(A - ap.matrix(), 2)
        assert np.all(np.abs(refined - np.array([4.0, 2.0])) <= err + 1e-10)

    def test_null_direction_gives_zero(self):
        A = np.diag([1.0, 1.0, 0.0])
        fake = RankKApprox(np.eye(3)[:, [2]], np.array([1.0]), np.eye(3)[:, [2]],
                           RsvdConfig(k=1, p=0, seed=0))
        assert refine_singular_values(A, fake)[0] == 0.0

    def test_shape_mismatch(self, rng):
        A = rng.standard_normal((6, 4))
        ap = rsvd_tall(A, RsvdConfig(k=2, p=1, seed=0))
        with pytest.raises(ValueError, match="rows"):
            refine_singular_values(rng.standard_normal((5, 4)), ap)


class TestErrorReportAndBounds:
    def test_exact_capture_zero_error(self):
        # probe width covers the whole range: projector error vanishes,
        # while the spectral bounds (driven by sigma_{k+1}) stay positive
        A = embedded_diag([4.0, 2.0, 0.0, 0.0, 0.0], 8)
        from rsvdreg.linalg import RankDeficiencyWarning

        with pytest.warns(RankDeficiencyWarning):
            ap = rsvd_tall(A, RsvdConfig(k=1, p=4, seed=6))
        with pytest.warns(RankDeficiencyWarning):
            rep = rsvd_error(A, ap)
        assert rep.err_range <= 1e-12
        assert rep.err_rank_k == pytest.approx(2.0, abs=1e-10)
        assert rep.bound_first > 0 and rep.bound_second > 0
        assert rep.bounds_applicable

    def test_bound_formula_matches_hand_evaluation(self):
        sigma = np.array([5.0, 3.0, 2.0, 1.0, 0.5])
        k, p = 2, 4
        first, second = theorem_spectral_bounds(sigma, k, p)
        tail = np.sqrt(np.sum(sigma[k:] ** 2))
        exp_first = (1 + 6 * np.sqrt((k + p) * p * np.log(p))) * sigma[k] \
            + 3 * np.sqrt(k + p) * tail
        exp_second = (1 + 16 * np.sqrt(1 + k / (p + 1))) * sigma[k] \
            + 8 * np.sqrt(k + p) / (p + 1) * tail
        assert first == pytest.approx(exp_first, rel=1e-12)
        assert second == pytest.approx(exp_second, rel=1e-12)

    def test_exponential_decay_closed_form(self):
        # On a geometric spectrum the tail sum collapses; the closed form
        # must agree with the generic bound evaluated on a long spectrum.
        c0, c1, k, p = 2.0, 0.5, 3, 5
        sigma = c0 * c1 ** np.arange(1, 2001)
        generic = theorem_spectral_bounds(sigma, k, p)
        closed = exponential_decay_bounds(c0, c1, k, p)
        assert closed[0] == pytest.approx(generic[0], rel=1e-12)
        assert closed[1] == pytest.approx(generic[1], rel=1e-12)

    def test_probabilistic_bound_holds(self):
        # Proven to hold with probability >= 1 - 3 p^-p ~ 0.999 for p = 5;
        # an empirical failure rate above 3% indicates a bug.
        j = np.arange(1, 31, dtype=float)
        A = np.diag(j**-1.0)
        hits = 0
        for seed in range(100):
            Q = range_basis(A, 8, 5, seed, q=0)
            err = np.linalg.norm(A - Q @ (Q.T @ A), 2)
            first, _ = theorem_spectral_bounds(np.diag(A), 8, 5)
            hits += err <= first
        assert hits >= 97

    def test_median_error_monotone_in_k(self):
        A = embedded_diag([4.0, 2.0, 1.0, 0.5], 6)
        medians = []
        for k in (1, 2, 3):
            errs = [
                np.linalg.norm(A - rsvd_tall(A, RsvdConfig(k=k, p=1, seed=s)).matrix(), 2)
                for s in range(100)
            ]
            medians.append(np.median(errs))
        assert medians[0] >= medians[1] >= medians[2]

    def test_from_exact_svd_matches_truncation(self, rng):
        A = rng.standard_normal((8, 5))
        ap = from_exact_svd(A, 3)
        tri = svd_full(A)
        Ak = (tri.U[:, :3] * tri.sigma[:3]) @ tri.V[:, :3].T
        assert np.allclose(ap.matrix(), Ak)
