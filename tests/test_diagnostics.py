import functools
import math

import numpy as np
import pytest

from conftest import random_decaying
from rsvdreg import diagnostics, harness, problems
from rsvdreg.diagnostics import (
    BoundCheck,
    BoundTrial,
    check_adjoint_pinv_product,
    check_trsvd_error,
    decay_fit,
    error_report,
    select_alpha,
    run_bound_trial,
)
from rsvdreg.linalg import svd_full
from rsvdreg.problems import InverseProblem, NoiseSpec, generate, make_sourcewise, with_noise
from rsvdreg.rsvd import RsvdConfig, from_exact_svd, rsvd_auto
from rsvdreg.smoothing import custom
from rsvdreg.solvers import Regularization, _range_block, tikhonov_solve_direct


class TestErrorReport:
    def test_all_equal_gives_zeros(self, rng):
        x = rng.standard_normal(6)
        rep = error_report(x, x, x, x)
        assert all(v == 0.0 for v in rep.as_dict().values())

    def test_unit_offset(self, rng):
        x = rng.standard_normal(6)
        e1 = np.zeros(6)
        e1[0] = 1.0
        rep = error_report(x + e1, x, x, x)
        assert rep.e_tilde_xz == pytest.approx(1.0)
        assert rep.e_xz == pytest.approx(1.0)
        assert rep.e_tilde_ij == rep.e == rep.e_ij == 0.0

    def test_matches_independent_norms(self, rng):
        vs = [rng.standard_normal(9) for _ in range(4)]
        rep = error_report(*vs)

        def norm(a, b):
            return math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))

        assert rep.e_tilde_xz == pytest.approx(norm(vs[0], vs[2]), rel=1e-12)
        assert rep.e_tilde_ij == pytest.approx(norm(vs[1], vs[2]), rel=1e-12)
        assert rep.e == pytest.approx(norm(vs[2], vs[3]), rel=1e-12)
        assert rep.e_xz == pytest.approx(norm(vs[0], vs[3]), rel=1e-12)
        assert rep.e_ij == pytest.approx(norm(vs[1], vs[3]), rel=1e-12)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="length mismatch"):
            error_report(np.ones(3), np.ones(3), np.ones(3), np.ones(4))


def _diag_problem(noise_seed=0):
    A = np.diag([2.0, 1.0, 0.5, 0.1])
    x_true = np.array([1.0, -2.0, 0.5, 1.5])
    b_exact = A @ x_true
    b, norm = (b_exact.copy(), 0.0)
    return InverseProblem("diag", A, x_true, b_exact, b, 0.0, noise_seed, norm)


def _errors(prob, solve):
    """Error curve of a per-alpha ``solve``: one error per alpha."""
    return lambda alphas: np.array([np.linalg.norm(solve(a) - prob.x_true)
                                    for a in alphas])


class TestSelectAlpha:
    def test_matches_fine_grid_scan(self):
        prob = _diag_problem()
        prob = with_noise(prob, NoiseSpec(0.05, 3))
        solver = _errors(prob, lambda a: tikhonov_solve_direct(prob.A, prob.b, a).x)
        coarse = (1e-10, 1e2, 60)
        fine = (1e-10, 1e2, 600)
        a_star, _ = select_alpha(prob, solver, coarse)
        a_fine, _ = select_alpha(prob, solver, fine)
        # coarse pick lands within one coarse cell of the fine optimum
        step = (math.log10(1e2) - math.log10(1e-10)) / 59
        assert abs(math.log10(a_star) - math.log10(a_fine)) <= step

    def test_noiseless_prefers_lower_boundary(self):
        prob = _diag_problem()
        solver = _errors(prob, lambda a: tikhonov_solve_direct(prob.A, prob.b, a).x)
        a_star, curve = select_alpha(prob, solver, (1e-8, 1e2, 40))
        assert a_star == pytest.approx(1e-8)
        assert curve.at_lower_boundary and not curve.at_upper_boundary

    def test_tie_breaks_toward_stronger_regularization(self):
        prob = _diag_problem()
        flat = _errors(prob, lambda a: prob.x_true)  # error identically zero
        a_star, _ = select_alpha(prob, flat, (1e-4, 1e2, 13))
        assert a_star == pytest.approx(1e2)

    def test_single_point_grid_rejected(self):
        prob = _diag_problem()
        with pytest.raises(ValueError, match="at least 2"):
            select_alpha(prob, _errors(prob, lambda a: prob.x_true), (1e-4, 1e2, 1))

    def test_nonfinite_points_excluded(self):
        prob = _diag_problem()

        def solver(a):
            if a < 1e-3:
                return np.full(4, np.inf)
            if a < 1e-2:
                return np.full(4, np.nan)
            return prob.x_true + a

        a_star, curve = select_alpha(prob, _errors(prob, solver), (1e-4, 1e2, 25))
        assert curve.excluded and np.isfinite(a_star)
        assert all(not np.isfinite(curve.errors[j]) for j in curve.excluded)
        # an infinite error is recorded as NaN, as a NaN one is
        assert curve.excluded == list(range(8))
        assert np.isnan(curve.errors[curve.excluded]).all()

    def test_deterministic(self):
        prob = _diag_problem()
        prob = with_noise(prob, NoiseSpec(0.05, 3))
        solver = _errors(prob, lambda a: tikhonov_solve_direct(prob.A, prob.b, a).x)
        out1 = select_alpha(prob, solver, (1e-8, 1e2, 50))
        out2 = select_alpha(prob, solver, (1e-8, 1e2, 50))
        assert out1[0] == out2[0]

    @pytest.mark.parametrize("name", ["deriv2", "shaw"])
    @pytest.mark.parametrize("penalty", ["none", "d1", "d2"])
    def test_selection_equals_lone_solves(self, name, penalty):
        # the one block over the grid selects what a loop of lone
        # range-preserving solves selects, under the same tie rule
        n = 120
        prob = problems.make_problem(name, n, NoiseSpec(0.01, 4))
        reg = Regularization(prob.A, harness.make_penalty(penalty, n))
        approx = rsvd_auto(reg.target, RsvdConfig(k=40, p=5, seed=6))
        a_star, curve = harness.alpha_selector(reg, approx)(prob)
        lo, hi, count = diagnostics.default_alpha_grid(approx.sigma[0])
        alphas = np.logspace(math.log10(lo), math.log10(hi), count)
        assert np.array_equal(curve.alphas, alphas)
        errors = np.array([np.linalg.norm(reg.range(approx, prob.b, a).x - prob.x_true)
                           for a in alphas])
        best = 0
        for j in range(1, count):
            if errors[j] <= errors[best]:
                best = j
        assert a_star == curve.alpha_star == alphas[best]
        assert curve.at_lower_boundary == (best == 0)
        assert curve.at_upper_boundary == (best == count - 1)
        assert curve.excluded == []
        assert np.all(np.abs(curve.errors - errors) <= 1e-12 * errors)

    @pytest.mark.parametrize("solve", [
        lambda alphas: np.ones(4),                       # a solution vector
        lambda alphas: np.ones(alphas.size - 1),         # an error short
        lambda alphas: np.ones((alphas.size, 1)),        # a column
        lambda alphas: np.ones((4, alphas.size)),        # a block of solutions
        lambda alphas: np.ones(alphas.size).tolist(),    # not an array
    ], ids=["vector", "short", "transposed", "block", "list"])
    def test_malformed_block_is_named(self, solve):
        # anything but an array of one error per alpha is named, with the
        # problem
        prob = _diag_problem()
        with pytest.raises(ValueError, match=r"shape \(13,\), one error per alpha, for diag"):
            select_alpha(prob, solve, (1e-4, 1e2, 13))


@functools.cache
def _base_problem(name, n):
    return problems.make_problem(name, n)


# every problem under every penalty but deriv2 and foxgood under d2, whose
# ramp x_true lies in the null space of the penalty, so that their curves
# are rounding; plus the explicit factors of a sketch's view and a custom
# penalty with a null space
_CURVE_CASES = [(name, pen, False) for pen in ("none", "d1", "d2")
                for name in problems.PROBLEM_NAMES
                if not (pen == "d2" and name in ("deriv2", "foxgood"))]
_CURVE_CASES += [("phillips", "d1", True), ("shaw", "custom", False)]


@pytest.mark.parametrize("name, penalty, explicit", _CURVE_CASES)
def test_coefficient_curve_matches_the_block(name, penalty, explicit):
    # the curve taken from coefficients agrees with the norms of the
    # explicitly formed block of solutions wherever the error is above the
    # rounding of x_true, noise-free data included, and selects its alpha;
    # the plain expansion ||r||^2 - 2 g.T M.T r + g.T M.T M g does not
    n = 400
    base = _base_problem(name, n)
    L = (custom(np.diff(np.eye(n), 2, axis=0)) if penalty == "custom"
         else harness.make_penalty(penalty, n))
    reg = Regularization(base.A, L)
    [approx] = harness.selection_probe(reg, 100, [], 5, 0, 7)
    if explicit:
        approx = approx.factors()
    for delta in (0.0, 1e-6, 1e-2):
        prob = with_noise(base, NoiseSpec(delta, 3))
        a_star, curve = harness.alpha_selector(reg, approx)(prob)
        X = _range_block(approx, prob.b, curve.alphas, reg.bundle)
        e_block = np.linalg.norm(X - prob.x_true[:, None], axis=0)
        slack = 1e-9 * (e_block + 1e-10 * np.linalg.norm(prob.x_true))
        worst = np.max(np.abs(curve.errors - e_block) / slack)
        assert worst <= 1.0, (delta, worst)
        best = np.flatnonzero(e_block == e_block.min())[-1]
        assert a_star == curve.alphas[best], delta


class TestDecayFit:
    def test_exact_exponential(self):
        sigma = 2.0 * 0.5 ** np.arange(1, 15)
        fit = decay_fit(sigma)
        assert fit.model == "exponential"
        assert fit.params[0] == pytest.approx(2.0, abs=1e-10)
        assert fit.params[1] == pytest.approx(0.5, abs=1e-10)

    def test_exact_algebraic(self):
        sigma = np.arange(1.0, 15.0) ** -2
        fit = decay_fit(sigma)
        assert fit.model == "algebraic"
        assert fit.params[1] == pytest.approx(-2.0, abs=1e-6)

    def test_deriv2_spectrum_classified(self):
        A, _, _ = generate("deriv2", 200)
        s = np.linalg.svd(A, compute_uv=False)
        fit = decay_fit(s[:40])
        assert fit.model == "algebraic"
        assert -2.3 <= fit.params[1] <= -1.7

    def test_too_few_values(self):
        with pytest.raises(ValueError, match="at least 10"):
            decay_fit(np.ones(5))


class TestBoundChecks:
    def test_verdict_slack(self):
        assert BoundCheck("x", 1.0, 1.0, True, 0).passed
        assert BoundCheck("x", 1.0 + 1e-10, 1.0, True, 0).passed
        assert not BoundCheck("x", 1.1, 1.0, True, 0).passed

    def test_trsvd_exact_factors_noise_free(self, rng):
        # With exact rank-k factors and no noise, only the truncation term
        # survives on the right-hand side.
        A = random_decaying(rng, 12, 10, decay=0.5)
        prob = make_sourcewise(A, seed=1)
        svd = svd_full(A)
        k = 4
        trial = BoundTrial(seed=1)
        trial.A, trial.svd, trial.approx, trial.problem = A, svd, from_exact_svd(A, k), prob
        [chk] = check_trsvd_error(trial)
        assert chk.hypotheses_met and chk.passed
        assert chk.rhs == pytest.approx(svd.sigma[k] * prob.w_norm, rel=1e-10)
        assert chk.lhs <= chk.rhs

    def test_adjoint_product_exact_factors(self, rng):
        A = random_decaying(rng, 12, 10, decay=0.5)
        trial = BoundTrial(seed=0)
        trial.A, trial.approx = A, from_exact_svd(A, 4)
        [chk] = check_adjoint_pinv_product(trial)
        assert chk.hypotheses_met and chk.passed
        assert chk.lhs == pytest.approx(1.0, abs=1e-8)

    def test_requires_sourcewise(self, rng):
        A = random_decaying(rng, 8, 6)
        prob = InverseProblem("plain", A, np.ones(6), A @ np.ones(6),
                              A @ np.ones(6), 0.0, 0)
        trial = BoundTrial(seed=0)
        trial.A, trial.approx, trial.problem = A, from_exact_svd(A, 2), prob
        with pytest.raises(ValueError, match="source-type"):
            check_trsvd_error(trial)

    @pytest.mark.parametrize("cid", diagnostics.VERIFY_CHECKS)
    def test_protocol_trials_pass(self, cid):
        for chk in run_bound_trial(cid, BoundTrial(seed=0, n=48)):
            if chk.hypotheses_met:
                assert chk.passed, (cid, chk)

    def test_shared_trial_leaks_no_state(self):
        # A check gives the same records on a trial shared with the other
        # nine, whichever ran before it, as on a trial of its own.
        def run(trial, cids):
            return {cid: run_bound_trial(cid, trial) for cid in cids}

        shared = BoundTrial(seed=3)
        forward = run(shared, diagnostics.VERIFY_CHECKS)
        backward = run(BoundTrial(seed=3), reversed(diagnostics.VERIFY_CHECKS))
        alone = {cid: run_bound_trial(cid, BoundTrial(seed=3))
                 for cid in diagnostics.VERIFY_CHECKS}
        assert forward == backward == alone
        assert run(shared, diagnostics.VERIFY_CHECKS) == alone

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown check id"):
            run_bound_trial("nosuch", BoundTrial(seed=0))

    def test_trial_rejects_large_n(self):
        with pytest.raises(ValueError, match="desk-scale"):
            BoundTrial(seed=0, n=1001)

    @pytest.mark.parametrize("seed", range(5))
    def test_gap_matches_dense_difference(self, seed):
        trial = BoundTrial(seed=seed)
        dense = np.linalg.norm(trial.A_k - trial.approx_matrix, 2)
        assert trial.gap == pytest.approx(dense, rel=1e-9)

    def test_gap_of_exact_factors_vanishes(self):
        trial = BoundTrial(seed=0)
        trial.approx = from_exact_svd(trial.A, 10)
        assert trial.gap <= 1e-14 * trial.svd.sigma[0]

    @pytest.mark.parametrize("seed", range(3))
    def test_adjoint_product_matches_dense_norm(self, seed):
        trial = BoundTrial(seed=seed)
        approx = trial.approx
        M = (trial.A.T @ approx.U) / approx.sigma
        dense = np.linalg.norm(M @ approx.V.T, 2)
        [chk] = check_adjoint_pinv_product(trial)
        assert chk.lhs == pytest.approx(dense, rel=1e-12)

    def test_range_solution_solved_once_per_trial(self, monkeypatch):
        calls = []
        solve = diagnostics.trsvd_solve_range

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(diagnostics, "trsvd_solve_range", counting)
        trial = BoundTrial(seed=2)
        run_bound_trial("trsvd", trial)
        run_bound_trial("tsvd_rel", trial)
        assert len(calls) == 1


def _arrays(*parts):
    """Every array among ``parts``, searched through tuples and attributes."""
    for part in parts:
        if isinstance(part, np.ndarray):
            yield part
        elif isinstance(part, tuple):
            yield from _arrays(*part)
        elif hasattr(part, "__dict__"):
            yield from _arrays(*vars(part).values())


class TestSharedOperator:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        # each test starts from an empty memo and leaves none of its operators
        diagnostics.shared_operator.cache_clear()
        yield
        diagnostics.shared_operator.cache_clear()

    def test_shared_arrays_are_read_only(self):
        op = diagnostics.shared_operator(48)
        op.svd, op.gtikh, op.AAt
        arrays = list(_arrays(op))
        # A, U, V, A A.T, dense B, L, L's U, V.T and pinv
        assert sum(X.shape == (48, 48) for X in arrays) >= 9
        for X in arrays:
            with pytest.raises(ValueError, match="read-only"):
                X[...] = 0.0

    def test_sizes_in_one_process_match_cold_runs(self):
        sizes = (48, 200, 48)
        warm = [harness.verify_run(diagnostics.VERIFY_CHECKS, seeds=2, n=n)
                for n in sizes]
        cold = []
        for n in sizes:
            diagnostics.shared_operator.cache_clear()
            cold.append(harness.verify_run(diagnostics.VERIFY_CHECKS, seeds=2, n=n))
        assert warm == cold

    def test_one_size_stays_resident(self):
        op = diagnostics.shared_operator(48)
        assert diagnostics.shared_operator(48) is op
        assert BoundTrial(seed=5, n=48).operator is op
        diagnostics.shared_operator(40)
        assert diagnostics.shared_operator.cache_info().currsize == 1
        assert diagnostics.shared_operator(48) is not op

    def test_replaced_parts_stay_on_their_trial(self, rng):
        op = diagnostics.shared_operator(48)
        A0, svd0 = op.A, op.svd
        mine, other = BoundTrial(seed=0, n=48), BoundTrial(seed=0, n=48)
        A = random_decaying(rng, 48, 48)
        mine.A = A
        mine.approx = from_exact_svd(A, 10)
        assert mine.A is A and A.flags.writeable
        assert np.array_equal(mine.svd.sigma, svd_full(A).sigma)
        assert other.A is A0 and other.svd is svd0
        assert other.approx.k == 10 and other.approx is not mine.approx
        assert diagnostics.shared_operator(48) is op
        assert op.A is A0 and op.svd is svd0 and "approx" not in vars(op)
        for cid in diagnostics.VERIFY_CHECKS:
            assert run_bound_trial(cid, other) == run_bound_trial(cid, BoundTrial(0, 48))

    def test_gtikh_and_resolvent_read_a_replaced_A(self, monkeypatch):
        # a trial whose A is replaced gives the records of a trial whose
        # shared operator is that A
        A = 2.0 * generate("shaw", 48)[0]
        with monkeypatch.context() as m:
            m.setattr(diagnostics, "generate", lambda name, n: (A.copy(), None, None))
            as_shared = {cid: run_bound_trial(cid, BoundTrial(seed=1, n=48))
                         for cid in ("gtikh", "resolvent")}
        diagnostics.shared_operator.cache_clear()
        trial = BoundTrial(seed=1, n=48)
        trial.A = A
        for cid, records in as_shared.items():
            assert run_bound_trial(cid, trial) == records
            assert run_bound_trial(cid, BoundTrial(seed=1, n=48)) != records
        assert trial.operator.gtikh[2].A is A
