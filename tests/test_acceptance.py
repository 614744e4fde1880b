"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(plus per-cell detail where applicable) before asserting.  Protocols are
fully seeded and deterministic.
"""

import numpy as np

from conftest import random_decaying
from rsvdreg import harness
from rsvdreg.linalg import svd_full
from rsvdreg.refine import iterative_refine
from rsvdreg.rsvd import RsvdConfig, from_exact_svd, rsvd_auto
from rsvdreg.smoothing import custom, first_difference, form_B, weighted_pinv
from rsvdreg.solvers import (
    gen_tikhonov_direct,
    rsvd_gen_tikhonov_range,
    rsvd_tikhonov_range,
    tikhonov_solve_direct,
    trsvd_solve_range,
    tsvd_solve,
)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")


# Reference error-table values the desk-scale runs are compared against
# (measured at n=5000; identity penalty, columns e / e_xz / e_ij).
TABLE1 = {
    ("baart", 0.01): (1.68e-1, 1.68e-1, 1.68e-1),
    ("baart", 0.05): (2.11e-1, 2.11e-1, 2.11e-1),
    ("deriv2", 0.01): (1.18e-1, 1.20e-1, 1.13e-1),
    ("deriv2", 0.05): (1.59e-1, 1.60e-1, 1.62e-1),
    ("foxgood", 0.01): (4.93e-1, 4.93e-1, 4.93e-1),
    ("foxgood", 0.05): (1.18e0, 1.18e0, 1.18e0),
    ("gravity", 0.01): (7.86e-1, 7.86e-1, 7.86e-1),
    ("gravity", 0.05): (2.63e0, 2.63e0, 2.63e0),
    ("heat", 0.01): (9.56e-1, 1.67e0, 1.50e0),
    ("heat", 0.05): (2.02e0, 1.70e0, 1.99e0),
    ("phillips", 0.01): (6.28e-2, 6.19e-2, 6.24e-2),
    ("phillips", 0.05): (9.57e-2, 9.53e-2, 9.79e-2),
    ("shaw", 0.01): (4.36e0, 4.36e0, 4.36e0),
    ("shaw", 0.05): (8.23e0, 8.23e0, 8.23e0),
}

# Table values for the first-difference penalty (columns e / e_xz / e_ij).
TABLE2_DERIV2 = {0.01: (1.79e-2, 1.48e-1, 1.78e-2)}


def test_criterion_1_oracle_equivalence():
    """Exact SVD factors substituted for the randomized ones make each
    range-preserving solver agree with its direct counterpart (1e-8)."""
    worst = 0.0
    shapes = [(40, 40), (60, 45), (45, 60), (100, 80), (30, 100)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, m = shapes[seed % len(shapes)]
        A = random_decaying(rng, n, m, decay=0.8)
        b = rng.standard_normal(n)
        alpha = 10.0 ** rng.uniform(-6, -1)
        r = min(n, m)
        exact = from_exact_svd(A, r)
        svd = svd_full(A)

        x1 = trsvd_solve_range(A, exact, b).x
        x1_ref = tsvd_solve(svd, r, b).x
        worst = max(worst, np.linalg.norm(x1 - x1_ref) / (1 + np.linalg.norm(x1_ref)))

        x2 = rsvd_tikhonov_range(A, exact, b, alpha).x
        x2_ref = tikhonov_solve_direct(A, b, alpha).x
        worst = max(worst, np.linalg.norm(x2 - x2_ref) / np.linalg.norm(x2_ref))

        L = first_difference(m)
        bundle = weighted_pinv(A, L)
        Bmat = form_B(A, bundle).toarray()
        exact_B = from_exact_svd(Bmat, min(Bmat.shape))
        x3 = rsvd_gen_tikhonov_range(A, L, exact_B, b, alpha, bundle).x
        x3_ref = gen_tikhonov_direct(A, L, b, alpha, bundle).x
        worst = max(worst, np.linalg.norm(x3 - x3_ref) / np.linalg.norm(x3_ref))

    ok = worst <= 1e-8
    _report(1, ok, f"worst relative deviation {worst:.3e} (tol 1e-8)")
    assert ok


def test_criterion_2_table1_reproduction():
    """Identity-penalty error table at the reference scale n=5000, k=20,
    p=5, q=0 (median of 5 seeds): e, e_xz, e_ij each within a factor 2 of
    the reference values, and e_ij/e in [0.5, 2]."""
    names = sorted({k[0] for k in TABLE1})
    records = harness.table_run(names, [0.01, 0.05], n=5000, k=20, p=5, q=0,
                                repeats=5, base_seed=0, workers=2)
    failures = []
    for row in harness.aggregate_table(records):
        ref = TABLE1[(row["example"], row["delta"])]
        ratios = (row["e"] / ref[0], row["e_xz"] / ref[1], row["e_ij"] / ref[2])
        ij_over_e = row["e_ij"] / row["e"]
        ok = all(0.5 <= r <= 2.0 for r in ratios) and 0.5 <= ij_over_e <= 2.0
        print(f"  cell {row['example']:9s} delta={row['delta']:.2f} "
              f"e={row['e']:.3e} ratios={ratios[0]:.2f}/{ratios[1]:.2f}/"
              f"{ratios[2]:.2f} e_ij/e={ij_over_e:.2f} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append((row["example"], row["delta"], ratios, ij_over_e))
    _report(2, not failures, f"{14 - len(failures)}/14 cells within factor 2")
    assert not failures, f"cells outside the factor-2 window: {failures}"


def test_criterion_3_structure_preservation_gap():
    """deriv2 with the first-difference penalty at 1% noise: the
    range-preserving error matches the reference within factor 3 while the
    projected variant is at least 5x worse."""
    records = harness.table_run(["deriv2"], [0.01], penalty="d1", n=1000,
                                k=20, p=5, q=0, repeats=5, base_seed=0,
                                workers=2)
    row = harness.aggregate_table(records)[0]
    ref_e, ref_exz, ref_eij = TABLE2_DERIV2[0.01]
    ratio_ij = row["e_ij"] / ref_eij
    gap = row["e_xz"] / row["e_ij"]
    ok = (1 / 3 <= ratio_ij <= 3.0) and gap >= 5.0
    _report(3, ok, f"e_ij={row['e_ij']:.3e} (ref {ref_eij:.2e}, ratio "
                   f"{ratio_ij:.2f}); e_xz/e_ij={gap:.1f} (need >= 5)")
    assert ok


BOUND_CHECKS = ("trsvd", "tsvd_rel", "tikh", "gtikh",
                "pinv_perturbation", "weyl", "est_product", "est_trsvd",
                "resolvent")


def test_criterion_4_proven_bound_suite():
    """Every solver error bound and matrix inequality holds on 50 seeded
    source-type problems (n=200) whenever its hypotheses are met."""
    report = harness.verify_run(BOUND_CHECKS, seeds=50, n=200, base_seed=0)
    bad = {}
    for cid, r in report.items():
        print(f"  {cid:18s} met={r['hypotheses_met']:3d} "
              f"unmet={r['hypotheses_not_met']:2d} passed={r['passed']:3d} "
              f"worst_slack={r['worst_slack']:.2e}")
        if r["hypotheses_met"] and r["passed"] < r["hypotheses_met"]:
            bad[cid] = r["failures"]
    _report(4, not bad, f"{len(BOUND_CHECKS)} checks x 50 seeds")
    assert not bad, bad


def test_criterion_5_probabilistic_capture_bound():
    """The q=0 range-capture bound with p=5 holds in at least 97 of 100
    seeded trials on a known-spectrum diagonal matrix."""
    report = harness.verify_run(["rsvd_capture"], seeds=100, base_seed=0)
    r = report["rsvd_capture"]
    ok = r["passed"] >= 97
    _report(5, ok, f"{r['passed']}/100 trials within the bound")
    assert ok


def test_criterion_6_timing_scaling():
    """Wall-time scaling over n in {250, 500, 1000, 2000}: direct solver
    slope in [2.5, 3.5], randomized solvers in [1.5, 2.5], randomized
    speedup at n=2000 at least 10x; every timing taken on one BLAS thread
    (as read back by the pin)."""
    rows = harness.bench_run(ns=(250, 500, 1000, 2000), ks=(20, 30),
                             repeats=3, base_seed=0)
    threads = sorted({r["blas_threads"] for r in rows}, key=str)
    if threads != [1]:
        _report(6, False, f"BLAS pin not confirmed: blas_threads {threads}")
    assert threads == [1], f"timings not taken on one BLAS thread: {threads}"
    slope_direct = harness.loglog_slope(rows, "direct", k=20)
    slope_proj = harness.loglog_slope(rows, "projected", k=20)
    slope_range = harness.loglog_slope(rows, "range", k=20)
    t = {(r["n"], r["method"], r["k"]): r["seconds"] for r in rows}
    speedup = t[(2000, "direct", 20)] / t[(2000, "range", 20)]
    overhead_30 = t[(2000, "range", 30)] / t[(2000, "range", 20)]
    ok = (2.5 <= slope_direct <= 3.5 and 1.5 <= slope_proj <= 2.5
          and 1.5 <= slope_range <= 2.5 and speedup >= 10.0)
    _report(6, ok, f"slopes direct={slope_direct:.2f} proj={slope_proj:.2f} "
                   f"range={slope_range:.2f}; speedup@2000={speedup:.1f}x; "
                   f"k30/k20 time ratio {overhead_30:.2f}")
    assert ok


def test_criterion_7_rank_convergence_phenomenology():
    """deriv2 rank sweeps: at the selected parameter the error is
    nonincreasing in k up to a plateau (10% tolerance); at a tenth of it
    the curve dips, rises, then levels off; the optimal rank at 1% noise
    is at least the optimal rank at 5%."""
    ks = [2, 4, 6, 8, 10, 14, 18, 22, 26, 30, 40, 50, 60, 80, 100]
    curves = {}
    for delta in (0.01, 0.05):
        rows = harness.rank_sweep("deriv2", delta, ks, n=1000, repeats=3,
                                  base_seed=0, workers=2)
        curves[delta] = rows
    _, e_star = harness.median_curve(curves[0.01], "alpha_star")
    _, e_star5 = harness.median_curve(curves[0.05], "alpha_star")
    _, e_under = harness.median_curve(curves[0.01], "0.1x")
    mono1 = harness.nonincreasing_to_plateau(e_star)
    mono5 = harness.nonincreasing_to_plateau(e_star5)
    dip = harness.dip_rise_plateau(e_under)
    k1 = harness.optimal_rank(ks, e_star)
    k5 = harness.optimal_rank(ks, e_star5)
    ok = mono1 and mono5 and dip and k1 >= k5
    _report(7, ok, f"monotone-to-plateau d=1%:{mono1} d=5%:{mono5}; "
                   f"dip-rise-plateau:{dip}; optimal k {k1} >= {k5}")
    assert ok


def test_criterion_8_fixed_point_and_refinement():
    """Refinement started at the exact minimizer moves it by <= 1e-9
    relative; started from zero it reaches 1e-6 relative accuracy within
    50 iterations on 10 of 10 seeded problems whose first step contracts."""
    n, k = 30, 10
    fixed_ok = True
    converged = contracted = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        A = random_decaying(rng, n, n, decay=0.7)
        b = rng.standard_normal(n)
        L = custom(np.eye(n) + np.diag(-0.9 * np.ones(n - 1), -1))
        bundle = weighted_pinv(A, L)
        B = form_B(A, bundle)
        sB = np.linalg.svd(B.toarray(), compute_uv=False)
        alpha = 3.0 * sB[k] ** 2
        x_star = gen_tikhonov_direct(A, L, b, alpha, bundle).x
        apx = rsvd_auto(B, RsvdConfig(k=k, p=5, q=0, seed=seed + 100))

        stay = iterative_refine(A, bundle, apx, b, alpha, max_iter=1, x0=x_star)
        if np.linalg.norm(stay.x - x_star) > 1e-9 * np.linalg.norm(x_star):
            fixed_ok = False

        first = iterative_refine(A, bundle, apx, b, alpha, max_iter=1)
        c1 = np.linalg.norm(first.x - x_star) / np.linalg.norm(x_star)
        if c1 >= 1.0:
            print(f"  seed {seed}: first step not contractive (c1={c1:.2f}), skipped")
            continue
        contracted += 1
        state = iterative_refine(A, bundle, apx, b, alpha, max_iter=50, tol=1e-12)
        err = np.linalg.norm(state.x - x_star) / np.linalg.norm(x_star)
        converged += err <= 1e-6
    ok = fixed_ok and contracted == 10 and converged == contracted
    _report(8, ok, f"fixed point stable: {fixed_ok}; converged "
                   f"{converged}/{contracted} contracting seeds (of 10)")
    assert ok
