import contextlib
import json
import sys
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest

from rsvdreg import diagnostics, harness, linalg, problems, smoothing, solvers
from rsvdreg.cli import main
from rsvdreg.rsvd import RsvdConfig, rsvd_auto


@pytest.fixture
def selection(monkeypatch):
    """``set_(k_select, grid_count=100)``: the drivers select alpha at this
    rank over a grid of this many points, small enough for a test's n."""
    def set_(k_select, grid_count=100):
        monkeypatch.setattr(harness, "K_SELECT", k_select)
        monkeypatch.setattr(diagnostics, "ALPHA_GRID_COUNT", grid_count)
    return set_


class TestTableRun:
    def test_records_and_aggregation(self, selection):
        selection(8, 30)
        recs = harness.table_run(["shaw"], [0.01], n=32, k=4, repeats=2)
        assert len(recs) == 2
        assert recs[0].repeat == 0 and recs[1].repeat == 1
        assert recs[0].noise_seed != recs[1].noise_seed
        rows = harness.aggregate_table(recs)
        assert len(rows) == 1
        med = np.median([r.e for r in recs])
        assert rows[0]["e"] == pytest.approx(med)

    def test_penalty_cells(self, selection):
        selection(8, 30)
        recs = harness.table_run(["deriv2"], [0.01], penalty="d1", n=32, k=4,
                                 repeats=1)
        assert len(recs) == 1
        assert np.isfinite(recs[0].e_ij) and recs[0].alpha_star > 0

    def test_worker_count_does_not_change_results(self, selection):
        selection(8, 20)
        kw = dict(n=32, k=4, repeats=2)
        serial = harness.table_run(["shaw"], [0.01], workers=1, **kw)
        threaded = harness.table_run(["shaw"], [0.01], workers=4, **kw)
        for a, b in zip(serial, threaded):
            assert a.e == b.e and a.alpha_star == b.alpha_star

    def test_problem_workers_give_the_serial_records(self, selection):
        # each worker owns a problem and its Gram matrix, which the direct
        # cells factor in place; more workers than cores and frequent
        # thread switches would expose a Gram matrix read mid-factorization
        selection(8, 20)
        kw = dict(n=48, k=4, repeats=2)

        def untimed(recs):
            return [replace(r, t_direct=0.0, t_proj=0.0, t_range=0.0) for r in recs]

        names, deltas = ["shaw", "deriv2", "heat"], [0.01, 0.05]
        serial = harness.table_run(names, deltas, workers=1, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = harness.table_run(names, deltas, workers=3, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert len(serial) == 12 and not any(r.note for r in serial)
        assert untimed(threaded) == untimed(serial)

    @pytest.mark.parametrize("penalty, scans", [("none", 1), ("d1", 2)])
    def test_matrix_scanned_once_per_build(self, monkeypatch, selection, penalty,
                                           scans):
        # direct_gram (and weighted_pinv for a penalty) validate A; the
        # direct cells given its Gram matrix trust that validation
        selection(8, 20)
        n = 32
        shapes = []
        as_matrix = linalg.as_matrix

        def counting(A, name="A"):
            shapes.append(np.shape(A))
            return as_matrix(A, name)

        for module in (linalg, smoothing, solvers):
            monkeypatch.setattr(module, "as_matrix", counting)
        recs = harness.table_run(["shaw", "deriv2"], [0.01, 0.05], penalty=penalty,
                                 n=n, k=4, repeats=2)
        assert len(recs) == 8 and not any(r.note for r in recs)
        assert shapes.count((n, n)) == 2 * scans

    @pytest.mark.parametrize("penalty", ["none", "d1", "d2"])
    def test_peak_memory_two_and_a_half_matrices(self, selection, penalty):
        # A and the Gram matrix, which each direct cell factors in place,
        # with no n-by-n copy of it (3.2 matrices with the copy) and, for a
        # penalty, no dense B (3.0 with it); a small selection rank keeps
        # the n-by-(k+p) probe arrays out of the way
        selection(20)
        n = 400
        tracemalloc.start()
        try:
            harness.table_run(["deriv2"], [0.01, 0.05], penalty=penalty, n=n,
                              repeats=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) < 2.5

    def test_each_problem_generated_once(self, monkeypatch, selection):
        selection(8, 20)
        calls = []
        generate = problems.generate
        monkeypatch.setattr(problems, "generate",
                            lambda name, n: calls.append(name) or generate(name, n))
        recs = harness.table_run(["shaw", "deriv2"], [0.01, 0.05], n=32, k=4,
                                 repeats=2)
        assert sorted(calls) == ["deriv2", "shaw"]
        assert len(recs) == 8 and not any(r.note for r in recs)

    @pytest.mark.parametrize("penalty", ["none", "d1"])
    def test_deltas_do_not_interact(self, selection, penalty):
        # the work shared by the noise levels of a repeat changes no result:
        # a two-delta table equals two one-delta tables
        selection(8, 20)
        kw = dict(penalty=penalty, n=32, k=4, repeats=2)
        names = ["shaw", "deriv2"]
        both = harness.table_run(names, (0.01, 0.05), **kw)
        apart = harness.table_run(names, (0.01,), **kw) + \
            harness.table_run(names, (0.05,), **kw)
        apart.sort(key=lambda r: (r.example, r.delta, r.repeat))
        assert len(both) == len(apart) == 8
        for a, b in zip(both, apart):
            for field, value in a.as_dict().items():
                if not field.startswith("t_"):
                    assert value == getattr(b, field), field

    @pytest.mark.parametrize("penalty, per_repeat", [("none", 2), ("d1", 3)])
    @pytest.mark.parametrize("deltas", [(0.01,), (0.01, 0.02, 0.05)])
    def test_one_factorization_set_per_repeat(self, monkeypatch, selection,
                                              penalty, per_repeat, deltas):
        # the selection and rank-k factors of the target from one probe and
        # (with a penalty) the rank-k factors of A, all at the selection
        # seed, once per (problem, repeat) whatever the number of noise
        # levels
        selection(8, 20)
        calls = []
        auto, nested = harness.rsvd_auto, harness.rsvd_nested
        monkeypatch.setattr(harness, "rsvd_auto",
                            lambda A, cfg: calls.append(("auto", cfg.seed, 1))
                            or auto(A, cfg))
        monkeypatch.setattr(harness, "rsvd_nested",
                            lambda A, ks, **kw: calls.append(
                                ("nested", kw["seed"], len(ks)))
                            or nested(A, ks, **kw))
        recs = harness.table_run(["shaw", "deriv2"], deltas, penalty=penalty,
                                 n=32, k=4, repeats=2)
        assert not any(r.note for r in recs)
        seeds = [harness._cell_seeds(0, rep)[1] for rep in range(2)]
        probes = sorted(seed for kind, seed, _ in calls if kind == "nested")
        assert probes == sorted(seeds * 2)
        assert {seed for _, seed, _ in calls} == set(seeds)
        assert sum(count for *_, count in calls) == 2 * 2 * per_repeat
        assert all(r.rsvd_seed == r.select_seed == seeds[r.repeat] for r in recs)

    @pytest.mark.parametrize("penalty", ["none", "d1", "d2"])
    def test_rows_match_lone_solves(self, selection, penalty):
        # a row's e_ij is reproduced by a lone factorization of the target
        # at its recorded seed and a lone range-preserving solve, and its
        # e_xz by a lone factorization of A and a projected solve.  (shaw's
        # spectrum decays so fast that its rank-10 prefix reproduces only
        # to about 5e-12 with d1 and d2 at this size.)
        selection(20, 30)
        n = 64
        recs = harness.table_run(["deriv2", "phillips"], [0.01, 0.05],
                                 penalty=penalty, n=n, k=10, repeats=2,
                                 base_seed=3)
        assert len(recs) == 8 and not any(r.note for r in recs)
        for r in recs:
            prob = problems.make_problem(r.example, n,
                                         problems.NoiseSpec(r.delta, r.noise_seed))
            reg = solvers.Regularization(prob.A, harness.make_penalty(penalty, n))
            cfg = RsvdConfig(k=r.k, p=r.p, q=r.q, seed=r.rsvd_seed)
            approx = rsvd_auto(reg.target, cfg)
            assert r.probe_rank == approx.probe_rank
            x = reg.range(approx, prob.b, r.alpha_star).x
            e = np.linalg.norm(x - prob.x_true)
            assert abs(r.e_ij - e) <= 1e-12 * e
            x = reg.projected(rsvd_auto(prob.A, cfg), prob.b, r.alpha_star).x
            e = np.linalg.norm(x - prob.x_true)
            assert abs(r.e_xz - e) <= 1e-12 * e

    def test_alpha_grid_edge_is_recorded(self, selection):
        # a two-point grid holds only its edges, so alpha* sits on one
        selection(8, 2)
        recs = harness.table_run(["shaw", "deriv2"], [0.01], n=32, k=4,
                                 repeats=1)
        assert all(r.alpha_at_lower != r.alpha_at_upper for r in recs)
        selection(20, 50)
        recs = harness.table_run(["deriv2"], [0.01], n=64, k=4, repeats=1)
        assert not recs[0].alpha_at_lower and not recs[0].alpha_at_upper

    def test_failed_cell_carries_diagnostic(self, selection):
        # phillips needs n divisible by 4: the cell fails but the run and
        # the remaining rows survive, with the reason in the note column
        selection(8, 20)
        recs = harness.table_run(["phillips", "shaw"], [0.01], n=30, k=4,
                                 repeats=1)
        notes = {r.example: r.note for r in recs}
        assert "divisible by 4" in notes["phillips"]
        assert notes["shaw"] == ""
        rows = harness.aggregate_table(recs)
        bad = next(r for r in rows if r["example"] == "phillips")
        assert np.isnan(bad["e"]) and "divisible by 4" in bad["note"]

    def test_cells_select_before_A_is_factored(self, monkeypatch, selection):
        # every noise level's alpha is selected before a penalty's A is
        # factored for the projected column, so no selection block is held
        # beside those factors; a failed selection fails only its cell
        selection(8, 20)
        events = []
        select, auto = harness.select_alpha, harness.rsvd_auto

        def failing_select(prob, solver, grid):
            events.append("select")
            if events.count("select") == 2:
                raise RuntimeError("selection failed")
            return select(prob, solver, grid)

        monkeypatch.setattr(harness, "select_alpha", failing_select)
        monkeypatch.setattr(harness, "rsvd_auto",
                            lambda A, cfg: events.append("factor A") or auto(A, cfg))
        recs = harness.table_run(["shaw"], [0.01, 0.02, 0.05], penalty="d1",
                                 n=32, k=4, repeats=1)
        assert events == ["select"] * 3 + ["factor A"]
        notes = {r.delta: r.note for r in recs}
        assert notes == {0.01: "", 0.02: "RuntimeError: selection failed", 0.05: ""}


class TestSweepHelpers:
    def test_median_curve(self, selection):
        selection(8, 20)
        rows = harness.rank_sweep("shaw", 0.01, [2, 4], n=32, repeats=2)
        ks, errs = harness.median_curve(rows, "alpha_star")
        assert list(ks) == [2, 4]
        assert np.all(np.isfinite(errs))

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_problem_generated_once(self, monkeypatch, selection, repeats):
        selection(8, 20)
        calls = []
        generate = problems.generate
        monkeypatch.setattr(problems, "generate",
                            lambda name, n: calls.append(name) or generate(name, n))
        rows = harness.rank_sweep("shaw", 0.01, [2, 4], n=32, repeats=repeats)
        assert calls == ["shaw"] and len(rows) == 2 * 3 * repeats

    @pytest.mark.parametrize("ks", [[2, 4], [2, 4, 6, 8, 10]])
    def test_one_factorization_per_repeat(self, monkeypatch, selection, ks):
        # one probe per repeat, at the selection seed, serves the selection
        # and every rank
        selection(8, 20)
        calls = []
        auto, nested = harness.rsvd_auto, harness.rsvd_nested
        monkeypatch.setattr(harness, "rsvd_auto",
                            lambda A, cfg: calls.append(("auto", cfg.seed))
                            or auto(A, cfg))
        monkeypatch.setattr(harness, "rsvd_nested",
                            lambda A, ks, **kw: calls.append(("nested", kw["seed"]))
                            or nested(A, ks, **kw))
        rows = harness.rank_sweep("shaw", 0.01, ks, n=32, repeats=2,
                                  base_seed=5)
        assert len(rows) == len(ks) * 3 * 2
        seeds = [harness._cell_seeds(5, rep)[1] for rep in range(2)]
        assert calls == [("nested", s) for s in seeds]
        assert sorted({r["rsvd_seed"] for r in rows}) == seeds

    @pytest.mark.parametrize("penalty", ["none", "d1"])
    @pytest.mark.parametrize("ks", [[2, 4], [2, 4, 6, 8, 10]])
    def test_sweep_solves_no_block(self, monkeypatch, selection, ks, penalty):
        # the selection of a repeat takes the error curve of its widest
        # rank, and every rank's errors come from one coefficient-space call
        # per repeat: no block of solutions, and no rank forms its U or V
        selection(8, 20)
        calls, views = [], []
        curve, errors = solvers.range_error_curve, solvers.rank_errors
        monkeypatch.setattr(solvers, "_range_block",
                            lambda *args: calls.append("block"))
        monkeypatch.setattr(solvers, "range_error_curve",
                            lambda approx, bundle:
                            calls.append(("curve", approx.k))
                            or curve(approx, bundle))

        def rank_errors(ranks, *args):
            calls.append([rank.k for rank in ranks])
            views.extend(ranks)
            return errors(ranks, *args)

        monkeypatch.setattr(solvers, "rank_errors", rank_errors)
        rows = harness.rank_sweep("shaw", 0.01, ks, n=32, penalty=penalty,
                                  repeats=2)
        assert len(rows) == len(ks) * 3 * 2
        assert calls == [("curve", 8), ks, ("curve", 8), ks]
        # only a rank equal to the selection's is its view, which the
        # selection read
        assert {view.k for view in views if {"U", "V"} & vars(view).keys()} <= {8}

    def test_rows_record_probe_rank(self, selection):
        # shaw's spectrum falls below the rank cutoff long before 45
        # directions, while a 7-column probe captures all of its columns
        selection(60, 20)
        rows = harness.rank_sweep("shaw", 0.01, [2, 40], n=200, repeats=1)
        rank = {r["k"]: r["probe_rank"] for r in rows}
        assert rank[2] == 2 + 5
        assert rank[40] < 40 + 5

    @pytest.mark.parametrize("penalty", ["none", "d1"])
    def test_rows_match_single_alpha_solves(self, selection, penalty):
        # every policy of a rank comes from one block product; each row
        # agrees with a lone range-preserving solve at its alpha
        selection(20, 30)
        n = 64
        rows = harness.rank_sweep("deriv2", 0.01, [4, 10], n=n, penalty=penalty,
                                  repeats=2, base_seed=3)
        A, x_true, b_exact = problems.generate("deriv2", n)
        L = harness.make_penalty(penalty, n)
        bundle = smoothing.weighted_pinv(A, L)
        target = smoothing.form_B(A, bundle)
        assert len(rows) == 2 * 3 * 2
        for row in rows:
            b, _ = problems.add_noise(b_exact,
                                      problems.NoiseSpec(0.01, row["noise_seed"]))
            approx = rsvd_auto(target, RsvdConfig(k=row["k"], p=5, q=0,
                                                  seed=row["rsvd_seed"]))
            x = solvers.rsvd_gen_tikhonov_range(A, L, approx, b, row["alpha"],
                                                bundle).x
            e = np.linalg.norm(x - x_true)
            assert abs(row["e_ij"] - e) <= 1e-12 * e

    @pytest.mark.parametrize("penalty", ["none", "d1"])
    def test_rows_are_the_coefficient_errors_of_their_rank(self, selection,
                                                           penalty):
        # each rank's row of every policy is its error from the repeat's
        # sketch in coefficient space (rank_errors) bit for bit, and within
        # 1e-12 of the norm of that rank's explicitly formed solution
        selection(20, 30)
        n, ks = 64, [4, 10]
        rows = harness.rank_sweep("deriv2", 0.01, ks, n=n, penalty=penalty,
                                  repeats=2, base_seed=3)
        base = problems.make_problem("deriv2", n)
        reg = solvers.Regularization(base.A, harness.make_penalty(penalty, n))
        policies = ("alpha_star", "10x", "0.1x")
        for rep in range(2):
            noise_seed, seed = harness._cell_seeds(3, rep)
            prob = problems.with_noise(base, problems.NoiseSpec(0.01, noise_seed))
            _, *ranks = harness.selection_probe(reg, 20, ks, 5, 0, seed)
            mine = {(r["k"], r["policy"]): r for r in rows if r["repeat"] == rep}
            alphas = [mine[ks[0], pol]["alpha"] for pol in policies]
            errors = solvers.rank_errors(ranks, reg.bundle, prob.b, prob.x_true, alphas)
            for rank, errs in zip(ranks, errors):
                X = solvers._range_block(rank, prob.b, alphas, reg.bundle)
                e_block = np.linalg.norm(X - prob.x_true[:, None], axis=0)
                for j, pol in enumerate(policies):
                    assert mine[rank.k, pol]["alpha"] == alphas[j]
                    assert mine[rank.k, pol]["e_ij"] == errs[j]
                    assert abs(errs[j] - e_block[j]) <= 1e-12 * e_block[j]

    def test_rows_record_alpha_boundary_flags(self, monkeypatch, selection):
        # every row of a repeat carries the flags of that repeat's selection
        selection(8, 20)
        flags = iter([(True, False), (False, True)])
        select = harness.select_alpha

        def flagged(*args):
            alpha_star, curve = select(*args)
            lower, upper = next(flags)
            return alpha_star, replace(curve, at_lower_boundary=lower,
                                       at_upper_boundary=upper)

        monkeypatch.setattr(harness, "select_alpha", flagged)
        rows = harness.rank_sweep("shaw", 0.01, [2, 4], n=32, repeats=2)
        assert {(r["repeat"], r["alpha_at_lower"], r["alpha_at_upper"])
                for r in rows} == {(0, True, False), (1, False, True)}
        assert list(rows[0])[-3:] == ["alpha_at_lower", "alpha_at_upper", "probe_rank"]

    @pytest.mark.parametrize("penalty", ["none", "d1", "d2"])
    def test_peak_memory_holds_no_rank_factors(self, penalty):
        # the workload's 13 ranks at n=400: A, the sketch (Q, Z and the
        # ranks' small SVDs), the selection's U and, for a penalty, L_sharp
        # Z and its QR stay under 3 matrices; each rank's own U and V would
        # add about 1.5 more (3.5 to 3.7 in all)
        n = 400
        tracemalloc.start()
        try:
            harness.rank_sweep("deriv2", 0.01, (2, 4, 6, 8, 10, 15, 20, 25, 30,
                                                35, 40, 50, 60),
                               n=n, penalty=penalty, repeats=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * n * n) < 3.0

    def test_plateau_detector(self):
        assert harness.nonincreasing_to_plateau([5.0, 3.0, 1.1, 1.0, 1.05, 1.0])
        assert not harness.nonincreasing_to_plateau([5.0, 3.0, 9.0, 1.0, 1.0, 1.0])

    def test_dip_rise_plateau_detector(self):
        assert harness.dip_rise_plateau([5.0, 2.0, 1.0, 2.5, 3.0, 3.1, 3.0])
        assert not harness.dip_rise_plateau([5.0, 4.0, 3.0, 2.0, 1.5, 1.4, 1.4])

    def test_optimal_rank(self):
        assert harness.optimal_rank([2, 4, 8], [3.0, 1.0, 2.0]) == 4


class TestBench:
    def test_rows_and_slope(self):
        rows = harness.bench_run(ns=(32, 64), ks=(4,), repeats=1,
                                 methods=("direct", "range"))
        assert len(rows) == 4
        slope = harness.loglog_slope(rows, "direct")
        assert np.isfinite(slope)
        with pytest.raises(ValueError, match="at least two"):
            harness.loglog_slope(rows, "projected")

    def test_each_cell_times_its_own_problem(self):
        # the timed calls are built after all cells are set up, so each must
        # hold on to its own matrix rather than the last one built
        cells = harness._bench_cells("deriv2", (16, 32), (4,), "none",
                                     ("direct", "projected", "range"), 0.01, 0, 5, 0)
        assert [row["n"] for row, _ in cells] == [16] * 3 + [32] * 3
        for row, make in cells:
            assert make()().x.shape == (row["n"],)

    @pytest.mark.parametrize("penalty", ["d1", "d2"])
    def test_penalized_calls_time_their_setup(self, monkeypatch, penalty):
        # the standard-form reduction is part of what a penalized direct or
        # range solve costs, so it is built inside the timed call
        calls = []
        real = harness.smoothing.weighted_pinv

        def counting(A, L):
            calls.append(A.shape)
            return real(A, L)

        monkeypatch.setattr(harness.smoothing, "weighted_pinv", counting)
        cells = harness._bench_cells("deriv2", (16,), (4,), penalty,
                                     ("direct", "range"), 0.01, 0, 5, 0)
        assert calls == []
        for _, make in cells:
            fn = make()
            assert calls == []
            assert fn().x.shape == (16,)
            assert calls == [(16, 16)]
            calls.clear()

    def test_rows_record_blas_threads(self):
        rows = harness.bench_run(ns=(32, 64), ks=(4,), repeats=1,
                                 methods=("direct",))
        with harness._single_thread_blas() as threads:
            pass
        assert [r["blas_threads"] for r in rows] == [threads] * 2

    def test_unconfirmed_pin_is_recorded(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        monkeypatch.setattr(harness, "_openblas_thread_controls", lambda: None)
        rows = harness.bench_run(ns=(32, 64), ks=(4,), repeats=1,
                                 methods=("direct",))
        assert [r["blas_threads"] for r in rows] == [None, None]

    def test_threadpoolctl_pin_is_read_back(self, monkeypatch):
        requested = []

        @contextlib.contextmanager
        def threadpool_limits(limits, user_api):
            requested.append((limits, user_api))
            yield

        fake = types.SimpleNamespace(
            threadpool_limits=threadpool_limits,
            threadpool_info=lambda: [{"user_api": "blas", "num_threads": 1},
                                     {"user_api": "openmp", "num_threads": 8}],
        )
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        with harness._single_thread_blas() as threads:
            assert threads == 1
        assert requested == [(1, "blas")]

    @pytest.mark.skipif(harness._openblas_thread_controls() is None,
                        reason="numpy or scipy without its bundled OpenBLAS")
    def test_openblas_pin_holds_and_restores(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        controls = harness._openblas_thread_controls()
        before = [get() for get, _ in controls]
        with harness._single_thread_blas() as threads:
            assert threads == 1
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before

    def test_rank_increase_adds_little_overhead(self):
        # The factorization dominated by the n^2 k probe products: growing
        # the rank from 20 to 30 changes the wall time by well under 50%.
        # Each rank's time is the best of three runs, so that a few
        # milliseconds of interference from other processes on a shared
        # host cannot decide the verdict.
        t = {}
        for _ in range(3):
            for r in harness.bench_run(ns=(2000,), ks=(20, 30), repeats=3,
                                       methods=("range",)):
                t[r["k"]] = min(t.get(r["k"], np.inf), r["seconds"])
        assert t[30] / t[20] < 1.5


class TestRankSweepPlateau:
    def test_severely_ill_posed_plateau(self):
        # Exponential spectra are exhausted long before k=20: the error at
        # k=20 sits within 10% of the error at k=40.
        rows = harness.rank_sweep("shaw", 0.01, [20, 40], n=200, repeats=3,
                                  base_seed=0)
        ks, errs = harness.median_curve(rows, "alpha_star")
        assert abs(errs[0] - errs[1]) <= 0.10 * errs[1]


class TestVerifyRun:
    def test_report_shape(self):
        rep = harness.verify_run(["weyl"], seeds=3)
        r = rep["weyl"]
        assert r["trials"] == 3 and r["hypotheses_met"] == 3
        assert r["passed"] == 3 and r["pass_rate"] == 1.0
        assert r["worst_slack"] < 0 and r["failures"] == []

    def test_failure_carries_details(self, monkeypatch):
        def failing(trial):
            return [diagnostics.BoundCheck("stub", 2.0, 1.0, True, trial.seed,
                                           {"approx_err": 0.5, "factor_gap": 0.25})]

        monkeypatch.setitem(diagnostics.CHECKS, "stub", ("stub", failing))
        r = harness.verify_run(["stub"], seeds=2)["stub"]
        assert r["passed"] == 0
        assert r["failures"] == [
            {"seed": s, "lhs": 2.0, "rhs": 1.0, "approx_err": 0.5, "factor_gap": 0.25}
            for s in (0, 1)
        ]

    def test_one_trial_per_seed(self, monkeypatch):
        # one shaw build, one exact SVD and one gtikh penalty per size, shared
        # by every seed of every call; one factorization each of A and B per
        # seed; the checks that never touch shaw build nothing
        diagnostics.shared_operator.cache_clear()
        calls = []
        for name in ("generate", "svd_full", "weighted_pinv", "rsvd_auto"):
            fn = getattr(diagnostics, name)
            monkeypatch.setattr(diagnostics, name, lambda *a, name=name, fn=fn:
                                calls.append(name) or fn(*a))
        harness.verify_run(diagnostics.VERIFY_CHECKS, seeds=2)
        harness.verify_run(diagnostics.VERIFY_CHECKS, seeds=2, base_seed=2)
        assert sorted(calls) == (["generate"] + ["rsvd_auto"] * 8 + ["svd_full"]
                                 + ["weighted_pinv"])
        calls.clear()
        harness.verify_run(["rsvd_capture"], seeds=2)
        harness.verify_run(["weyl"], seeds=2)
        assert calls == []


@pytest.mark.parametrize("run, name", [
    (lambda: harness.rank_sweep("shaw", 0.01, [2, 4], n=32, policies=()), "policies"),
    (lambda: harness.verify_run([]), "check_ids"),
    (lambda: harness.bench_run(ns=(32, 64), ks=()), "ks"),
    (lambda: harness.bench_run(ns=(32, 64), methods=()), "methods"),
], ids=["sweep-policies", "verify-checks", "bench-ks", "bench-methods"])
def test_empty_driver_run_is_rejected_before_any_work(monkeypatch, run, name):
    # a driver that would return no rows fails at once, naming the argument
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(problems, "generate", no_work)
    monkeypatch.setattr(diagnostics, "BoundTrial", no_work)
    with pytest.raises(ValueError, match=f"^{name}: 0 given, at least 1 needed$"):
        run()


class TestCsv:
    def test_rfc4180_and_six_significant_digits(self):
        text = harness.rows_to_csv([{"a": 1, "b": 0.000123456789}])
        lines = text.split("\r\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,1.23457e-04"


class TestCli:
    def test_gen_writes_four_files(self, tmp_path, capsys):
        out = tmp_path / "prob"
        rc = main(["gen", "--problem", "shaw", "--n", "16", "--delta", "0.01",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["A.mtx", "b.mtx", "meta.json", "x_true.mtx"]
        meta = json.loads((out / "meta.json").read_text())
        assert meta["name"] == "shaw" and meta["n"] == 16
        assert meta["delta_rel"] == 0.01 and meta["seed"] == 7

    def test_gen_delta_omitted_is_noise_free(self, tmp_path):
        out = tmp_path / "prob"
        assert main(["gen", "--problem", "shaw", "--n", "16",
                     "--out", str(out)]) == 0
        from rsvdreg.mmio import load_problem

        prob = load_problem(out)
        assert np.array_equal(prob.b, prob.b_exact)

    def test_gen_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["gen", "--problem", "shaw", "--n", "16", "--delta", "0.01",
                "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("A.mtx", "b.mtx", "x_true.mtx", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_solve_json(self, tmp_path):
        out = tmp_path / "run.json"
        rc = main(["solve", "--problem", "shaw", "--n", "16", "--delta",
                   "0.01", "--method", "tikh_range", "--k", "4", "--alpha",
                   "1e-4", "--out", str(out), "--format", "json"])
        assert rc == 0
        row = json.loads(out.read_text())
        assert row["method"] == "tikh_range"
        assert row["error"] > 0 and row["wall_time_seconds"] > 0

    @pytest.mark.parametrize("method", ["tsvd", "trsvd_range", "tikh_direct",
                                        "tikh_proj", "tikh_range"])
    def test_solve_penalty_needs_a_gtikh_method(self, capsys, method):
        # these methods solve the identity problem; a row labelled with a
        # penalty it did not use would be wrong
        alpha = ["--alpha", "1e-4"]
        args = ["solve", "--problem", "deriv2", "--n", "32", "--delta", "0.01",
                "--k", "4", "--format", "json"]
        args += [] if method in ("tsvd", "trsvd_range") else alpha
        assert main(args + ["--method", method, "--penalty", "d1"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert "--method" in err["error"] and "--penalty" in err["error"]
        assert main(args + ["--method", method]) == 0
        assert main(args + ["--method", "gtikh_range", "--penalty", "d1"] + alpha) == 0

    @pytest.mark.parametrize("method, flags, named", [
        ("tsvd", ["--alpha", "1e-4"], "--alpha"),
        ("trsvd_proj", ["--alpha-grid", "1e-8,1.0,11"], "--alpha-grid"),
        ("trsvd_range", ["--alpha", "1e-4", "--alpha-grid", "1e-8,1.0,11"], "--alpha"),
        ("tikh_range", ["--alpha", "1e-4", "--alpha-grid", "1e-8,1.0,11"], "--alpha-grid"),
        ("gtikh_direct", ["--alpha", "1e-4", "--alpha-grid", "1e-8,1.0,11"], "--alpha-grid"),
    ], ids=["tsvd-alpha", "trsvd_proj-grid", "trsvd_range-both", "tikh_range-both",
            "gtikh_direct-both"])
    def test_solve_refuses_a_flag_it_would_ignore(self, capsys, method, flags, named):
        # a truncated method takes no alpha, and a given alpha leaves no
        # grid to select from: the ignored flag is named, not dropped
        args = ["solve", "--problem", "shaw", "--n", "16", "--delta", "0.01",
                "--k", "4", "--method", method, "--format", "json"]
        assert main(args + flags) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert f"{named} would be ignored" in err["error"]

    @pytest.mark.parametrize("grid", ["1e-8,1.0", "1e-8,1.0,11,3", "lo,1.0,11",
                                      "1e-8,1.0,eleven"])
    @pytest.mark.parametrize("command", ["solve", "sweep-alpha"])
    def test_malformed_alpha_grid_is_named(self, capsys, grid, command):
        args = [command, "--problem", "shaw", "--n", "16", "--delta", "0.01",
                "--k", "4", "--alpha-grid", grid]
        if command == "solve":
            args += ["--method", "tikh_range"]
        assert main(args) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert "--alpha-grid" in err["error"] and "LO,HI,COUNT" in err["error"]

    def test_table_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["table", "--problems", "shaw", "--n", "32", "--deltas",
                   "0.01", "--k", "4", "--repeats", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].rstrip("\r") == ",".join(harness.TABLE_COLUMNS)
        assert len(lines) == 2

    def test_table_detail_shows_grid_edge_flags(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["table", "--problems", "shaw", "--n", "32", "--deltas",
                   "0.01", "--k", "4", "--repeats", "1", "--detail",
                   "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0].rstrip("\r").split(",")
        assert header[-4:] == ["note", "alpha_at_lower", "alpha_at_upper",
                               "probe_rank"]

    def test_table_detail_json_flags_are_booleans(self, tmp_path):
        out = tmp_path / "table.json"
        rc = main(["table", "--problems", "shaw", "--n", "32", "--deltas",
                   "0.01", "--k", "4", "--repeats", "1", "--detail",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        [row] = json.loads(out.read_text())
        assert type(row["alpha_at_lower"]) is bool
        assert type(row["alpha_at_upper"]) is bool

    def test_sweep_alpha_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["sweep-alpha", "--problem", "shaw", "--n", "16", "--delta",
                   "0.01", "--k", "4", "--alpha-grid", "1e-8,1.0,11",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12
        assert sum("1" == line.rstrip("\r").split(",")[2] for line in lines[1:]) == 1

    def test_sweep_rank_csv(self, tmp_path):
        out = tmp_path / "ranks.csv"
        rc = main(["sweep-rank", "--problem", "shaw", "--n", "32", "--delta",
                   "0.01", "--ks", "2,4", "--repeats", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + ks x policies
        assert lines[0].split(",")[-1] == "probe_rank"

    def test_verify_json_and_exit_code(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--theorem", "weyl", "--seeds", "3",
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["weyl"]["passed"] == 3

    @pytest.mark.parametrize("name,cid", [
        ("weyl", "weyl"), ("pinv-perturb", "pinv_perturbation"),
        ("rsvd-prob", "rsvd_capture"), ("trsvd", "trsvd"), ("tsvd-rel", "tsvd_rel"),
        ("tikh", "tikh"), ("gtikh", "gtikh"), ("est-product", "est_product"),
        ("est-trsvd", "est_trsvd"), ("resolvent", "resolvent"),
    ])
    def test_verify_each_theorem(self, tmp_path, name, cid):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--theorem", name, "--seeds", "1", "--n", "40",
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert list(rep) == [cid] and rep[cid]["trials"] == 1

    def test_verify_has_no_format_option(self):
        # verification reports are always JSON
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "weyl", "--seeds", "1", "--format", "csv"])
        assert exc.value.code == 2

    def test_error_is_machine_readable(self, capsys):
        rc = main(["verify", "--theorem", "nosuch", "--seeds", "1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "nosuch" in err["error"] and err["type"] == "ValueError"

    def test_table_with_failed_row_exits_nonzero(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["table", "--problems", "phillips", "--n", "30", "--deltas",
                   "0.01", "--k", "4", "--repeats", "1", "--out", str(out)])
        assert rc == 1
        assert "divisible by 4" in out.read_text()

    @pytest.mark.parametrize("argv, name", [
        (["table", "--problems", ""], "names"),
        (["table", "--deltas", ""], "deltas"),
        (["table", "--repeats", "0"], "repeats"),
        (["sweep-rank", "--problem", "shaw", "--ks", ""], "ks"),
        (["sweep-rank", "--problem", "shaw", "--repeats", "0"], "repeats"),
        (["verify", "--seeds", "0"], "seeds"),
        (["bench", "--ns", "250"], "--ns"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_empty_run_is_rejected_before_any_work(self, monkeypatch, capsys,
                                                   argv, name):
        # a run that would produce no rows (or no slope) fails at once with
        # a JSON error naming the argument, before any problem is built
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(problems, "generate", no_work)
        monkeypatch.setattr(diagnostics, "BoundTrial", no_work)
        assert main([*argv, "--n", "32"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert err["error"].startswith(f"{name}: ")

    @pytest.mark.parametrize("option", ["--ks", "--methods"])
    def test_bench_without_cells_is_rejected_before_any_work(self, monkeypatch,
                                                            capsys, option):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(problems, "generate", no_work)
        assert main(["bench", "--ns", "64,128", option, ""]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert err["error"].startswith(f"{option[2:]}: ")

    def test_bench_small(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--ns", "32,64", "--ks", "4", "--methods",
                   "direct,range", "--repeats", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert lines[0].split(",")[-2:] == ["seconds", "blas_threads"]
