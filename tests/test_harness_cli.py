import contextlib
import json
import sys
import types

import numpy as np
import pytest

from rsvdreg import diagnostics, harness, problems, smoothing, solvers
from rsvdreg.cli import main
from rsvdreg.rsvd import RsvdConfig, rsvd_auto


class TestTableRun:
    def test_records_and_aggregation(self):
        recs = harness.table_run(["shaw"], [0.01], n=32, k=4, repeats=2,
                                 k_select=8, grid_count=30)
        assert len(recs) == 2
        assert recs[0].repeat == 0 and recs[1].repeat == 1
        assert recs[0].noise_seed != recs[1].noise_seed
        rows = harness.aggregate_table(recs)
        assert len(rows) == 1
        med = np.median([r.e for r in recs])
        assert rows[0]["e"] == pytest.approx(med)

    def test_penalty_cells(self):
        recs = harness.table_run(["deriv2"], [0.01], penalty="d1", n=32, k=4,
                                 repeats=1, k_select=8, grid_count=30)
        assert len(recs) == 1
        assert np.isfinite(recs[0].e_ij) and recs[0].alpha_star > 0

    def test_worker_count_does_not_change_results(self):
        kw = dict(n=32, k=4, repeats=2, k_select=8, grid_count=20)
        serial = harness.table_run(["shaw"], [0.01], workers=1, **kw)
        threaded = harness.table_run(["shaw"], [0.01], workers=4, **kw)
        for a, b in zip(serial, threaded):
            assert a.e == b.e and a.alpha_star == b.alpha_star

    def test_each_problem_generated_once(self, monkeypatch):
        calls = []
        generate = problems.generate
        monkeypatch.setattr(problems, "generate",
                            lambda name, n: calls.append(name) or generate(name, n))
        recs = harness.table_run(["shaw", "deriv2"], [0.01, 0.05], n=32, k=4,
                                 repeats=2, k_select=8, grid_count=20)
        assert sorted(calls) == ["deriv2", "shaw"]
        assert len(recs) == 8 and not any(r.note for r in recs)

    @pytest.mark.parametrize("penalty", ["none", "d1"])
    def test_deltas_do_not_interact(self, penalty):
        # the work shared by the noise levels of a repeat changes no result:
        # a two-delta table equals two one-delta tables
        kw = dict(penalty=penalty, n=32, k=4, repeats=2, k_select=8, grid_count=20)
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
    def test_one_factorization_set_per_repeat(self, monkeypatch, penalty,
                                              per_repeat, deltas):
        # the selection and rank-k factors of the target from one probe and
        # (with a penalty) the rank-k factors of A, all at the selection
        # seed, once per (problem, repeat) whatever the number of noise
        # levels
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
                                 n=32, k=4, repeats=2, k_select=8, grid_count=20)
        assert not any(r.note for r in recs)
        seeds = [harness._cell_seeds(0, rep)[1] for rep in range(2)]
        probes = sorted(seed for kind, seed, _ in calls if kind == "nested")
        assert probes == sorted(seeds * 2)
        assert {seed for _, seed, _ in calls} == set(seeds)
        assert sum(count for *_, count in calls) == 2 * 2 * per_repeat
        assert all(r.rsvd_seed == r.select_seed == seeds[r.repeat] for r in recs)

    @pytest.mark.parametrize("penalty", ["none", "d1", "d2"])
    def test_rows_match_lone_solves(self, penalty):
        # a row's e_ij is reproduced by a lone factorization of the target
        # at its recorded seed and a lone range-preserving solve, and its
        # e_xz by a lone factorization of A and a projected solve.  (shaw's
        # spectrum decays so fast that its rank-10 prefix reproduces only
        # to about 5e-12 with d1 and d2 at this size.)
        n = 64
        recs = harness.table_run(["deriv2", "phillips"], [0.01, 0.05],
                                 penalty=penalty, n=n, k=10, repeats=2,
                                 base_seed=3, k_select=20, grid_count=30)
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

    def test_alpha_grid_edge_is_recorded(self):
        # a two-point grid holds only its edges, so alpha* sits on one
        recs = harness.table_run(["shaw", "deriv2"], [0.01], n=32, k=4,
                                 repeats=1, k_select=8, grid_count=2)
        assert all(r.alpha_at_lower != r.alpha_at_upper for r in recs)
        recs = harness.table_run(["deriv2"], [0.01], n=64, k=4, repeats=1,
                                 k_select=20, grid_count=50)
        assert not recs[0].alpha_at_lower and not recs[0].alpha_at_upper

    def test_failed_cell_carries_diagnostic(self):
        # phillips needs n divisible by 4: the cell fails but the run and
        # the remaining rows survive, with the reason in the note column
        recs = harness.table_run(["phillips", "shaw"], [0.01], n=30, k=4,
                                 repeats=1, k_select=8, grid_count=20)
        notes = {r.example: r.note for r in recs}
        assert "divisible by 4" in notes["phillips"]
        assert notes["shaw"] == ""
        rows = harness.aggregate_table(recs)
        bad = next(r for r in rows if r["example"] == "phillips")
        assert np.isnan(bad["e"]) and "divisible by 4" in bad["note"]


class TestSweepHelpers:
    def test_median_curve(self):
        rows = harness.rank_sweep("shaw", 0.01, [2, 4], n=32, repeats=2,
                                  k_select=8, grid_count=20)
        ks, errs = harness.median_curve(rows, "alpha_star")
        assert list(ks) == [2, 4]
        assert np.all(np.isfinite(errs))

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_problem_generated_once(self, monkeypatch, repeats):
        calls = []
        generate = problems.generate
        monkeypatch.setattr(problems, "generate",
                            lambda name, n: calls.append(name) or generate(name, n))
        rows = harness.rank_sweep("shaw", 0.01, [2, 4], n=32, repeats=repeats,
                                  k_select=8, grid_count=20)
        assert calls == ["shaw"] and len(rows) == 2 * 3 * repeats

    @pytest.mark.parametrize("ks", [[2, 4], [2, 4, 6, 8, 10]])
    def test_one_factorization_per_repeat(self, monkeypatch, ks):
        # one probe per repeat, at the selection seed, serves the selection
        # and every rank
        calls = []
        auto, nested = harness.rsvd_auto, harness.rsvd_nested
        monkeypatch.setattr(harness, "rsvd_auto",
                            lambda A, cfg: calls.append(("auto", cfg.seed))
                            or auto(A, cfg))
        monkeypatch.setattr(harness, "rsvd_nested",
                            lambda A, ks, **kw: calls.append(("nested", kw["seed"]))
                            or nested(A, ks, **kw))
        rows = harness.rank_sweep("shaw", 0.01, ks, n=32, repeats=2,
                                  base_seed=5, k_select=8, grid_count=20)
        assert len(rows) == len(ks) * 3 * 2
        seeds = [harness._cell_seeds(5, rep)[1] for rep in range(2)]
        assert calls == [("nested", s) for s in seeds]
        assert sorted({r["rsvd_seed"] for r in rows}) == seeds

    @pytest.mark.parametrize("ks", [[2, 4], [2, 4, 6, 8, 10]])
    def test_one_block_solve_per_repeat(self, monkeypatch, ks):
        # every rank and policy of a repeat is solved from one stacked block
        calls = []
        block = solvers.range_tikhonov_block
        monkeypatch.setattr(solvers, "range_tikhonov_block",
                            lambda A, approxes, b, alphas, bundle:
                            calls.append([a.k for a in approxes])
                            or block(A, approxes, b, alphas, bundle))
        rows = harness.rank_sweep("shaw", 0.01, ks, n=32, repeats=2,
                                  k_select=8, grid_count=20)
        assert len(rows) == len(ks) * 3 * 2
        assert calls == [ks, ks]

    def test_rows_record_probe_rank(self):
        # shaw's spectrum falls below the rank cutoff long before 45
        # directions, while a 7-column probe captures all of its columns
        rows = harness.rank_sweep("shaw", 0.01, [2, 40], n=200, repeats=1,
                                  k_select=60, grid_count=20)
        rank = {r["k"]: r["probe_rank"] for r in rows}
        assert rank[2] == 2 + 5
        assert rank[40] < 40 + 5

    @pytest.mark.parametrize("penalty", ["none", "d1"])
    def test_rows_match_single_alpha_solves(self, penalty):
        # every policy of a rank comes from one block product; each row
        # agrees with a lone range-preserving solve at its alpha
        n = 64
        rows = harness.rank_sweep("deriv2", 0.01, [4, 10], n=n, penalty=penalty,
                                  repeats=2, base_seed=3, k_select=20,
                                  grid_count=30)
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
        # one shaw build and one exact SVD per seed, and one factorization
        # each of A and B; the checks that never touch shaw build nothing
        calls = []
        for name in ("generate", "svd_full", "rsvd_auto"):
            fn = getattr(diagnostics, name)
            monkeypatch.setattr(diagnostics, name, lambda *a, name=name, fn=fn:
                                calls.append(name) or fn(*a))
        harness.verify_run(diagnostics.VERIFY_CHECKS, seeds=2)
        assert sorted(calls) == ["generate"] * 2 + ["rsvd_auto"] * 4 + ["svd_full"] * 2
        calls.clear()
        harness.verify_run(["rsvd_capture"], seeds=2)
        harness.verify_run(["weyl"], seeds=2)
        assert calls == []


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
        args = ["solve", "--problem", "deriv2", "--n", "32", "--delta", "0.01",
                "--k", "4", "--alpha", "1e-4", "--format", "json"]
        assert main(args + ["--method", method, "--penalty", "d1"]) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["type"] == "ValueError"
        assert "--method" in err["error"] and "--penalty" in err["error"]
        assert main(args + ["--method", method]) == 0
        assert main(args + ["--method", "gtikh_range", "--penalty", "d1"]) == 0

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

    def test_bench_small(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--ns", "32,64", "--ks", "4", "--methods",
                   "direct,range", "--repeats", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert lines[0].split(",")[-2:] == ["seconds", "blas_threads"]
