"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import rsvdreg
from rsvdreg import harness

from perfbench import bench, calib, compare, oracle, run
from perfbench.tracing import Tracer, span_stats
from perfbench.workloads import DELTAS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_tiny(workload, trace, cwd=ROOT, seed=1):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = load_spec()
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    spec = load_spec()
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.layer_metric_units()


def test_oracle_counts_a_corrupted_record_as_failed():
    records = harness.table_run(["shaw"], DELTAS, penalty="d1", n=128, repeats=1,
                                base_seed=4, workers=1)
    seed = 4
    failures, x_norm = oracle.check_table_unit(records, seed)
    assert failures == [] and x_norm > 0
    checked = seed % len(records)
    bad = list(records)
    bad[checked] = dataclasses.replace(bad[checked], e=bad[checked].e * (1 + 1e-4))
    failures, _ = oracle.check_table_unit(bad, seed)
    assert len(failures) == 1 and "oracle" in failures[0]


def test_reference_selection_flags_an_alpha_off_the_grid_or_off_its_best_point():
    records = harness.table_run(["shaw"], DELTAS, penalty="d1", n=128, repeats=1,
                                base_seed=4, workers=1)
    failures, ratios = oracle.check_selection(records)
    assert failures == [] and all(r >= 1.0 for r in ratios)
    off_grid = [dataclasses.replace(records[0], alpha_star=records[0].alpha_star * 1.5)]
    assert "not on the 100-point reference grid" in oracle.check_selection(off_grid)[0][0]
    step = 10 ** (14 / (oracle.GRID_COUNT - 1))
    far = [dataclasses.replace(records[0], alpha_star=records[0].alpha_star * step ** 8)]
    assert "at the reference selection" in oracle.check_selection(far)[0][0]


def test_noted_or_nonfinite_cells_fail_without_the_oracle():
    records = harness.table_run(["deriv2"], DELTAS, n=64, repeats=1, workers=1)
    noted = [dataclasses.replace(records[0], note="LinAlgError: boom"), records[1]]
    assert oracle.check_table_unit(noted, 0) == (["deriv2 delta=0.01: note "
                                                  "'LinAlgError: boom'"], None)
    nan = [records[0], dataclasses.replace(records[1], e_ij=float("nan"))]
    assert oracle.check_table_unit(nan, 0)[0]


def test_verify_checks_flag_a_failed_trial_and_a_check_never_met():
    report = harness.verify_run(["weyl"], seeds=1, n=40)
    assert oracle.check_verify_unit(report) == []
    broken = {"weyl": dict(report["weyl"], passed=0)}
    assert oracle.check_verify_unit(broken)
    assert "tikh: no trial met its hypotheses" in oracle.check_verify_pass([report])


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (harness.select_alpha, rsvdreg.rsvd.qr_thin, rsvdreg.solvers.solve_spd,
                 rsvdreg.smoothing.WeightedPinvBundle.gamma_apply)
    with Tracer() as tracer:
        assert harness.select_alpha is not originals[0]
        assert rsvdreg.rsvd.qr_thin is not originals[1]
        with tracer.unit_span("u"):
            records = harness.table_run(["shaw"], DELTAS[:1], penalty="d1", n=128,
                                        repeats=1)
    assert not records[0].note
    assert (harness.select_alpha, rsvdreg.rsvd.qr_thin, rsvdreg.solvers.solve_spd,
            rsvdreg.smoothing.WeightedPinvBundle.gamma_apply) == originals
    stats = span_stats(tracer.spans)
    for name in ("harness.table_run", "diagnostics.select_alpha", "rsvd.qr_thin",
                 "rsvd.rsvd_tall.dense", "rsvd.rsvd_tall.op", "linalg.solve_spd",
                 "smoothing.gamma_apply", "smoothing.weighted_pinv"):
        assert stats[name]["calls"] > 0, name
    assert all(s[4] == "u" for s in tracer.spans)
    total_self = sum(st["self_s"] for st in stats.values())
    assert total_self == pytest.approx(stats["bench.unit"]["total_s"], rel=1e-9)


def test_self_time_subtracts_direct_children():
    spans = [("root", 0.0, 10.0, -1, "u"), ("a", 1.0, 4.0, 0, "u"),
             ("b", 2.0, 3.0, 1, "u"), ("a", 5.0, 6.0, 0, "u")]
    stats = span_stats(spans)
    assert stats["root"]["self_s"] == pytest.approx(6.0)
    assert stats["a"] == {"calls": 2, "total_s": pytest.approx(4.0),
                          "self_s": pytest.approx(3.0)}


def test_reference_speed_scaling_is_a_fixed_factor():
    assert calib.to_reference(2.0, calib.REFERENCE_S, 0.7) == 2.0
    assert calib.to_reference(2.0, 2 * calib.REFERENCE_S, 1.0) == pytest.approx(1.0)
    assert calib.to_reference(2.0, 2 * calib.REFERENCE_S, 0.5) == pytest.approx(2 ** 0.5)
    # a unit twice as fast reads half as long, whatever the machine's speed
    assert calib.to_reference(1.0, 0.05, 0.6) == pytest.approx(
        calib.to_reference(2.0, 0.05, 0.6) / 2)
    assert all(0 < w.speed_elasticity <= 1 for w in WORKLOADS.values())
    assert 0 < calib.SETUP_ELASTICITY <= 1


def test_verdicts_follow_the_bounds():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    parent = {s: 10.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(parent, {s: 8.0 for s in range(10)}, metric)["verdict"] == "improved"
    assert compare.verdict(parent, {s: 10.5 for s in range(10)}, metric)["verdict"] == "no worse"
    assert compare.verdict(parent, {s: 12.0 for s in range(10)}, metric)["verdict"] == "worse"
    noisy = {s: 10.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, {s: 11.0 for s in range(10)}, metric)["verdict"] == "unresolved"


def _result_set(path, workload, walls, bad_seeds=()):
    runs = []
    for seed, wall in enumerate(walls):
        result = None if seed in bad_seeds else {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
        runs.append({"workload": workload, "seed": seed, "exit_code": 0, "result": result})
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_and_steady_fail_on_incorrect_runs(tmp_path):
    walls = [10.0 + 0.01 * s for s in range(10)]
    parent = _result_set(tmp_path / "parent.json", "verify", walls)
    same = _result_set(tmp_path / "same.json", "verify", walls)
    one_bad = _result_set(tmp_path / "one_bad.json", "verify", walls, bad_seeds={3})
    all_bad = _result_set(tmp_path / "all_bad.json", "verify", walls, bad_seeds=set(range(10)))
    other = _result_set(tmp_path / "other.json", "sweep-rank", walls)
    spec = load_spec()
    assert compare.compare(parent, same, spec) == 0
    assert compare.compare(parent, one_bad, spec) == 1
    assert compare.compare(parent, all_bad, spec) == 1
    assert compare.compare(all_bad, all_bad, spec) == 1
    assert compare.compare(parent, other, spec) == 1
    assert compare.steady(parent, same, spec) == 0
    assert compare.steady(one_bad, None, spec) == 1
    assert compare.steady(parent, one_bad, spec) == 1
    assert compare.steady(parent, other, spec) == 1


def test_run_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_tiny("verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
