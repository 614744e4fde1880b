"""Timed phase, traced pass, checks and metrics of one benchmark run."""

import json
import math
import resource
import time
import warnings
from collections import defaultdict
from contextlib import nullcontext
from statistics import median

from rsvdreg import RankDeficiencyWarning

from perfbench import calib, oracle
from perfbench.tracing import SPAN_FIELDS, TARGETS, UNIT_SPAN, Tracer, span_stats
from perfbench.workloads import SWEEP_POLICIES, WORKLOADS, make_units, params

LAYERS = ("problems", "smoothing", "rsvd", "linalg", "solvers", "diagnostics", "harness")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "err_rel": "ratio"}

#: Unit seconds per calibration-kernel call in the timed phase (see ``run_passes``).
KERNEL_EVERY_S = 0.5


def _timed(call):
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - a raising unit is a failed unit
        out = exc
    return out, time.perf_counter() - t0


def run_passes(units, seconds, tracer=None, elasticity=None):
    """Cycle through ``units`` until ``seconds`` have elapsed, always
    completing the first pass.  Returns the first output of every unit,
    every duration per unit, the same durations at reference speed and the
    process-CPU / wall ratio.

    Given an ``elasticity``, the calibration kernel runs once before the first
    unit and after every unit, about once per ``KERNEL_EVERY_S`` of the
    unit's time and at least once; each duration is scaled to reference speed
    by the median of the kernel calls on either side of it, which bracket it
    in time.  Otherwise the scaled durations are empty."""
    outputs, times, scaled = {}, defaultdict(list), defaultdict(list)
    span = tracer.unit_span if tracer else lambda uid: nullcontext()
    calibrate = elasticity is not None
    kernel_before = [calib.kernel_seconds()] if calibrate else []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    first_pass = True
    while first_pass or time.perf_counter() - wall0 < seconds:
        for u in units:
            if not first_pass and time.perf_counter() - wall0 >= seconds:
                break
            with span(u.uid):
                out, dt = _timed(u.call)
            times[u.uid].append(dt)
            outputs.setdefault(u.uid, out)
            if calibrate:
                kernel_after = [calib.kernel_seconds()
                                for _ in range(1 + int(dt / KERNEL_EVERY_S))]
                scaled[u.uid].append(calib.to_reference(
                    dt, median(kernel_before + kernel_after), elasticity))
                kernel_before = kernel_after
        first_pass = False
    cpu_util = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    return outputs, dict(times), dict(scaled), cpu_util


def pass_wall(times):
    """Time of one full pass: the sum over units of each unit's median."""
    return sum(median(ts) for ts in times.values())


def check(name, outputs, seed, tiny=False):
    """(failures per unit, pass-level failures, accuracy figures).  On the
    table workloads the unit ``seed % units`` also gets the reference alpha
    selection."""
    driver = WORKLOADS[name].driver
    prm = params(name, tiny)
    failures, x_norms, select_ratios = {}, {}, []
    reference = list(outputs)[seed % len(outputs)]
    for uid, out in outputs.items():
        if isinstance(out, Exception):
            found = [f"raised {type(out).__name__}: {out}"]
        elif driver == "table_run":
            found, x_norms[uid] = oracle.check_table_unit(out, seed)
            if uid == reference and not found:
                found, select_ratios = oracle.check_selection(out)
        elif driver == "rank_sweep":
            found = oracle.check_sweep_unit(out, prm["ks"], SWEEP_POLICIES, prm["repeats"])
        else:
            found = oracle.check_verify_unit(out)
        if found:
            failures[uid] = found
    good = {uid: out for uid, out in outputs.items() if uid not in failures}
    pass_failures = oracle.check_verify_pass(good.values()) if driver == "verify_run" else []
    accuracy = {}
    if good:
        if driver == "table_run":
            accuracy = oracle.table_accuracy(
                [(out, x_norms[uid]) for uid, out in good.items()], select_ratios)
        elif driver == "rank_sweep":
            accuracy = oracle.sweep_accuracy([r for rows in good.values() for r in rows])
        else:
            accuracy = oracle.verify_accuracy(good.values())
    return failures, pass_failures, accuracy


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _span_names():
    names = []
    for span_name, _, attr in TARGETS:
        names += [f"{span_name}.dense", f"{span_name}.op"] if attr == "rsvd_tall" else [span_name]
    return names


def layer_metric_units():
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for name in _span_names():
        if not name.startswith("harness."):
            units[f"{name}.calls"] = "count"
            units[f"{name}.total_share"] = "ratio"
        units[f"{name}.self_share"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    units.update({
        "rsvd.probe_cols": "count",
        "rsvd.gflop": "GFLOP",
        "rsvd.rank_deficient_frac": "ratio",
        "solvers.direct.gflop": "GFLOP",
        "smoothing.weighted_pinv.out_mb": "MB",
        "diagnostics.select_alpha.grid_points": "count",
        "diagnostics.select_alpha.boundary_frac": "ratio",
        "diagnostics.select_alpha.excluded_points": "count",
        "diagnostics.hypotheses_met_frac": "ratio",
        "bench.cpu_util": "ratio",
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.uncovered_share": "ratio",
    })
    return units


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(tracer, untraced_wall, cpu_util):
    """Per-layer values of one traced pass.  Shares are fractions of the
    traced wall time (the sum of the ``bench.unit`` spans)."""
    stats = span_stats(tracer.spans)
    wall = stats[UNIT_SPAN]["total_s"]
    c = tracer.counters.c
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values = {}
    for span in _span_names():
        st = stats.get(span, zero)
        if not span.startswith("harness."):
            values[f"{span}.calls"] = st["calls"]
            values[f"{span}.total_share"] = st["total_s"] / wall
        values[f"{span}.self_share"] = st["self_s"] / wall
    for layer in LAYERS:
        values[f"{layer}.self_share"] = sum(
            st["self_s"] for name, st in stats.items()
            if name.split(".")[0] == layer) / wall
    rsvd_calls = (stats.get("rsvd.rsvd_tall.dense", zero)["calls"]
                  + stats.get("rsvd.rsvd_tall.op", zero)["calls"])
    select_calls = stats.get("diagnostics.select_alpha", zero)["calls"]
    values.update({
        "rsvd.probe_cols": int(c["rsvd.probe_cols"]),
        "rsvd.gflop": c["rsvd.gflop"],
        "rsvd.rank_deficient_frac": _ratio(c["rsvd.deficient_calls"], rsvd_calls),
        "solvers.direct.gflop": c["solvers.direct.gflop"],
        "smoothing.weighted_pinv.out_mb": c["smoothing.weighted_pinv.out_mb"],
        "diagnostics.select_alpha.grid_points": int(c["diagnostics.select_alpha.grid_points"]),
        "diagnostics.select_alpha.boundary_frac": _ratio(
            c["diagnostics.select_alpha.boundary"], select_calls),
        "diagnostics.select_alpha.excluded_points": int(
            c["diagnostics.select_alpha.excluded_points"]),
        "diagnostics.hypotheses_met_frac": _ratio(
            c["diagnostics.hypotheses_met"], c["diagnostics.bound_checks"]),
        "bench.cpu_util": cpu_util,
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / untraced_wall - 1.0,
        "trace.uncovered_share": stats[UNIT_SPAN]["self_s"] / wall,
    })
    return values


def write_spans(path, tracer):
    t0 = min(s[1] for s in tracer.spans)
    with open(path, "w") as fh:
        json.dump({"fields": SPAN_FIELDS,
                   "spans": [[n, s - t0, e - t0, p, u] for n, s, e, p, u in tracer.spans]},
                  fh, separators=(",", ":"))


def run(name, seed, seconds, trace, tiny=False):
    """The measured part of a run: returns a dict with the outputs' checks,
    the timings and, when tracing, the per-layer metrics and tracer."""
    units = make_units(name, seed, tiny)
    with warnings.catch_warnings():
        # the traced pass counts these per call; here they would only print
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        outputs, times, scaled, cpu_util = run_passes(
            units, seconds, elasticity=WORKLOADS[name].speed_elasticity)
    result = {"times": times, "scaled_times": scaled, "raw_wall_s": pass_wall(times),
              "wall_s": pass_wall(scaled), "cpu_util": cpu_util,
              "peak_rss_mb": peak_rss_mb()}
    if trace:
        with Tracer() as tracer:
            run_passes(units, 0, tracer)
        result["layers"] = layer_metrics(tracer, result["raw_wall_s"], cpu_util)
        result["tracer"] = tracer
    failures, pass_failures, accuracy = check(name, outputs, seed, tiny)
    result.update(failures=failures, pass_failures=pass_failures, accuracy=accuracy,
                  attempted=len(units), failed=len(failures), outputs=outputs)
    result["correct"] = not failures and not pass_failures and all(
        math.isfinite(v) for v in accuracy.values()) and bool(accuracy)
    return result
