#!/usr/bin/env python3
"""Run one benchmark workload in this fresh process and print its result.

    python3 perfbench/run.py --workload table-none --seed 1 --seconds 18 --trace 0

Run from a checkout that holds ``src/rsvdreg``; the package is imported from
there, with BLAS pinned to one thread before numpy loads.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one extra traced pass with ``--trace 1``.  The lines before it
repeat each metric by name and unit, the environment record and the accuracy
breakdown.  The full record (unit timings, failures, environment) goes to
``perfbench/out/``; a traced run also writes its spans there.

Exit codes: 0 with a result line; 2 when the checkout has no package; 3 when
the BLAS thread readback is not 1 (no timings are reported).
"""

import argparse
import json
import os
import subprocess
import sys
import time
import warnings
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("table-none", "table-d1", "sweep-rank", "verify")
#: Set-up is measured in this process and in this many more fresh ones before
#: the timed phase and again after it, so that one run's figure spans ~30 s of
#: a machine whose speed drifts on that scale.
SETUP_PROBES = 4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every size (the benchmark's own smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    return args


def probe_setup(workload):
    """``(set-up seconds, kernel seconds)`` of one fresh interpreter running
    ``startup.py``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "startup.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["kernel_s"]


def _jsonable(obj):
    """Table records are dataclasses; anything else is written as text."""
    return obj.as_dict() if hasattr(obj, "as_dict") else str(obj)


def out_path(name):
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def write_record(record, stem):
    with open(out_path(f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=_jsonable)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rsvdreg", "__init__.py")):
        print(f"perfbench: no package at {src}/rsvdreg; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import envinfo, startup

    envinfo.pin_blas_env()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        setup_here, threads = startup.timed_setup(args.workload)
    import rsvdreg

    if os.path.commonpath([os.path.abspath(rsvdreg.__file__), src]) != src:
        print(f"perfbench: imported rsvdreg from {rsvdreg.__file__}, not {src}",
              file=sys.stderr)
        return 2
    env = envinfo.environment(ROOT, args.seed, threads)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if not env["blas_pin_holds"]:
        write_record({"args": vars(args), "env": env, "valid": False}, stem)
        print(f"perfbench: BLAS thread readback {threads} is not 1; run invalid, "
              "no timings reported", file=sys.stderr)
        return 3

    from perfbench import bench, calib

    probes = 0 if args.trace else SETUP_PROBES  # a traced run reports no setup_s
    setup_samples = [(setup_here, calib.median_kernel_seconds(startup.KERNEL_CALLS))]
    setup_samples += [probe_setup(args.workload) for _ in range(probes)]
    t0 = time.perf_counter()
    res = bench.run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    run_s = time.perf_counter() - t0
    setup_samples += [probe_setup(args.workload) for _ in range(probes)]
    setup_s = median(calib.to_reference(s, k, calib.SETUP_ELASTICITY) for s, k in setup_samples)

    if args.trace:
        metrics = {k: {"value": res["layers"][k], "unit": u}
                   for k, u in bench.layer_metric_units().items()}
        bench.write_spans(out_path(f"spans-{stem}.json"), res["tracer"])
    else:
        values = {"setup_s": setup_s, "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"], "err_rel": res["accuracy"].get("err_rel")}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in bench.END_TO_END_UNITS.items() if values[k] is not None}
    failed_frac = res["failed"] / res["attempted"]
    record = {
        "args": vars(args), "env": env, "valid": True, "run_s": run_s,
        "setup_samples_s": setup_samples, "unit_times_s": res["times"],
        "raw_wall_s": res["raw_wall_s"], "scaled_unit_times_s": res["scaled_times"],
        "accuracy": dict(res["accuracy"], failed_frac=failed_frac),
        "failures": res["failures"], "pass_failures": res["pass_failures"],
        "metrics": metrics, "outputs": res["outputs"],
    }
    write_record(record, stem)

    print("env " + json.dumps(env, sort_keys=True))
    for key, value in sorted(record["accuracy"].items()):
        print(f"accuracy {key} = {value:.6g}")
    for uid, found in res["failures"].items():
        print(f"FAILED {uid}: {'; '.join(found)}")
    for found in res["pass_failures"]:
        print(f"FAILED pass: {found}")
    if not args.trace:
        print(f"raw wall_s = {res['raw_wall_s']!r} s (before scaling to reference speed)")
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
