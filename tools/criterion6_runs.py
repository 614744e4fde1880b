"""Run acceptance criterion 6 alone on two checkouts, alternating.

    python tools/criterion6_runs.py PARENT CHANGE --runs N

Each run is one fresh interpreter with ``CHECKOUT/src`` on its path and BLAS
pinned to one thread, timing the criterion's own
``harness.bench_run(ns=(250, 500, 1000, 2000), ks=(20, 30), repeats=3,
base_seed=0)``.  Every checkout runs ``N`` times; the runs alternate between
the two, and which one goes first alternates pair by pair.  For each run the
script prints the direct/projected/range log-log slopes at k=20, the
direct/range speedup at n=2000, the k30/k20 range time ratio at n=2000 and
PASS or FAIL under the test's bounds.  It ends with each side's pass count
and the medians of those figures.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

CHILD = """
import json
from rsvdreg import harness
rows = harness.bench_run(ns=(250, 500, 1000, 2000), ks=(20, 30), repeats=3,
                         base_seed=0)
t = {(r["n"], r["method"], r["k"]): r["seconds"] for r in rows}
print(json.dumps({
    "threads": sorted({str(r["blas_threads"]) for r in rows}),
    "direct": harness.loglog_slope(rows, "direct", k=20),
    "projected": harness.loglog_slope(rows, "projected", k=20),
    "range": harness.loglog_slope(rows, "range", k=20),
    "speedup": t[(2000, "direct", 20)] / t[(2000, "range", 20)],
    "k30_k20": t[(2000, "range", 30)] / t[(2000, "range", 20)],
}))
"""
FIGURES = ("direct", "projected", "range", "speedup", "k30_k20")


def passes(r):
    """The bounds of ``test_criterion_6_timing_scaling``."""
    return (r["threads"] == ["1"] and 2.5 <= r["direct"] <= 3.5
            and 1.5 <= r["projected"] <= 2.5 and 1.5 <= r["range"] <= 2.5
            and r["speedup"] >= 10.0)


def run(checkout):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--runs", type=int, required=True,
                    help="runs per checkout")
    args = ap.parse_args(argv)
    results = {"parent": [], "change": []}
    sides = (("parent", args.parent), ("change", args.change))
    for i in range(args.runs):
        for label, checkout in sides if i % 2 == 0 else sides[::-1]:
            r = run(checkout)
            r["pass"] = passes(r)
            results[label].append(r)
            print(f"{label:6s} run {i + 1}: slopes {r['direct']:.2f}/"
                  f"{r['projected']:.2f}/{r['range']:.2f}  speedup "
                  f"{r['speedup']:.1f}x  k30/k20 {r['k30_k20']:.2f}  "
                  f"{'PASS' if r['pass'] else 'FAIL'}", flush=True)
    for label, rs in results.items():
        med = "/".join(f"{median(r[f] for r in rs):.2f}" for f in FIGURES)
        print(f"{label}: {sum(r['pass'] for r in rs)} of {len(rs)} passed; "
              f"medians direct/projected/range/speedup/k30_k20 {med}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
