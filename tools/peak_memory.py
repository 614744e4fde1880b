"""Print the tracemalloc peak of the table and sweep drivers of a checkout.

    python tools/peak_memory.py CHECKOUT [--n 2000] [--problem deriv2]

Each call runs in a fresh interpreter with ``CHECKOUT/src`` on its path and
BLAS pinned to one thread, under ``tracemalloc`` from before the call, so the
problem the driver builds is counted:

* ``table_run([problem], (0.01, 0.05), penalty, n, k=20, p=5, q=0,
  repeats=1)`` for the penalties none, d1 and d2, one unit of the table
  workloads;
* ``rank_sweep(problem, 0.01, ks, n, p=5, q=0, repeats=3)`` over the ranks
  2 to 60 of the rank-sweep workload.

For each it prints the peak as a multiple of ``n * n`` float64 values and in
MB.  tracemalloc counts numpy's allocations (LAPACK workspace included, as
scipy allocates it through numpy), not OpenBLAS's own buffers or the
interpreter's baseline, so the figures are the drivers' arrays alone.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SWEEP_KS = (2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 50, 60)

CALLS = {
    "table none": "harness.table_run([{problem!r}], (0.01, 0.05), penalty='none', "
                  "n={n}, k=20, p=5, q=0, repeats=1)",
    "table d1": "harness.table_run([{problem!r}], (0.01, 0.05), penalty='d1', "
                "n={n}, k=20, p=5, q=0, repeats=1)",
    "table d2": "harness.table_run([{problem!r}], (0.01, 0.05), penalty='d2', "
                "n={n}, k=20, p=5, q=0, repeats=1)",
    "rank_sweep": "harness.rank_sweep({problem!r}, 0.01, " + repr(SWEEP_KS)
                  + ", n={n}, p=5, q=0, repeats=3)",
}

CHILD = """
import json, tracemalloc
from rsvdreg import harness
tracemalloc.start()
{call}
print(json.dumps(tracemalloc.get_traced_memory()[1]))
"""


def peak_bytes(checkout, call):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD.format(call=call)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout")
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--problem", default="deriv2")
    args = ap.parse_args(argv)
    for label, call in CALLS.items():
        peak = peak_bytes(args.checkout, call.format(problem=args.problem, n=args.n))
        print(f"{label:10s} {args.problem} n={args.n}: peak "
              f"{peak / (8 * args.n**2):.2f} n^2 doubles ({peak / 1e6:.1f} MB)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
