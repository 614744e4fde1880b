"""Write the seeded outputs of a checkout, one file each, without times.

    python tools/seeded_outputs.py CHECKOUT OUTDIR

runs the ``rsvdreg`` command line of ``CHECKOUT/src`` (in a fresh process
per command, BLAS on one thread) and writes into ``OUTDIR``:

* ``table`` at n=400, two repeats, for the penalties none, d1 and d2, as
  CSV and as ``--detail`` JSON;
* ``sweep-rank`` for shaw without a penalty and with d2, and deriv2 with d1;
* ``sweep-alpha`` for deriv2 without a penalty and with d1, for phillips
  and foxgood without noise (their curves fall far below the data's
  scale) and for shaw with d2;
* ``verify --seeds 20`` (n=200) and ``verify --seeds 5 --n 48``;
* ``solve`` for the six ``tikh_*`` / ``gtikh_*`` methods (d1 for gtikh)
  and the three truncated ones at rank 8.

Wall-time fields (``t_direct``, ``t_proj``, ``t_range``,
``wall_time_seconds``) are dropped, so two checkouts that compute the same
numbers give the same files, and ``diff -r OUT_A OUT_B`` is the
byte-for-byte comparison a refactor is gated on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TIME_KEYS = ("t_direct", "t_proj", "t_range", "wall_time_seconds")
N = "400"

RUNS = {}
for pen in ("none", "d1", "d2"):
    table = ["table", "--n", N, "--repeats", "2", "--penalty", pen]
    RUNS[f"table-{pen}.csv"] = table
    RUNS[f"table-{pen}-detail.json"] = table + ["--detail", "--format", "json"]
for prob, pen in (("shaw", "none"), ("shaw", "d2"), ("deriv2", "d1")):
    RUNS[f"sweep-rank-{prob}-{pen}.json"] = [
        "sweep-rank", "--problem", prob, "--n", N, "--penalty", pen,
        "--format", "json"]
for name, prob, extra in (
        ("deriv2-none", "deriv2", ["--penalty", "none"]),
        ("deriv2-d1", "deriv2", ["--penalty", "d1"]),
        ("phillips-delta0", "phillips", ["--delta", "0"]),
        ("foxgood-delta0", "foxgood", ["--delta", "0"]),
        ("shaw-d2", "shaw", ["--penalty", "d2"])):
    RUNS[f"sweep-alpha-{name}.json"] = [
        "sweep-alpha", "--problem", prob, "--n", N, *extra, "--format", "json"]
RUNS["verify.json"] = ["verify", "--seeds", "20"]
RUNS["verify-n48.json"] = ["verify", "--seeds", "5", "--n", "48"]
for method in ("tikh_direct", "tikh_proj", "tikh_range"):
    for pen_method, pen in ((method, "none"), ("g" + method, "d1")):
        RUNS[f"solve-{pen_method}.json"] = [
            "solve", "--problem", "shaw", "--n", N, "--delta", "0.01",
            "--seed", "3", "--method", pen_method, "--penalty", pen,
            "--format", "json"]
for method in ("tsvd", "trsvd_proj", "trsvd_range"):
    RUNS[f"solve-{method}.json"] = [
        "solve", "--problem", "shaw", "--n", N, "--delta", "0.01", "--seed",
        "3", "--method", method, "--k", "8", "--format", "json"]


def _drop_times(obj):
    if isinstance(obj, dict):
        return {k: _drop_times(v) for k, v in obj.items() if k not in TIME_KEYS}
    if isinstance(obj, list):
        return [_drop_times(v) for v in obj]
    return obj


def run(checkout, argv):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout, "src").resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    code = "import sys; from rsvdreg.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, outdir = argv
    Path(outdir).mkdir(parents=True, exist_ok=True)
    for name, args in RUNS.items():
        text = run(checkout, args)
        if name.endswith(".json"):
            text = json.dumps(_drop_times(json.loads(text)), indent=2,
                              sort_keys=True) + "\n"
        Path(outdir, name).write_text(text)
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
