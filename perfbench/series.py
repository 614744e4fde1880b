#!/usr/bin/env python3
"""Run the benchmark over many seeds and collect the results into a set.

    python3 perfbench/series.py --seeds 1-10 --workload verify --out-dir results
    python3 perfbench/series.py --seeds 1-10 --root parent=../old --root change=. \
        --out-dir results

Each run is ``perfbench/run.py --trace 0`` of that root, in a fresh process,
with the ``run_seconds`` of the ``BENCHMARK.json`` next to this file.  With two or
more roots the runs alternate: for odd seed indices the order is reversed,
so neither side always runs first.  Writes ``<out-dir>/<label>.json`` per
root, the input of ``compare.py``.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_root(text):
    label, sep, path = text.partition("=")
    path = path if sep else label
    label = label if sep else os.path.basename(os.path.abspath(path)) or "root"
    return label, os.path.abspath(path)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed,
            "exit_code": proc.returncode, "elapsed_s": elapsed, "result": result,
            "stderr_tail": proc.stderr[-2000:]}


def main(argv=None):
    with open(os.path.join(HERE_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default every workload")
    ap.add_argument("--root", action="append", type=parse_root,
                    help="[label=]checkout; repeatable; default this checkout")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    roots = args.root or [parse_root(HERE_ROOT)]
    seeds = parse_seeds(args.seeds)
    runs = {label: [] for label, _ in roots}
    os.makedirs(args.out_dir, exist_ok=True)
    for workload in args.workload or names:
        for i, seed in enumerate(seeds):
            for label, root in (roots if i % 2 == 0 else roots[::-1]):
                rec = run_once(root, workload, seed, spec["run_seconds"])
                runs[label].append(rec)
                status = "ok" if rec["result"] and rec["result"]["correct"] else "FAIL"
                print(f"{label} {workload} seed={seed} {status} "
                      f"{rec['elapsed_s']:.1f}s", flush=True)
                # rewritten after every run, so an interrupted series keeps its runs
                with open(os.path.join(args.out_dir, f"{label}.json"), "w") as fh:
                    json.dump({"root": root, "runs": runs[label]}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
