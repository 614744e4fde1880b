#!/usr/bin/env python3
"""Judge result sets written by ``series.py`` against ``BENCHMARK.json``.

    python3 perfbench/compare.py PARENT.json CHANGE.json
    python3 perfbench/compare.py --steady FIRST.json [SECOND.json]

Comparison: for every (workload, end-to-end metric) it prints both medians
and quartiles with the run counts, the pairs (same seed) the change won, and
a verdict.  ``improved`` needs at least nine tenths of the pairs won and a
median gap wider than the parent's quartile spread; ``unresolved`` means the
parent's relative spread exceeds the metric's bound and the change does not
beat every parent run; ``worse`` means the change's median is worse than the
parent's by more than the bound; otherwise ``no worse``.  Before the metrics,
each workload's runs that printed no result or an incorrect one are counted
on both sides; the change fails when it has more of them than the parent, or
when a workload one side ran is missing from the other.

Steadiness: every run of FIRST and SECOND must be correct; the relative
quartile spread of each metric in FIRST must stay within its bound and is
flagged above a third of it; with SECOND, each median of SECOND may not be
worse than FIRST's by more than the bound.  Exits 1 when a check fails.
"""

import argparse
import json
import os
import sys
from statistics import median, quantiles

HERE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(HERE_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_values(path):
    """``(values, bad)`` of one result set: ``values`` maps (workload, metric)
    to {seed: value} over the correct runs; ``bad`` maps each workload that
    was run to ``(runs, seeds of the runs with no result or an incorrect one)``."""
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    values, bad = {}, {}
    for run in runs:
        res = run["result"]
        tally = bad.setdefault(run["workload"], (set(), []))
        tally[0].add(run["seed"])
        if not res or not res["correct"] or res["failed"]:
            tally[1].append(run["seed"])
            print(f"{path}: {run['workload']} seed={run['seed']} has no correct "
                  f"result (exit {run['exit_code']})", file=sys.stderr)
            continue
        for name, m in res["metrics"].items():
            values.setdefault((run["workload"], name), {})[run["seed"]] = m["value"]
    return values, bad


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q1, _, q3 = quantiles(vals, n=4)
    return q1, q3


def worse_by(old, new, better):
    """Relative amount by which ``new`` is worse than ``old``."""
    return (new - old) / abs(old) if better == "lower" else (old - new) / abs(old)


def verdict(parent, change, metric):
    """The comparison row of one metric on one workload."""
    better = metric["better"]
    seeds = sorted(set(parent) & set(change))
    wins = sum((change[s] < parent[s]) if better == "lower" else (change[s] > parent[s])
               for s in seeds)
    p, c = sorted(parent.values()), sorted(change.values())
    mp, mc = median(p), median(c)
    q1, q3 = quartiles(p)
    spread = (q3 - q1) / abs(mp)
    all_better = (max(c) < min(p)) if better == "lower" else (min(c) > max(p))
    gap = -worse_by(mp, mc, better)
    if seeds and wins >= 0.9 * len(seeds) and gap * abs(mp) > q3 - q1:
        word = "improved"
    elif spread > metric["bound"] and not all_better:
        word = "unresolved"
    elif -gap > metric["bound"]:
        word = "worse"
    else:
        word = "no worse"
    return {"parent_median": mp, "parent_q": (q1, q3), "n_parent": len(p),
            "change_median": mc, "change_q": quartiles(c), "n_change": len(c),
            "pairs_won": wins, "pairs": len(seeds), "verdict": word}


def compare(parent_path, change_path, spec):
    (parent, parent_bad), (change, change_bad) = (load_values(parent_path),
                                                  load_values(change_path))
    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in parent_bad and name not in change_bad:
            continue
        if name not in parent_bad or name not in change_bad:
            print(f"{name:<11} run by one side only  worse")
            ok = False
            continue
        (runs_p, bad_p), (runs_c, bad_c) = parent_bad[name], change_bad[name]
        # a side with no correct run at all leaves nothing to compare
        word = ("worse" if len(bad_c) > len(bad_p) or len(bad_c) == len(runs_c)
                else "no worse")
        print(f"{name:<11} {'incorrect':<12} parent {len(bad_p)}/{len(runs_p)}  "
              f"change {len(bad_c)}/{len(runs_c)}  {word}")
        ok &= word != "worse"
        for metric in spec["end_to_end"]:
            key = (name, metric["name"])
            if key not in parent or key not in change:
                continue
            row = verdict(parent[key], change[key], metric)
            ok &= row["verdict"] in ("improved", "no worse")
            print(f"{name:<11} {metric['name']:<12} parent {row['parent_median']:.6g} "
                  f"[{row['parent_q'][0]:.6g}, {row['parent_q'][1]:.6g}] n={row['n_parent']}  "
                  f"change {row['change_median']:.6g} [{row['change_q'][0]:.6g}, "
                  f"{row['change_q'][1]:.6g}] n={row['n_change']}  won "
                  f"{row['pairs_won']}/{row['pairs']}  {row['verdict']}")
    if not (parent_bad or change_bad):
        print("no runs to compare")
        ok = False
    return 0 if ok else 1


def steady(first_path, second_path, spec):
    first, first_bad = load_values(first_path)
    second, second_bad = load_values(second_path) if second_path else ({}, {})
    ok = bool(first_bad)
    if not ok:
        print(f"{first_path}: no runs")
    for label, bad in ((first_path, first_bad), (second_path, second_bad)):
        for name, (_, seeds) in bad.items():
            if seeds:
                print(f"{label}: {name} seeds {seeds} not correct  INCORRECT RUNS")
                ok = False
    for wl in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (wl["name"], metric["name"])
            if key not in first:
                continue
            vals = sorted(first[key].values())
            med = median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med)
            flag = "ok"
            if spread > metric["bound"]:
                flag, ok = "SPREAD OVER BOUND", False
            elif spread > metric["bound"] / 3:
                flag = "spread over bound/3"
            line = (f"{wl['name']:<11} {metric['name']:<12} median {med:.6g} n={len(vals)} "
                    f"spread {spread:.4f} bound {metric['bound']}")
            if key in second:
                drift = worse_by(med, median(second[key].values()), metric["better"])
                line += f"  second median worse by {drift:+.4f}"
                if drift > metric["bound"]:
                    flag, ok = "SECOND MEDIAN WORSE", False
            elif second_path and wl["name"] in first_bad:
                flag, ok = "MISSING FROM SECOND", False
            print(f"{line}  {flag}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steady", action="store_true",
                    help="check the spread of one set (and drift to a second)")
    ap.add_argument("first")
    ap.add_argument("second", nargs="?")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.steady:
        return steady(args.first, args.second, spec)
    if not args.second:
        ap.error("comparison needs a parent and a change result set")
    return compare(args.first, args.second, spec)


if __name__ == "__main__":
    sys.exit(main())
