"""Command-line front end.

Subcommands: ``gen`` (write a problem directory), ``solve`` (run one
solver), ``table`` (error tables over examples and noise levels),
``sweep-alpha`` (parameter sweep curve), ``sweep-rank`` (error vs rank),
``bench`` (wall-clock scaling) and ``verify`` (bound verification).

Exit code is 0 when every requested row was produced; otherwise a
machine-readable JSON error is printed to stderr and the exit code is
nonzero.
"""

import argparse
import json
import sys
import warnings

import numpy as np

from . import diagnostics, harness, mmio, problems, solvers
from .linalg import RankDeficiencyWarning, svd_full
from .rsvd import RsvdConfig, rsvd_auto

#: ``verify --theorem`` name -> check id, in report order
VERIFY_NAMES = {name: cid for cid, (name, _) in diagnostics.CHECKS.items()}


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _float_list(text):
    return [float(v) for v in text.split(",") if v]


def _alpha_grid(text):
    """``--alpha-grid LO,HI,COUNT`` as ``(lo, hi, count)``, None when absent;
    ``select_alpha`` checks the range."""
    if not text:
        return None
    try:
        lo, hi, count = text.split(",")
        return float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"--alpha-grid expects LO,HI,COUNT (two floats and "
                         f"a point count), got {text!r}") from None


def _problem_list(text):
    if text == "all":
        return list(problems.PROBLEM_NAMES)
    return [v for v in text.split(",") if v]


def _add_common(sub):
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rsvdreg",
        description="Randomized-SVD regularization benchmark harness",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("gen", help="generate a problem directory")
    s.add_argument("--problem", required=True, choices=problems.PROBLEM_NAMES)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--delta", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="output directory")

    s = subs.add_parser("solve", help="run one solver on one problem")
    s.add_argument("--problem", required=True, choices=problems.PROBLEM_NAMES)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--delta", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--method", required=True, choices=solvers.METHODS)
    s.add_argument("--k", type=int, default=20)
    s.add_argument("--p", type=int, default=5)
    s.add_argument("--q", type=int, default=0)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--alpha-grid", default=None, metavar="LO,HI,COUNT",
                   help="select alpha by error minimization over a log grid")
    s.add_argument("--penalty", choices=sorted(harness.PENALTIES), default="none")
    _add_common(s)

    s = subs.add_parser("table", help="error table over examples and noise levels")
    s.add_argument("--problems", default="all",
                   help="comma-separated names or 'all'")
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--deltas", default="0.01,0.05")
    s.add_argument("--penalty", choices=sorted(harness.PENALTIES), default="none")
    s.add_argument("--k", type=int, default=20)
    s.add_argument("--p", type=int, default=5)
    s.add_argument("--q", type=int, default=0)
    s.add_argument("--repeats", type=int, default=5)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--detail", action="store_true",
                   help="emit per-seed records instead of medians")
    _add_common(s)

    s = subs.add_parser("sweep-alpha", help="error curve over the alpha grid")
    s.add_argument("--problem", required=True, choices=problems.PROBLEM_NAMES)
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--delta", type=float, default=0.01)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--k", type=int, default=100)
    s.add_argument("--p", type=int, default=5)
    s.add_argument("--q", type=int, default=0)
    s.add_argument("--alpha-grid", default=None, metavar="LO,HI,COUNT")
    s.add_argument("--penalty", choices=sorted(harness.PENALTIES), default="none")
    _add_common(s)

    s = subs.add_parser("sweep-rank", help="error vs factorization rank")
    s.add_argument("--problem", required=True, choices=problems.PROBLEM_NAMES)
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--delta", type=float, default=0.01)
    s.add_argument("--ks", default="2,4,6,8,10,14,18,22,26,30,40,50,60")
    s.add_argument("--policies", default="alpha_star,10x,0.1x")
    s.add_argument("--penalty", choices=sorted(harness.PENALTIES), default="none")
    s.add_argument("--repeats", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--p", type=int, default=5)
    s.add_argument("--q", type=int, default=0)
    s.add_argument("--workers", type=int, default=1)
    _add_common(s)

    s = subs.add_parser("bench", help="wall-clock scaling of the solvers")
    s.add_argument("--problem", default="deriv2", choices=problems.PROBLEM_NAMES)
    s.add_argument("--ns", default="250,500,1000,2000")
    s.add_argument("--ks", default="20")
    s.add_argument("--methods", default="direct,projected,range")
    s.add_argument("--penalty", choices=sorted(harness.PENALTIES), default="none")
    s.add_argument("--delta", type=float, default=0.01)
    s.add_argument("--repeats", type=int, default=3)
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)

    s = subs.add_parser("verify", help="verify the error bounds over seeds")
    s.add_argument("--theorem", default="all",
                   help=f"comma list from {{{','.join(sorted(VERIFY_NAMES))}}} or 'all'")
    s.add_argument("--seeds", type=int, default=50)
    s.add_argument("--n", type=int, default=diagnostics.VERIFY_DEFAULT_N)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    return parser


def cmd_gen(args):
    prob = problems.make_problem(
        args.problem, args.n, problems.NoiseSpec(args.delta, args.seed)
    )
    files = mmio.save_problem(prob, args.out)
    print("\n".join(files))
    return 0


#: each solve method on a Regularization, the rank, ``factor(M)`` (rank-k
#: factors of ``reg.A`` or ``reg.target``), the data and alpha
_SOLVES = {
    "tsvd": lambda reg, k, factor, b, alpha: solvers.tsvd_solve(svd_full(reg.A), k, b),
    "trsvd_proj": lambda reg, k, factor, b, alpha: solvers.trsvd_solve_projected(
        factor(reg.A), b),
    "trsvd_range": lambda reg, k, factor, b, alpha: solvers.trsvd_solve_range(
        reg.A, factor(reg.A), b),
    "tikh_direct": lambda reg, k, factor, b, alpha: reg.direct(b, alpha),
    "tikh_proj": lambda reg, k, factor, b, alpha: reg.projected(
        factor(reg.A), b, alpha),
    "tikh_range": lambda reg, k, factor, b, alpha: reg.range(
        factor(reg.target), b, alpha),
}
#: the methods that take ``--penalty``: their tikh_* solve under that penalty
_PENALIZED = ("gtikh_direct", "gtikh_proj", "gtikh_range")
_SOLVES.update({m: _SOLVES[m[1:]] for m in _PENALIZED})
_NO_ALPHA = ("tsvd", "trsvd_proj", "trsvd_range")


def cmd_solve(args):
    prob = problems.make_problem(
        args.problem, args.n, problems.NoiseSpec(args.delta, args.seed)
    )
    A, b = prob.A, prob.b
    method = args.method
    reg = solvers.Regularization(A, harness.make_penalty(args.penalty, A.shape[1]))
    if not (args.penalty == "none" or method in _PENALIZED):
        raise ValueError(f"--method {method} solves the identity problem, so "
                         f"--penalty {args.penalty} needs a gtikh_* method")
    _, seed = harness._cell_seeds(args.seed, 0)
    cfg = RsvdConfig(k=args.k, p=args.p, q=args.q, seed=seed)
    approx_k = None  # rank-k factors of reg.target from the selection probe
    alpha = args.alpha
    if alpha is None and method not in _NO_ALPHA:
        approx_select, approx_k = harness.selection_probe(
            reg, 100, [args.k], args.p, args.q, seed)
        select = harness.alpha_selector(reg, approx_select,
                                        grid=_alpha_grid(args.alpha_grid))
        alpha, _ = select(prob)

    def factor(M):
        return approx_k if approx_k is not None and M is reg.target else rsvd_auto(M, cfg)

    result = _SOLVES[method](reg, args.k, factor, b, alpha)
    row = {
        "example": args.problem, "n": args.n, "delta": args.delta,
        "seed": args.seed, "method": method, "penalty": args.penalty,
        "k": result.k if result.k is not None else "",
        "alpha": result.alpha if result.alpha is not None else "",
        "noise_norm": prob.noise_norm,
        "error": float(np.linalg.norm(result.x - prob.x_true)),
        "residual": float(np.linalg.norm(A @ result.x - b)),
        "wall_time_seconds": result.wall_time,
    }
    if args.format == "json":
        harness.write_output(row, args.out, "json")
    else:
        harness.write_output(harness.rows_to_csv([row]), args.out, "csv")
    return 0


def cmd_table(args):
    names = _problem_list(args.problems)
    deltas = _float_list(args.deltas)
    records = harness.table_run(
        names, deltas, penalty=args.penalty, n=args.n, k=args.k, p=args.p,
        q=args.q, repeats=args.repeats, base_seed=args.seed, workers=args.workers,
    )
    if args.detail:
        rows = [r.as_dict() for r in records]
    else:
        rows = harness.aggregate_table(records)
    if args.format == "json":
        harness.write_output(rows, args.out, "json")
    else:
        cols = None if args.detail else harness.TABLE_COLUMNS
        harness.write_output(harness.rows_to_csv(rows, cols), args.out, "csv")
    return 1 if any(r.note for r in records) else 0


def cmd_sweep_alpha(args):
    prob = problems.make_problem(
        args.problem, args.n, problems.NoiseSpec(args.delta, args.seed)
    )
    reg = solvers.Regularization(prob.A, harness.make_penalty(args.penalty, args.n))
    [approx] = harness.selection_probe(reg, args.k, [], args.p, args.q,
                                       harness._cell_seeds(args.seed, 0)[1])
    select = harness.alpha_selector(reg, approx, grid=_alpha_grid(args.alpha_grid))
    alpha_star, curve = select(prob)
    rows = [
        {"alpha": float(a), "error": float(e),
         "is_alpha_star": int(a == alpha_star),
         "excluded": int(j in curve.excluded)}
        for j, (a, e) in enumerate(zip(curve.alphas, curve.errors))
    ]
    if args.format == "json":
        harness.write_output({"alpha_star": alpha_star, "curve": rows}, args.out, "json")
    else:
        harness.write_output(harness.rows_to_csv(rows), args.out, "csv")
    return 0


def cmd_sweep_rank(args):
    policies = tuple(args.policies.split(","))
    rows = harness.rank_sweep(
        args.problem, args.delta, _int_list(args.ks), n=args.n,
        penalty=args.penalty, policies=policies,
        repeats=args.repeats, base_seed=args.seed, p=args.p, q=args.q,
        workers=args.workers,
    )
    patterns = {}
    for pol in policies:
        ks, errs = harness.median_curve(rows, pol)
        patterns[pol] = {
            "nonincreasing_to_plateau": harness.nonincreasing_to_plateau(errs),
            "dip_rise_plateau": harness.dip_rise_plateau(errs),
            "optimal_k": harness.optimal_rank(ks, errs),
        }
    if args.format == "json":
        harness.write_output({"rows": rows, "patterns": patterns}, args.out, "json")
    else:
        for pol, pat in sorted(patterns.items()):
            print(f"# {pol}: nonincreasing_to_plateau="
                  f"{pat['nonincreasing_to_plateau']} "
                  f"dip_rise_plateau={pat['dip_rise_plateau']} "
                  f"optimal_k={pat['optimal_k']}", file=sys.stderr)
        harness.write_output(harness.rows_to_csv(rows), args.out, "csv")
    return 0


def cmd_bench(args):
    rows = harness.bench_run(
        name=args.problem, ns=_int_list(args.ns), ks=_int_list(args.ks),
        penalty=args.penalty, methods=tuple(args.methods.split(",")),
        delta=args.delta, repeats=args.repeats, base_seed=args.seed,
    )
    slopes = {
        method: harness.loglog_slope(rows, method)
        for method in args.methods.split(",")
    }
    if args.format == "json":
        harness.write_output({"rows": rows, "slopes": slopes}, args.out, "json")
    else:
        for method, slope in sorted(slopes.items()):
            print(f"# loglog slope {method}: {slope:.3f}", file=sys.stderr)
        harness.write_output(harness.rows_to_csv(rows), args.out, "csv")
    return 0


def cmd_verify(args):
    names = list(VERIFY_NAMES) if args.theorem == "all" else args.theorem.split(",")
    for name in names:
        if name not in VERIFY_NAMES:
            raise ValueError(f"unknown theorem name {name!r}; valid: {sorted(VERIFY_NAMES)}")
    report = harness.verify_run([VERIFY_NAMES[name] for name in names], seeds=args.seeds,
                                n=args.n, base_seed=args.seed)
    harness.write_output(report, args.out, "json")
    return 1 if any(r["passed"] < r["hypotheses_met"] for r in report.values()) else 0


COMMANDS = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "table": cmd_table,
    "sweep-alpha": cmd_sweep_alpha,
    "sweep-rank": cmd_sweep_rank,
    "bench": cmd_bench,
    "verify": cmd_verify,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    # severely ill-posed problems legitimately exhaust the probe rank; say so
    # once instead of once per cell
    warnings.filterwarnings("once", category=RankDeficiencyWarning)
    try:
        return COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - uniform machine-readable failure
        print(
            json.dumps({"error": str(exc), "type": type(exc).__name__}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
