"""Benchmark drivers: error tables, rank sweeps, timing runs and bound
verification, with CSV/JSON serialization.

Every record carries the seeds needed to reproduce it exactly.  Cells of a
sweep are independent; when run concurrently the output ordering is still
deterministic (records are sorted by their keys, not completion order).
The drivers solve through one :class:`rsvdreg.solvers.Regularization` per
problem and factor through this module's ``rsvd_auto`` and ``rsvd_nested``.
"""

import contextlib
import csv
import ctypes
import functools
import glob
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import diagnostics, problems, smoothing, solvers
from .diagnostics import default_alpha_grid, error_report, select_alpha
from .linalg import estimate_spectral_norm
from .rsvd import RsvdConfig, rsvd_auto, rsvd_nested

PENALTIES = {"none": "identity", "d1": "first_difference", "d2": "second_difference"}


def make_penalty(code, m):
    """Penalty operator from its CLI code (none / d1 / d2)."""
    if code not in PENALTIES:
        raise ValueError(f"unknown penalty {code!r}; expected one of {sorted(PENALTIES)}")
    return smoothing.SmoothingOperator(PENALTIES[code], m)


@dataclass(frozen=True)
class RunRecord:
    """One benchmark cell: problem, method parameters, errors and times,
    from the solves of the problem's :class:`rsvdreg.solvers.Regularization`.

    ``t_direct`` is the direct solve plus the Gram matrix it factors, and
    ``t_proj`` and ``t_range`` include the factorization they use; a table
    charges a shared cost in full to every cell that uses it.  The range
    factors are cut from the selection probe (:func:`selection_probe`,
    ``k_select + p`` columns), so ``t_range``, and ``t_proj`` for the
    identity, charge that whole probe, not a lone rank-k factorization,
    while ``t_direct`` charges no selection: they compare neither with
    ``t_direct`` nor with tables from before the probe was shared.
    ``rsvd_seed`` equals ``select_seed``; ``probe_rank`` is the numerical
    rank of the range factors' (k+p)-row sketch.

    ``note`` is empty on success and carries the failure diagnostic when a
    solver aborted the cell (the numeric fields are then NaN).
    ``alpha_at_lower`` and ``alpha_at_upper`` are set when the selected
    ``alpha_star`` is the first or the last point of its grid, so the
    optimum may lie outside it.
    """

    example: str
    n: int
    delta: float
    penalty: str
    k: int
    p: int
    q: int
    repeat: int
    noise_seed: int
    select_seed: int
    rsvd_seed: int
    alpha_star: float
    noise_norm: float
    e_tilde_xz: float
    e_tilde_ij: float
    e: float
    e_xz: float
    e_ij: float
    t_direct: float
    t_proj: float
    t_range: float
    note: str = ""
    alpha_at_lower: bool = False
    alpha_at_upper: bool = False
    probe_rank: int | None = None

    def as_dict(self):
        return asdict(self)


def _cell_seeds(base_seed, repeat):
    """(noise, factorization) seeds of one table cell or one rank-sweep
    repeat; they depend neither on the noise level nor on the rank."""
    return base_seed + repeat, base_seed + repeat + 555_000


def selection_probe(reg, k_select, ks, p, q, seed):
    """``[selection, *rank-k factors]`` of ``reg.target`` from one probe
    (:func:`rsvdreg.rsvd.rsvd_nested`), the selection rank ``k_select``
    clamped to ``min(shape) - p``.  Each rank agrees to rounding with a lone
    ``rsvd_auto(reg.target, RsvdConfig(k, p, q, seed))``, the widest bit
    for bit."""
    k_sel = min(k_select, min(reg.target.shape) - p)
    return rsvd_nested(reg.target, [k_sel, *ks], p=p, q=q, seed=seed)


def alpha_selector(reg, approx, grid=None, grid_count=100):
    """``select(problem) -> (alpha_star, curve)``: the alpha minimizing the
    error of ``reg``'s range-preserving solve over ``grid`` (by default
    ``grid_count`` points, see :func:`rsvdreg.diagnostics.select_alpha`),
    from the factors ``approx`` of ``reg.target`` shared by every problem
    it is given.  For tall-path factors its basis ``Gamma A.T U`` is
    ``L_sharp V diag(sigma)`` (see :mod:`rsvdreg.solvers`): no product with
    ``A``."""
    basis = reg.basis(approx)
    if grid is None:
        grid = default_alpha_grid(approx.sigma[0], grid_count)
    return lambda prob: select_alpha(prob, reg.path(basis, approx, prob.b), grid)


def _map(fn, items, workers):
    """``[fn(x) for x in items]``, on ``workers`` threads when above one."""
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _table_repeat(base, reg, t_gram, deltas, penalty, k, p, q, repeat,
                  base_seed, k_select, grid_count):
    """The cells of one repeat, one per noise level, which share its
    factorizations (see :func:`table_run`)."""
    noise_seed, seed = _cell_seeds(base_seed, repeat)
    A = reg.A
    (approx_select, approx_B), t_factor_B = _timed(
        selection_probe, reg, k_select, [k], p, q, seed)
    select = alpha_selector(reg, approx_select, grid_count=grid_count)
    if reg.target is A:
        approx_A, t_factor_A = approx_B, t_factor_B
    else:
        approx_A, t_factor_A = _timed(rsvd_auto, A,
                                      RsvdConfig(k=k, p=p, q=q, seed=seed))

    def cell(delta):
        prob = problems.with_noise(base, problems.NoiseSpec(delta, noise_seed))
        b = prob.b
        alpha_star, curve = select(prob)
        direct = reg.direct(b, alpha_star, gram=reg.gram)
        hat = reg.projected(approx_A, b, alpha_star)
        tilde = reg.range(approx_B, b, alpha_star)
        rep = error_report(hat.x, tilde.x, direct.x, prob.x_true)
        return RunRecord(
            example=prob.name, n=A.shape[0], delta=delta, penalty=penalty, k=k,
            p=p, q=q, repeat=repeat, noise_seed=noise_seed,
            select_seed=seed, rsvd_seed=seed, alpha_star=alpha_star,
            noise_norm=prob.noise_norm, t_direct=t_gram + direct.wall_time,
            t_proj=t_factor_A + hat.wall_time,
            t_range=t_factor_B + tilde.wall_time,
            alpha_at_lower=curve.at_lower_boundary,
            alpha_at_upper=curve.at_upper_boundary,
            probe_rank=approx_B.probe_rank, **rep.as_dict(),
        )

    records = []
    for delta in deltas:
        # a failed cell must not take down the rest of the table; it is
        # reported in its row
        try:
            records.append(cell(delta))
        except Exception as exc:  # noqa: BLE001
            records.append(_failed_record(base.name, A.shape[0], delta,
                                          penalty, k, p, q, repeat, base_seed, exc))
    return records


def _failed_record(name, n, delta, penalty, k, p, q, repeat, base_seed, exc):
    noise_seed, seed = _cell_seeds(base_seed, repeat)
    nan = float("nan")
    return RunRecord(
        example=name, n=n, delta=delta, penalty=penalty, k=k, p=p, q=q,
        repeat=repeat, noise_seed=noise_seed, select_seed=seed,
        rsvd_seed=seed, alpha_star=nan, noise_norm=nan, e_tilde_xz=nan,
        e_tilde_ij=nan, e=nan, e_xz=nan, e_ij=nan, t_direct=nan, t_proj=nan,
        t_range=nan, note=f"{type(exc).__name__}: {exc}",
    )


def table_run(names, deltas, penalty="none", n=1000, k=20, p=5, q=0,
              repeats=5, base_seed=0, k_select=100, grid_count=100, workers=1):
    """Error table over (example, noise level) cells, ``repeats`` seeds each.

    Alpha is selected per cell by minimizing the error of a rank
    ``k_select`` range-preserving solve over a logarithmic grid; the
    reported solutions use rank ``k``.  Each problem is generated once, with
    its penalty reduction and the direct solver's Gram matrix.  Each repeat
    factors ``B = A @ L_sharp`` once for all noise levels, in one probe at
    the selection seed (:func:`selection_probe`): its widest rank selects
    alpha and its rank-``k`` prefix serves the range column (and the
    identity's projected column), so these are not independent draws and
    those columns' times charge the whole probe (see :class:`RunRecord`).
    A penalty's projected column factors ``A`` at rank ``k`` with the same
    seed.  The repeats of a problem run on ``workers`` threads.
    """
    def failed(name, delta, rep, exc):
        return _failed_record(name, n, delta, penalty, k, p, q, rep, base_seed, exc)

    def problem_records(name):
        # a failed problem (or repeat) must not take down the rest of the
        # table; it is reported in the rows of its cells
        try:
            base = problems.make_problem(name, n)
            reg = solvers.Regularization(base.A, make_penalty(penalty, n))
            reg.target  # the penalty set-up is not part of t_direct
            _, t_gram = _timed(lambda: reg.gram)
        except Exception as exc:  # noqa: BLE001
            return [failed(name, delta, rep, exc)
                    for delta in deltas for rep in range(repeats)]

        def run(rep):
            try:
                return _table_repeat(base, reg, t_gram, deltas, penalty, k, p,
                                     q, rep, base_seed, k_select, grid_count)
            except Exception as exc:  # noqa: BLE001
                return [failed(name, delta, rep, exc) for delta in deltas]

        return [r for chunk in _map(run, range(repeats), workers) for r in chunk]

    records = [r for name in names for r in problem_records(name)]
    records.sort(key=lambda r: (r.example, r.delta, r.repeat))
    return records


TABLE_COLUMNS = ("example", "delta", "e_tilde_xz", "e_tilde_ij", "e", "e_xz",
                 "e_ij", "note")


def aggregate_table(records):
    """Median over the successful repeats for each (example, delta) cell;
    failed repeats surface in the ``note`` column."""
    keys = sorted({(r.example, r.delta) for r in records})
    rows = []
    for example, delta in keys:
        group = [r for r in records if r.example == example and r.delta == delta]
        good = [r for r in group if not r.note]
        row = {"example": example, "delta": delta}
        for col in TABLE_COLUMNS[2:-1]:
            row[col] = float(np.median([getattr(r, col) for r in good])) \
                if good else float("nan")
        row["note"] = "; ".join(
            f"repeat {r.repeat}: {r.note}" for r in group if r.note)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Rank sweeps

ALPHA_POLICIES = {"alpha_star": 1.0, "10x": 10.0, "0.1x": 0.1}


def rank_sweep(name, delta, ks, n=1000, penalty="none", policies=("alpha_star", "10x", "0.1x"),
               repeats=3, base_seed=0, p=5, q=0, k_select=100, grid_count=100,
               workers=1):
    """Reconstruction error of the range-preserving solver as a function of
    the factorization rank, at the selected parameter and scalings of it.

    The problem and its penalty reduction are built once per call; each
    repeat realizes its own noise and factors once for its selection and
    all ranks (:func:`selection_probe`): the selection uses the widest rank
    and the ranks of ``ks`` are nested prefixes of the same probe, so they
    are not independent draws.  A row is reproduced to rounding by a lone
    ``rsvd_auto(target, RsvdConfig(k, p, q, row["rsvd_seed"]))`` (the
    selection seed) and records ``probe_rank``, the numerical rank of its
    (k+p)-row sketch.  All ranks and ``policies`` are solved in one
    :func:`rsvdreg.solvers.range_tikhonov_block`, which maps tall-path
    factors back through ``V diag(sigma)``: a repeat touches ``A`` in
    exactly two products, ``A @ Omega`` and ``Q.T @ A``.  The repeats run
    on ``workers`` threads.
    """
    for pol in policies:
        if pol not in ALPHA_POLICIES:
            raise ValueError(f"unknown alpha policy {pol!r}")
    base = problems.make_problem(name, n)
    reg = solvers.Regularization(base.A, make_penalty(penalty, n))
    scales = np.array([ALPHA_POLICIES[pol] for pol in policies])

    def run_rep(rep):
        noise_seed, seed = _cell_seeds(base_seed, rep)
        prob = problems.with_noise(base, problems.NoiseSpec(delta, noise_seed))
        select, *approxes = selection_probe(reg, k_select, ks, p, q, seed)
        alpha_star, _ = alpha_selector(reg, select, grid_count=grid_count)(prob)
        alphas = alpha_star * scales
        rows = []
        for approx_k, X in zip(approxes, reg.block(approxes, prob.b, alphas)):
            for j, pol in enumerate(policies):
                rows.append({
                    "example": name, "n": n, "delta": delta, "penalty": penalty,
                    "k": approx_k.k, "policy": pol, "alpha": float(alphas[j]),
                    "repeat": rep, "noise_seed": noise_seed,
                    "rsvd_seed": seed,
                    "e_ij": float(np.linalg.norm(X[:, j] - prob.x_true)),
                    "probe_rank": approx_k.probe_rank,
                })
        return rows

    rows = [row for chunk in _map(run_rep, range(repeats), workers) for row in chunk]
    rows.sort(key=lambda r: (r["policy"], r["k"], r["repeat"]))
    return rows


def median_curve(rows, policy):
    """Median e_ij over repeats, as (ks, errors) arrays for one policy."""
    ks = sorted({r["k"] for r in rows if r["policy"] == policy})
    med = [
        float(np.median([r["e_ij"] for r in rows
                         if r["policy"] == policy and r["k"] == k]))
        for k in ks
    ]
    return np.array(ks), np.array(med)


def nonincreasing_to_plateau(errors, tol=0.10):
    """True when the curve decreases (within ``tol`` noise) until it enters
    its terminal plateau and stays there."""
    e = np.asarray(errors, dtype=float)
    plateau = float(np.median(e[-3:])) if e.size >= 3 else float(e[-1])
    entered = False
    run_min = math.inf
    for v in e:
        if not entered and v <= (1.0 + tol) * plateau:
            entered = True
        if entered:
            if v > (1.0 + tol) * plateau:
                return False
        else:
            if v > (1.0 + tol) * run_min:
                return False
        run_min = min(run_min, v)
    return True


def dip_rise_plateau(errors, tol=0.10, rise=1.15):
    """True when the curve first decreases, then increases by at least
    ``rise`` relative to its minimum, and finally levels off."""
    e = np.asarray(errors, dtype=float)
    if e.size < 4:
        return False
    jmin = int(np.argmin(e))
    if jmin == 0 or jmin >= e.size - 2:
        return False
    plateau = float(np.median(e[-3:])) if e.size >= 3 else float(e[-1])
    if plateau < rise * e[jmin]:
        return False
    tail = e[-3:]
    return bool(np.all(np.abs(tail - plateau) <= tol * plateau))


def optimal_rank(ks, errors):
    """Rank attaining the smallest error (ties toward the smaller rank)."""
    errors = np.asarray(errors, dtype=float)
    return int(np.asarray(ks)[int(np.argmin(errors))])


# ---------------------------------------------------------------------------
# Timing bench

#: Wall-clock spent per timing cell, pooled over the cells of a run and
#: spread over about ``BENCH_ROUNDS`` rounds; sub-millisecond cells get many
#: repetitions so the best-of floor is the arithmetic cost, not jitter.
BENCH_TIME_BUDGET = 0.5
BENCH_ROUNDS = 10
#: Bench shift as a multiple of the squared top singular value estimate.
BENCH_ALPHA_SCALE = 1e-3


def _interleaved_best_of(makers, repeats):
    """Best wall time of each call, over rounds that visit every call.

    ``makers[j]()`` builds call j on fresh copies of its data, once per
    round (untimed): at n=250 one allocation of the matrix can run 45%
    slower than another (cache conflicts of its pages), so the best over
    the rounds' allocations is the arithmetic cost, not that of one
    placement.  Each call gets one untimed warmup (first-touch page faults
    and BLAS setup).  In a round every call runs back to back until it has
    spent ``BENCH_TIME_BUDGET / BENCH_ROUNDS`` (at least once), so a fast
    call is timed with its data in cache rather than right after a large
    one.  Rounds continue until there have been ``repeats`` of them and
    ``BENCH_TIME_BUDGET`` per call has been spent in total.  All calls are
    timed within seconds of each other, so drift in the host's speed over a
    run reaches every call alike instead of skewing their ratios.
    """
    for make in makers:
        make()()
    best = [math.inf] * len(makers)
    budget = BENCH_TIME_BUDGET * len(makers)
    slice_ = BENCH_TIME_BUDGET / BENCH_ROUNDS
    spent = 0.0
    rounds = 0
    while rounds < repeats or spent < budget:
        for j, make in enumerate(makers):
            fn = make()
            spent_j = 0.0
            while spent_j == 0.0 or spent_j < slice_:
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
                best[j] = min(best[j], dt)
                spent_j += dt
            spent += spent_j
        rounds += 1
    return best


# (package, its bundled library directory, library glob, symbol suffix) of
# the OpenBLAS copies the numpy and scipy wheels ship
_OPENBLAS_COPIES = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so", "64_"),
    ("scipy", "scipy.libs", "libscipy_openblas-*.so", ""),
)


def _openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS copy, or None when
    a copy or its functions cannot be found."""
    controls = []
    for pkg, libdir, pattern, suffix in _OPENBLAS_COPIES:
        site = os.path.dirname(os.path.dirname(sys.modules[pkg].__file__))
        libs = sorted(glob.glob(os.path.join(site, libdir, pattern)))
        if not libs:
            return None
        try:
            lib = ctypes.CDLL(libs[0])
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            return None
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return controls


@contextlib.contextmanager
def _single_thread_blas():
    """Pin BLAS to one thread for stable scaling measurements.

    Yields the thread count read back after pinning (the largest over the
    BLAS libraries): 1 when the pin holds, None when it cannot be confirmed.
    Uses ``threadpoolctl`` when it is importable, else the thread-count
    functions of the OpenBLAS copies in the numpy and scipy wheels; the
    previous counts are restored on exit.
    """
    try:
        import threadpoolctl
    except ImportError:
        threadpoolctl = None
    if threadpoolctl is not None:
        with threadpoolctl.threadpool_limits(limits=1, user_api="blas"):
            yield max((lib["num_threads"] for lib in threadpoolctl.threadpool_info()
                       if lib["user_api"] == "blas"), default=None)
        return
    controls = _openblas_thread_controls()
    if controls is None:
        yield None
        return
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield max(get() for get, _ in controls)
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def bench_run(name="deriv2", ns=(250, 500, 1000, 2000), ks=(20,), penalty="none",
              methods=("direct", "projected", "range"), delta=0.01,
              repeats=3, base_seed=0, p=5, q=0):
    """Best-of wall times per (n, method, k) cell.

    Randomized cells include the factorization time, and direct cells the
    Gram matrix they factor; with a penalty, the direct and range cells
    also include its standard-form reduction (``weighted_pinv``).  The
    shift is pinned to ``BENCH_ALPHA_SCALE`` times the squared top singular
    value estimate so all methods solve the same problem.  The cells are timed
    in interleaved rounds (at least ``repeats``, see
    :func:`_interleaved_best_of`) with BLAS pinned to a single thread, so
    small and large sizes run at comparable arithmetic rates.  Each row
    records ``blas_threads``, the thread count read back from the pin
    (None when it could not be confirmed).
    """
    with _single_thread_blas() as blas_threads:
        cells = _bench_cells(name, ns, ks, penalty, methods, delta, base_seed, p, q)
        times = _interleaved_best_of([make for _, make in cells], repeats)
    return [dict(row, seconds=t, blas_threads=blas_threads)
            for (row, _), t in zip(cells, times)]


def _bench_call(method, A, L, b, alpha, cfg):
    """The timed call of one bench cell, on a fresh copy of ``A``.  Each
    call builds its own :class:`rsvdreg.solvers.Regularization`, so a
    penalized direct or range call pays the standard-form reduction, and a
    direct call the Gram matrix, that a lone solve pays."""
    calls = {
        "direct": lambda reg: reg.direct(b, alpha),
        "projected": lambda reg: reg.projected(rsvd_auto(reg.A, cfg), b, alpha),
        "range": lambda reg: reg.range(rsvd_auto(reg.target, cfg), b, alpha),
    }
    if method not in calls:
        raise ValueError(f"unknown bench method {method!r}")
    A, call = A.copy(), calls[method]
    return lambda: call(solvers.Regularization(A, L))


def _bench_cells(name, ns, ks, penalty, methods, delta, base_seed, p, q):
    """(row, maker of the timed call) of every cell, in (n, k, method)
    order; each maker binds its own cell's matrix, data and configuration."""
    cells = []
    for n in ns:
        prob = problems.make_problem(name, n, problems.NoiseSpec(delta, base_seed))
        A, b = prob.A, prob.b
        alpha = BENCH_ALPHA_SCALE * estimate_spectral_norm(A, seed=base_seed) ** 2
        L = make_penalty(penalty, A.shape[1])
        for k in ks:
            cfg = RsvdConfig(k=k, p=p, q=q, seed=_cell_seeds(base_seed, 0)[1])
            for method in methods:
                row = {"example": name, "n": n, "k": k, "method": method,
                       "penalty": penalty, "alpha": alpha}
                cells.append((row, functools.partial(
                    _bench_call, method, A, L, b, alpha, cfg)))
    return cells


def loglog_slope(rows, method, k=None):
    """Least-squares slope of log(seconds) against log(n) for one method."""
    pts = [(r["n"], r["seconds"]) for r in rows
           if r["method"] == method and (k is None or r["k"] == k)]
    if len(pts) < 2:
        raise ValueError(f"need at least two dimensions for {method!r}")
    ns = np.log([p[0] for p in pts])
    ts = np.log([p[1] for p in pts])
    return float(np.polyfit(ns, ts, 1)[0])


# ---------------------------------------------------------------------------
# Bound verification

def verify_run(check_ids, seeds=50, n=diagnostics.VERIFY_DEFAULT_N, base_seed=0):
    """Run the seeded verification protocols.

    Each seed builds one :class:`~rsvdreg.diagnostics.BoundTrial`, which
    every requested check of that seed reads; it is dropped before the next
    seed.  Returns a report keyed by check id with pass counts among
    hypotheses-met trials (hypotheses-not-met trials are tallied
    separately, never as failures), the worst relative slack observed and,
    per failure, its seed, both sides and the check's details.
    """
    records = {cid: [] for cid in check_ids}
    for s in range(seeds):
        trial = diagnostics.BoundTrial(base_seed + s, n)
        for cid, checks in records.items():
            checks.extend(diagnostics.run_bound_trial(cid, trial))
    report = {}
    for cid, checks in records.items():
        met = [chk for chk in checks if chk.hypotheses_met]
        passed = sum(chk.passed for chk in met)
        slack = [(chk.lhs - chk.rhs) / (1.0 + chk.rhs) for chk in met]
        report[cid] = {
            "trials": seeds,
            "hypotheses_met": len(met),
            "hypotheses_not_met": len(checks) - len(met),
            "passed": passed,
            "pass_rate": (passed / len(met)) if met else None,
            "worst_slack": max(slack) if met else None,
            "failures": [{"seed": chk.seed, "lhs": chk.lhs, "rhs": chk.rhs, **chk.details}
                         for chk in met if not chk.passed],
        }
    return report


# ---------------------------------------------------------------------------
# Serialization

def _fmt(value):
    if isinstance(value, float):
        return f"{value:.5e}"
    return str(value)


def rows_to_csv(rows, columns=None):
    """Render dict rows as RFC-4180 CSV text with 6-significant-digit
    scientific notation for floats."""
    if not rows:
        return ""
    columns = list(columns) if columns else list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def write_output(text_or_obj, out=None, fmt="csv"):
    """Write CSV text or a JSON-serializable object to ``out`` (or stdout)."""
    if fmt == "json":
        payload = json.dumps(text_or_obj, indent=2, sort_keys=True, default=float)
        payload += "\n"
    else:
        payload = text_or_obj
    if out is None:
        print(payload, end="")
    else:
        with open(out, "w", newline="") as fh:
            fh.write(payload)
