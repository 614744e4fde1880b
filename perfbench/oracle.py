"""Correctness checks and accuracy figures, run after the timed phase.

A unit fails when any of these holds:

* a table cell carries a non-empty ``note`` or a non-finite number;
* the recorded direct error ``e`` of the oracle cell differs from an
  independent dense least-squares solve by more than ``E_RTOL`` relative;
* a rank-sweep unit returns the wrong number of rows or a non-finite value;
* a bound check fails while its hypotheses hold;
* the unit raised;
* on the reference unit (one table unit per run, chosen by the seed), a
  recorded ``alpha*`` is not a point of the reference grid, its direct
  error exceeds the best point of that grid by more than ``SELECT_RTOL``,
  or the recorded ``e`` differs from the SVD's by more than ``E_RTOL``.

The oracle solves ``[A; sqrt(alpha*) L] x ~= [b; 0]`` by Householder QR of
the stacked matrix (``scipy.linalg.qr_multiply``), which shares no code with
the dual normal-equation path of ``tikhonov_solve_direct`` and
``gen_tikhonov_direct``.  At n=2000 it costs 1.1 s per cell on one thread,
against 3.1 s for ``scipy.linalg.lstsq`` (gelsy), which is why one cell per
unit is checked, chosen by the seed.

The reference unit also gets an independent alpha selection.  One SVD of the
standard-form matrix (``A`` itself for the identity penalty; for a penalty of
full row rank, ``A L^+`` with the part in ``A null(L)`` projected out, the
classical Elden reduction) gives the direct Tikhonov error at every ``alpha``.
The reference grid is the protocol's: ``GRID_COUNT`` log-spaced points from
``1e-14 sigma_1^2`` to ``sigma_1^2`` with the exact ``sigma_1``.  A coarser
grid, a weaker selection solve or a cheaper selection rule moves ``alpha*``
off that grid or off its best point and fails the unit.  At n=2000 the SVD
costs 4.4 s on one thread, so one unit per run gets it.
"""

import math
from statistics import median

import numpy as np
import scipy.linalg

from rsvdreg import diagnostics, harness, problems

#: Relative tolerance on the recorded direct error against the oracle.
E_RTOL = 1e-6
#: Points of the reference alpha grid, and its span in units of sigma_1^2.
GRID_COUNT = 100
GRID_SPAN = (1e-14, 1.0)
#: A recorded alpha* is on the reference grid when its log lies within this
#: share of a grid step of a grid point (the library estimates sigma_1).
GRID_STEP_TOL = 0.01
#: Relative excess of the direct error at alpha* over the best point of the
#: reference grid that still counts as the reference selection.
SELECT_RTOL = 1e-3
#: The curve for the best error over any alpha is this many times finer.
FINE = 10

_RECORD_NUMBERS = ("alpha_star", "noise_norm", "e_tilde_xz", "e_tilde_ij", "e",
                   "e_xz", "e_ij")


def lstsq_tikhonov(A, L, alpha, b):
    """Dense least-squares solution of ``[A; sqrt(alpha) L] x ~= [b; 0]``."""
    M = np.vstack([A, math.sqrt(alpha) * L])
    rhs = np.concatenate([b, np.zeros(L.shape[0])])
    qtb, R = scipy.linalg.qr_multiply(M, rhs, mode="right")
    return scipy.linalg.solve_triangular(R, qtb)


def oracle_error(record):
    """``(||x_oracle - x_true||, ||x_true||)`` for the cell ``record``
    describes, rebuilt from its recorded seeds."""
    prob = problems.make_problem(record.example, record.n,
                                 problems.NoiseSpec(record.delta, record.noise_seed))
    L = harness.make_penalty(record.penalty, prob.A.shape[1]).matrix()
    x = lstsq_tikhonov(prob.A, L, record.alpha_star, prob.b)
    return float(np.linalg.norm(x - prob.x_true)), float(np.linalg.norm(prob.x_true))


def check_table_unit(records, seed):
    """``(failures, ||x_true||)`` of one ``table_run`` unit (one problem);
    the oracle checks cell ``seed % len(records)``.  The norm is None when
    the unit failed before the oracle ran."""
    failures = []
    for r in records:
        if r.note:
            failures.append(f"{r.example} delta={r.delta}: note {r.note!r}")
        bad = [f for f in _RECORD_NUMBERS if not math.isfinite(getattr(r, f))]
        if bad:
            failures.append(f"{r.example} delta={r.delta}: non-finite {bad}")
    if failures or not records:
        return failures or ["table unit returned no records"], None
    r = records[seed % len(records)]
    e_oracle, x_norm = oracle_error(r)
    if abs(r.e - e_oracle) > E_RTOL * e_oracle:
        failures.append(f"{r.example} delta={r.delta}: recorded e={r.e!r} but the "
                        f"dense least-squares oracle gives {e_oracle!r}")
    return failures, x_norm


class DirectErrors:
    """Direct Tikhonov error ``||x(alpha) - x_true||`` of one problem at any
    ``alpha``, from one SVD of the standard-form matrix.

    With ``L = I`` the matrix is ``A``.  Otherwise ``L`` (p x n, full row
    rank) splits ``x = L^+ y + W z`` with ``W`` a basis of ``null(L)``;
    eliminating ``z`` leaves ``min ||B y - b||^2 + alpha ||y||^2`` with
    ``B = (I - Q Q^T) A L^+`` and ``Q`` a basis of ``range(A W)``.  Then
    ``x(alpha) = x0 + M g(alpha)`` with ``g = s * (U^T b) / (s^2 + alpha)``.
    """

    def __init__(self, A, L, identity):
        n = A.shape[1]
        if identity:
            U, s, Vt = scipy.linalg.svd(A, full_matrices=False)
            self.M, self._null = Vt.T, None
        else:
            p = L.shape[0]
            Q, R = scipy.linalg.qr(L.T)
            L_pinv = Q[:, :p] @ scipy.linalg.solve_triangular(R[:p], np.eye(p), trans="T")
            W = Q[:, p:]
            Qw, Rw = np.linalg.qr(A @ W)
            AL = A @ L_pinv
            U, s, Vt = scipy.linalg.svd(AL - Qw @ (Qw.T @ AL), full_matrices=False)
            # x = L^+ y + W z with z = (A W)^+ (b - A L^+ y)
            self.M = L_pinv @ Vt.T - W @ scipy.linalg.solve_triangular(
                Rw, Qw.T @ (AL @ Vt.T))
            self._null = (W, Qw, Rw)
        self.U, self.s, self.n = U, s, n

    def errors(self, b, x_true, alphas):
        x0 = np.zeros(self.n)
        if self._null is not None:
            W, Qw, Rw = self._null
            x0 = W @ scipy.linalg.solve_triangular(Rw, Qw.T @ b)
        sb = self.s * (self.U.T @ b)
        G = sb[:, None] / (self.s[:, None] ** 2 + np.asarray(alphas)[None, :])
        return np.linalg.norm(self.M @ G + (x0 - x_true)[:, None], axis=0)

    def grid(self, fine=1):
        """The reference alpha grid, ``fine`` times denser."""
        lo, hi = (f * self.s[0] ** 2 for f in GRID_SPAN)
        return np.logspace(math.log10(lo), math.log10(hi), fine * (GRID_COUNT - 1) + 1)


def check_selection(records):
    """``(failures, [e / e_best])`` of a table unit's cells against a
    reference selection; ``e_best`` is the least direct error over a grid
    ``FINE`` times denser than the reference grid."""
    r0 = records[0]
    A, x_true, b_exact = problems.generate(r0.example, r0.n)
    L = harness.make_penalty(r0.penalty, r0.n).matrix()
    direct = DirectErrors(A, L, identity=r0.penalty == "none")
    fine = direct.grid(FINE)
    step = math.log(fine[FINE] / fine[0])
    failures, ratios = [], []
    for r in records:
        b, _ = problems.add_noise(b_exact, problems.NoiseSpec(r.delta, r.noise_seed))
        curve = direct.errors(b, x_true, np.append(fine, r.alpha_star))
        e_fine, e_star = curve[:-1], curve[-1]
        e_grid = e_fine[::FINE]
        where = f"{r.example} delta={r.delta}"
        offset = math.log(r.alpha_star / fine[0]) / step
        if abs(offset - round(offset)) > GRID_STEP_TOL or not 0 <= round(offset) < GRID_COUNT:
            failures.append(f"{where}: alpha*={r.alpha_star!r} is not on the {GRID_COUNT}-point "
                            "reference grid")
        elif e_star > (1 + SELECT_RTOL) * e_grid.min():
            failures.append(f"{where}: direct error {e_star!r} at alpha*={r.alpha_star!r}, but "
                            f"{e_grid.min()!r} at the reference selection "
                            f"{fine[::FINE][np.argmin(e_grid)]!r}")
        if abs(r.e - e_star) > E_RTOL * e_star:
            failures.append(f"{where}: recorded e={r.e!r} but the standard-form SVD gives "
                            f"{e_star!r}")
        ratios.append(e_star / e_fine.min())
    return failures, ratios


def check_sweep_unit(rows, ks, policies, repeats):
    expected = len(ks) * len(policies) * repeats
    if len(rows) != expected:
        return [f"rank sweep returned {len(rows)} rows, expected {expected}"]
    bad = [r for r in rows if not (math.isfinite(r["e_ij"]) and math.isfinite(r["alpha"]))]
    return [f"{len(bad)} rank-sweep rows hold non-finite values"] if bad else []


def check_verify_unit(report):
    return [
        f"{cid}: {rep['passed']}/{rep['hypotheses_met']} hypotheses-met trials "
        f"passed, failures {rep['failures']}"
        for cid, rep in report.items() if rep["passed"] != rep["hypotheses_met"]
    ]


def check_verify_pass(reports):
    """Pass-level rule: every check has at least one hypotheses-met trial."""
    met = {cid: 0 for cid in diagnostics.VERIFY_CHECKS}
    for report in reports:
        for cid, rep in report.items():
            met[cid] += rep["hypotheses_met"]
    return [f"{cid}: no trial met its hypotheses" for cid, m in met.items() if m == 0]


def _gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def table_accuracy(units, select_ratios):
    """Accuracy of a table pass from ``(records, ||x_true||)`` per unit and
    the ``e / e_best`` ratios of the reference unit.

    ``err_rel`` is the product of two factors that share each cell's noise
    realization, so they move little with the seed (absolute errors move by
    about 20%): ``err_rank_ratio``, the geometric mean over cells of
    ``e_ij / e`` (the range-preserving solution's error over the direct
    solution's at the selected alpha), and ``err_select_ratio``, the
    geometric mean over the reference cells of ``e / e_best`` (the direct
    error at the selected alpha over the least direct error at any alpha).
    Without reference ratios (the reference unit failed) there is no
    ``err_rel``.
    """
    cells = [(r, x_norm) for records, x_norm in units for r in records]
    rel = {f: [getattr(r, f) / x_norm for r, x_norm in cells]
           for f in ("e_ij", "e_xz", "e", "e_tilde_ij")}
    out = {
        "err_rank_ratio": _gmean([r.e_ij / r.e for r, _ in cells]),
        "err_range_rel": median(rel["e_ij"]),
        "err_proj_rel": median(rel["e_xz"]),
        "err_direct_rel": median(rel["e"]),
        "gap_range_rel": median(rel["e_tilde_ij"]),
    }
    if select_ratios:
        out["err_select_ratio"] = _gmean(select_ratios)
        out["err_rel"] = out["err_rank_ratio"] * out["err_select_ratio"]
    return out


def sweep_accuracy(rows):
    """``err_rel``: geometric mean over rows of ``e_ij / ||x_true||``."""
    norms = {}
    for r in rows:
        if (r["example"], r["n"]) not in norms:
            norms[(r["example"], r["n"])] = float(np.linalg.norm(
                problems.generate(r["example"], r["n"])[1]))
    rel = [r["e_ij"] / norms[(r["example"], r["n"])] for r in rows]
    return {"err_rel": _gmean(rel), "err_range_rel": median(rel)}


def verify_accuracy(reports):
    """Accuracy of a verify pass, one report per trial seed.

    ``err_rel`` is the geometric mean over checks of the median over trials
    of ``1 + (lhs - rhs) / (1 + rhs) = (1 + lhs) / (1 + rhs)`` (the worst
    record of a trial), which stays below 1 while every bound holds;
    ``bound_slack_max`` is the worst ``(lhs - rhs) / (1 + rhs)`` of the pass.
    """
    slack = {}
    for report in reports:
        for cid, rep in report.items():
            if rep["worst_slack"] is not None:
                slack.setdefault(cid, []).append(rep["worst_slack"])
    return {
        "err_rel": _gmean([1.0 + median(v) for v in slack.values()]),
        "bound_slack_max": max(max(v) for v in slack.values()),
    }
