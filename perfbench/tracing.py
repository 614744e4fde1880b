"""Spans around the public functions of the measured layers.

The package binds functions with ``from .x import y``, so one function can
be reachable under several module attributes; ``Tracer`` wraps every binding
inside ``rsvdreg`` (and methods on their class) and restores the originals
on exit.  Each span records its name, start, end, parent span and unit id;
spans stay in memory until the run writes them out.  Calls happen on one
thread (every unit runs with ``workers=1``), so a plain stack gives parents.

GFLOP and MB figures are computed from array shapes, not measured.
"""

import functools
import sys
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from rsvdreg import RankDeficiencyWarning

# (span name, defining module, attribute); ``Class.method`` patches the class
TARGETS = (
    ("problems.generate", "problems", "generate"),
    ("problems.add_noise", "problems", "add_noise"),
    ("smoothing.weighted_pinv", "smoothing", "weighted_pinv"),
    ("smoothing.gamma_apply", "smoothing", "WeightedPinvBundle.gamma_apply"),
    ("smoothing.sharp_apply", "smoothing", "WeightedPinvBundle.sharp_apply"),
    ("smoothing.w_term", "smoothing", "WeightedPinvBundle.w_term"),
    ("rsvd.rsvd_tall", "rsvd", "rsvd_tall"),
    ("rsvd.qr_thin", "linalg", "qr_thin"),
    ("linalg.as_matrix", "linalg", "as_matrix"),
    ("linalg.solve_spd", "linalg", "solve_spd"),
    ("linalg.solve_shifted_gram", "linalg", "solve_shifted_gram"),
    ("linalg.svd_full", "linalg", "svd_full"),
    ("linalg.pinv", "linalg", "pinv"),
    ("linalg.estimate_spectral_norm", "linalg", "estimate_spectral_norm"),
    ("solvers.tikhonov_solve_direct", "solvers", "tikhonov_solve_direct"),
    ("solvers.gen_tikhonov_direct", "solvers", "gen_tikhonov_direct"),
    ("solvers.rsvd_tikhonov_projected", "solvers", "rsvd_tikhonov_projected"),
    ("solvers.rsvd_tikhonov_range", "solvers", "rsvd_tikhonov_range"),
    ("solvers.rsvd_gen_tikhonov_projected", "solvers", "rsvd_gen_tikhonov_projected"),
    ("solvers.rsvd_gen_tikhonov_range", "solvers", "rsvd_gen_tikhonov_range"),
    ("solvers.tsvd_solve", "solvers", "tsvd_solve"),
    ("solvers.trsvd_solve_range", "solvers", "trsvd_solve_range"),
    ("diagnostics.select_alpha", "diagnostics", "select_alpha"),
    ("diagnostics.error_report", "diagnostics", "error_report"),
    ("diagnostics.run_bound_trial", "diagnostics", "run_bound_trial"),
    ("harness.table_run", "harness", "table_run"),
    ("harness.rank_sweep", "harness", "rank_sweep"),
    ("harness.verify_run", "harness", "verify_run"),
)

#: Span the benchmark opens around each unit; its self time is the part of
#: the traced wall that no layer span covers.
UNIT_SPAN = "bench.unit"

SPAN_FIELDS = ("name", "start", "end", "parent", "unit")


def _rsvd_name(args, kwargs):
    A = args[0] if args else kwargs["A"]
    return "rsvd.rsvd_tall.dense" if isinstance(A, np.ndarray) else "rsvd.rsvd_tall.op"


def _product_size(A):
    """Entries touched by one product with ``A``: the factors of a lazy
    ``A @ M`` operator (or its transpose), else the matrix itself."""
    A = getattr(A, "parent", A)
    if hasattr(A, "A") and hasattr(A, "M"):
        return A.A.size + A.M.size
    return A.shape[0] * A.shape[1]


class Counters:
    """Work counts gathered at the span boundaries."""

    def __init__(self):
        self.c = defaultdict(float)

    def rsvd_tall(self, args, kwargs, result, warned):
        A, cfg = args[0], args[1] if len(args) > 1 else kwargs["cfg"]
        n, m = A.shape
        ell = cfg.k + cfg.p
        products = 2 + 2 * cfg.q  # A @ omega, A.T @ Q, and q power pairs
        flops = (2.0 * _product_size(A) * ell * products
                 + 4.0 * n * ell**2          # thin Householder QR
                 + 4.0 * m * ell**2 + 22.0 * ell**3  # SVD of the ell-by-m sketch
                 + 2.0 * n * ell * cfg.k)    # U = Q @ W
        self.c["rsvd.probe_cols"] += ell
        self.c["rsvd.gflop"] += flops / 1e9
        self.c["rsvd.deficient_calls"] += warned > 0

    def tikhonov_solve_direct(self, args, kwargs, result, warned):
        n, m = args[0].shape
        s = min(n, m)
        flops = 2.0 * s * s * max(n, m) + s**3 / 3.0 + 2.0 * s * s + 2.0 * n * m
        self.c["solvers.direct.gflop"] += flops / 1e9

    def gen_tikhonov_direct(self, args, kwargs, result, warned):
        n, m = args[0].shape
        bundle = args[4] if len(args) > 4 else kwargs.get("bundle")
        ell = bundle.L_sharp.shape[1] if bundle is not None else args[1].ell
        flops = (2.0 * n * m * ell + 2.0 * n * n * ell + n**3 / 3.0
                 + 2.0 * n * n + 2.0 * n * ell + 2.0 * m * ell)
        self.c["solvers.direct.gflop"] += flops / 1e9

    def weighted_pinv(self, args, kwargs, result, warned):
        mb = (result.W.nbytes + result.AW_pinv.nbytes + result.L_sharp.nbytes) / 1e6
        self.c["smoothing.weighted_pinv.out_mb"] = max(
            self.c["smoothing.weighted_pinv.out_mb"], mb)

    def select_alpha(self, args, kwargs, result, warned):
        _, curve = result
        self.c["diagnostics.select_alpha.grid_points"] += len(curve.alphas)
        self.c["diagnostics.select_alpha.boundary"] += (
            curve.at_lower_boundary or curve.at_upper_boundary)
        self.c["diagnostics.select_alpha.excluded_points"] += len(curve.excluded)

    def run_bound_trial(self, args, kwargs, result, warned):
        self.c["diagnostics.bound_checks"] += len(result)
        self.c["diagnostics.hypotheses_met"] += sum(c.hypotheses_met for c in result)


class Tracer:
    """Context manager that wraps every target binding with a span.

    Rank-deficiency warnings are captured for the tracer's lifetime, so they
    are counted per ``rsvd_tall`` call instead of printed.
    """

    def __init__(self):
        self.spans = []
        self.unit = None
        self.counters = Counters()
        self._stack = []
        self._restore = []
        self._warnings = None
        self._log = []

    def __enter__(self):
        self._warnings = warnings.catch_warnings(record=True)
        self._log = self._warnings.__enter__()
        warnings.simplefilter("always", RankDeficiencyWarning)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "rsvdreg" or key.startswith("rsvdreg."))]
        for span_name, modname, attr in TARGETS:
            home = sys.modules[f"rsvdreg.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(orig, span_name, meth))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(orig, span_name, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        self._warnings.__exit__(*exc)
        return False

    def _patch(self, owner, key, wrapper):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, span_name, attr):
        observe = getattr(self.counters, attr, None)
        namer = _rsvd_name if attr == "rsvd_tall" else None
        spans, stack, log = self.spans, self._stack, self._log

        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer else span_name
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            seen = len(log)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.unit)
            if observe is not None:
                warned = sum(issubclass(w.category, RankDeficiencyWarning)
                             for w in log[seen:])
                observe(args, kwargs, result, warned)
            return result

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def unit_span(self, uid):
        """Open the ``bench.unit`` span around one unit."""
        self.unit = uid
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (UNIT_SPAN, start, end, -1, uid)
            self.unit = None


def span_stats(spans):
    """Per span name: calls, total seconds and self seconds (duration minus
    the time covered by direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child[i]
    return dict(stats)
