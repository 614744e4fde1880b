"""Error metrics, regularization-parameter selection, spectral decay
classification, and empirical verification of the solver error bounds.

Every bound checker evaluates both sides of the corresponding inequality
verbatim and records separately whether the inequality's hypotheses were
satisfied; a verdict is only meaningful when they were.  Since the bounds
are proven, a hypotheses-met failure indicates an implementation bug.  The
checks of one seed share one :class:`BoundTrial`: one set of randomized
factors with their errors, one noisy problem.  The seeds of one size share
one :func:`shared_operator`: the operator, its exact SVD, the ``gtikh``
penalty with its dense ``B`` and ``A A.T``, read-only.  It keeps the last
size for the life of the process: nine n-by-n arrays, 2.9 MB at n=200 and
72 MB at n=1000.
Matrix 2-norms come from :func:`~rsvdreg.linalg.spectral_norm`; the factor
gap ``||A_k - A_k_tilde||`` comes from thin QR factors of the 2k-column
blocks ``[U_k, U_tilde]`` and ``[V_k, V_tilde]``, never from the dense
difference.

:data:`CHECKS` is the one list of checks, mapping each check id to its
``rsvdreg verify --theorem`` name and its check ``check_*(trial) ->
list[BoundCheck]``.  A check holds its own protocol: it reads the trial or
draws its own matrices from ``trial.seed``, at a rank, shift or penalty where
its hypotheses hold.  To add a check, write that function and add its line to
:data:`CHECKS`; :data:`VERIFY_CHECKS`, :func:`run_bound_trial` and the CLI
follow.
"""

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .linalg import default_pinv_rtol, pinv, spectral_norm, svd_full
from .problems import make_sourcewise, with_noise, NoiseSpec, generate
from .rsvd import (
    RsvdConfig,
    range_basis,
    rsvd_auto,
    theorem_spectral_bounds,
)
from .smoothing import custom, form_B, weighted_pinv
from .solvers import (
    rsvd_gen_tikhonov_range,
    rsvd_tikhonov_range,
    trsvd_solve_range,
    tsvd_solve,
)

#: Slack used when comparing both sides of a proven inequality.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class ErrorReport:
    """The five reconstruction errors reported for each benchmark run.

    ``x_hat`` is the projected randomized solution, ``x_tilde`` the
    range-preserving one, ``x_direct`` the full-accuracy regularized
    solution and ``x_true`` the ground truth.
    """

    e_tilde_xz: float  # ||x_hat - x_direct||
    e_tilde_ij: float  # ||x_tilde - x_direct||
    e: float           # ||x_direct - x_true||
    e_xz: float        # ||x_hat - x_true||
    e_ij: float        # ||x_tilde - x_true||

    def as_dict(self):
        return asdict(self)


def error_report(x_hat, x_tilde, x_direct, x_true):
    """Compute the five Euclidean error norms (all inputs equal length)."""
    vecs = [np.asarray(v, dtype=float) for v in (x_hat, x_tilde, x_direct, x_true)]
    lengths = {v.shape for v in vecs}
    if len(lengths) != 1:
        raise ValueError(f"length mismatch among solution vectors: {lengths}")
    x_hat, x_tilde, x_direct, x_true = vecs
    return ErrorReport(
        e_tilde_xz=float(np.linalg.norm(x_hat - x_direct)),
        e_tilde_ij=float(np.linalg.norm(x_tilde - x_direct)),
        e=float(np.linalg.norm(x_direct - x_true)),
        e_xz=float(np.linalg.norm(x_hat - x_true)),
        e_ij=float(np.linalg.norm(x_tilde - x_true)),
    )


@dataclass(eq=False)
class AlphaCurve:
    """Error curve of a regularization-parameter sweep."""

    alphas: np.ndarray
    errors: np.ndarray
    alpha_star: float
    at_lower_boundary: bool
    at_upper_boundary: bool
    excluded: list = field(default_factory=list)


#: Points of the Table-1 protocol's alpha grid (:func:`default_alpha_grid`).
ALPHA_GRID_COUNT = 100


def default_alpha_grid(sigma1):
    """Log grid of ``ALPHA_GRID_COUNT`` points spanning [1e-14 sigma1^2,
    sigma1^2]: from numerically zero regularization to penalty-dominated."""
    return (1e-14 * sigma1**2, sigma1**2, ALPHA_GRID_COUNT)


def select_alpha(problem, errors, grid):
    """Pick the regularization parameter minimizing the reconstruction
    error over a logarithmic grid.

    Parameters
    ----------
    problem : InverseProblem
        Named in the failure messages.
    errors : callable
        Maps the grid's array of ``count`` alphas to the array of their
        errors ``||x_alpha - x_true||``, such as the coefficient curve of
        :func:`rsvdreg.solvers.range_error_curve`.
    grid : (lo, hi, count)
        Log-uniform sampling bounds and count (count >= 2).

    Returns
    -------
    (alpha_star, AlphaCurve)
        Ties are broken toward the larger (more strongly regularizing)
        value; grid points whose error is not finite are excluded and
        recorded on the curve (as NaN).
    """
    lo, hi, count = grid
    if count < 2:
        raise ValueError(f"grid must have at least 2 points, got count={count}")
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    alphas = np.logspace(math.log10(lo), math.log10(hi), int(count))
    values = errors(alphas)
    if not isinstance(values, np.ndarray) or values.shape != alphas.shape:
        raise ValueError(f"errors must return an array of shape {alphas.shape}, one "
                         f"error per alpha, for {problem.name}, got a "
                         f"{type(values).__name__} of shape {np.shape(values)}")
    values = values.astype(float)  # a copy, whose non-finite entries become NaN
    finite = np.isfinite(values)
    if not finite.any():
        raise RuntimeError(f"every grid point of {problem.name} has a non-finite error")
    values[~finite] = np.nan
    # the last of the minima: ties go to the larger alpha; a Python int, so
    # that the boundary flags are Python bools (JSON booleans)
    best = int(np.flatnonzero(values == np.nanmin(values))[-1])
    curve = AlphaCurve(alphas=alphas, errors=values, alpha_star=float(alphas[best]),
                       at_lower_boundary=best == 0, at_upper_boundary=best == alphas.size - 1,
                       excluded=np.flatnonzero(~finite).tolist())
    return curve.alpha_star, curve


@dataclass(frozen=True)
class DecayFit:
    """Least-squares classification of a singular value spectrum.

    ``model`` is ``"exponential"`` (``sigma_j = c0 * c1**j``, params
    ``(c0, c1)``) or ``"algebraic"`` (``sigma_j = c * j**e``, params
    ``(c, e)``), whichever leaves the smaller log-space residual.
    """

    model: str
    params: tuple
    residual: float


def decay_fit(sigma):
    """Fit the decay law of a positive spectrum (needs >= 10 positive values)."""
    sigma = np.asarray(sigma, dtype=float)
    sigma = sigma[sigma > 0]
    if sigma.size < 10:
        raise ValueError(
            f"decay_fit needs at least 10 positive singular values, got {sigma.size}"
        )
    j = np.arange(1, sigma.size + 1, dtype=float)
    logs = np.log(sigma)
    coef_exp = np.polyfit(j, logs, 1)
    res_exp = float(np.sqrt(np.mean((np.polyval(coef_exp, j) - logs) ** 2)))
    coef_alg = np.polyfit(np.log(j), logs, 1)
    res_alg = float(np.sqrt(np.mean((np.polyval(coef_alg, np.log(j)) - logs) ** 2)))
    if res_exp <= res_alg:
        c1 = math.exp(coef_exp[0])
        c0 = math.exp(coef_exp[1])
        return DecayFit("exponential", (c0, c1), res_exp)
    return DecayFit("algebraic", (math.exp(coef_alg[1]), coef_alg[0]), res_alg)


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one inequality evaluation."""

    check_id: str
    lhs: float
    rhs: float
    hypotheses_met: bool
    seed: int
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.lhs <= self.rhs + BOUND_SLACK * (1.0 + self.rhs)


def check_singular_value_stability(trial):
    """``|sigma_i(A+B) - sigma_i(A)| <= ||B||`` for every i, on a seeded
    Gaussian 24x17 pair whose ``B`` is scaled by a factor in [0.01, 2]."""
    rng = np.random.default_rng(trial.seed)
    A = rng.standard_normal((24, 17))
    B = rng.standard_normal((24, 17)) * rng.uniform(0.01, 2.0)
    sa = np.linalg.svd(A, compute_uv=False)
    sab = np.linalg.svd(A + B, compute_uv=False)
    lhs = float(np.max(np.abs(sab - sa)))
    return [BoundCheck("weyl", lhs, spectral_norm(B), True, trial.seed)]


def check_pinv_perturbation(trial):
    """``||A^+ - B^+|| <= ||A^+|| ||B^+|| ||B - A||`` for symmetric
    positive semidefinite pairs sharing a null space, on a seeded 12x12
    pair: positive definite for odd seeds, of rank 5 for even ones."""
    rng, m = np.random.default_rng(trial.seed), 12
    if trial.seed % 2:
        F = rng.standard_normal((m, m))
        G = rng.standard_normal((m, m))
        A = F @ F.T + 0.05 * np.eye(m)
        B = G @ G.T + 0.05 * np.eye(m)
    else:
        # Rank-deficient pair sharing the null space.
        r = 5
        U = np.linalg.qr(rng.standard_normal((m, r)))[0]
        S1 = rng.standard_normal((r, r))
        S2 = rng.standard_normal((r, r))
        A = U @ (S1 @ S1.T) @ U.T
        B = U @ (S2 @ S2.T) @ U.T
    Ap, Bp = pinv(A), pinv(B)
    lhs = spectral_norm(Ap - Bp)
    rhs = spectral_norm(Ap) * spectral_norm(Bp) * spectral_norm(B - A)
    sym = np.allclose(A, A.T) and np.allclose(B, B.T)
    return [BoundCheck("pinv_perturbation", lhs, rhs, bool(sym), trial.seed)]


def check_range_capture(trial):
    """Single-trial probabilistic range-capture bound with q = 0:
    ``||A - Q Q.T A||`` against the first spectral right-hand side, for
    ``A = diag(2 j^-1.5)``, j = 1..40, at k = 10 and p = 5."""
    j = np.arange(1, 41, dtype=float)
    A = np.diag(2.0 * j**-1.5)
    k, p = 10, 5
    Q = range_basis(A, k, p, trial.seed, q=0)
    lhs = spectral_norm(A - Q @ (Q.T @ A))
    sigma = np.linalg.svd(A, compute_uv=False)
    rhs, rhs2 = theorem_spectral_bounds(sigma, k, p)
    return [BoundCheck("rsvd_capture", lhs, float(rhs), True, trial.seed,
                       {"rhs_second": float(rhs2)})]


def _source_type(problem, representation):
    """``problem`` if :func:`make_sourcewise` built it, else a ``ValueError``."""
    if problem.w_norm is None:
        raise ValueError(
            f"bound requires a source-type problem: x_true = {representation} "
            "(build it with make_sourcewise)"
        )
    return problem


def _source_problem(A, seed, bundle=None):
    """Seeded source-type problem on ``A`` (under the penalty of ``bundle``
    when given) with 1% noise."""
    problem = make_sourcewise(A, bundle=bundle, seed=seed)
    return with_noise(problem, NoiseSpec(0.01, seed + 7919))


def check_trsvd_error(trial):
    """Source-condition error bound for the range-preserving truncated
    solver:

    ``||x_true - x_k|| <= 4 delta / sigma_k
    + 8 sigma_1/sigma_k ||A_k - A_k_tilde|| ||w|| + sigma_{k+1} ||w||``

    under ``x_true = A.T w`` and ``||A - A_k_tilde|| <= sigma_k / 2``.
    """
    problem = _source_type(trial.problem, "A.T w")
    svd, k, err, gap = trial.svd, trial.approx.k, trial.err, trial.gap
    sk = svd.sigma[k - 1]
    sk1 = svd.sigma[k] if k < svd.sigma.size else 0.0
    hyp = bool(k <= np.sum(svd.sigma > 0) and err <= sk / 2.0)
    lhs = float(np.linalg.norm(problem.x_true - trial.x_trsvd))
    rhs = (
        4.0 * problem.noise_norm / sk
        + 8.0 * svd.sigma[0] / sk * gap * problem.w_norm
        + sk1 * problem.w_norm
    )
    return [BoundCheck("trsvd", lhs, float(rhs), hyp, trial.seed,
                       {"approx_err": err, "factor_gap": gap})]


def check_tsvd_relative_error(trial):
    """Relative distance between the truncated SVD solution and its
    randomized range-preserving counterpart:

    ``||x_k - x_k_tilde|| / ||x_k|| <=
    4 (1 + sigma_1/sigma_k) ||A_k - A_k_tilde|| / sigma_k``

    for ``k < rank`` and ``||A - A_k_tilde|| < sigma_k / 2``, with the rank
    counted by the cutoff that :func:`~rsvdreg.solvers.tsvd_solve` enforces.
    """
    A, b, svd, k, gap = trial.A, trial.problem.b, trial.svd, trial.approx.k, trial.gap
    rank = int(np.sum(svd.sigma > default_pinv_rtol(A.shape) * svd.sigma[0]))
    hyp = bool(k < rank and trial.err < svd.sigma[k - 1] / 2.0)
    xk = tsvd_solve(svd, k, b).x
    lhs = float(np.linalg.norm(xk - trial.x_trsvd) / np.linalg.norm(xk))
    sk = svd.sigma[k - 1]
    rhs = 4.0 * (1.0 + svd.sigma[0] / sk) * gap / sk
    return [BoundCheck("tsvd_rel", lhs, float(rhs), hyp, trial.seed, {"factor_gap": gap})]


def _tikhonov_rhs(alpha, nrm, err, problem):
    """Right-hand side of both Tikhonov bounds, for an operator of 2-norm
    ``nrm`` whose rank-k factors are ``err`` away from it in the 2-norm."""
    return (alpha**-1.5 * nrm * err
            * (problem.noise_norm + (2.0 / alpha * nrm * err + 1.0) * alpha * problem.w_norm)
            + 0.5 * math.sqrt(alpha) * problem.w_norm)


def check_tikhonov_error(trial):
    """Source-condition error bound for range-preserving randomized
    Tikhonov:

    ``||x_alpha_tilde - x_true|| <= alpha^-1.5 ||A|| ||A - A_k_tilde||
    (delta + (2 alpha^-1 ||A|| ||A - A_k_tilde|| + 1) alpha ||w||)
    + 0.5 sqrt(alpha) ||w||``

    under ``x_true = A.T w``, at ``alpha = max(delta, 1e-10 sigma_1^2)``.
    """
    problem = _source_type(trial.problem, "A.T w")
    err, nrm = trial.err, trial.svd.sigma[0]
    alpha = max(problem.noise_norm, 1e-10 * nrm**2)
    x = rsvd_tikhonov_range(trial.A, trial.approx, problem.b, alpha).x
    lhs = float(np.linalg.norm(x - problem.x_true))
    rhs = _tikhonov_rhs(alpha, nrm, err, problem)
    return [BoundCheck("tikh", lhs, float(rhs), True, trial.seed, {"approx_err": err})]


def check_gen_tikhonov_error(trial):
    """Source-condition error bound for the general-penalty variant,
    measured in the penalty seminorm:

    ``||L (x_true - x_alpha_tilde)|| <= alpha^-1.5 ||B|| ||B - B_k_tilde||
    (delta + (2 alpha^-1 ||B|| ||B - B_k_tilde|| + 1) alpha ||w||)
    + 0.5 sqrt(alpha) ||w||``

    under ``x_true = Gamma A.T w`` with an invertible penalty: here the
    square bidiagonal gradient-with-anchor ``L`` on the trial's operator,
    its own source-type problem, rank-10 factors of ``B = A L_sharp`` and
    ``alpha = max(delta, 1e-12)``.
    """
    A, (L, bundle, B, Bmat, nrm) = trial.A, trial.operator.gtikh
    problem = _source_problem(A, trial.seed, bundle)
    approx_B = rsvd_auto(B, trial.cfg)
    alpha = max(problem.noise_norm, 1e-12)
    err = spectral_norm(Bmat - approx_B.matrix())
    x = rsvd_gen_tikhonov_range(A, L, approx_B, problem.b, alpha, bundle).x
    lhs = float(np.linalg.norm(L.apply(problem.x_true - x)))
    rhs = _tikhonov_rhs(alpha, nrm, err, problem)
    return [BoundCheck("gtikh", lhs, float(rhs), True, trial.seed, {"approx_err": err})]


def check_adjoint_pinv_product(trial):
    """``||A.T (A_k_tilde.T)^+|| <= 2`` whenever
    ``||A - A_k_tilde|| <= sigma_k / 2``."""
    approx, err = trial.approx, trial.err
    hyp = bool(err <= trial.svd.sigma[approx.k - 1] / 2.0)
    # (A_k_tilde.T)^+ = U diag(1/sigma) V.T, and the trailing V.T (orthonormal
    # rows) leaves the 2-norm unchanged
    lhs = spectral_norm((trial.A.T @ approx.U) / approx.sigma)
    return [BoundCheck("est_product", lhs, 2.0, hyp, trial.seed, {"approx_err": err})]


def check_lowrank_product_perturbation(trial):
    """``||A_k_tilde A_k_tilde.T (A_k.T)^+ - A_k|| <=
    (1 + sigma_1/sigma_k) ||A_k - A_k_tilde||`` (unconditional)."""
    svd, k, gap = trial.svd, trial.approx.k, trial.gap
    Ak_t_pinv = (svd.U[:, :k] / svd.sigma[:k]) @ svd.V[:, :k].T
    At = trial.approx_matrix
    lhs = spectral_norm(At @ At.T @ Ak_t_pinv - trial.A_k)
    rhs = (1.0 + svd.sigma[0] / svd.sigma[k - 1]) * gap
    return [BoundCheck("est_trsvd", lhs, float(rhs), True, trial.seed, {"factor_gap": gap})]


def check_resolvent_perturbation(trial):
    """The two shifted-resolvent perturbation estimates (unconditional):

    * ``||(A A.T + a I)(Ak Ak.T + a I)^-1 - I|| <= 2/a ||A|| ||A - Ak||``
    * ``||[(A A.T + a I)(Ak Ak.T + a I)^-1 - I] A A.T|| <=
      2 ||A|| (2/a ||A|| ||A - Ak|| + 1) ||A - Ak||``

    with ``Ak`` the randomized rank-k factors and ``a = 1e-4 sigma_1^2``.
    Returns two records.
    """
    A, err, nrm = trial.A, trial.err, trial.svd.sigma[0]
    alpha = 1e-4 * nrm**2
    n = A.shape[0]
    AAt = trial.operator.AAt
    Mk = trial.approx_matrix @ trial.approx_matrix.T
    lhs_mat = np.linalg.solve((Mk + alpha * np.eye(n)).T, (AAt + alpha * np.eye(n)).T).T
    lhs_mat -= np.eye(n)
    lhs1 = spectral_norm(lhs_mat)
    rhs1 = 2.0 / alpha * nrm * err
    lhs2 = spectral_norm(lhs_mat @ AAt)
    rhs2 = 2.0 * nrm * (2.0 / alpha * nrm * err + 1.0) * err
    return [
        BoundCheck("resolvent_1", lhs1, float(rhs1), True, trial.seed),
        BoundCheck("resolvent_2", lhs2, float(rhs2), True, trial.seed),
    ]


# ---------------------------------------------------------------------------
# Seeded verification protocols (one trial per seed), used by the
# verification harness and the acceptance suite.

VERIFY_DEFAULT_N = 200


def _read_only(part):
    """``part``, with every array in it (searched through tuples and object
    attributes) marked read-only."""
    if isinstance(part, np.ndarray):
        part.flags.writeable = False
    elif isinstance(part, tuple):
        for item in part:
            _read_only(item)
    elif hasattr(part, "__dict__"):
        for item in vars(part).values():
            _read_only(item)
    return part


class TrialOperator:
    """The seed-independent parts of the verification trials on one
    operator ``A``, each built on first use and read-only: the exact SVD
    ``svd``, the ``gtikh`` penalty ``(L, bundle, B, dense B, ||B||)`` and
    ``AAt = A @ A.T``.  ``A`` itself is left as given."""

    def __init__(self, A):
        self.A = A

    @functools.cached_property
    def svd(self):
        return _read_only(svd_full(self.A))

    @functools.cached_property
    def gtikh(self):
        """The square bidiagonal gradient-with-anchor ``L``, its bundle,
        ``B = A L_sharp`` as an operator and dense, and ``||B||``."""
        m = self.A.shape[1]
        L = custom(np.eye(m) - np.eye(m, k=-1))
        bundle = weighted_pinv(self.A, L)
        B = form_B(self.A, bundle)
        Bmat = _read_only(B.toarray())
        # after B.toarray(), which fills the caches of L that the bundle holds
        _read_only(bundle)
        return L, bundle, B, Bmat, spectral_norm(Bmat)

    @functools.cached_property
    def AAt(self):
        return _read_only(self.A @ self.A.T)


@functools.lru_cache(maxsize=1)
def shared_operator(n):
    """The :class:`TrialOperator` of the ``shaw`` operator at size ``n``,
    whose ``A`` is read-only.  The last size asked for stays resident for
    the life of the process, so every seed of that size shares its parts."""
    return TrialOperator(_read_only(generate("shaw", n)[0]))


class BoundTrial:
    """The seeded ``shaw`` trial that every check of one verification seed
    reads, with ``err = ||A - A_k_tilde||`` and ``gap = ||A_k - A_k_tilde||``
    for the rank-10 factors ``approx``, and the range-preserving TSVD
    solution ``x_trsvd`` of ``problem``.  ``err`` is the 2-norm of the dense
    difference; ``gap`` is the 2-norm of a 2k-by-2k core built from thin QR
    factors of ``[U_k, U_tilde]`` and ``[V_k, V_tilde]``.

    The parts that do not depend on the seed (``A``, its exact SVD, the
    ``gtikh`` penalty and ``A A.T``) come from ``operator``, which is
    :func:`shared_operator` of ``n`` unless ``A`` is set: setting ``A`` gives
    the trial a :class:`TrialOperator` of its own.  Every other part is the
    trial's own, built on first use, at most once; a test may set a part
    first, e.g. exact factors as ``approx``.
    """

    def __init__(self, seed, n=VERIFY_DEFAULT_N):
        if n > 1000:
            raise ValueError("bound protocols rely on full SVDs of the operator and are "
                             f"desk-scale only (n <= 1000), got n={n}")
        self.seed = seed
        self.n = n
        self.cfg = RsvdConfig(k=10, p=5, q=1, seed=seed)

    @functools.cached_property
    def operator(self):
        return shared_operator(self.n)

    @property
    def A(self):
        return self.operator.A

    @A.setter
    def A(self, A):
        self.operator = TrialOperator(A)

    @functools.cached_property
    def svd(self):
        return self.operator.svd

    @functools.cached_property
    def approx(self):
        return rsvd_auto(self.A, self.cfg)

    @functools.cached_property
    def approx_matrix(self):
        return self.approx.matrix()

    @functools.cached_property
    def A_k(self):
        k = self.approx.k
        return (self.svd.U[:, :k] * self.svd.sigma[:k]) @ self.svd.V[:, :k].T

    @functools.cached_property
    def err(self):
        return spectral_norm(self.A - self.approx_matrix)

    @functools.cached_property
    def gap(self):
        # A_k - A_k_tilde = [U_k, U~] diag(sigma_k, -sigma~) [V_k, V~].T, so with
        # thin QR factors of the two 2k-column blocks its 2-norm is the core's
        k, svd, approx = self.approx.k, self.svd, self.approx
        Ru = np.linalg.qr(np.hstack([svd.U[:, :k], approx.U]), mode="r")
        Rv = np.linalg.qr(np.hstack([svd.V[:, :k], approx.V]), mode="r")
        return spectral_norm((Ru * np.concatenate([svd.sigma[:k], -approx.sigma])) @ Rv.T)

    @functools.cached_property
    def problem(self):
        return _source_problem(self.A, self.seed)

    @functools.cached_property
    def x_trsvd(self):
        """Range-preserving truncated SVD solution of ``problem`` from ``approx``."""
        return trsvd_solve_range(self.A, self.approx, self.problem.b).x


#: The one list of checks, in report order: check id -> (``--theorem`` name,
#: check).  Each check maps a :class:`BoundTrial` to a list of
#: :class:`BoundCheck`.
CHECKS = {
    "weyl": ("weyl", check_singular_value_stability),
    "pinv_perturbation": ("pinv-perturb", check_pinv_perturbation),
    "rsvd_capture": ("rsvd-prob", check_range_capture),
    "trsvd": ("trsvd", check_trsvd_error),
    "tsvd_rel": ("tsvd-rel", check_tsvd_relative_error),
    "tikh": ("tikh", check_tikhonov_error),
    "gtikh": ("gtikh", check_gen_tikhonov_error),
    "est_product": ("est-product", check_adjoint_pinv_product),
    "est_trsvd": ("est-trsvd", check_lowrank_product_perturbation),
    "resolvent": ("resolvent", check_resolvent_perturbation),
}

VERIFY_CHECKS = tuple(CHECKS)


def run_bound_trial(check_id, trial):
    """Run the check ``check_id`` of :data:`CHECKS` on ``trial``, the
    :class:`BoundTrial` that every check of its seed shares; returns a list
    of :class:`BoundCheck`."""
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; see VERIFY_CHECKS")
    return CHECKS[check_id][1](trial)
