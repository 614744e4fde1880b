"""Randomized-SVD solvers for discrete linear inverse problems.

The package combines randomized low-rank factorization with three
classical regularization families (truncated SVD, Tikhonov, general
Tikhonov with a smoothness penalty), keeping the regularized solution in
the range of the relevant adjoint operator.  It ships the classical
one-dimensional Fredholm test problems, empirical verification of the
solver error bounds, and a benchmark command line (``rsvdreg``).
"""

from .linalg import (
    RankDeficiencyWarning,
    SvdTriple,
    pinv,
    qr_thin,
    solve_shifted_gram,
    spectral_norm,
    svd_full,
)
from .rsvd import (
    RankKApprox,
    RsvdConfig,
    RsvdErrorReport,
    exponential_decay_bounds,
    from_exact_svd,
    range_basis,
    refine_singular_values,
    rsvd_auto,
    rsvd_error,
    rsvd_nested,
    rsvd_tall,
    rsvd_wide,
    theorem_spectral_bounds,
)
from .smoothing import (
    SmoothingOperator,
    WeightedPinvBundle,
    first_difference,
    form_B,
    identity,
    second_difference,
    weighted_pinv,
)
from .solvers import (
    METHODS,
    SolverResult,
    gen_tikhonov_direct,
    rsvd_gen_tikhonov_projected,
    rsvd_gen_tikhonov_range,
    rsvd_tikhonov_projected,
    rsvd_tikhonov_range,
    tikhonov_solve_direct,
    trsvd_solve_projected,
    trsvd_solve_range,
    tsvd_solve,
)
from .refine import (
    RefineState,
    dual_maximizer,
    dual_objective,
    dual_solve,
    iterative_refine,
    primal_objective,
)
from .problems import (
    PROBLEM_NAMES,
    SEVERELY_ILL_POSED,
    InverseProblem,
    NoiseSpec,
    add_noise,
    generate,
    make_problem,
    make_sourcewise,
    with_noise,
)
from .diagnostics import (
    AlphaCurve,
    BoundCheck,
    DecayFit,
    ErrorReport,
    decay_fit,
    default_alpha_grid,
    error_report,
    select_alpha,
)

__version__ = "0.1.0"
