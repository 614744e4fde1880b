"""Benchmark inverse problems: discretized Fredholm integral equations of
the first kind, the relative noise model, and source-type constructions.

Seven classical one-dimensional test problems are provided, following the
discretization conventions of the public-domain regularization-tools
collection:

``baart``
    Fourier-type kernel ``exp(s cos t)`` on ``[0, pi/2] x [0, pi]``,
    Galerkin with orthonormal box functions (exact in ``s``, midpoint in
    ``t``); solution ``sin t``.  Severely ill-posed.
``deriv2``
    Green's function of ``-d^2/ds^2`` on the unit interval, exact Galerkin
    with box functions; solution ``t``.  Mildly ill-posed.
``foxgood``
    Kernel ``sqrt(s^2 + t^2)`` on the unit square, midpoint quadrature;
    solution ``t``.  Severely ill-posed.
``gravity``
    Depth kernel ``d (d^2 + (s - t)^2)^(-3/2)`` with depth ``d = 0.25``,
    midpoint quadrature; solution ``sin(pi t) + 0.5 sin(2 pi t)``.
    Severely ill-posed.
``heat``
    Volterra heat-conduction kernel with conditioning parameter
    ``kappa = 1``, midpoint quadrature (lower-triangular Toeplitz);
    piecewise hump solution.  Mildly ill-posed.
``phillips``
    The classical piecewise cosine-bump convolution kernel on ``[-6, 6]``,
    exact Galerkin with box functions (symmetric Toeplitz); the solution
    is the same bump.  Mildly ill-posed.
``shaw``
    Sinc-squared slit-imaging kernel on ``[-pi/2, pi/2]``, midpoint
    quadrature; two-Gaussian solution.  Severely ill-posed.

In every case the exact data is ``b = A @ x`` so that the discrete triple
is exactly consistent.

Each operator is built in the one n-by-n array it is returned in: kernels
are evaluated in place (outer ufuncs with ``out=``), symmetric ones a block
of rows at a time, so a build holds no n-by-n temporary.  Every entry is
bit for bit the whole-matrix expression of its kernel.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import as_matrix, as_vector

PROBLEM_NAMES = ("baart", "deriv2", "foxgood", "gravity", "heat", "phillips", "shaw")

#: Problems whose singular values decay exponentially (severely ill-posed);
#: the rest decay algebraically (mildly ill-posed).
SEVERELY_ILL_POSED = ("baart", "foxgood", "gravity", "shaw")


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level plus the seed of its Gaussian realization."""

    delta_rel: float
    seed: int = 0

    def __post_init__(self):
        if self.delta_rel < 0:
            raise ValueError(f"delta_rel must be nonnegative, got {self.delta_rel}")


@dataclass(frozen=True, eq=False)
class InverseProblem:
    """One benchmark instance ``A x = b`` with known ground truth.

    ``b_exact = A @ x_true`` holds to rounding; ``noise_norm`` records the
    Euclidean norm of the realized noise ``b - b_exact`` (the quantity the
    error bounds call the noise level).  ``w_norm`` is set for problems
    built from a source-type representation ``x_true = A.T w`` (or
    ``Gamma A.T w``).
    """

    name: str
    A: np.ndarray
    x_true: np.ndarray
    b_exact: np.ndarray
    b: np.ndarray
    delta_rel: float
    seed: int
    noise_norm: float = 0.0
    w_norm: float | None = None

    @property
    def shape(self):
        return self.A.shape


#: Rows of a symmetric operator built at a time: shaw's two block-sized
#: temporaries stay within an eighth of the n-by-n result for n >= 512.
_BLOCK = 32


def _symmetric(n, upper_rows):
    """The exactly symmetric n-by-n array whose rows ``r0:r1`` from the
    diagonal rightwards ``upper_rows(block, r0, r1)`` writes into ``block``,
    a view of the result.  Each block of rows is mirrored below the diagonal
    while it is in cache, so the build needs no n-by-n temporary."""
    A = np.empty((n, n))
    for r0 in range(0, n, _BLOCK):
        r1 = min(r0 + _BLOCK, n)
        block = A[r0:r1, r0:]
        upper_rows(block, r0, r1)
        A[r1:, r0:r1] = block[:, r1 - r0:].T
        diag = block[:, :r1 - r0]
        diag[...] = np.where(np.tri(r1 - r0, dtype=bool), diag.T, diag)
    return A


def _shaw(n):
    if n % 2:
        raise ValueError(f"shaw needs an even dimension, got n={n}")
    h = math.pi / n
    t = -math.pi / 2 + (np.arange(n) + 0.5) * h
    co = np.cos(t)
    si = np.pi * np.sin(t)

    # h * ((co_i + co_j) * np.sinc((si_i + si_j) / pi)) ** 2, evaluated
    # through np.sinc's own steps so that the result is bit-identical; both
    # sums commute exactly, so the kernel is exactly symmetric
    def upper_rows(block, r0, r1):
        y = si[r0:r1, None] + si[None, r0:]
        y /= np.pi
        y *= np.pi
        y[y == 0] = np.finfo(float).eps
        sinc = np.sin(y)
        sinc /= y
        np.add(co[r0:r1, None], co[None, r0:], out=y)
        sinc *= y
        np.square(sinc, out=sinc)
        np.multiply(sinc, h, out=block)

    A = _symmetric(n, upper_rows)
    x = 2.0 * np.exp(-6.0 * (t - 0.8) ** 2) + np.exp(-2.0 * (t + 0.5) ** 2)
    return A, x


def _foxgood(n):
    h = 1.0 / n
    t = (np.arange(n) + 0.5) * h
    t2 = t**2
    # h * np.sqrt(t_i^2 + t_j^2), in place
    A = np.add.outer(t2, t2)
    np.sqrt(A, out=A)
    A *= h
    return A, t.copy()


def _gravity(n):
    h = 1.0 / n
    depth = 0.25
    t = (np.arange(n) + 0.5) * h
    # h * depth / (depth^2 + (t_i - t_j)^2)^1.5, in place
    A = np.subtract.outer(t, t)
    np.square(A, out=A)
    A += depth**2
    np.power(A, 1.5, out=A)
    np.divide(h * depth, A, out=A)
    x = np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t)
    return A, x


def _heat(n):
    if n % 2:
        raise ValueError(f"heat needs an even dimension, got n={n}")
    h = 1.0 / n
    kappa = 1.0
    t = (np.arange(n) + 0.5) * h
    kernel = h / (2.0 * kappa * math.sqrt(math.pi)) * t**-1.5 * np.exp(
        -1.0 / (4.0 * kappa**2 * t)
    )
    first_row = np.zeros(n)
    first_row[0] = kernel[0]
    A = scipy.linalg.toeplitz(kernel, first_row)
    ti = 20.0 * (np.arange(1, n // 2 + 1)) / n
    hump = np.where(
        ti < 2.0,
        0.75 * ti**2 / 4.0,
        np.where(ti < 3.0, 0.75 + (ti - 2.0) * (3.0 - ti), 0.75 * np.exp(-(ti - 3.0) * 2.0)),
    )
    x = np.concatenate([hump, np.zeros(n - n // 2)])
    return A, x


def _deriv2(n):
    h = 1.0 / n
    i = np.arange(1, n + 1, dtype=float)
    # Exact Galerkin integrals of the kernel s(t-1) (s < t) / t(s-1) (s >= t)
    # against orthonormal box functions.
    mid = i - 0.5  # cell midpoints in units of h
    s_minus_1 = mid * h - 1.0

    # above the diagonal, entry (r, c) is h^2 mid_r (s_c - 1): the lower
    # triangle's expression with the indices swapped
    def upper_rows(block, r0, r1):
        np.multiply(mid[r0:r1, None], s_minus_1[None, r0:], out=block)
        block *= h**2

    A = _symmetric(n, upper_rows)
    np.fill_diagonal(A, h**2 * ((i**2 - i + 0.25) * h - (i - 2.0 / 3.0)))
    x = h**1.5 * mid
    return A, x


_PHI_SUPPORT = 3.0


def _phillips_antiderivative(x):
    """First antiderivative (from -3) of the bump 1 + cos(pi x / 3)."""
    xc = np.clip(x, -_PHI_SUPPORT, _PHI_SUPPORT)
    return (xc + 3.0) + (3.0 / np.pi) * np.sin(np.pi * xc / 3.0)


def _phillips_antiderivative2(x):
    """Second antiderivative (from -3) of the bump 1 + cos(pi x / 3)."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -_PHI_SUPPORT, _PHI_SUPPORT)
    core = (xc + 3.0) ** 2 / 2.0 - (9.0 / np.pi**2) * (np.cos(np.pi * xc / 3.0) + 1.0)
    return np.where(x > _PHI_SUPPORT, 18.0 + 6.0 * (x - _PHI_SUPPORT), core)


def _phillips(n):
    if n % 4:
        raise ValueError(f"phillips needs a dimension divisible by 4, got n={n}")
    h = 12.0 / n
    # Exact Galerkin of the convolution kernel theta(s - t): entry (i, j)
    # equals the second difference of the double antiderivative at lag
    # d = i - j, divided by h.  Symmetric banded Toeplitz.
    d = np.arange(n, dtype=float)
    col = (
        _phillips_antiderivative2((d + 1.0) * h)
        - 2.0 * _phillips_antiderivative2(d * h)
        + _phillips_antiderivative2((d - 1.0) * h)
    ) / h
    A = scipy.linalg.toeplitz(col)
    edges = -6.0 + np.arange(n + 1) * h
    x = (
        _phillips_antiderivative(edges[1:]) - _phillips_antiderivative(edges[:-1])
    ) / math.sqrt(h)
    return A, x


def _baart(n):
    if n % 2:
        raise ValueError(f"baart needs an even dimension, got n={n}")
    hs = (math.pi / 2.0) / n
    ht = math.pi / n
    s_edges = np.arange(n + 1) * hs
    tau = (np.arange(n) + 0.5) * ht
    c = np.cos(tau)
    # Galerkin: the s-integration of exp(s cos t) is exact, the
    # t-integration uses the midpoint tau_j.  expm1 keeps precision where
    # cos(tau) is nearly zero.
    # sqrt(ht / hs) * exp(s_i c_j) * expm1(hs c_j) / c_j, in place
    A = np.multiply.outer(s_edges[:-1], c)
    np.exp(A, out=A)
    A *= math.sqrt(ht / hs)
    A *= np.expm1(hs * c) / c
    t_edges = np.arange(n + 1) * ht
    x = (np.cos(t_edges[:-1]) - np.cos(t_edges[1:])) / math.sqrt(ht)
    return A, x


_GENERATORS = {
    "baart": _baart,
    "deriv2": _deriv2,
    "foxgood": _foxgood,
    "gravity": _gravity,
    "heat": _heat,
    "phillips": _phillips,
    "shaw": _shaw,
}


def generate(name, n):
    """Build the named test problem at dimension ``n`` (square, n >= 8).

    Returns
    -------
    (A, x_true, b_exact)
        ``b_exact = A @ x_true`` exactly.
    """
    if name not in _GENERATORS:
        raise ValueError(
            f"unknown problem {name!r}; valid names are {', '.join(PROBLEM_NAMES)}"
        )
    if n < 8:
        raise ValueError(f"dimension must be at least 8, got n={n}")
    A, x = _GENERATORS[name](n)
    return A, x, A @ x


def add_noise(b_exact, spec):
    """Perturb exact data entrywise by ``delta * max|b| * xi_i`` with
    standard Gaussian ``xi``.

    Returns
    -------
    (b, noise_norm)
        The noisy vector and the Euclidean norm of the realized noise.
    """
    b_exact = as_vector(b_exact, "b_exact")
    if spec.delta_rel == 0.0:
        return b_exact.copy(), 0.0
    rng = np.random.default_rng(spec.seed)
    xi = rng.standard_normal(b_exact.shape[0])
    e = spec.delta_rel * np.max(np.abs(b_exact)) * xi
    return b_exact + e, float(np.linalg.norm(e))


def make_problem(name, n, noise=None):
    """Generate a named problem and optionally perturb its data."""
    A, x_true, b_exact = generate(name, n)
    noise = noise or NoiseSpec(0.0, 0)
    b, noise_norm = add_noise(b_exact, noise)
    return InverseProblem(
        name=name,
        A=A,
        x_true=x_true,
        b_exact=b_exact,
        b=b,
        delta_rel=noise.delta_rel,
        seed=noise.seed,
        noise_norm=noise_norm,
    )


def with_noise(problem, spec):
    """Return a copy of ``problem`` with freshly realized noise."""
    b, noise_norm = add_noise(problem.b_exact, spec)
    return InverseProblem(
        name=problem.name,
        A=problem.A,
        x_true=problem.x_true,
        b_exact=problem.b_exact,
        b=b,
        delta_rel=spec.delta_rel,
        seed=spec.seed,
        noise_norm=noise_norm,
        w_norm=problem.w_norm,
    )


def make_sourcewise(A, bundle=None, seed=0, name="sourcewise"):
    """Construct a problem whose solution satisfies the source-type
    representation ``x_true = A.T w`` (or ``Gamma A.T w`` when a
    weighted-pseudoinverse bundle is supplied).

    The representer ``w`` is seeded standard Gaussian; its norm is stored
    on the problem so error bounds that reference it stay computable.
    Noise is added separately via :func:`with_noise`.
    """
    A = as_matrix(A)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(A.shape[0])
    x_true = A.T @ w if bundle is None else bundle.gamma_apply(A.T @ w)
    b_exact = A @ x_true
    return InverseProblem(
        name=name,
        A=A,
        x_true=x_true,
        b_exact=b_exact,
        b=b_exact.copy(),
        delta_rel=0.0,
        seed=seed,
        noise_norm=0.0,
        w_norm=float(np.linalg.norm(w)),
    )
