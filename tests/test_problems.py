"""Generator tests.

Each discretization is checked against an independent scalar-loop
reimplementation of the same quadrature/Galerkin rule; the phillips kernel
integrals are additionally cross-checked by adaptive Gauss-Legendre
quadrature split at the kernel's support boundary.
"""

import math
import tracemalloc

import numpy as np
import pytest

from rsvdreg import problems
from rsvdreg.diagnostics import decay_fit
from rsvdreg.problems import NoiseSpec, add_noise, generate, make_sourcewise, with_noise
from rsvdreg.smoothing import custom, weighted_pinv


# --- scalar-loop oracles -----------------------------------------------------

def shaw_oracle(n):
    h = math.pi / n
    t = [-math.pi / 2 + (i + 0.5) * h for i in range(n)]
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            u = math.pi * (math.sin(t[i]) + math.sin(t[j]))
            sinc = math.sin(u) / u if u != 0 else 1.0
            A[i, j] = h * ((math.cos(t[i]) + math.cos(t[j])) * sinc) ** 2
    return A


def foxgood_oracle(n):
    h = 1.0 / n
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            A[i, j] = h * math.sqrt(((i + 0.5) * h) ** 2 + ((j + 0.5) * h) ** 2)
    return A


def gravity_oracle(n, d=0.25):
    h = 1.0 / n
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            A[i, j] = h * d * (d**2 + ((i - j) * h) ** 2) ** -1.5
    return A


def heat_oracle(n, kappa=1.0):
    h = 1.0 / n
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if j > i:
                continue
            t = (i - j + 0.5) * h
            A[i, j] = h / (2 * kappa * math.sqrt(math.pi)) * t**-1.5 * math.exp(
                -1.0 / (4 * kappa**2 * t)
            )
    return A


def deriv2_oracle(n):
    h = 1.0 / n
    A = np.zeros((n, n))
    for i in range(1, n + 1):
        A[i - 1, i - 1] = h**2 * ((i**2 - i + 0.25) * h - (i - 2.0 / 3.0))
        for j in range(1, i):
            A[i - 1, j - 1] = h**2 * (j - 0.5) * ((i - 0.5) * h - 1.0)
            A[j - 1, i - 1] = A[i - 1, j - 1]
    return A


def baart_oracle(n):
    hs = (math.pi / 2) / n
    ht = math.pi / n
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            c = math.cos((j + 0.5) * ht)
            exact_s = (math.exp((i + 1) * hs * c) - math.exp(i * hs * c)) / c
            A[i, j] = ht * exact_s / math.sqrt(hs * ht)
    return A


def phillips_kernel(x):
    return 1.0 + math.cos(math.pi * x / 3.0) if abs(x) < 3.0 else 0.0


def phillips_entry_quadrature(i, j, h, nodes=48):
    """Galerkin integral of the convolution bump over one cell pair, by
    Gauss-Legendre in the difference variable, split at the support edges
    and the density kink."""
    d = (i - j) * h
    # integrand over w in [-h, h]: (h - |w|) * kernel(d + w), divided by h
    breaks = {-h, 0.0, h}
    for edge in (-3.0, 3.0):
        w = edge - d
        if -h < w < h:
            breaks.add(w)
    pts = sorted(breaks)
    x, wts = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        for xx, ww in zip(x, wts):
            w_val = mid + half * xx
            total += ww * half * (h - abs(w_val)) * phillips_kernel(d + w_val)
    return total / h


ORACLES = {
    "shaw": shaw_oracle,
    "foxgood": foxgood_oracle,
    "gravity": gravity_oracle,
    "heat": heat_oracle,
    "deriv2": deriv2_oracle,
    "baart": baart_oracle,
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_matrix_matches_scalar_oracle(name):
    A, _, _ = generate(name, 64)
    O = ORACLES[name](64)
    assert np.max(np.abs(A - O)) <= 1e-12 * np.max(np.abs(O))


# --- the in-place builds against their dense expressions ---------------------
# Each generator writes A into one n-by-n array; these are the whole-matrix
# expressions it replaced, which it must reproduce to the last bit.

def shaw_expression(n):
    h = math.pi / n
    t = -math.pi / 2 + (np.arange(n) + 0.5) * h
    co = np.cos(t)
    ssum = np.pi * np.sin(t)[:, None] + np.pi * np.sin(t)[None, :]
    # zeros of np.sinc's argument lie on the anti-diagonal
    assert np.any(ssum == 0)
    return h * ((co[:, None] + co[None, :]) * np.sinc(ssum / np.pi)) ** 2


def deriv2_expression(n):
    h = 1.0 / n
    i = np.arange(1, n + 1, dtype=float)
    lower = h**2 * np.outer((i - 0.5) * h - 1.0, i - 0.5)
    A = np.tril(lower, -1)
    A = A + A.T
    np.fill_diagonal(A, h**2 * ((i**2 - i + 0.25) * h - (i - 2.0 / 3.0)))
    return A


def baart_expression(n):
    hs = (math.pi / 2.0) / n
    ht = math.pi / n
    s_edges = np.arange(n + 1) * hs
    c = np.cos((np.arange(n) + 0.5) * ht)
    return math.sqrt(ht / hs) * np.exp(np.outer(s_edges[:-1], c)) * (
        np.expm1(hs * c) / c)


def foxgood_expression(n):
    h = 1.0 / n
    t = (np.arange(n) + 0.5) * h
    return h * np.sqrt(t[:, None] ** 2 + t[None, :] ** 2)


def gravity_expression(n, depth=0.25):
    h = 1.0 / n
    t = (np.arange(n) + 0.5) * h
    return h * depth / (depth**2 + (t[:, None] - t[None, :]) ** 2) ** 1.5


EXPRESSIONS = {
    "baart": baart_expression,
    "deriv2": deriv2_expression,
    "foxgood": foxgood_expression,
    "gravity": gravity_expression,
}


# one partial row block (8, 10), whole blocks (32, 256) and a ragged last
# block (the rest) of the generators' 32-row blocks
@pytest.mark.parametrize("n", [8, 10, 32, 100, 256, 254, 258, 514, 778])
def test_shaw_matches_sinc_expression_bitwise(n):
    # the in-place build repeats np.sinc's steps, zeros of its argument
    # (on the anti-diagonal) included, so it must agree to the last bit
    assert np.array_equal(problems._shaw(n)[0], shaw_expression(n))


@pytest.mark.parametrize("n", [8, 10, 100, 254, 256, 258, 514, 778])
@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_matrix_matches_dense_expression_bitwise(name, n):
    assert np.array_equal(generate(name, n)[0], EXPRESSIONS[name](n))


@pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
def test_generate_holds_one_matrix(name):
    # the build's temporaries stay below a quarter of the n-by-n result
    n = 512
    generate(name, 16)  # first-call allocations (caches, imports) excluded
    tracemalloc.start()
    try:
        generate(name, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8


def test_phillips_matches_quadrature_oracle():
    n = 16
    A, _, _ = generate("phillips", n)
    h = 12.0 / n
    for i in range(n):
        for j in range(n):
            ref = phillips_entry_quadrature(i, j, h)
            assert A[i, j] == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))


def test_phillips_solution_matches_quadrature():
    n = 16
    _, x, _ = generate("phillips", n)
    h = 12.0 / n
    nodes, wts = np.polynomial.legendre.leggauss(64)
    for j in range(n):
        a = -6.0 + j * h
        ref = sum(
            w * (h / 2) * phillips_kernel(a + h / 2 + (h / 2) * t)
            for t, w in zip(nodes, wts)
        ) / math.sqrt(h)
        assert x[j] == pytest.approx(ref, abs=1e-12)


# --- qualitative properties --------------------------------------------------

def test_deriv2_spectrum_algebraic():
    A, _, _ = generate("deriv2", 100)
    assert np.allclose(A, A.T)
    s = np.linalg.svd(A, compute_uv=False)
    i = np.arange(1, 41)
    slope = np.polyfit(np.log(i), np.log(s[:40]), 1)[0]
    assert -2.3 <= slope <= -1.7
    # cross-check the leading values against the analytic operator spectrum
    assert np.allclose(s[:5], 1.0 / (i[:5] * np.pi) ** 2, rtol=3e-3)


def test_shaw_spectrum_exponential():
    A, _, _ = generate("shaw", 100)
    s = np.linalg.svd(A, compute_uv=False)
    # ~10 orders of magnitude over the first ~17 modes, down to the
    # rounding floor; the trend is exponential with local stairsteps, so
    # the log-space residual window is generous
    top = np.flatnonzero(s > 1e-13 * s[0])
    assert top[-1] < 25
    i = np.arange(5, top[-1] - 1)
    coef = np.polyfit(i, np.log(s[i - 1]), 1)
    resid = np.log(s[i - 1]) - np.polyval(coef, i)
    assert -2.5 <= coef[0] <= -1.0
    assert np.max(np.abs(resid)) <= 2.5
    fit = decay_fit(s[: top[-1] + 1])
    assert fit.model == "exponential"


def test_severity_classification():
    # Exponential-decay examples are far more rank-compressible at matched
    # depth than the algebraic ones; thresholds locked from the first
    # oracle run of the generators.
    for name in problems.PROBLEM_NAMES:
        A, _, _ = generate(name, 200)
        s = np.linalg.svd(A, compute_uv=False)
        ratio = s[19] / s[0]
        if name in problems.SEVERELY_ILL_POSED:
            assert ratio <= 1e-5, name
        else:
            assert ratio >= 1e-4, name


@pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
def test_exact_data_consistency(name):
    A, x, b = generate(name, 64)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.all(np.isfinite(A))


@pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
def test_dimension_consistency(name):
    # The discretized solutions and exact data converge as functions:
    # after scale normalization, the n and 2n samplings differ by a few
    # percent.
    _, x1, b1 = generate(name, 200)
    _, x2, b2 = generate(name, 400)
    t1 = (np.arange(200) + 0.5) / 200
    t2 = (np.arange(400) + 0.5) / 400
    for v1, v2 in ((x1, x2), (b1, b2)):
        v1i = np.interp(t2, t1, v1)
        diff = np.linalg.norm(
            v1i / np.linalg.norm(v1i) - v2 / np.linalg.norm(v2))
        assert diff <= 0.05


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        NoiseSpec(-0.01, 0)


def test_generate_validation():
    with pytest.raises(ValueError, match="baart, deriv2"):
        generate("nosuch", 64)
    with pytest.raises(ValueError, match="at least 8"):
        generate("shaw", 4)
    with pytest.raises(ValueError, match="even"):
        generate("shaw", 65)
    with pytest.raises(ValueError, match="divisible by 4"):
        generate("phillips", 66)


# --- noise model --------------------------------------------------------------

def test_noise_free_passthrough(rng):
    b = rng.standard_normal(12)
    out, norm = add_noise(b, NoiseSpec(0.0, 3))
    assert np.array_equal(out, b) and norm == 0.0


def test_noise_deterministic(rng):
    b = rng.standard_normal(12)
    o1, n1 = add_noise(b, NoiseSpec(0.05, 11))
    o2, n2 = add_noise(b, NoiseSpec(0.05, 11))
    assert np.array_equal(o1, o2) and n1 == n2


def test_noise_norm_concentration():
    # ||e|| concentrates around delta * max|b| * sqrt(n).
    b = np.linspace(0.5, 2.0, 5000)
    scale = 0.01 * 2.0 * math.sqrt(5000)
    hits = 0
    for seed in range(1000):
        _, norm = add_noise(b, NoiseSpec(0.01, seed))
        hits += 0.9 <= norm / scale <= 1.1
    assert hits >= 990


def test_noise_formula_matches_definition(rng):
    b = rng.standard_normal(20)
    spec = NoiseSpec(0.03, 5)
    out, norm = add_noise(b, spec)
    xi = np.random.default_rng(5).standard_normal(20)
    expected = b + 0.03 * np.max(np.abs(b)) * xi
    assert np.allclose(out, expected)
    assert norm == pytest.approx(np.linalg.norm(out - b))


# --- source-type construction ---------------------------------------------------

def test_sourcewise_in_adjoint_range(rng):
    A = rng.standard_normal((10, 8))
    prob = make_sourcewise(A, seed=4)
    w, *_ = np.linalg.lstsq(A.T, prob.x_true, rcond=None)
    assert np.linalg.norm(A.T @ w - prob.x_true) <= 1e-10 * np.linalg.norm(prob.x_true)
    assert prob.w_norm == pytest.approx(
        np.linalg.norm(np.random.default_rng(4).standard_normal(10)))


def test_sourcewise_orthogonal_matrix(rng):
    Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    prob = make_sourcewise(Q, seed=9)
    w = np.random.default_rng(9).standard_normal(6)
    assert np.allclose(prob.x_true, Q.T @ w)


def test_sourcewise_weighted_variant(rng):
    A = rng.standard_normal((9, 9))
    L = custom(np.eye(9) + 0.4 * np.diag(np.ones(8), -1))
    bundle = weighted_pinv(A, L)
    prob = make_sourcewise(A, bundle=bundle, seed=2)
    w = np.random.default_rng(2).standard_normal(9)
    assert np.allclose(prob.x_true, bundle.gamma_apply(A.T @ w))


def test_bound_ingredients_retrievable():
    A, _, _ = generate("shaw", 32)
    prob = with_noise(make_sourcewise(A, seed=3), NoiseSpec(0.01, 8))
    assert prob.w_norm is not None and prob.w_norm > 0
    assert prob.noise_norm > 0
    assert prob.delta_rel == 0.01
    assert np.linalg.norm(prob.A @ prob.x_true - prob.b_exact) <= \
        1e-10 * np.linalg.norm(prob.b_exact)
