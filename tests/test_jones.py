"""Colored Jones tests against a naive independent evaluator and the
finite-N decomposition / product identities."""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from fig8lab.numkernel import DomainError, lc_sum
from fig8lab.qdilog import EvalContext
from fig8lab.jones import (
    beta_factor,
    decomposition_residual,
    f_n,
    jones_at_cusp,
    jones_dual,
    jones_exp,
    jones_exp_unity,
    k_range,
    product_identity_residual,
)
from fig8lab.saddle import phi_m, saddle_data


def naive_jones(n: int, w: complex) -> complex:
    """Plain-complex evaluation of the defining sum in its sinh-product form.

    Independent oracle: uses the (q^{a/2} - q^{-a/2}) factorization rather
    than the 1 - q^a products of the implementation under test.
    """
    total = 0j
    for k in range(n):
        prod = 1 + 0j
        for l in range(1, k + 1):
            prod *= (cmath.exp(w * (n + l) / 2) - cmath.exp(-w * (n + l) / 2)) * (
                cmath.exp(w * (n - l) / 2) - cmath.exp(-w * (n - l) / 2)
            )
        total += prod
    return total


def mp_jones(n: int, q, factor=None):
    """The defining sum in mpmath at the working precision.

    factor(e) is 1 - q^e; by default it is computed from q directly.
    """
    factor = factor or (lambda e: 1 - q ** e)
    total, prod = mp.mpc(0), mp.mpc(1)
    for k in range(n):
        if k:
            prod *= factor(n + k) * factor(n - k)
        total += q ** (-k * n) * prod
    return total


def log_relative_error(value, ref) -> float:
    """|value / ref - 1| for a complex log and an mpmath reference."""
    return float(abs(mp.expm1(mp.mpc(value) - mp.log(ref))))


def test_matches_naive_oracle_on_unit_circle():
    rng = np.random.default_rng(29)
    for _ in range(30):
        theta = rng.uniform(-math.pi, math.pi)
        w = 1j * theta
        for n in range(1, 9):
            mine = cmath.exp(jones_exp(n, w))
            ref = naive_jones(n, w)
            assert abs(mine - ref) <= 1e-12 * abs(ref)


def test_n1_is_one():
    assert jones_exp(1, 0.37 + 1.1j) == 0j


def test_n2_polynomial():
    q = cmath.exp(0.3j)
    expected = q ** 2 - q + 1 - 1 / q + 1 / q ** 2
    assert abs(cmath.exp(jones_exp(2, 0.3j)) - expected) <= 1e-14


def test_amphicheirality():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.8, 0.8))
        a = jones_exp(n, w)
        b = jones_exp(n, -w)
        assert abs(cmath.exp(a) - cmath.exp(b)) <= 1e-10 * abs(cmath.exp(b))


def test_cusp_small_case_matches_brute_force():
    ctx = EvalContext(u=0.5, p=2, n=3)
    brute = naive_jones(3, ctx.xi / 3)
    assert abs(cmath.exp(jones_at_cusp(ctx)) - brute) <= 1e-12 * abs(brute)


@pytest.mark.parametrize("u,p,n,tol", [(0.2, 1, 801, 5e-12), (0.5, 2, 501, 1.5e-10)])
def test_cusp_matches_mpmath(u, p, n, tol):
    # the tolerances sit just above the float64 error of a factor-by-factor
    # product (1.3e-12, 5.2e-11); a kernel that sums unreduced phases misses both
    value = jones_at_cusp(EvalContext(u=u, p=p, n=n))
    assert type(value) is complex
    with mp.workdps(40):
        ref = mp_jones(n, mp.exp(mp.mpc(u, 2 * p * mp.pi) / n))
        assert log_relative_error(value, ref) <= tol


def test_cusp_trivial():
    assert jones_at_cusp(EvalContext(u=0.5, p=1, n=1)) == 0j


# ---------------------------------------------------------------------------
# dual side and beta factors
# ---------------------------------------------------------------------------

def test_dual_p1_is_one():
    assert jones_dual(EvalContext(u=0.5, p=1, n=101)) == 0j


@pytest.mark.parametrize("u,p,n", [(0.5, 2, 101), (0.3, 3, 100), (0.9, 3, 97)])
def test_dual_equals_beta_sum(u, p, n):
    ctx = EvalContext(u=u, p=p, n=n)
    total = lc_sum([beta_factor(ctx, m) for m in range(p)])
    dual = jones_dual(ctx)
    assert abs(cmath.exp(total - dual) - 1.0) <= 1e-9


def test_beta_examples():
    ctx = EvalContext(u=0.5, p=2, n=11)
    assert beta_factor(ctx, 0) == 0j
    w = 4.0 * ctx.n * math.pi ** 2 / ctx.xi
    brute = cmath.exp(-2 * w) * (1 - cmath.exp(w)) * (1 - cmath.exp(3 * w))
    assert abs(cmath.exp(beta_factor(ctx, 1)) - brute) <= 1e-12 * abs(brute)
    with pytest.raises(DomainError):
        beta_factor(ctx, 2)


def test_beta_growth_rate():
    # |beta_{p,1}/beta_{p,0}| ~ (1/2) exp(4 p u pi^2 N / |xi|^2): slope fit
    u, p = 0.5, 2
    theory = 4 * p * u * math.pi ** 2 / abs(complex(u, 2 * math.pi * p)) ** 2
    logs = {}
    for n in (400, 800):
        ctx = EvalContext(u=u, p=p, n=n)
        logs[n] = (beta_factor(ctx, 1) - beta_factor(ctx, 0)).real
    slope = (logs[800] - logs[400]) / 400.0
    assert abs(slope - theory) / theory <= 0.10


# ---------------------------------------------------------------------------
# f_N
# ---------------------------------------------------------------------------

def test_f_n_strip_error():
    ctx = EvalContext(u=0.5, p=2, n=50)
    with pytest.raises(DomainError):
        f_n(0.6, ctx)  # skew abscissa beyond 1/p + 1/(2N)


def test_f_n_left_endpoint_exact_relation():
    # h_N(0) = 1 forces exp(N f_N(1/2N)) = 2 sinh(u/2)/(1 - e^{-4pN pi^2/xi});
    # in particular Re f_N(1/2N) -> 0
    for (u, p, n) in ((0.5, 1, 200), (0.5, 2, 201)):
        ctx = EvalContext(u=u, p=p, n=n)
        value = f_n(1.0 / (2 * n), ctx)
        target = (
            cmath.log(2 * math.sinh(u / 2))
            - cmath.log(1 - cmath.exp(-4 * p * n * math.pi ** 2 / ctx.xi))
        ) / n
        assert abs(cmath.exp(n * value - n * target) - 1) <= 1e-9
        assert abs(value.real) <= 0.05


def test_f_n_converges_to_phi_m():
    u, p, m = 0.5, 2, 1
    sd = saddle_data(u, p)
    z = sd.sigma_m(m) + 0.03 - 0.004j
    shift = 2j * m * math.pi / sd.xi
    errors = []
    for n in (100, 200):
        err = abs(f_n(z - shift, EvalContext(u=u, p=p, n=n)) - phi_m(z, m, u, p))
        errors.append(err)
    assert errors[1] <= errors[0] / 1.5  # at least O(1/N)


# ---------------------------------------------------------------------------
# decomposition and product identities
# ---------------------------------------------------------------------------

def test_k_range_partition():
    ctx = EvalContext(u=0.5, p=3, n=101)
    ks = sorted(k for m in range(3) for k in k_range(m, ctx))
    assert ks == list(range(1, 101))


@pytest.mark.parametrize("u,p,n", [(0.5, 2, 97), (0.5, 3, 101)])
def test_decomposition_residual(u, p, n):
    assert decomposition_residual(EvalContext(u=u, p=p, n=n)) <= 1e-9


def test_decomposition_noncoprime_rejected():
    with pytest.raises(DomainError):
        decomposition_residual(EvalContext(u=0.5, p=2, n=10))


@pytest.mark.parametrize("k", [7, 20, 40])
def test_product_identity_coprime(k):
    assert product_identity_residual(k, EvalContext(u=0.5, p=2, n=41)) <= 1e-7


@pytest.mark.parametrize("k", [1, 3, 6, 7, 9, 11])
def test_product_identity_gcd4(k):
    # (p, N) = (4, 12): N' = 3, so k in {3, 6, 9} exercises the k = nN' branch
    assert product_identity_residual(k, EvalContext(u=0.5, p=4, n=12)) <= 1e-7


def test_product_identity_k_domain():
    ctx = EvalContext(u=0.5, p=2, n=41)
    with pytest.raises(DomainError):
        product_identity_residual(0, ctx)
    with pytest.raises(DomainError):
        product_identity_residual(41, ctx)


# ---------------------------------------------------------------------------
# root-of-unity path
# ---------------------------------------------------------------------------

def test_unity_path_matches_generic():
    for (n, num, den) in ((5, 1, 7), (6, 3, 11), (8, -2, 13)):
        a = cmath.exp(jones_exp_unity(n, num, den))
        b = cmath.exp(jones_exp(n, 2j * math.pi * num / den))
        assert abs(a - b) <= 1e-11 * abs(b)


def test_unity_path_exact_zero_detection():
    # n = 6 at a cube root of unity: the k = 3 factor has exponent (6-3) = 3
    # divisible by den = 3, so terms k >= 3 vanish exactly
    value = cmath.exp(jones_exp_unity(6, 1, 3))
    q = cmath.exp(2j * math.pi / 3)
    expected = 0j
    for k in range(3):
        prod = 1 + 0j
        for l in range(1, k + 1):
            prod *= (1 - q ** (6 + l)) * (1 - q ** (6 - l))
        expected += q ** (-6 * k) * prod
    assert abs(value - expected) <= 1e-12 * abs(expected)


def test_unity_long_product_vanishing_in_middle():
    # n = 200 at q = e^{2 pi i 5/301}: the factor 1 - q^{n+k} first vanishes
    # at k = 101, so terms 101..199 drop out of the sum exactly
    n, num, den = 200, 5, 301
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = jones_exp_unity(n, num, den)
    with mp.workdps(40):
        q = mp.expjpi(mp.mpf(2 * num) / den)

        def factor(e):
            r = e * num % den
            return 0 if r == 0 else 1 - mp.expjpi(mp.mpf(2 * r) / den)

        assert min(k for k in range(1, n) if factor(n + k) * factor(n - k) == 0) == 101
        assert log_relative_error(value, mp_jones(n, q, factor)) <= 1e-11
