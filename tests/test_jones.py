"""Colored Jones tests against a naive independent evaluator and the
finite-N decomposition / product identities."""

import cmath
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fig8lab import cli, jones, qdilog
from fig8lab.numkernel import DomainError, lc_sum
from fig8lab.qdilog import EvalContext
from fig8lab.jones import (
    beta_factors,
    decomposition_residual,
    f_n,
    jones_at_cusp,
    jones_exp,
    jones_exp_unity,
    log_qpoch,
    product_identity_residual,
    sector_points,
)
from fig8lab.modularity import ModularMatrix, build_x, mobius
from fig8lab.saddle import phi_m, saddle_data
from reference import naive_jones


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


def test_counts_must_be_positive_integers():
    # a float count names no sum, even an integral one
    for n in (0, 2.5, 3.0):
        with pytest.raises(DomainError, match="n must be a positive integer"):
            jones_exp(n, 0.1j)
    for n, den in ((0, 5), (3.5, 5), (3, 5.5), (3, 0)):
        with pytest.raises(DomainError, match="n and den must be positive integers"):
            jones_exp_unity(n, 1, den)
    with pytest.raises(DomainError, match="num must be an integer"):
        jones_exp_unity(3, 1.5, 5)
    assert jones_exp(np.int64(2), 0.3j) == jones_exp(2, 0.3j)


@pytest.mark.parametrize("w", [complex(0, math.inf), complex(math.inf, 0), (math.inf, Fraction(1, 3)),
                               (complex(0.1, math.nan), Fraction(1, 3)), (0.1, 0.5)],
                         ids=["im-inf", "re-inf", "pair-inf", "pair-nan", "pair-float-r"])
def test_non_finite_exponent_is_refused(w):
    # refused before reduce_phase or _exponents turns it into NaN terms; a
    # float r has no exact phase and is refused too
    with pytest.raises(DomainError, match=rf"w = {re.escape(str(w))} is not finite at J_3"):
        jones_exp(3, w)


@pytest.mark.parametrize("n,a,r", [(7, 0.1 + 0.2j, Fraction(1, 3)), (20, 0.03 - 0.02j, Fraction(-3, 7)),
                                   (25, -0.02 + 0.05j, Fraction(1, 4))])
def test_pair_with_complex_a_matches_complex_exponent(n, a, r):
    # a pair's a may be complex: its imaginary part is kept, not dropped
    pair = jones_exp(n, (a, r))
    assert abs(cmath.exp(pair - jones_exp(n, a + 2j * math.pi * r)) - 1.0) <= 1e-13
    with mp.workdps(50):
        q = mp.exp(mp.mpc(a) + 2j * mp.pi * mp.mpf(r.numerator) / r.denominator)
        assert log_relative_error(pair, mp_jones(n, q)) <= 2e-14


def test_n2_polynomial():
    q = cmath.exp(0.3j)
    expected = q ** 2 - q + 1 - 1 / q + 1 / q ** 2
    assert abs(cmath.exp(jones_exp(2, 0.3j)) - expected) <= 1e-14


def test_exponent_is_reduced_modulo_2_pi_i():
    # q = e^w depends on w only modulo 2 pi i.  modularity_sample's exponent for
    # eta = (2,1,1,1) at (u, p, N) = (0.5, 1, 299) has Im w near 4 pi, and M = cN + dp = 300
    w = 2j * math.pi * mobius(ModularMatrix(2, 1, 1, 1), build_x(EvalContext(u=0.5, p=1, n=299)))
    w0 = w - 4j * math.pi
    assert -math.pi < w0.imag <= math.pi
    base = jones_exp(300, w0)
    for k in (-2, -1, 1, 2, 3):
        assert abs(cmath.exp(jones_exp(300, w0 + 2j * math.pi * k) - base) - 1.0) <= 1e-12
    with mp.workdps(50):
        assert log_relative_error(jones_exp(300, w), mp_jones(300, mp.exp(mp.mpc(w)))) <= 1e-10


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


@pytest.mark.parametrize("u,p,n,tol", [(0.2, 1, 801, 5e-12), (0.5, 2, 501, 1.5e-10),
                                        (0.5, 2, 301, 1e-12)])
def test_cusp_matches_mpmath(u, p, n, tol):
    # the first two tolerances sit just above the float64 error of a
    # factor-by-factor product (1.3e-12, 5.2e-11); a kernel that sums
    # unreduced phases misses both.  The third needs the cusp phases reduced
    # exactly (3.7e-13): with xi/N rounded to a complex the sum errs by 2.8e-12
    value = jones_at_cusp(EvalContext(u=u, p=p, n=n))
    assert type(value) is complex
    with mp.workdps(40):
        ref = mp_jones(n, mp.exp(mp.mpc(u, 2 * p * mp.pi) / n))
        assert log_relative_error(value, ref) <= tol


def test_cusp_trivial():
    assert jones_at_cusp(EvalContext(u=0.5, p=1, n=1)) == 0j


# ---------------------------------------------------------------------------
# the product kernel
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.floats(-3.0, 3.0), st.floats(-7.0, 7.0))
@example(61, 60, 0.5 / 61, 4 * math.pi / 61)            # jones_exp at the cusp (0.5, 2, 61)
@example(3, 2, 4.0, -9.0 / 4)                            # beta_factors' c = p > k = p - 1
@example(5, 9, -0.3, 1.1)                                # c <= k: factor l = c vanishes
@example(7, 7, 0.0, 0.0)
@example(20, 19, 0.0, 3.5443109969266384)                # e w = 39 w lies near 44 pi i
def test_log_qpoch_against_mpmath(c, k, re, im):
    w = complex(re, im)
    logs = log_qpoch(c, k, w)
    assert logs.shape == (k + 1,) and logs[0] == 0j
    eps = 2.0 ** -52
    with mp.workdps(40):
        product, budget = mp.mpc(1), 0.0
        for j in range(1, k + 1):
            for e in (c + j, c - j):
                q = mp.exp(e * mp.mpc(w))
                one_minus_q = -mp.expm1(e * mp.mpc(w))
                product *= one_minus_q
                if one_minus_q != 0:
                    # log1mexp's own bound, 4 eps (1 + |ew| + |q/(1-q)|), plus the
                    # rounding of the exponent e * w, eps |ew|, amplified by |q/(1-q)|
                    budget += 4 * eps * (1 + abs(e * w)) * (1 + float(abs(q / one_minus_q)))
            budget += 2 * eps * abs(logs[j])                # the cumulative sum's rounding
            if product == 0:
                assert logs[j].real == -math.inf
                continue
            diff = mp.mpc(logs[j]) - mp.log(product)
            diff = mp.mpc(diff.real, (diff.imag + mp.pi) % (2 * mp.pi) - mp.pi)
            assert abs(diff) <= budget


def test_log_qpoch_vanishing_root_of_unity_factor_is_exact():
    # q = e^{2 pi i/5}: the factor 1 - q^{c-l} at l = 2 has exponent 5, so q^5 = 1
    # exactly, and every entry from j = 2 on is the exact zero
    logs = log_qpoch(7, 4, (0.0, Fraction(1, 5)))
    assert list(logs.real[2:]) == [-math.inf] * 3
    with mp.workdps(30):
        q = mp.expjpi(mp.mpf(2) / 5)
        ref = (1 - q ** 8) * (1 - q ** 6)
        assert abs(mp.expm1(mp.mpc(logs[1]) - mp.log(ref))) <= 1e-15


def _reduce_phase_reference(x):
    y = np.array(x, dtype=np.float64)
    out = (y <= -math.pi) | (y > math.pi)
    r = math.pi - np.mod(math.pi - y[out], 2.0 * math.pi)
    r[r <= -math.pi] += 2.0 * math.pi
    y[out] = r
    return y


def _multiples_reference(e, w):
    a, r = w if isinstance(w, tuple) else (w, 0)
    num, den = r.numerator % r.denominator, r.denominator
    if den > 2 ** 31:
        e = e.astype(object)
    out = np.empty(e.shape, dtype=complex)
    out.real = e * a.real
    out.imag = 2.0 * math.pi / den * (e % den * num % den)
    if a.imag:
        out.imag += e * a.imag
    return out


def _log_qpoch_reference(c, k, w):
    logs = jones.log1mexp(_multiples_reference((c + np.outer(np.arange(1, k + 1), (1, -1))).ravel(), w))
    return np.concatenate(([0j], np.cumsum(logs)[1::2]))


def _jones_terms_reference(n, w):
    """J_n's terms as the earlier builder made them: _multiples for factors and
    weights, an outer product of exponents, and every weight phase reduced."""
    terms = _log_qpoch_reference(n, n - 1, w)
    weights = _multiples_reference(-n * np.arange(n), w)
    terms.real += weights.real
    terms.imag += _reduce_phase_reference(weights.imag)
    return terms


# the benchmark's jones_sweep calls: jones and theorem at its (u, p, N), and
# modularity at eta = S, with and without --zagier
_SWEEP = [("0.5", "2", "101..1001", "100"), ("0.5", "2", "1601,3201", "1"),
          ("0.2", "1", "401,801,1601,3201,6401", "1"), ("0.9", "1", "51,101,151,201,401", "1")]
_SWEEP_ARGV = [[command, "--u", u, "--p", p, "--N", n, "--step", step]
               for command in ("jones", "theorem") for u, p, n, step in _SWEEP]
_MODULARITY = ["modularity", "--eta", "0,-1,1,0", "--p", "1,2,3", "--N-list", "299,599,899"]
_SWEEP_ARGV += [_MODULARITY + ["--u", "0.5"], _MODULARITY + ["--zagier"]]


def test_jones_terms_bit_equal_to_earlier_builder(monkeypatch, capsys):
    # every term array of jones_at_cusp, beta_factors, jones_exp and
    # jones_exp_unity equals the earlier builder's in every bit, signed zeros
    # included: the zero-phase weights of the cusp and of roots of unity, the
    # dual's 2-3 terms, a complex a, and a den past 2^31 on both sides of the
    # switch to Python integers (7^2 * 3 fits int64; 65537 * 65536 * (2^31 + 10),
    # the largest weight exponent times num, does not)
    calls = []
    terms = jones._jones_terms
    monkeypatch.setattr(jones, "_jones_terms", lambda n, w: calls.append((n, w)) or terms(n, w))
    for argv in _SWEEP_ARGV:
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 102
    jones_exp(1, 0.37 + 1.1j)
    jones_at_cusp(EvalContext(u=0.5, p=1, n=1))
    for n, num, den in ((1, 1, 3), (6, 1, 3), (200, 5, 301), (7, 3, 2 ** 31 + 11),
                        (2 ** 16 + 1, 2 ** 31 + 10, 2 ** 31 + 11)):
        jones_exp_unity(n, num, den)
    jones_exp(7, (0.1 + 0.2j, Fraction(1, 3)))
    jones_exp(20, (0.03 - 0.02j, Fraction(-3, 7)))
    jones_exp(5, (-0.25, Fraction(2 ** 62 + 1, 2 ** 62 + 5)))
    for n, w in calls:
        mine, ref = np.concatenate(tuple(terms(n, w))), _jones_terms_reference(n, w)
        assert np.array_equal(mine.view(np.int64), ref.view(np.int64)), (n, w)
    # the partial products of product_identity_residual, and a vanishing factor at c <= k
    for c, k, w in [(12, k, (0.5 / 12, Fraction(4, 12))) for k in range(12)] + [(5, 9, -0.3 + 1.1j)]:
        assert np.array_equal(log_qpoch(c, k, w).view(np.int64), _log_qpoch_reference(c, k, w).view(np.int64))


@pytest.mark.parametrize("largest", [9, 20], ids=["factors", "weights"])
def test_exponent_bounds_reach_the_largest_product(largest):
    # each caller of _exponents states a bound on |e|; at n = 5 the largest
    # factor exponent is 2n - 1 = 9 and the largest weight exponent n(n - 1) = 20.
    # With num = ceil(2^63/largest), that exponent times num just passes int64,
    # so a bound stated below it would wrap e * num by 2^64 and move the phases
    # by 2 pi (2^64 mod den)/den, here 0.15 of a turn
    num, den = -(-2 ** 63 // largest), 3 * 10 ** 18 + 1
    assert (largest - 1) * num < 2 ** 63 <= largest * num and num < den
    w = (0.0, Fraction(num, den))
    mine, ref = np.concatenate(tuple(jones._jones_terms(5, w))), _jones_terms_reference(5, w)
    assert np.array_equal(mine.view(np.int64), ref.view(np.int64))


def test_zero_phase_weights_keep_the_reduced_signed_zero(monkeypatch):
    # log1mexp returns no phase -0.0; were a term's phase -0.0, the exact zero
    # weight phases must still turn it into +0.0 as reduced zero phases do
    kernel = jones.log1mexp

    def negative_zero_phases(w):
        out = kernel(w)
        out.imag[out.imag == 0.0] = -0.0
        return out

    monkeypatch.setattr(jones, "log1mexp", negative_zero_phases)
    for w in (-0.3, (-0.3, Fraction(4))):
        assert np.signbit(log_qpoch(9, 8, w).imag[1:]).all()
        mine, ref = np.concatenate(tuple(jones._jones_terms(9, w))), _jones_terms_reference(9, w)
        assert not np.signbit(mine.imag).any()
        assert np.array_equal(mine.view(np.int64), ref.view(np.int64))


# ---------------------------------------------------------------------------
# blocks: every J_n is one pass over blocks of _TERM_BLOCK terms
# ---------------------------------------------------------------------------

B = jones._TERM_BLOCK
# 3100 first divides 2000 + l at l = 1100 and 2000 - l at l = 2000, both in the second block
_VANISHING_IN_BLOCK_2 = (0.0, Fraction(3, 3100))


@pytest.mark.parametrize("c, w", [
    pytest.param(3081, (0.5 / 3081, Fraction(2, 3081)), id="cusp"),
    pytest.param(7, 0.002 + 0.7j, id="complex"),
    pytest.param(2000, _VANISHING_IN_BLOCK_2, id="unity-vanishing-in-block-2"),
])
@pytest.mark.parametrize("k", [B - 1, B, B + 1, 2 * B, 3 * B + 5])
def test_log_qpoch_bit_equal_across_block_boundaries(c, k, w):
    # each block's first factor log takes the carry before np.cumsum, which
    # sums in sequence: every entry has the bits of one cumulative sum
    mine, ref = log_qpoch(c, k, w), _log_qpoch_reference(c, k, w)
    assert np.array_equal(mine.view(np.int64), ref.view(np.int64))


def test_vanishing_factor_in_block_2_zeroes_every_later_block():
    blocks = list(jones._qpoch_blocks(2000, 3 * B + 5, _VANISHING_IN_BLOCK_2))
    assert [b.size for b in blocks] == [B, B, B, 6]
    assert np.isfinite(blocks[0].real).all()
    assert np.isfinite(blocks[1].real[:1100 - B]).all()
    assert (blocks[1].real[1100 - B:] == -math.inf).all()
    assert all((b.real == -math.inf).all() for b in blocks[2:])


def _lc_sum_reference(logs):
    """The one scaled sum of all terms, as lc_sum made it before sums ran in blocks."""
    m = float(logs.real.max())
    if m == -math.inf:
        return complex(-math.inf, 0.0)
    acc = complex(np.exp(logs - m).sum())
    if acc == 0j:
        return complex(-math.inf, 0.0)
    return complex(math.log(abs(acc)) + m, math.atan2(acc.imag, acc.real))


@pytest.mark.parametrize("n", [1, 2, 17, B - 1, B])
def test_one_block_sums_bit_equal_to_one_scaled_sum(n):
    # n <= B terms are one block, summed by the one-pass formula exactly
    def bits(value):
        return np.array([value]).view(np.int64).tolist()

    for w in ((0.5 / n, Fraction(2, n)), 0.01 - 0.4j, (0.03 - 0.02j, Fraction(-3, 7))):
        assert bits(jones_exp(n, w)) == bits(_lc_sum_reference(_jones_terms_reference(n, w)))
    unity = (0.0, Fraction(1, n))
    assert bits(jones_exp_unity(n, 1, n)) == bits(_lc_sum_reference(_jones_terms_reference(n, unity)))


def test_kashaev_sum_across_blocks_against_mpmath():
    # J_N(E; e^{2 pi i/N}), 3 blocks: its terms |prod (1 - q^l)|^2 are >= 0, so
    # the sum does not cancel and the blocked sum keeps the one-pass accuracy, 9.4e-12
    n = 3000
    value = jones_exp_unity(n, 1, n)
    with mp.workdps(30):
        def factor(e):
            return 1 - mp.expjpi(mp.mpf(2 * (e % n)) / n)

        assert log_relative_error(value, mp_jones(n, mp.expjpi(mp.mpf(2) / n), factor)) <= 2e-11


def test_cusp_sum_whose_later_blocks_raise_the_maximum():
    # at the cusp the largest terms are in the last sector: each block's maximum
    # exceeds the last, so the running sum is rescaled; the result stays within
    # rounding of one scaled sum over all terms (6.9e-14) and of mpmath (6.7e-11)
    n = 2501
    w = (0.2 / n, Fraction(1, n))
    maxima = [block.real.max() for block in jones._jones_terms(n, w)]
    assert len(maxima) == 3 and maxima[0] < maxima[1] < maxima[2]
    value = jones_exp(n, w)
    assert abs(value - _lc_sum_reference(_jones_terms_reference(n, w))) <= 1e-12
    with mp.workdps(40):
        assert log_relative_error(value, mp_jones(n, mp.exp((mp.mpf(0.2) + 2j * mp.pi) / n))) <= 2e-10


def test_nan_in_a_later_block_is_refused(monkeypatch):
    # a NaN factor log in the second block reaches every later term and the sum refuses it
    kernel, calls = jones.log1mexp, []

    def nan_in_block_2(w):
        out = kernel(w)
        calls.append(None)
        if len(calls) == 2:
            out[5] = complex(math.nan, 0.0)
        return out

    monkeypatch.setattr(jones, "log1mexp", nan_in_block_2)
    with pytest.raises(DomainError, match="is not a number"):
        jones_exp(B + 100, (0.5 / (B + 100), Fraction(2, B + 100)))
    assert len(calls) == 2


def _warm_peak(call):
    """The tracemalloc peak of call(), run once untraced first."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jones_at_cusp_peak_memory():
    # every J_n runs in blocks of _TERM_BLOCK terms, so its peak does not grow
    # with n: 0.21 MB here, where one pass over all 25,600 factors peaked at 0.94 MB
    ctx = EvalContext(u=0.5, p=2, n=12801)
    assert _warm_peak(lambda: jones_at_cusp(ctx)) <= 0.30e6


def test_kashaev_sum_peak_memory_does_not_grow_with_n():
    # 98 blocks of terms, with the same peak as the 13 above; unblocked, 6.7 MB
    assert _warm_peak(lambda: jones_exp_unity(100001, 1, 100001)) <= 0.30e6


def test_f_n_of_many_series_points_keeps_memory_bounded():
    # t_n's series runs in blocks of 4,095 points: unblocked, its 40,000
    # points took about 1.1 KB each, a peak of 22.1 MB; blocked, 3.5 MB
    ctx = EvalContext(u=0.5, p=2, n=40001)
    m, z = sector_points(np.arange(1, ctx.n), ctx)
    z = z[m == 0]
    assert z.size == 20_000
    assert _warm_peak(lambda: f_n(z, ctx)) < 5e6


# ---------------------------------------------------------------------------
# dual side and beta factors
# ---------------------------------------------------------------------------

def test_dual_p1_is_one():
    assert lc_sum(beta_factors(EvalContext(u=0.5, p=1, n=101))) == 0j


@pytest.mark.parametrize("u,p,n", [(0.5, 2, 101), (0.3, 3, 100), (0.9, 3, 97)])
def test_dual_equals_beta_sum(u, p, n):
    # the beta sum is the defining sum J_p at q = e^{4 N pi^2/xi}, and by
    # amphichirality at 1/q, the denominator of the modularity ratio
    ctx = EvalContext(u=u, p=p, n=n)
    total = lc_sum(beta_factors(ctx))
    w = 4.0 * n * math.pi ** 2 / ctx.xi
    for dual in (jones_exp(p, w), jones_exp(p, -w)):
        assert abs(cmath.exp(total - dual) - 1.0) <= 1e-9


@pytest.mark.parametrize("u,p,n,tol", [(0.5, 2, 101, 1e-14), (1e-6, 3, 6401, 1e-14), (0.5, 2, 6401, 2e-13)])
def test_dual_against_mpmath(u, p, n, tol):
    # the dual is J_p's own terms at the exact pair (2 pi i N u/(p xi), -N/p);
    # the complex exponent 4 N pi^2/xi, whose phase rounds 2 pi N/p, misses
    # each bound (4.9e-14, 2.9e-12 and 3.7e-13 here)
    ctx = EvalContext(u=u, p=p, n=n)
    total = lc_sum(beta_factors(ctx))
    assert total == jones_exp(p, (2j * math.pi * n * u / (p * ctx.xi), Fraction(-n, p)))
    with mp.workdps(50):
        xi = mp.mpc(u, 2 * p * mp.pi)
        assert log_relative_error(total, mp_jones(p, mp.exp(4 * n * mp.pi ** 2 / xi))) <= tol


def test_beta_examples():
    ctx = EvalContext(u=0.5, p=2, n=11)
    betas = beta_factors(ctx)
    assert betas.shape == (2,) and betas[0] == 0j
    w = 4.0 * ctx.n * math.pi ** 2 / ctx.xi
    brute = cmath.exp(-2 * w) * (1 - cmath.exp(w)) * (1 - cmath.exp(3 * w))
    assert abs(cmath.exp(betas[1]) - brute) <= 1e-12 * abs(brute)


def test_beta_growth_rate():
    # |beta_{p,1}/beta_{p,0}| ~ (1/2) exp(4 p u pi^2 N / |xi|^2): slope fit
    u, p = 0.5, 2
    theory = 4 * p * u * math.pi ** 2 / abs(complex(u, 2 * math.pi * p)) ** 2
    logs = {}
    for n in (400, 800):
        ctx = EvalContext(u=u, p=p, n=n)
        betas = beta_factors(ctx)
        logs[n] = (betas[1] - betas[0]).real
    slope = (logs[800] - logs[400]) / 400.0
    assert abs(slope - theory) / theory <= 0.10


# ---------------------------------------------------------------------------
# f_N
# ---------------------------------------------------------------------------

def test_f_n_strip_error():
    ctx = EvalContext(u=0.5, p=2, n=50)
    with pytest.raises(DomainError, match=r"not in .* at \(u, p, N\) = \(0\.5, 2, 50\)"):
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
    # (3, 101) is coprime; at (2, 100) k = 50 lies on the end of sectors 0 and 1
    for ctx in (EvalContext(u=0.5, p=3, n=101), EvalContext(u=0.5, p=2, n=100)):
        k = np.arange(1, ctx.n)
        m, z = sector_points(k, ctx)
        assert k.tolist() == list(range(1, ctx.n))
        # m/p <= k/N < (m+1)/p
        assert np.all((m * ctx.n <= k * ctx.p) & (k * ctx.p < (m + 1) * ctx.n))
        for j in range(ctx.p):
            assert np.array_equal(z[m == j], (2 * k[m == j] + 1) / (2 * ctx.n)
                                  - 2j * j * math.pi / ctx.xi)
    assert m[k == 50].tolist() == [1]


@pytest.mark.parametrize("p,n", [(4, 12), (6, 9), (2, 41), (2, 100)])
def test_sector_point_is_sector_points_entry(p, n):
    # product_identity_residual places its one k as a scalar k; gcd(p, N) is
    # 4, 3, 1 and 2, so the sector ends k = m N/p are among the k of three of them
    ctx = EvalContext(u=0.5, p=p, n=n)
    ks = np.arange(1, n)
    ms, zs = sector_points(ks, ctx)
    for k, m, z in zip(ks.tolist(), ms.tolist(), zs.tolist()):
        assert sector_points(k, ctx) == (m, z)


@pytest.mark.parametrize("u,p,n", [(0.5, 4, 12), (0.5, 6, 9), (0.2, 2, 97), (0.5, 3, 101),
                                   (0.9, 1, 201)])
def test_f_n_at_a_scalar_is_its_array_entry(u, p, n):
    # a scalar z is the 0-d case of the flat batch: f_N at a sector point alone
    # (product_identity_residual) equals its entry in the sum (decomposition_residual)
    ctx = EvalContext(u=u, p=p, n=n)
    _, zs = sector_points(np.arange(1, n), ctx)
    values = f_n(zs, ctx)
    assert [f_n(z, ctx) for z in zs.tolist()] == values.tolist()
    assert isinstance(f_n(zs[0], ctx), complex)


def test_f_n_large_batch_is_its_small_batches():
    # a batch of 16,384 points or more crosses numpy's temporary elision size,
    # where a scalar times a temporary computes in place with its operands
    # swapped; at (0.5, 2, 40001) 6,177 of these 20,000 points then moved
    ctx = EvalContext(u=0.5, p=2, n=40001)
    m, zs = sector_points(np.arange(1, ctx.n), ctx)
    zs = zs[m == 1][:20_000]
    values = f_n(zs, ctx)
    assert np.array_equal(values, np.concatenate([f_n(zs[s:s + 1000], ctx)
                                                  for s in range(0, zs.size, 1000)]))


@pytest.mark.parametrize("u,p,n", [(0.5, 2, 97), (0.5, 3, 101), (0.5, 2, 100), (0.5, 3, 99),
                                   (0.5, 2, 10), (0.5, 4, 12), (0.5, 4, 4),
                                   (0.5, 1, 1), (0.5, 2, 1)])
def test_decomposition_residual(u, p, n):
    assert decomposition_residual(EvalContext(u=u, p=p, n=n)) <= 1e-9


@pytest.mark.parametrize("u,p,n", [(1e-6, 1, 101), (1e-6, 2, 97), (1e-6, 3, 301), (1e-4, 2, 97)])
def test_decomposition_residual_at_small_u(u, p, n):
    # the prefactor's exponent -2 pi i N u/xi is small here; written as
    # -4 p N pi^2/xi its imaginary part, about 2 pi N, rounds to 1e-9 of the sum
    assert decomposition_residual(EvalContext(u=u, p=p, n=n)) <= 1e-12


@pytest.mark.parametrize("u,p,n", [(0.5, 2, 97), (0.2, 3, 101), (0.9, 2, 97)])
def test_f_n_at_edge_shifted_sector_points_matches_quadrature(monkeypatch, u, p, n):
    # decomposition_residual cannot test these terms: their T_N arguments lie
    # within the shift width of an end of (0, 1), so the series moves them inward,
    # and the shift corrections are factors of the direct product it compares with
    ctx = EvalContext(u=u, p=p, n=n)
    z = sector_points(np.arange(1, n), ctx)[1]
    args = np.stack([ctx.xi * (1.0 - z) / (2j * math.pi) - p + 1.0,
                     ctx.xi * (1.0 + z) / (2j * math.pi) - p])
    near = (np.minimum(args.real, 1.0 - args.real)
            < qdilog._SHIFT_WIDTH * abs(ctx.gamma)).any(axis=0)
    assert near.sum() >= 40
    # the product form is no reference here: at every sector point one of its
    # factors 1 - e^{2 pi i (z - gamma (k + 1/2))} vanishes
    f_near = f_n(z[near], ctx)
    monkeypatch.setattr(qdilog, "TOL", 1e-12)
    t_a, t_b = qdilog._t_quadrature(args[:, near].ravel(), np.full(2 * near.sum(), ctx.gamma),
                                    lambda i: str(ctx)).reshape(2, -1)
    d = n * (f_near - ((t_a - t_b) / n - u * z[near] + 4.0 * p * math.pi ** 2 / ctx.xi))
    # modulo 2 pi i
    assert np.abs(d.real + 1j * ((d.imag + math.pi) % (2.0 * math.pi) - math.pi)).max() <= 1e-12


@pytest.mark.parametrize("k", [7, 20, 40])
def test_product_identity_coprime(k):
    assert product_identity_residual(k, EvalContext(u=0.5, p=2, n=41)) <= 1e-7


@pytest.mark.parametrize("k", [1, 3, 6, 7, 9, 11])
def test_product_identity_gcd4(k):
    # (p, N) = (4, 12): k in {3, 6, 9} lies on a sector end, k p/N an integer
    assert product_identity_residual(k, EvalContext(u=0.5, p=4, n=12)) <= 1e-7


@pytest.mark.parametrize("p,n", [(4, 12), (6, 9)])
def test_product_identity_is_tight(p, n):
    # both sides at the cusp pair (u/N, p/N) read 1.8e-14 and 1.0e-14; a
    # product at the complex xi/N misses the bound (9.5e-14 and 1.3e-13)
    ctx = EvalContext(u=0.5, p=p, n=n)
    assert max(product_identity_residual(k, ctx) for k in range(1, n)) <= 4e-14


@pytest.mark.parametrize("k", [-1, 0, 41, 2.5])
def test_sector_points_k_domain(k):
    # -1 would wrap to the last sector's shift, and N and 2.5 index past the
    # shift table; alone or among good k, each is refused by the one check of k
    ctx = EvalContext(u=0.5, p=2, n=41)
    for ks in (k, np.array([1, k, 40])):
        with pytest.raises(DomainError, match=rf"k must lie in \[1, N-1\], got {k}"):
            sector_points(ks, ctx)


def test_product_identity_k_domain():
    ctx = EvalContext(u=0.5, p=2, n=41)
    with pytest.raises(DomainError):
        product_identity_residual(0, ctx)
    with pytest.raises(DomainError):
        product_identity_residual(41, ctx)
    # a k that is not an integer names no q-factorial
    with pytest.raises(DomainError, match=r"k must lie in \[1, N-1\], got 2\.5"):
        product_identity_residual(2.5, EvalContext(u=0.5, p=4, n=12))


# ---------------------------------------------------------------------------
# root-of-unity path
# ---------------------------------------------------------------------------

def test_unity_path_matches_generic():
    # the last denominator takes the exact-integer path past int64 products
    for (n, num, den) in ((5, 1, 7), (6, 3, 11), (8, -2, 13), (7, 3, 2 ** 31 + 11)):
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
