"""Colored Jones polynomial of the figure-eight knot, evaluated safely.

The defining sum

    J_N(E; e^w) = sum_{k=0}^{N-1} e^{-kNw} prod_{l=1}^{k} (1-e^{(N+l)w})(1-e^{(N-l)w})

is evaluated in log-domain arithmetic (q is always passed as its exponent
w): individual terms routinely exceed native floating-point range at the
evaluation points used here (w = 4 N pi^2 / xi has large positive real part).

Its inner products, the dual value, the beta_{p,m} prefactors and the
q-factorial identity all use one product, prod_{l=1}^{k} (1-e^{(c-l)w})
(1-e^{(c+l)w}), from one numpy kernel, log_qpoch: numkernel.log1mexp of
every factor, then one cumulative sum over the 2k factors.  The outer sum
is one complex numkernel.log_sum_exp; LogComplex values appear only at the
API boundary.  Invariant: the phase of every factor and of every weight
e^{-kNw} is reduced into (-pi, pi] before it is summed; unreduced phases,
or pairwise sums of the two factors of each l, cost digits at large N.

The float64 sum cancels.  The benchmark (bench/README.md) measures about
4.5 digits lost per 1000 N at u = 0.5, p = 2, and 8.9 digits lost at
u = 0.2, N = 6401: a small u is not safe either.

Also provided: the splitting of J_N(E; e^{xi/N}) into beta-prefactors and
the finite-N phase function f_N built from the quantum dilogarithm, the
q-factorial product identity in both its coprime and gcd(p,N)=c>1 forms,
and residual checks that confront independent pipelines with each other.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd

import numpy as np

from .numkernel import (
    DomainError,
    LogComplex,
    lc_one_minus_exp,
    lc_sum,
    log1mexp,
    log_sum_exp,
    reduce_phase,
)
from .qdilog import DEFAULT_CONFIG, EvalContext, QuadratureConfig, e_n_ratio, t_n


def _multiples(e: np.ndarray, w) -> np.ndarray:
    """The exponents e * w for an integer array e.  A Fraction w = num/den is
    the root-of-unity exponent 2 pi i num/den: e * num is reduced modulo den
    in exact integers, so e * w is exactly 0 when den divides e * num.
    """
    if isinstance(w, Fraction):
        residues = e.astype(object) * w.numerator % w.denominator
        return 2j * math.pi / w.denominator * residues.astype(np.float64)
    return e * complex(w)


def log_qpoch(c: int, k: int, w) -> np.ndarray:
    """Complex logs of prod_{l=1}^{j} (1 - e^{(c+l)w})(1 - e^{(c-l)w}) for j = 0..k.

    One cumulative sum runs over the 2k factor logs in the order c+1, c-1,
    c+2, c-2, ...; a vanishing factor gives -inf, which every later entry
    inherits.  w is a complex exponent or a root-of-unity Fraction.
    """
    e = (c + np.outer(np.arange(1, k + 1), (1, -1))).ravel()
    return np.concatenate(([0j], np.cumsum(log1mexp(_multiples(e, w)))[1::2]))


def _qpoch(c: int, k: int, w) -> LogComplex:
    """prod_{l=1}^{k} (1 - e^{(c+l)w})(1 - e^{(c-l)w}) as a LogComplex."""
    return LogComplex.from_exponent(log_qpoch(c, k, w)[-1])


def _jones_sum(n: int, w) -> LogComplex:
    terms = log_qpoch(n, n - 1, w)
    weights = _multiples(-n * np.arange(n), w)
    terms.real += weights.real
    terms.imag += reduce_phase(weights.imag)
    return LogComplex.from_exponent(log_sum_exp(terms))


def jones_exp(n: int, w: complex) -> LogComplex:
    """J_n(E; e^w) as a LogComplex; w is the exponent of the variable q."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    return _jones_sum(n, complex(w))


def jones_exp_unity(n: int, num: int, den: int) -> LogComplex:
    """J_n(E; q) at the root of unity q = e^{2 pi i num/den}.

    Exponents are reduced modulo den in exact integer arithmetic, so a factor
    vanishes exactly when den divides the exponent; the first vanishing
    factor kills every later term.
    """
    if n < 1 or den < 1:
        raise DomainError("n and den must be positive integers")
    return _jones_sum(n, Fraction(num, den))


def jones_at_cusp(ctx: EvalContext) -> LogComplex:
    """J_N(E; e^{xi/N}) for xi = u + 2 p pi i."""
    return jones_exp(ctx.n, ctx.xi / ctx.n)


def jones_dual(ctx: EvalContext) -> LogComplex:
    """J_p(E; e^{4 N pi^2 / xi}), the low-color factor of the main asymptotics."""
    return jones_exp(ctx.p, 4.0 * ctx.n * math.pi ** 2 / ctx.xi)


def beta_factor(ctx: EvalContext, m: int) -> LogComplex:
    """beta_{p,m} = e^{-4 m p N pi^2/xi} prod_{j=1}^m (1-e^{4(p-j)N pi^2/xi})(1-e^{4(p+j)N pi^2/xi})."""
    if not 0 <= m <= ctx.p - 1:
        raise DomainError(f"m must lie in [0, p-1], got {m}")
    w = 4.0 * ctx.n * math.pi ** 2 / ctx.xi
    return LogComplex.from_exponent(-m * ctx.p * w) * _qpoch(ctx.p, m, w)


def f_n(z, ctx: EvalContext, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Finite-N phase f_N(z), defined on -1/(2N) < Re z + (u/2 p pi) Im z < 1/p + 1/(2N).

    z may be an array; its 2 z.size T_N values come from one batched t_n call.
    """
    z = np.asarray(z, dtype=complex)
    s = z.real + ctx.u / (2.0 * math.pi * ctx.p) * z.imag
    lo, hi = -0.5 / ctx.n, 1.0 / ctx.p + 0.5 / ctx.n
    outside = ~((lo < s) & (s < hi))
    if outside.any():
        raise DomainError(f"z outside the f_N strip: skew abscissa {s[outside][0]} not in ({lo}, {hi})")
    xi, n = ctx.xi, ctx.n
    a, b = t_n(np.stack([xi * (1.0 - z) / (2j * math.pi) - ctx.p + 1.0,
                         xi * (1.0 + z) / (2j * math.pi) - ctx.p]), ctx, cfg)
    value = (a - b) / n - ctx.u * z + 4.0 * ctx.p * math.pi ** 2 / xi
    return complex(value) if z.ndim == 0 else value


def k_range(m: int, ctx: EvalContext):
    """Integers k with m N/p < k < (m+1) N/p (open interval)."""
    lo = math.floor(m * ctx.n / ctx.p) + 1
    hi = math.ceil((m + 1) * ctx.n / ctx.p) - 1
    return range(lo, hi + 1)


def decomposition_residual(ctx: EvalContext, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Relative gap between J_N(E;e^{xi/N}) and its beta/f_N decomposition.

    The two sides are computed by fully independent pipelines (direct
    q-factorial products vs quantum-dilogarithm quadrature); the identity is
    exact at finite N, so the residual measures quadrature quality only.
    Requires gcd(p, N) = 1.
    """
    if gcd(ctx.p, ctx.n) != 1:
        raise DomainError(f"p={ctx.p} and N={ctx.n} must be coprime")
    xi, n = ctx.xi, ctx.n
    prefactor = lc_one_minus_exp(-4.0 * ctx.p * n * math.pi ** 2 / xi) / LogComplex.from_complex(
        2.0 * math.sinh(0.5 * ctx.u)
    )
    z, betas = [], []
    for m in range(ctx.p):
        k = np.array(k_range(m, ctx))
        z.append((2 * k + 1) / (2.0 * n) - 2j * m * math.pi / xi)
        betas += [beta_factor(ctx, m)] * k.size
    exponents = n * f_n(np.concatenate(z), ctx, cfg)
    rhs = prefactor * lc_sum(beta * LogComplex.from_exponent(e) for beta, e in zip(betas, exponents))
    lhs = jones_at_cusp(ctx)
    return abs((rhs / lhs).to_complex() - 1.0)


def _qfactorial_direct(k: int, ctx: EvalContext) -> LogComplex:
    return _qpoch(ctx.n, k, ctx.xi / ctx.n)


def _qfactorial_via_en(k: int, ctx: EvalContext, cfg: QuadratureConfig) -> LogComplex:
    """The same product expressed through E_N ratios and dual-side factors."""
    xi, n, p = ctx.xi, ctx.n, ctx.p
    gamma = ctx.gamma
    w_dual = 4.0 * n * math.pi ** 2 / xi
    head = lc_one_minus_exp(w_dual * p) / lc_one_minus_exp(xi)

    c = gcd(p, n)
    n_prime, p_prime = n // c, p // c
    nn = k // n_prime
    if k % n_prime == 0:
        # k = n N': the boundary case carries its own explicit unity factors
        extra = lc_one_minus_exp((c - nn) * xi / c) * lc_one_minus_exp((c + nn) * xi / c)
        dual = _qpoch(p, nn * p_prime - 1, w_dual)
        ratio = e_n_ratio((n - nn * n_prime + 0.5) * gamma - p + nn * p_prime,
                          (n + nn * n_prime - 0.5) * gamma - p - nn * p_prime + 1, ctx, cfg)
        return extra * head * dual * ratio

    # for coprime p, N (c = 1, N' = N) this is nn = 0 and m = kp // N
    m = nn * p_prime + (k - nn * n_prime) * p_prime // n_prime
    dual = _qpoch(p, m, w_dual)
    ratio = e_n_ratio((n - k - 0.5) * gamma - p + m + 1,
                      (n + k + 0.5) * gamma - p - m, ctx, cfg)
    return head * dual * ratio


def product_identity_residual(k: int, ctx: EvalContext,
                              cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Relative gap between the direct q-factorial product and its E_N form."""
    if not 1 <= k <= ctx.n - 1:
        raise DomainError(f"k must lie in [1, N-1], got {k}")
    direct = _qfactorial_direct(k, ctx)
    via_en = _qfactorial_via_en(k, ctx, cfg)
    return abs((via_en / direct).to_complex() - 1.0)


def g_eval(x: float, ctx: EvalContext) -> complex:
    """g(x) = 4 sinh(xi(1+x)/2) sinh(xi(1-x)/2) = 2(cosh xi - cosh(xi x))."""
    xi = ctx.xi
    return 2.0 * (cmath.cosh(xi) - cmath.cosh(xi * x))
