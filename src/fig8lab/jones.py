"""Colored Jones polynomial of the figure-eight knot, evaluated safely.

The defining sum

    J_N(E; e^w) = sum_{k=0}^{N-1} e^{-kNw} prod_{l=1}^{k} (1-e^{(N+l)w})(1-e^{(N-l)w})

is evaluated in log-domain arithmetic (q is always passed as its exponent
w): individual terms routinely exceed native floating-point range at the
evaluation points used here (w = 4 N pi^2 / xi has large positive real part).

Its inner products, the dual value, the beta_{p,m} prefactors and the
q-factorial identity all use one product, prod_{l=1}^{k} (1-e^{(c-l)w})
(1-e^{(c+l)w}), from one numpy kernel, log_qpoch: numkernel.log1mexp of
every factor (principal logs from real ufuncs, in blocks of bounded
scratch), then one cumulative sum over the 2k factors.  The outer sum is
one numkernel.lc_sum, and every value is returned as a complex log (see
numkernel).  Invariant: the phase of every factor (the principal value
log1mexp returns) and of every weight e^{-kNw} (through reduce_phase) lies
in (-pi, pi] before it is summed; unreduced phases, or pairwise sums of the
two factors of each l, cost digits at large N.  At the cusp and at roots of
unity the imaginary part of w is a rational multiple of 2 pi, and the
phases of the exponents are reduced in exact integers (see _multiples).

The float64 sum cancels.  The benchmark (bench/README.md) measures about
4.5 digits lost per 1000 N at u = 0.5, p = 2, and 8.9 digits lost at
u = 0.2, N = 6401: a small u is not safe either.

Also provided: the splitting of J_N(E; e^{xi/N}) into beta-prefactors and
the finite-N phase function f_N built from the quantum dilogarithm, the
q-factorial product identity, and residual checks that confront independent
pipelines with each other.  Both identities put each summation index k in
one sector, m = floor(k p / N), for every N: an index k = m N/p on a sector
end is an ordinary member of sector m.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .numkernel import DomainError, lc_one_minus_exp, lc_sum, log1mexp, reduce_phase
from .qdilog import EvalContext, t_n


def _multiples(e: np.ndarray, w) -> np.ndarray:
    """The exponents e * w for an integer array e.

    w is a complex, or a pair (a, r) of a float a and a Fraction r standing
    for w = a + 2 pi i r.  For a pair, e * r is reduced modulo 1 in exact
    integers, so each phase is rounded once however large e is, and e * w
    is exactly 0 when a = 0 and e * r is an integer.
    """
    if not isinstance(w, tuple):
        return e * complex(w)
    a, r = w
    num, den = r.numerator % r.denominator, r.denominator
    if den > 2 ** 31:                  # keep (e mod den) * num within int64
        e = e.astype(object)
    out = np.empty(e.shape, dtype=complex)
    out.real = e * a
    out.imag = 2.0 * math.pi / den * (e % den * num % den)
    return out


def log_qpoch(c: int, k: int, w) -> np.ndarray:
    """Complex logs of prod_{l=1}^{j} (1 - e^{(c+l)w})(1 - e^{(c-l)w}) for j = 0..k.

    One cumulative sum runs over the 2k factor logs in the order c+1, c-1,
    c+2, c-2, ...; a vanishing factor gives -inf, which every later entry
    inherits.  w is a complex exponent or a pair (a, r) (see _multiples).
    """
    # no name holds the exponent array, so it is freed before log1mexp allocates
    logs = log1mexp(_multiples((c + np.outer(np.arange(1, k + 1), (1, -1))).ravel(), w))
    return np.concatenate(([0j], np.cumsum(logs)[1::2]))


def _qpoch(c: int, k: int, w) -> complex:
    """The complex log of prod_{l=1}^{k} (1 - e^{(c+l)w})(1 - e^{(c-l)w})."""
    return complex(log_qpoch(c, k, w)[-1])


def _jones_sum(n: int, w) -> complex:
    terms = log_qpoch(n, n - 1, w)
    weights = _multiples(-n * np.arange(n), w)
    terms.real += weights.real
    terms.imag += reduce_phase(weights.imag)
    return lc_sum(terms)


def jones_exp(n: int, w) -> complex:
    """The complex log of J_n(E; e^w); w is the exponent of the variable q.

    w is a complex, or a pair (a, r) for a + 2 pi i r with r a Fraction,
    whose phases are exact (see _multiples).
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    return _jones_sum(n, w)


def jones_exp_unity(n: int, num: int, den: int) -> complex:
    """The complex log of J_n(E; q) at the root of unity q = e^{2 pi i num/den}.

    Exponents are reduced modulo den in exact integer arithmetic, so a factor
    vanishes exactly when den divides the exponent; the first vanishing
    factor kills every later term.
    """
    if n < 1 or den < 1:
        raise DomainError("n and den must be positive integers")
    return _jones_sum(n, (0.0, Fraction(num, den)))


def jones_at_cusp(ctx: EvalContext) -> complex:
    """The complex log of J_N(E; e^{xi/N}) for xi = u + 2 p pi i.

    xi/N goes in as the pair (u/N, p/N), so that every phase of the sum is
    reduced modulo 2 pi in exact integers: the weights e^{-kN xi/N} have
    phase exactly 0, and no phase carries the rounding of 2 p pi/N times k.
    """
    return jones_exp(ctx.n, (ctx.u / ctx.n, Fraction(ctx.p, ctx.n)))


def jones_dual(ctx: EvalContext) -> complex:
    """The complex log of J_p(E; e^{4 N pi^2 / xi}), the low-color factor of
    the main asymptotics."""
    return jones_exp(ctx.p, 4.0 * ctx.n * math.pi ** 2 / ctx.xi)


def beta_factors(ctx: EvalContext) -> np.ndarray:
    """The complex logs of beta_{p,m} for m = 0..p-1, where beta_{p,m} =
    e^{-4 m p N pi^2/xi} prod_{j=1}^m (1-e^{4(p-j)N pi^2/xi})(1-e^{4(p+j)N pi^2/xi}).

    The products are the prefixes of one log_qpoch; the weights keep their
    unreduced phases, which sum closer to J_N than reduced ones.
    """
    w = 4.0 * ctx.n * math.pi ** 2 / ctx.xi
    return -np.arange(ctx.p) * ctx.p * w + log_qpoch(ctx.p, ctx.p - 1, w)


def f_n(z, ctx: EvalContext):
    """Finite-N phase f_N(z), defined on -1/(2N) < Re z + (u/2 p pi) Im z < 1/p + 1/(2N).

    z may be an array; its 2 z.size T_N values come from one batched t_n call,
    so they take the Bernoulli series wherever it meets qdilog.TOL.
    """
    z = np.asarray(z, dtype=complex)
    s = z.real + ctx.u / (2.0 * math.pi * ctx.p) * z.imag
    lo, hi = -0.5 / ctx.n, 1.0 / ctx.p + 0.5 / ctx.n
    outside = ~((lo < s) & (s < hi))
    if outside.any():
        raise DomainError(f"z outside the f_N strip: skew abscissa {s[outside][0]} not in "
                          f"({lo}, {hi}) at {ctx}")
    xi, n = ctx.xi, ctx.n
    a, b = t_n(np.stack([xi * (1.0 - z) / (2j * math.pi) - ctx.p + 1.0,
                         xi * (1.0 + z) / (2j * math.pi) - ctx.p]), ctx)
    value = (a - b) / n - ctx.u * z + 4.0 * ctx.p * math.pi ** 2 / xi
    return complex(value) if z.ndim == 0 else value


def sector_points(ctx: EvalContext):
    """(k, m, z_k) for every k in 1..N-1: its sector m = floor(k p/N), and
    z_k = (2k+1)/(2N) - 2 m pi i/xi.

    Each sector's shift 2 m pi i/xi is one complex scalar, shared by its points.
    """
    k = np.arange(1, ctx.n)
    m = k * ctx.p // ctx.n
    shifts = np.array([2j * j * math.pi / ctx.xi for j in range(ctx.p)])
    return k, m, (2 * k + 1) / (2.0 * ctx.n) - shifts[m]


def decomposition_residual(ctx: EvalContext) -> float:
    """Relative gap between J_N(E;e^{xi/N}) and its beta/f_N decomposition.

    The identity is exact at every N.  One side is the direct q-factorial
    sum; the other is built from f_N, whose T_N values come from t_n: from
    the Bernoulli series wherever it meets TOL (every point at (p, N) =
    (2, 97) and (3, 101)), from quadrature elsewhere.  So the residual
    measures the T_N evaluator against the direct product.  An argument of
    T_N near an end of the strip first takes edge shifts, whose corrections
    log(1 - e^{2 pi i (z + (k + 1/2) gamma)}) are exactly factors 1 - q^{N+-l}
    of the direct product; for those terms the residual tests the series at
    the shifted points only.  At N = 801 the shifted terms are the sector
    ends, below e^-30 of the largest term; near N = 100 the saddle lies
    within the shift width of a sector end, and the largest terms take
    shifts too.  The k = 0 term, 1, is summed with the rest,
    J = 1 + e^{pref} sum_k beta_m e^{N f_N(z_k)}, so the residual holds at
    small N too: 5.0e-15 at (u, p, N) = (0.5, 2, 10).
    """
    xi, n = ctx.xi, ctx.n
    prefactor = (lc_one_minus_exp(-4.0 * ctx.p * n * math.pi ** 2 / xi)
                 - math.log(2.0 * math.sinh(0.5 * ctx.u)))
    _, m, z = sector_points(ctx)
    rhs = lc_sum([0.0, prefactor + lc_sum(beta_factors(ctx)[m] + n * f_n(z, ctx))])
    return abs(cmath.exp(rhs - jones_at_cusp(ctx)) - 1.0)


def _qfactorial_via_en(k: int, ctx: EvalContext) -> complex:
    """The same product through dual-side factors and an E_N ratio, k in sector m = floor(k p/N)."""
    xi, n, p = ctx.xi, ctx.n, ctx.p
    w_dual = 4.0 * n * math.pi ** 2 / xi
    m = k * p // n
    # one log1mexp call: 1 - e^{p w_dual} and 1 - e^xi
    one_minus = log1mexp(np.array([w_dual * p, xi])).tolist()
    head = one_minus[0] - one_minus[1]
    t_num, t_den = t_n([(n - k - 0.5) * ctx.gamma - p + m + 1,
                        (n + k + 0.5) * ctx.gamma - p - m], ctx)
    return head + _qpoch(p, m, w_dual) + (t_num - t_den)


def product_identity_residual(k: int, ctx: EvalContext) -> float:
    """Relative gap between the direct q-factorial product and its E_N form."""
    if not 1 <= k <= ctx.n - 1:
        raise DomainError(f"k must lie in [1, N-1], got {k}")
    direct = _qpoch(ctx.n, k, ctx.xi / ctx.n)
    return abs(cmath.exp(_qfactorial_via_en(k, ctx) - direct) - 1.0)
