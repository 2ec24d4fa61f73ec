"""Colored Jones polynomial of the figure-eight knot, evaluated safely.

The defining sum

    J_N(E; e^w) = sum_{k=0}^{N-1} e^{-kNw} prod_{l=1}^{k} (1-e^{(N+l)w})(1-e^{(N-l)w})

is evaluated in log-domain arithmetic (q is always passed as its exponent
w): individual terms routinely exceed native floating-point range at the
evaluation points used here (w = 4 N pi^2 / xi has large positive real part).

The n terms of J_n, the dual's included, come from one builder, _jones_terms,
in blocks of _TERM_BLOCK = 1,024 terms, and their products from one numpy
kernel, _qpoch_blocks.  Each block takes the exponents of its 2,048 factors,
their numkernel.log1mexp logs (principal logs from real ufuncs, one log1mexp
block) and one np.cumsum, whose first factor log carries the previous
block's last entry; cumsum adds in sequence, so every entry has the bits of
one cumulative sum over all 2k factors (log_qpoch is the blocks end to end).
numkernel.lc_sum_blocks folds the blocks into the outer sum as they come, and
every value is returned as a complex log (see numkernel).  A J_n thus holds a
few blocks at a time: J_N at the cusp (0.5, 2, 12801) and jones_exp_unity(n,
1, n) at n = 100,001 and 1,000,001 all peak at 0.21 MB (tracemalloc), where
one pass over all terms took 0.94, 6.7 and 66 MB.  Up to 1,024 terms are one
block, summed exactly as one lc_sum of the terms.  Beyond, each block is scaled by the
largest real part read by then (see lc_sum_blocks): the sum rounds apart
from one scaled sum by a few ulps of its largest partial sums, times the
cancellation, |delta log J| = 3.1e-15, 3.8e-12 and 3.8e-7 at u = 0.2, p = 1,
N = 1601, 3201 and 6401, each below that value's own float error.

Every exponent is a multiple e w, e an integer, built by _exponents from a
pair (a, r) for w = a + 2 pi i r with r rational, its phase 2 pi e r reduced
in exact integers: r = p/N at the cusp, num/den at a root of unity, and -N/p
for the dual J_p(E; e^{4 N pi^2/xi}), whose terms are beta_factors(ctx).
Every factor has the principal phase log1mexp returns, and every weight
e^{-knw} a phase in (-pi, pi]: exactly 0 where a is real and n r an integer
(the cusp, a root of unity q with q^n = 1), reduced through reduce_phase
elsewhere.  Unreduced phases, or pairwise sums of the two factors of each l,
cost digits at large N.

The float64 sum cancels: at u = 0.5, p = 2 about 6.0 digits are lost per
1000 N (8.3, 17.7 and 75.0 digits at N = 1601, 3201 and 12801), and the
benchmark (bench/README.md) measures 8.9 digits lost at u = 0.2, N = 6401:
a small u is not safe either.

Also provided: the splitting J_N(E; e^{xi/N}) = 1 + sum_{k=1}^{N-1} e^{pref +
beta_m + N f_N(z_k)} into beta-prefactors and the finite-N phase function
f_N built from the quantum dilogarithm, with one function for its terms
(_term_logs), and two residuals against the direct sum: decomposition_residual
checks the sum, product_identity_residual term k alone.  sector_points puts
each k in one sector, m = floor(k p / N), for every N: an index k = m N/p on
a sector end is an ordinary member of sector m.  sector_points and f_N take
a scalar as the 0-d case of an array, so term k is the same alone as in the sum.
"""

from __future__ import annotations

import cmath
import math
import numbers
from fractions import Fraction

import numpy as np

from .numkernel import (_FACTOR_BLOCK, TWO_PI, DomainError, lc_one_minus_exp, lc_sum, lc_sum_blocks,
                        log1mexp, reduce_phase)
from .qdilog import EvalContext, require_counts, require_integers, require_strip, t_n


# Terms per block of a Jones sum: 2 factors a term, one log1mexp block.
_TERM_BLOCK = _FACTOR_BLOCK // 2


def _pair(w) -> tuple:
    """(a, r) for an exponent w = a + 2 pi i r; a complex w is the pair (w, 0)."""
    return w if isinstance(w, tuple) else (w, 0)


def _exponents(e: np.ndarray, bound: int, w) -> np.ndarray:
    """The exponents e * w for an int64 array e with |e| <= bound.

    For w = a + 2 pi i num/den (see _pair) the phase of e * w is 2 pi (e num
    mod den)/den, a residue taken in exact integers, so each phase is rounded
    once however large e is, and e * w is exactly 0 when a = 0 and e * num/den
    is an integer.  e * num is formed in int64 while bound * num and num fit,
    else in Python integers.
    """
    a, r = _pair(w)
    num, den = r.numerator % r.denominator, r.denominator
    out = np.empty(e.shape, dtype=complex)
    np.multiply(e, a.real, out=out.real)
    residues = (e if max(bound, 1) * num < 2 ** 63 else e.astype(object)) * num
    residues %= den
    # an object residue is rounded to a float once, as an int64 one is
    np.multiply(residues, TWO_PI / den, out=out.imag, casting="unsafe")
    if a.imag:
        out.imag += e * a.imag
    return out


def _qpoch_blocks(c: int, k: int, w):
    """log_qpoch(c, k, w) in consecutive blocks of at most _TERM_BLOCK entries.

    Block [lo, hi) takes the 2 (hi - lo) factors of l = lo..hi-1 (l >= 1), one
    log1mexp block.  The previous block's last entry goes onto its first
    factor log before np.cumsum, whose sequential sum then gives every entry
    the bits of one cumulative sum over all 2k factors.
    """
    bound, carry = abs(c) + k, None
    for lo in range(0, k + 1, _TERM_BLOCK):
        hi = min(lo + _TERM_BLOCK, k + 1)
        first = max(lo, 1)                  # entry 0 is the empty product
        l = np.arange(first, hi)
        e = np.empty(2 * l.size, dtype=np.int64)
        np.add(c, l, out=e[0::2])
        np.subtract(c, l, out=e[1::2])
        logs = _exponents(e, bound, w)
        del e, l                            # freed before log1mexp allocates
        logs = log1mexp(logs)
        out = np.empty(hi - lo, dtype=complex)
        if carry is None:
            out[0] = 0.0
        else:
            logs[0] += carry
        out[first - lo:] = np.cumsum(logs, out=logs)[1::2]
        del logs
        carry = out[-1]
        yield out


def log_qpoch(c: int, k: int, w) -> np.ndarray:
    """Complex logs of prod_{l=1}^{j} (1 - e^{(c+l)w})(1 - e^{(c-l)w}) for j = 0..k.

    One cumulative sum runs over the 2k factor logs in the order c+1, c-1,
    c+2, c-2, ...; a vanishing factor gives -inf, which every later entry
    inherits.  w is a complex exponent or a pair (a, r) (see _pair).  The
    entries are the blocks of _qpoch_blocks end to end.
    """
    return np.concatenate(tuple(_qpoch_blocks(c, k, w)))


def _jones_terms(n: int, w):
    """The complex logs of the n terms of J_n(E; e^w), each weight's phase in
    (-pi, pi], in the blocks of _qpoch_blocks(n, n - 1, w)."""
    a, r = _pair(w)
    # a is real and n r an integer: every weight e^{-knw} is real and positive
    real = a.imag == 0 and n * r.numerator % r.denominator == 0
    lo = 0
    for terms in _qpoch_blocks(n, n - 1, w):
        hi = lo + terms.size
        e = np.arange(-lo * n, -hi * n, -n)        # the weights' exponents -k n
        lo = hi
        if real:
            # phase exactly 0; adding +0.0 turns a term phase -0.0 into +0.0,
            # as adding reduced zero phases does
            terms.real += e * a.real
            terms.imag += 0.0
        else:
            weights = _exponents(e, n * n, w)
            terms.real += weights.real
            terms.imag += reduce_phase(weights.imag)
        yield terms


def jones_exp(n: int, w) -> complex:
    """The complex log of J_n(E; e^w); w is the exponent of the variable q.

    w is a complex, or a pair (a, r) for a + 2 pi i r with a finite complex a and a
    rational r, whose phases are exact (see _exponents).  q depends on w only modulo
    2 pi i, so a complex w has Im w reduced into (-pi, pi] first: its multiples, up
    to 2n w, then lose no digits to a dropped multiple of 2 pi.
    """
    require_counts("n", n)
    a, r = _pair(w)
    if not (cmath.isfinite(a) and isinstance(r, numbers.Rational)):
        raise DomainError(f"w = {w} is not finite at J_{n}")
    if not isinstance(w, tuple):
        w = complex(w.real, float(reduce_phase(w.imag)))
    return lc_sum_blocks(_jones_terms(n, w))


def jones_exp_unity(n: int, num: int, den: int) -> complex:
    """The complex log of J_n(E; q) at the root of unity q = e^{2 pi i num/den}.

    Exponents are reduced modulo den in exact integer arithmetic, so a factor
    vanishes exactly when den divides the exponent; the first vanishing
    factor kills every later term.
    """
    require_counts("n and den", n, den)
    require_integers("num", num)
    return lc_sum_blocks(_jones_terms(n, (0.0, Fraction(num, den))))


def jones_at_cusp(ctx: EvalContext) -> complex:
    """The complex log of J_N(E; e^{xi/N}) for xi = u + 2 p pi i, at the exact pair
    (u/N, p/N): the weights e^{-kN xi/N} have phase exactly 0, and no phase
    carries the rounding of 2 p pi/N times k."""
    return jones_exp(ctx.n, (ctx.u / ctx.n, Fraction(ctx.p, ctx.n)))


def beta_factors(ctx: EvalContext) -> np.ndarray:
    """The complex logs of beta_{p,m} for m = 0..p-1, where beta_{p,m} =
    e^{-4 m p N pi^2/xi} prod_{j=1}^m (1-e^{4(p-j)N pi^2/xi})(1-e^{4(p+j)N pi^2/xi}):
    the terms of the dual J_p(E; e^{4 N pi^2/xi}) = J_p(E; e^{-4 N pi^2/xi}) (the
    knot is amphichiral), whose one evaluator is their lc_sum.  Their exponent
    4 N pi^2/xi = 2 pi i N u/(p xi) - 2 pi i N/p is the exact pair (2 pi i N u/(p xi), -N/p).
    """
    w = (2j * math.pi * ctx.n * ctx.u / (ctx.p * ctx.xi), Fraction(-ctx.n, ctx.p))
    return np.concatenate(tuple(_jones_terms(ctx.p, w)))


def f_n(z, ctx: EvalContext):
    """Finite-N phase f_N(z), defined on -1/(2N) < Re z + (u/2 p pi) Im z < 1/p + 1/(2N).

    z may be an array; its 2 z.size T_N values come from one batched t_n call,
    so they take the Bernoulli series wherever it meets qdilog.TOL.  A 0-d z is
    a one-point batch, so its value equals its entry in any array.  For that,
    xi (1 -+ z) is an explicit np.multiply call, which numpy never elides: from
    16,384 points its temporary elision computes xi * (1.0 - z) in place as
    (1.0 - z) * xi, whose swapped operands round differently, by up to 1.8e-15.
    """
    arr = np.asarray(z, dtype=complex)
    z = arr.ravel()
    xi, n = ctx.xi, ctx.n
    require_strip(z, -0.5 / n, 1.0 / ctx.p + 0.5 / n, "the f_N strip", lambda i: str(ctx),
                  ctx.u / (2.0 * math.pi * ctx.p))
    a, b = t_n(np.stack([np.multiply(xi, 1.0 - z) / (2j * math.pi) - ctx.p + 1.0,
                         np.multiply(xi, 1.0 + z) / (2j * math.pi) - ctx.p]), ctx)
    value = (a - b) / n - ctx.u * z + 4.0 * ctx.p * math.pi ** 2 / xi
    return complex(value[0]) if arr.ndim == 0 else value.reshape(arr.shape)


def sector_points(k, ctx: EvalContext):
    """(m, z_k) for a scalar or an array k in 1..N-1 (any other k is refused): its
    sector m = floor(k p/N), and z_k = (2k+1)/(2N) - 2 m pi i/xi.

    The shift 2 m pi i/xi comes from one p-entry table, so a point's z_k is the
    same whether its k is placed alone or among others.
    """
    ks = np.asarray(k)
    bad = ~((ks >= 1) & (ks < ctx.n) & (ks % 1 == 0))
    if bad.any() or ks.dtype.kind not in "iu":
        raise DomainError(f"k must lie in [1, N-1], got {ks[bad][0] if bad.any() else k}")
    m = k * ctx.p // ctx.n
    shifts = np.array([2j * j * math.pi / ctx.xi for j in range(ctx.p)])
    return m, (2 * k + 1) / (2.0 * ctx.n) - shifts[m]


def _term_logs(m, z, ctx: EvalContext):
    """The logs pref + beta_m + N f_N(z_k) of J_N's terms k >= 1 at sector points (m, z_k),
    pref = log(1 - e^{-2 pi i N u/xi}) - log(2 sinh(u/2)); m and z are arrays or scalars.
    The exponent is -4 p N pi^2/xi modulo 2 pi i, without that form's rounding of 2 pi N."""
    n = ctx.n
    prefactor = (lc_one_minus_exp(-2j * math.pi * n * ctx.u / ctx.xi)
                 - math.log(2.0 * math.sinh(0.5 * ctx.u)))
    return prefactor + beta_factors(ctx)[m] + n * f_n(z, ctx)


def decomposition_residual(ctx: EvalContext) -> float:
    """Relative gap between J_N(E;e^{xi/N}) and the sum of its beta/f_N decomposition.

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
    shifts too.  The k = 0 term, 1, is summed with the rest in one lc_sum, so
    the residual holds at small N too: 4.8e-15 at (u, p, N) = (0.5, 2, 10), 0 at N = 1.
    """
    m, z = sector_points(np.arange(1, ctx.n), ctx)
    rhs = lc_sum(np.concatenate(([0j], _term_logs(m, z, ctx))))
    return abs(cmath.exp(rhs - jones_at_cusp(ctx)) - 1.0)


def product_identity_residual(k: int, ctx: EvalContext) -> float:
    """Relative gap between prod_{l=1}^{k} (1 - q^{N+l})(1 - q^{N-l}), q = e^{xi/N}, and term k
    of the decomposition alone over its weight e^{-k xi} (modulus e^{-k u}, phase 0 mod 2 pi)."""
    term = _term_logs(*sector_points(k, ctx), ctx) + k * ctx.u
    cusp = log_qpoch(ctx.n, k, (ctx.u / ctx.n, Fraction(ctx.p, ctx.n)))[-1]
    return abs(cmath.exp(term - cusp) - 1.0)
