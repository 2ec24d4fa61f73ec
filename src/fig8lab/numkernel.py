"""Branch-disciplined complex kernels.

Log-domain complex arithmetic (the vectorised log1mexp and lc_sum) and the
principal dilogarithm Li2.  Every other module builds on these primitives,
so the conventions are fixed once, here:

* a value v too large or too small for a float is kept as its complex log,
  a plain Python complex: the real part is log|v|, the imaginary part a
  phase of v.  Products and quotients are sums and differences of logs, and
  -inf + 0j is the exact zero.  Returned phases are left unreduced; they
  are reduced into (-pi, pi] only when a value is emitted (see reduce_phase);
* principal logarithm, Im log w in (-pi, pi];
* Li2 has its branch cut on (1, oo); evaluation exactly on the cut is an
  error rather than a silent one-sided value.  Li2 is one series after the
  inversion and reflection reductions, its logs taken with real ufuncs.

log1mexp is the one kernel behind every Jones product (jones.log_qpoch)
and lc_one_minus_exp.  It takes log(1 - e^w) from real ufuncs (a sin of
y/2, a sin of y, an atan2 and a hypot per factor), in blocks of bounded
scratch, and its phase needs no modular reduction.  On long products it
costs about a third of numpy's complex expm1 and log; on one factor the
two cost the same, since there the number of ufunc calls sets the time.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
PI_SQ_6 = math.pi * math.pi / 6.0


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class BranchCutError(DomainError):
    """Evaluation requested exactly on a branch cut."""


class QuadratureError(RuntimeError):
    """A refinement did not converge: a contour quadrature that misses
    qdilog.TOL, or a region boundary walk that does not resolve its count."""


def reduce_phase(x) -> np.ndarray:
    """Reduce angles elementwise to the half-open interval (-pi, pi].

    Values already in range are returned unchanged so that tiny phases are
    not destroyed by the modular reduction.
    """
    y = np.array(x, dtype=np.float64)
    out = (y <= -math.pi) | (y > math.pi)
    r = math.pi - np.mod(math.pi - y[out], TWO_PI)
    # x = -pi (mod 2pi) must land on +pi, the closed end of the interval
    r[r <= -math.pi] += TWO_PI
    y[out] = r
    return y


def exp_of_log(value: complex, what: str) -> complex:
    """The number whose complex log is value; OverflowError naming what if no float holds it."""
    try:
        return cmath.exp(value)
    except OverflowError:
        raise OverflowError(f"{what} overflows a float: its log is {value}") from None


def lc_sum(logs) -> complex:
    """log(sum(exp(logs))) for complex logs, as a complex log.

    The largest real part is factored out so intermediates stay in native
    floating-point range regardless of the terms' scale.  A real part -inf
    is an exact zero, and so is the result -inf + 0j.  A term with a NaN
    part, an infinite imaginary part or a real part +inf stands for no
    complex number and raises DomainError.
    """
    logs = np.asarray(logs, dtype=np.complex128)
    if logs.size == 0:
        raise DomainError("sum of an empty sequence")
    bad = ~(np.isfinite(logs.imag) & (logs.real < math.inf))
    if bad.any():
        raise DomainError(f"complex log {logs[bad][0]} is not a number")
    m = float(logs.real.max())
    if m == -math.inf:
        return complex(-math.inf, 0.0)
    scaled = logs - m
    acc = complex(np.exp(scaled, out=scaled).sum())
    if acc == 0j:
        return complex(-math.inf, 0.0)
    # math.atan2, not cmath.phase, which raises when the phase is subnormal
    return complex(math.log(abs(acc)) + m, math.atan2(acc.imag, acc.real))


# Factors per block of log1mexp: its six rows of float scratch stay at
# 192 KiB however long the product.
_FACTOR_BLOCK = 4096
# Constant operands of the kernel as 0-d arrays: numpy converts a Python
# float on every call, which costs half again the call on a short array.
_ZERO, _HALF, _TWO, _MINUS_ONE, _MINUS_PI = (np.array(x) for x in (0.0, 0.5, 2.0, -1.0, -math.pi))


def log1mexp(w) -> np.ndarray:
    """log(1 - e^w) elementwise over complex w, stable for any sign of Re w.

    Imaginary parts lie in (-pi, pi]; w = 0 gives the exact zero -inf + 0j.
    The factors go through _log1mexp_block in blocks of _FACTOR_BLOCK.
    """
    w = np.asarray(w, dtype=np.complex128)
    out = np.empty(w.shape, dtype=np.complex128)
    src, dst = w.ravel(), out.ravel()
    scratch = np.empty((6, min(src.size, _FACTOR_BLOCK)))
    with np.errstate(divide="ignore"):
        for lo in range(0, src.size, _FACTOR_BLOCK):
            hi = lo + _FACTOR_BLOCK
            rows = scratch if hi <= src.size else scratch[:, :src.size - lo]
            _log1mexp_block(src[lo:hi], dst[lo:hi], *rows)
    # a phase within half an ulp above -pi rounds to -pi, outside the interval
    out.imag[out.imag == _MINUS_PI] = math.pi
    return out


def _log1mexp_block(v, o, a, b, c, d, e, f) -> None:
    """log1mexp of v = r + iy into o, with a..f as float scratch of v's size.

    With S = sin(y/2) and F = e^min(r, 0),
        1 - e^v = (2 F S^2 - expm1(r)) - i F sin(y)               for r <= 0,
        1 - e^v = e^r ((2 S^2 + expm1(-r)) - i sin(y))            for r > 0,
    the second pulling the large factor e^r out of the log.  For r <= 0 the
    real part is a sum of two terms >= 0; for r > 0 its terms cancel only
    where |sin(y)| carries the modulus.  The atan2 of the bracket is the
    phase, with no modular reduction.  sin(y), not 2 S cos(y/2), keeps a
    subnormal y, and hypot, not a sum of squares, keeps |1 - e^v| ~ 1e-300
    from underflowing.

    Short products cost one ufunc call per line, so no call writes over its
    own input: numpy's overlap check would double the cost of a call on a
    few elements.
    """
    r, y = v.real, v.imag
    np.multiply(y, _HALF, out=a)
    np.sin(a, out=b)                            # S
    np.sin(y, out=c)
    np.minimum(r, _ZERO, out=a)
    np.exp(a, out=d)                            # F
    np.multiply(c, d, out=a)                    # F sin(y), the imaginary part negated
    np.multiply(b, b, out=c)
    np.multiply(c, d, out=e)
    np.multiply(e, _TWO, out=b)                 # 2 F S^2
    np.copysign(r, _MINUS_ONE, out=c)
    np.expm1(c, out=d)
    np.copysign(d, r, out=c)                    # expm1(r) for r <= 0, -expm1(-r) else
    np.subtract(b, c, out=d)                    # the real part
    np.subtract(_ZERO, a, out=c)                # a zero sine gives +0, so the cut maps to +pi
    np.arctan2(c, d, out=o.imag)
    np.hypot(d, a, out=e)
    np.log(e, out=f)
    np.maximum(r, _ZERO, out=a)
    np.add(f, a, out=o.real)


def lc_one_minus_exp(w: complex) -> complex:
    """log(1 - e^w) for one complex w, as a complex (see log1mexp)."""
    return complex(log1mexp(w))


# ---------------------------------------------------------------------------
# Dilogarithm
# ---------------------------------------------------------------------------

def _bernoulli_coefficients(count: int) -> np.ndarray:
    """c_n = B_n / (n+1)! for the log-series expansion of Li2."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return np.array([float(b[n] / math.factorial(n + 1)) for n in range(count)])


# Li2(t) = sum c_n v^{n+1}, v = -log(1 - t), with c_n = 0 for odd n > 1.  On
# |v| <= 3.22 the 26 even c_n up to c_50 leave a truncation below rounding;
# 24 of them cost 8.7e-16 of max(1, |Li2|) near w = 1.52, 22 cost 3.3e-15.
_LI2_COEF = _bernoulli_coefficients(52)
_EVEN_COEF = _LI2_COEF[-2:1:-2]                 # c_50, c_48, ..., c_2


def _clog(w):
    """Principal log from real ufuncs (see li2)."""
    out = np.empty_like(w)
    out.real = np.log(np.hypot(w.real, w.imag))
    out.imag = np.arctan2(w.imag, w.real)
    return out


def _log_series(v):
    """Li2(t) = v (c_0 + c_1 v + v^2 P(v^2)) for v = -log(1 - t), P in place.

    numpy takes a one-element in-place product for a reduction, whose loop
    rounds apart from the array loop (which may fuse multiply and add), so
    one point's Horner steps multiply into a new array: a point's Li2 does
    not depend on the length of its array.
    """
    v2 = v * v
    p = np.full_like(v, _EVEN_COEF[0])
    for c in _EVEN_COEF[1:]:
        p = np.multiply(p, v2, out=p if p.size > 1 else None)
        p += c
    return (p * v2 + (_LI2_COEF[0] + _LI2_COEF[1] * v)) * v


def li2(w):
    """Principal dilogarithm Li2(w) = -int_0^w log(1-t)/t dt.

    Accepts a complex scalar or array.  The cut is (1, oo); evaluating
    exactly on it raises BranchCutError.  w = 1 gives pi^2/6; otherwise
    Li2 comes from one series in v = -log(1 - t) (_log_series), |v| <= 3.22
    after the reductions: t = 1/w for |w| >= 2 (inversion), t = 1 - w for
    |1 - w| <= 1/2 (reflection, where log w = -v), t = w elsewhere.

    The logs use real ufuncs, several times faster than numpy's complex
    log, with the same principal values.  Re v = -log1p(x (x-2) + y^2)/2
    for t = x + iy keeps relative accuracy at tiny |t|, where log|1 - t|
    rounds to 0, and does not cancel near t = 1.5 as |t|^2 - 2x would.
    """
    arr = np.asarray(w, dtype=np.complex128)
    z = arr.ravel()
    if np.any((z.imag == 0.0) & (z.real > 1.0)):
        raise BranchCutError("Li2 evaluated on the branch cut (1, oo)")

    inv = np.abs(z) >= 2.0
    near = np.abs(1.0 - z) <= 0.5
    t = z.copy()
    t[inv] = 1.0 / z[inv]
    t[near] = 1.0 - z[near]                       # w = 1 gives t = 0, v = 0
    x, y = t.real, t.imag
    v = np.empty_like(t)
    v.real = -0.5 * np.log1p(x * (x - 2.0) + y * y)
    v.imag = np.arctan2(y, 1.0 - x)
    out = _log_series(v)

    lg = _clog(-z[inv])
    out[inv] = -out[inv] - PI_SQ_6 - 0.5 * lg * lg
    refl = near & (z != 1.0)
    out[refl] = PI_SQ_6 + v[refl] * _clog(t[refl]) - out[refl]
    out[z == 1.0] = PI_SQ_6
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

