"""Branch-disciplined complex kernels.

Log-domain complex arithmetic (the vectorised log1mexp and lc_sum), the
principal dilogarithm Li2, and the closed forms of the three contour
integrals L_0, L_1, L_2 on the strip 0 < Re z < 1.  Every other module
builds on these primitives, so the conventions are fixed once, here:

* a value v too large or too small for a float is kept as its complex log,
  a plain Python complex: the real part is log|v|, the imaginary part a
  phase of v.  Products and quotients are sums and differences of logs, and
  -inf + 0j is the exact zero.  Returned phases are left unreduced; they
  are reduced into (-pi, pi] only when a value is emitted (see reduce_phase);
* principal logarithm, Im log w in (-pi, pi];
* Li2 has its branch cut on (1, oo); evaluation exactly on the cut is an
  error rather than a silent one-sided value.  Li2 is one series after the
  inversion and reflection reductions, its logs taken with real ufuncs.
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
    """Contour quadrature failed to reach the requested tolerance."""


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


def log1mexp(w) -> np.ndarray:
    """log(1 - e^w) elementwise over complex w, stable for any sign of Re w.

    Imaginary parts lie in (-pi, pi]; w = 0 gives the exact zero -inf + 0j.
    """
    w = np.asarray(w, dtype=np.complex128)
    big = w.real > 0.0
    # 1 - e^w = e^w (e^{-w} - 1): keep the large factor in the exponent
    out = np.negative(w, where=big, out=w.copy())
    np.expm1(out, out=out)
    np.negative(out, out=out, where=~big)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    np.add(out, w, out=out, where=big)
    out.imag = reduce_phase(out.imag)
    out.imag[out.real == -math.inf] = 0.0
    return out


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
    """Li2(t) = v (c_0 + c_1 v + v^2 P(v^2)) for v = -log(1 - t), P in place."""
    v2 = v * v
    p = np.full_like(v, _EVEN_COEF[0])
    for c in _EVEN_COEF[1:]:
        p *= v2
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


# ---------------------------------------------------------------------------
# Closed forms of the strip integrals L_0, L_1, L_2
# ---------------------------------------------------------------------------

def _require_strip(z: complex) -> complex:
    z = complex(z)
    if not 0.0 < z.real < 1.0:
        raise DomainError(f"Re z must lie in (0, 1), got {z.real}")
    return z


def l0_closed(z: complex) -> complex:
    """L_0(z) = -2 pi i / (1 - e^{-2 pi i z}) for 0 < Re z < 1."""
    z = _require_strip(z)
    return -2j * math.pi / (1.0 - cmath.exp(-2j * math.pi * z))


def l1_closed(z: complex) -> complex:
    """L_1(z) = log(1 - e^{2 pi i z}), principal branch."""
    z = _require_strip(z)
    return cmath.log(1.0 - cmath.exp(2j * math.pi * z))


def l2_closed(z: complex) -> complex:
    """L_2(z) = Li2(e^{2 pi i z})."""
    z = _require_strip(z)
    return li2(cmath.exp(2j * math.pi * z))
