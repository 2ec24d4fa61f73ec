"""Branch-disciplined complex kernels.

Log-domain complex arithmetic (LogComplex, and the vectorised log1mexp and
log_sum_exp behind it), the principal dilogarithm Li2, and the closed forms
of the three contour integrals L_0, L_1, L_2 on the strip 0 < Re z < 1.  Every other module builds on these primitives, so the
branch conventions are fixed once, here:

* principal logarithm, Im log w in (-pi, pi];
* Li2 has its branch cut on (1, oo); evaluation exactly on the cut is an
  error rather than a silent one-sided value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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


def normalize_phase(x: float) -> float:
    """reduce_phase of one finite angle, as a float."""
    if not math.isfinite(x):
        raise DomainError(f"phase must be finite, got {x!r}")
    if -math.pi < x <= math.pi:
        return x
    return float(reduce_phase(x))


# ---------------------------------------------------------------------------
# LogComplex: (log-magnitude, phase) representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogComplex:
    """A nonzero complex number stored as (log magnitude, phase).

    logmag = -inf encodes exact zero (absorbing under multiplication).
    The phase is always normalized into (-pi, pi].
    """

    logmag: float
    phase: float = 0.0

    def __post_init__(self):
        if math.isnan(self.logmag):
            raise DomainError("logmag is NaN")
        if self.logmag == -math.inf:
            object.__setattr__(self, "phase", 0.0)
        else:
            object.__setattr__(self, "phase", normalize_phase(self.phase))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_complex(cls, w: complex) -> "LogComplex":
        w = complex(w)
        r = abs(w)
        if r == 0.0:
            return ZERO
        return cls(math.log(r), cmath.phase(w))

    @classmethod
    def from_exponent(cls, w: complex) -> "LogComplex":
        """exp(w) as a LogComplex: logmag = Re w, phase = Im w (normalized)."""
        w = complex(w)
        return cls(w.real, w.imag)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.logmag == -math.inf

    def to_complex(self) -> complex:
        """Native complex value; raises OverflowError when out of range."""
        if self.is_zero:
            return 0j
        return cmath.rect(math.exp(self.logmag), self.phase)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return ZERO
        return LogComplex(self.logmag + other.logmag, self.phase + other.phase)

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by LogComplex zero")
        if self.is_zero:
            return ZERO
        return LogComplex(self.logmag - other.logmag, self.phase - other.phase)


ZERO = LogComplex(-math.inf, 0.0)
ONE = LogComplex(0.0, 0.0)


def log_sum_exp(logs) -> complex:
    """log(sum(exp(logs))) for complex logs, as a complex log.

    The largest real part is factored out so intermediates stay in native
    floating-point range regardless of the terms' scale.  A real part -inf
    is an exact zero, and so is the result -inf + 0j.
    """
    logs = np.asarray(logs, dtype=np.complex128)
    if logs.size == 0:
        raise DomainError("sum of an empty sequence")
    m = float(logs.real.max())
    if m == -math.inf:
        return complex(-math.inf, 0.0)
    scaled = logs - m
    acc = complex(np.exp(scaled, out=scaled).sum())
    if acc == 0j:
        return complex(-math.inf, 0.0)
    return complex(math.log(abs(acc)) + m, cmath.phase(acc))


def lc_sum(terms) -> LogComplex:
    """Sum a sequence of LogComplex values (see log_sum_exp)."""
    return LogComplex.from_exponent(log_sum_exp([complex(t.logmag, t.phase) for t in terms]))


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


def lc_one_minus_exp(w: complex) -> LogComplex:
    """1 - exp(w) as a LogComplex (see log1mexp)."""
    return LogComplex.from_exponent(complex(log1mexp(w)))


def lc_one_plus_exp(w: complex) -> LogComplex:
    """1 + exp(w) = 1 - exp(w + i pi) as a LogComplex (see log1mexp)."""
    return lc_one_minus_exp(complex(w) + 1j * math.pi)


# ---------------------------------------------------------------------------
# Dilogarithm
# ---------------------------------------------------------------------------

_SERIES_TERMS = 80
_SERIES_COEF = np.array([1.0 / (n * n) for n in range(1, _SERIES_TERMS + 1)])


def _bernoulli_coefficients(count: int) -> np.ndarray:
    """c_n = B_n / (n! (n+1)) for the log-series expansion of Li2."""
    b = [Fraction(1)]
    for m in range(1, count):
        s = Fraction(0)
        for j in range(m):
            s += Fraction(math.comb(m + 1, j)) * b[j]
        b.append(-s / (m + 1))
    out = []
    fact = Fraction(1)
    for n in range(count):
        if n > 0:
            fact *= n
        out.append(float(b[n] / (fact * (n + 1))))
    return np.array(out)


_LOG_SERIES_COEF = _bernoulli_coefficients(80)


def _horner(coeffs: np.ndarray, w):
    p = np.zeros_like(w)
    for c in coeffs[::-1]:
        p = p * w + c
    return p


def _li2_series(w):
    """Power series sum w^n / n^2; intended for |w| <= 0.5."""
    return w * _horner(_SERIES_COEF, w)


def _li2_log_series(w):
    """Expansion in v = -log(1-w); converges for |v| < 2 pi."""
    v = -np.log(1.0 - w)
    return v * _horner(_LOG_SERIES_COEF, v)


def li2(w):
    """Principal dilogarithm Li2(w) = -int_0^w log(1-t)/t dt.

    Accepts a complex scalar or array.  The cut is (1, oo); evaluating
    exactly on it raises BranchCutError.  Branch selection follows the
    classical reductions: direct series inside |w| <= 1/2, the inversion
    identity for |w| >= 2, the reflection at 1-w near the point 1, and the
    log-series in -log(1-w) on the remaining annulus.
    """
    arr = np.asarray(w, dtype=np.complex128)
    scalar = arr.ndim == 0
    z = np.atleast_1d(arr).copy()

    on_cut = (z.imag == 0.0) & (z.real > 1.0)
    if np.any(on_cut):
        raise BranchCutError("Li2 evaluated on the branch cut (1, oo)")

    out = np.zeros_like(z)
    az = np.abs(z)

    m_one = z == 1.0
    m_inv = (az >= 2.0) & ~m_one
    m_refl = (np.abs(1.0 - z) <= 0.5) & ~m_one & ~m_inv
    m_small = (az <= 0.5) & ~m_one & ~m_inv & ~m_refl
    m_mid = ~(m_one | m_inv | m_refl | m_small)

    if np.any(m_one):
        out[m_one] = PI_SQ_6
    if np.any(m_inv):
        zi = z[m_inv]
        lg = np.log(-zi)
        out[m_inv] = -_li2_series(1.0 / zi) - PI_SQ_6 - 0.5 * lg * lg
    if np.any(m_refl):
        zr = z[m_refl]
        out[m_refl] = PI_SQ_6 - np.log(zr) * np.log(1.0 - zr) - _li2_series(1.0 - zr)
    if np.any(m_small):
        out[m_small] = _li2_series(z[m_small])
    if np.any(m_mid):
        out[m_mid] = _li2_log_series(z[m_mid])

    if scalar:
        return complex(out[0])
    return out.reshape(arr.shape)


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
