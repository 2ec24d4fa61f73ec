"""Saddle-point data and the closed-form side of the main asymptotics.

The limiting potential

    F(z) = Li2(e^{xi(1-z)})/xi - Li2(e^{xi(1+z)})/xi - u z + 4 p pi^2/xi

is implemented inside U_0 = {0 < Re z + (u/2 p pi) Im z < 1/p} through its
rewritten small-argument form, whose Li2 arguments never touch the cut.
Its unique critical point in U_0 is sigma_0 = (theta + 2 pi) i / xi with
theta = Im varphi(u), and the quadratic coefficient, exponential growth
rate S_E(u) and torsion factor T_E(u) all descend from the square root of
(2 cosh u + 1)(2 cosh u - 3), taken as a positive multiple of i throughout.
The positive-real-part rule fixes the outer square root of the saddle
prefactor; with principal roots the assembled constant equals
sqrt(2 pi) e^{i pi/4} / ((1+2 cosh u)(3-2 cosh u))^{1/4}.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .numkernel import DomainError, exp_of_log, li2
from .jones import jones_at_cusp, jones_dual
from .qdilog import EvalContext, require_u

TWO_PI_I = 2j * math.pi


def discriminant(u: float) -> float:
    """(2 cosh u + 1)(3 - 2 cosh u), positive on (0, kappa)."""
    c = math.cosh(u)
    return (2.0 * c + 1.0) * (3.0 - 2.0 * c)


def varphi(u: float) -> complex:
    """log(cosh u - 1/2 - sqrt((2cosh u+1)(2cosh u-3))/2), purely imaginary.

    e^{varphi} solves x^2 - (2 cosh u - 1) x + 1 = 0 on the unit circle, so
    varphi = i theta with 2 cos theta = 2 cosh u - 1 and theta in (-pi/3, 0).
    The closed end u = kappa (theta = 0) is admitted for the boundary
    constants c_{p,m}(kappa).
    """
    require_u(u, closed_end=True)
    theta = -math.acos(min(math.cosh(u) - 0.5, 1.0))
    return 1j * theta


@dataclass(frozen=True)
class SaddleData:
    """Everything the saddle-point method needs at a given (u, p)."""

    u: float
    p: int
    theta: float          # Im varphi(u), in (-pi/3, 0)
    sigma0: complex       # (theta + 2 pi) i / xi, the critical point in U_0
    a2: complex           # quadratic Taylor coefficient of F at sigma0
    f_sigma0: complex     # F(sigma0)
    s_e: complex          # growth phase: xi (F(sigma0) + 2 pi i)
    t_e: complex          # torsion factor 2 / sqrt((2 cosh u + 1)(2 cosh u - 3))
    prefactor: complex    # sqrt(-pi) T_E^{1/2} / (2 sinh(u/2)), principal roots; both rhs use it

    @property
    def xi(self) -> complex:
        return complex(self.u, 2.0 * math.pi * self.p)

    def sigma_m(self, m: int) -> complex:
        """The critical point of Phi_m in U_m, for m in [0, p-1]."""
        _require_sector(m, self.p)
        return self.sigma0 + 2j * m * math.pi / self.xi


@functools.lru_cache(maxsize=256, typed=True)
def saddle_data(u: float, p: int) -> SaddleData:
    """The saddle constants at (u, p), cached per (u, p).

    The result is frozen, so every caller may share it; a bad u or p raises
    DomainError on every call, since exceptions are not cached.
    """
    require_u(u)
    if not isinstance(p, Integral) or p < 1:
        raise DomainError("p must be a positive integer")
    phi = varphi(u)
    theta = phi.imag
    xi = complex(u, 2.0 * math.pi * p)
    sigma0 = (theta + 2.0 * math.pi) * 1j / xi
    root = 1j * math.sqrt(max(discriminant(u), 0.0))     # a positive multiple of i
    a2 = 0.5 * xi * root
    f_sigma0 = complex(f_values(sigma0, u, p))
    s_e = li2(cmath.exp(-u - phi)) - li2(cmath.exp(-u + phi)) + u * (phi + TWO_PI_I)
    t_e = 2.0 / root
    prefactor = cmath.sqrt(complex(-math.pi, 0.0)) * cmath.sqrt(t_e) / (2.0 * math.sinh(0.5 * u))
    return SaddleData(u, p, theta, sigma0, a2, f_sigma0, s_e, t_e, prefactor)


# ---------------------------------------------------------------------------
# The potential F and its shifts
# ---------------------------------------------------------------------------

def _require_sector(m: int, p: int) -> None:
    """Raise DomainError unless m is an integer in [0, p-1]."""
    if not (isinstance(m, Integral) and 0 <= m <= p - 1):
        raise DomainError(f"m must lie in [0, p-1], got {m}")


def f_values(z, u: float, p: int):
    """Vectorized rewritten-form F over an array of points (no domain check).

    The caller is responsible for masking to U_0 / U_m; used by the region
    grids where membership is decided cell by cell.
    """
    z = np.asarray(z, dtype=np.complex128)
    xi = complex(u, 2.0 * math.pi * p)
    return (
        (li2(np.exp(-xi * (1.0 + z))) - li2(np.exp(-xi * (1.0 - z)))) / xi
        + u * z
        - TWO_PI_I
    )


def f_zero_value(u: float, p: int) -> complex:
    """The designated value F(0) = 4 p pi^2 / xi.

    At z = 0 the two Li2 terms of the defining form coincide and cancel,
    leaving only the constant.  (The limit of F along the interior of U_0
    differs, because the Li2 arguments reach the cut from opposite sides;
    the inequalities 0 < Re F(0) < Re F(sigma_0) refer to this value.)
    """
    require_u(u)
    xi = complex(u, 2.0 * math.pi * p)
    return 4.0 * p * math.pi ** 2 / xi


def phi_m(z: complex, m: int, u: float, p: int) -> complex:
    """Phi_m(z) = F(z - 2 m pi i / xi) on U_m, with u, m and z checked.

    m = 0 gives F itself on U_0; every scalar value of F or Phi_m comes from here.
    """
    require_u(u)
    _require_sector(m, p)
    z = complex(z)
    s = z.real + u / (2.0 * math.pi * p) * z.imag
    if not m / p < s < (m + 1) / p:
        raise DomainError(f"z outside U_{m}: skew abscissa {s} not in ({m / p}, {(m + 1) / p})")
    xi = complex(u, 2.0 * math.pi * p)
    return complex(f_values(z - 2j * m * math.pi / xi, u, p))


# ---------------------------------------------------------------------------
# Theorem right-hand side and ratio experiment
# ---------------------------------------------------------------------------

def asymptotic_rhs(ctx: EvalContext) -> complex:
    """Closed-form side of the main asymptotics for J_N(E; e^{xi/N}).

    (sqrt(-pi)/(2 sinh(u/2))) T_E^{1/2} J_p(E;e^{4 N pi^2/xi})
        (N/xi)^{1/2} exp((N/xi) S_E(u)),
    returned as its complex log; the principal (N/xi)^{1/2} has positive
    real part, implementing the stated choice of the outer square root.
    """
    sd = saddle_data(ctx.u, ctx.p)
    scale = cmath.sqrt(ctx.n / sd.xi)
    return cmath.log(sd.prefactor * scale) + jones_dual(ctx) + ctx.n / sd.xi * sd.s_e


def asymptotic_ratio(ctx: EvalContext) -> complex:
    """J_N(E;e^{xi/N}) divided by asymptotic_rhs; approaches 1 as N grows.

    The theorem assumes no coprimality of p and N.  A ratio that overflows a
    float raises OverflowError naming ctx.
    """
    return exp_of_log(jones_at_cusp(ctx) - asymptotic_rhs(ctx), f"theorem ratio at {ctx}")
