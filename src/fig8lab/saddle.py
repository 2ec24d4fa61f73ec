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
from math import gcd

import numpy as np

from .numkernel import DomainError, li2
from .jones import jones_at_cusp, jones_dual
from .qdilog import KAPPA, EvalContext, require_u

TWO_PI_I = 2j * math.pi


def kappa() -> float:
    """arccosh(3/2) = 0.962424..., the upper end of the deformation range."""
    return KAPPA


def discriminant(u: float) -> float:
    """(2 cosh u + 1)(3 - 2 cosh u), positive on (0, kappa)."""
    c = math.cosh(u)
    return (2.0 * c + 1.0) * (3.0 - 2.0 * c)


def inner_root(u: float) -> complex:
    """sqrt((2 cosh u + 1)(2 cosh u - 3)) as a positive multiple of i."""
    return 1j * math.sqrt(max(discriminant(u), 0.0))


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
    varphi: complex       # i * theta
    sigma0: complex       # (theta + 2 pi) i / xi, the critical point in U_0
    a2: complex           # quadratic Taylor coefficient of F at sigma0
    f_sigma0: complex     # F(sigma0)
    s_e: complex          # growth phase: xi (F(sigma0) + 2 pi i)
    t_e: complex          # torsion factor 2 / inner_root(u)

    @property
    def xi(self) -> complex:
        return complex(self.u, 2.0 * math.pi * self.p)

    def sigma_m(self, m: int) -> complex:
        return self.sigma0 + 2j * m * math.pi / self.xi


@functools.lru_cache(maxsize=256, typed=True)
def saddle_data(u: float, p: int) -> SaddleData:
    """The saddle constants at (u, p), cached per (u, p).

    The result is frozen, so every caller may share it; a bad u or p raises
    DomainError on every call, since exceptions are not cached.
    """
    require_u(u)
    if p < 1:
        raise DomainError("p must be a positive integer")
    phi = varphi(u)
    theta = phi.imag
    xi = complex(u, 2.0 * math.pi * p)
    sigma0 = (theta + 2.0 * math.pi) * 1j / xi
    root = inner_root(u)
    a2 = 0.5 * xi * root
    f_sigma0 = f_eval(sigma0, u, p)
    s_e = li2(cmath.exp(-u - phi)) - li2(cmath.exp(-u + phi)) + u * (phi + TWO_PI_I)
    t_e = 2.0 / root
    return SaddleData(u, p, theta, phi, sigma0, a2, f_sigma0, s_e, t_e)


# ---------------------------------------------------------------------------
# The potential F and its shifts
# ---------------------------------------------------------------------------

def _skew(z: complex, u: float, p: int) -> float:
    return z.real + u / (2.0 * math.pi * p) * z.imag


def _require_u0(z: complex, u: float, p: int) -> complex:
    z = complex(z)
    s = _skew(z, u, p)
    if not 0.0 < s < 1.0 / p:
        raise DomainError(f"z outside U_0: skew abscissa {s} not in (0, {1.0 / p})")
    return z


def f_eval(z: complex, u: float, p: int) -> complex:
    """F(z) on U_0: f_values at one point, with u and z checked."""
    require_u(u)
    return complex(f_values(_require_u0(z, u, p), u, p))


def f_eval_original(z: complex, u: float, p: int) -> complex:
    """F(z) in its defining form, kept for cross-checking against f_eval."""
    require_u(u)
    z = _require_u0(z, u, p)
    xi = complex(u, 2.0 * math.pi * p)
    return (
        (li2(cmath.exp(xi * (1.0 - z))) - li2(cmath.exp(xi * (1.0 + z)))) / xi
        - u * z
        + 4.0 * p * math.pi ** 2 / xi
    )


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


def f_prime(z: complex, u: float, p: int) -> complex:
    """F'(z) = log(e^u + e^{-u} - e^{xi z} - e^{-xi z}), principal branch.

    The elementary formula extends continuously to the closure of U_0, which
    the boundary-segment checks rely on; no strip validation here.
    """
    require_u(u)
    xi = complex(u, 2.0 * math.pi * p)
    w = xi * z
    return cmath.log(2.0 * math.cosh(u) - 2.0 * cmath.cosh(w))


def f_second(z: complex, u: float, p: int) -> complex:
    """F''(z) = xi (e^{-xi z} - e^{xi z}) / (e^u + e^{-u} - e^{xi z} - e^{-xi z})."""
    require_u(u)
    xi = complex(u, 2.0 * math.pi * p)
    w = xi * z
    return xi * (-2.0 * cmath.sinh(w)) / (2.0 * math.cosh(u) - 2.0 * cmath.cosh(w))


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
    """Phi_m(z) = F(z - 2 m pi i / xi) on U_m."""
    z = complex(z)
    s = _skew(z, u, p)
    if not m / p < s < (m + 1) / p:
        raise DomainError(f"z outside U_{m}: skew abscissa {s}")
    xi = complex(u, 2.0 * math.pi * p)
    return f_eval(z - 2j * m * math.pi / xi, u, p)


def phi_m_prime(z: complex, m: int, u: float, p: int) -> complex:
    """Phi_m'(z), via the elementary formula (valid up to the U_m boundary)."""
    xi = complex(u, 2.0 * math.pi * p)
    return f_prime(z - 2j * m * math.pi / xi, u, p)


# ---------------------------------------------------------------------------
# Theorem right-hand side and ratio experiment
# ---------------------------------------------------------------------------

def saddle_prefactor(u: float) -> complex:
    """sqrt(-pi) * T_E(u)^{1/2} with principal roots."""
    return cmath.sqrt(complex(-math.pi, 0.0)) * cmath.sqrt(2.0 / inner_root(u))


def saddle_prefactor_closed(u: float) -> complex:
    """sqrt(2 pi) e^{i pi/4} / ((1 + 2 cosh u)(3 - 2 cosh u))^{1/4}."""
    return math.sqrt(2.0 * math.pi) * cmath.exp(0.25j * math.pi) / discriminant(u) ** 0.25


def asymptotic_rhs(ctx: EvalContext) -> complex:
    """Closed-form side of the main asymptotics for J_N(E; e^{xi/N}).

    (sqrt(-pi)/(2 sinh(u/2))) T_E^{1/2} J_p(E;e^{4 N pi^2/xi})
        (N/xi)^{1/2} exp((N/xi) S_E(u)),
    returned as its complex log; the principal (N/xi)^{1/2} has positive
    real part, implementing the stated choice of the outer square root.
    """
    sd = saddle_data(ctx.u, ctx.p)
    pref = saddle_prefactor(ctx.u) / (2.0 * math.sinh(0.5 * ctx.u))
    scale = cmath.sqrt(ctx.n / sd.xi)
    return cmath.log(pref * scale) + jones_dual(ctx) + ctx.n / sd.xi * sd.s_e


def asymptotic_ratio(ctx: EvalContext, allow_noncoprime: bool = False) -> complex:
    """J_N(E;e^{xi/N}) divided by asymptotic_rhs; approaches 1 as N grows."""
    if not allow_noncoprime and gcd(ctx.p, ctx.n) != 1:
        raise DomainError(
            f"gcd(p={ctx.p}, N={ctx.n}) > 1; pass allow_noncoprime=True to force"
        )
    return cmath.exp(jones_at_cusp(ctx) - asymptotic_rhs(ctx))
