"""Saddle-point data and the closed-form side of the main asymptotics.

The limiting potential

    F(z) = Li2(e^{xi(1-z)})/xi - Li2(e^{xi(1+z)})/xi - u z + 4 p pi^2/xi

is implemented inside U_0 = {0 < Re z + (u/2 p pi) Im z < 1/p} through its
rewritten small-argument form, whose Li2 arguments never touch the cut.
Its unique critical point in U_0 is sigma_0 = (varphi(u) + 2 pi i)/xi, and
the quadratic coefficient, growth rate S_E(u) and torsion factor T_E(u)
descend from varphi = -i acos(cosh u - 1/2) and root = i sqrt((2 cosh u + 1)
(3 - 2 cosh u)).  Both are principal-branch complex formulas, analytic in u
near (0, kappa), where neither argument meets its cut: there varphi is
purely imaginary and root a positive multiple of i.  SaddleData holds no
theta = Im varphi apart from sigma_0.
With principal roots the assembled constant equals
sqrt(2 pi) e^{i pi/4} / ((1+2 cosh u)(3-2 cosh u))^{1/4}.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .numkernel import exp_of_log, lc_sum, li2
from .jones import beta_factors, jones_at_cusp
from .qdilog import EvalContext, require_counts, require_sector, require_strip, require_u

TWO_PI_I = 2j * math.pi


def varphi(u: float) -> complex:
    """-i acos(cosh u - 1/2) with the principal acos: on (0, kappa] it equals
    log(cosh u - 1/2 - sqrt((2cosh u+1)(2cosh u-3))/2), purely imaginary.

    e^{varphi} solves x^2 - (2 cosh u - 1) x + 1 = 0 on the unit circle, so
    varphi = i theta with 2 cos theta = 2 cosh u - 1 and theta in (-pi/3, 0].
    The closed end u = kappa (theta = 0) is admitted for the boundary
    constants c_{p,m}(kappa).
    """
    require_u(u, closed_end=True)
    return -1j * cmath.acos(cmath.cosh(u) - 0.5)


@dataclass(frozen=True)
class SaddleData:
    """Everything the saddle-point method needs at a given (u, p)."""

    u: float
    p: int
    sigma0: complex       # (varphi(u) + 2 pi i) / xi, the critical point in U_0
    a2: complex           # quadratic Taylor coefficient xi root / 2 of F at sigma0
    f_sigma0: complex     # F(sigma0)
    s_e: complex          # growth phase: xi (F(sigma0) + 2 pi i)
    t_e: complex          # torsion factor 2 / root, root = i sqrt((2cosh u+1)(3-2cosh u)) principal
    prefactor: complex    # sqrt(-pi) T_E^{1/2} / (2 sinh(u/2)), principal roots

    @property
    def xi(self) -> complex:
        return complex(self.u, 2.0 * math.pi * self.p)

    def rhs(self, h: complex) -> complex:
        """log(prefactor h^{1/2}) + h S_E(u): the one saddle side, at h = 1/hbar
        (N/xi for the theorem).  The principal h^{1/2} has positive real part,
        the stated choice of the outer square root."""
        return cmath.log(self.prefactor * cmath.sqrt(h)) + h * self.s_e

    def sigma_m(self, m: int) -> complex:
        """The critical point of Phi_m in U_m, for m in [0, p-1]."""
        require_sector(m, self.p)
        return self.sigma0 + 2j * m * math.pi / self.xi


@functools.lru_cache(maxsize=256, typed=True)
def saddle_data(u: float, p: int) -> SaddleData:
    """The saddle constants at (u, p), cached per (u, p).

    The result is frozen, so every caller may share it; a bad u or p raises
    DomainError on every call, since exceptions are not cached.
    """
    require_u(u)
    require_counts("p", p)
    phi = varphi(u)
    xi = complex(u, 2.0 * math.pi * p)
    sigma0 = (phi + TWO_PI_I) / xi
    c = cmath.cosh(u)
    root = 1j * cmath.sqrt((2.0 * c + 1.0) * (3.0 - 2.0 * c))
    a2 = 0.5 * xi * root
    f_sigma0 = f_values(sigma0, u, p)
    s_e = li2(cmath.exp(-u - phi)) - li2(cmath.exp(-u + phi)) + u * (phi + TWO_PI_I)
    t_e = 2.0 / root
    prefactor = cmath.sqrt(complex(-math.pi, 0.0)) * cmath.sqrt(t_e) / (2.0 * cmath.sinh(0.5 * u))
    return SaddleData(u, p, sigma0, a2, f_sigma0, s_e, t_e, prefactor)


# ---------------------------------------------------------------------------
# The potential F and its shifts
# ---------------------------------------------------------------------------

def f_values(z, u, p):
    """Vectorized rewritten-form F over an array of points (no domain check).

    u and p are scalars or arrays broadcast against z, so each point may
    carry its own (u, p); xi = u + 2 p pi i is formed elementwise (a Python
    complex for scalar u and p).  As in li2, the points are computed as one
    flat array and a 0-d z gives a complex, so a point's value does not
    depend on the other points, on whether it was evaluated alone, nor on
    whether its u and p are scalars.  For that, a scalar times a temporary
    array is an explicit np.multiply call, which numpy never elides: from
    256 KiB (16,384 complex points) its temporary elision computes
    -xi * (1 + z) in place as (1 + z) * -xi, whose swapped operands round
    differently, by up to 4.8e-16.

    The caller is responsible for masking to U_0 / U_m.  Its callers are
    saddle_data (F at sigma_0), phi_m (every checked point of a batch in one
    call), region.grid_scan (the grid cells inside U_m, one row block a call)
    and region.components_d_cap_e (the boundary walk of E_m, inside U_m by
    construction).
    """
    shape = np.broadcast_shapes(np.shape(z), np.shape(u), np.shape(p))
    z = np.broadcast_to(np.asarray(z, dtype=np.complex128), shape).ravel()
    u, p = (np.broadcast_to(a, shape).ravel() if np.ndim(a) else a for a in (u, p))
    xi = u + 2j * math.pi * p
    plus = li2(np.exp(np.multiply(-xi, 1.0 + z)))
    minus = li2(np.exp(np.multiply(-xi, 1.0 - z)))
    out = (plus - minus) / xi + u * z - TWO_PI_I
    return complex(out[0]) if shape == () else out.reshape(shape)


def f_prime(z, u: float, p: int):
    """F'(z) = log(2 cosh u - 2 cosh(xi z)), principal branch, elementwise over z.

    The elementary formula extends continuously to the closure of U_0, where
    the Li2 form meets its cut; no strip check here.  Its library caller is
    region.components_d_cap_e, which takes |Phi_m'| along the boundary of E_m.
    """
    xi = complex(u, 2.0 * math.pi * p)
    return np.log(2.0 * math.cosh(u) - 2.0 * np.cosh(xi * np.asarray(z, dtype=np.complex128)))


def f_zero_value(u: float, p: int) -> complex:
    """The designated value F(0) = 4 p pi^2 / xi.

    At z = 0 the two Li2 terms of the defining form coincide and cancel,
    leaving only the constant.  (The limit of F along the interior of U_0
    differs, because the Li2 arguments reach the cut from opposite sides;
    the inequalities 0 < Re F(0) < Re F(sigma_0) refer to this value.)
    u and p are checked, and xi taken, by the cached saddle_data(u, p).
    """
    return 4.0 * p * math.pi ** 2 / saddle_data(u, p).xi


def phi_m(z, m, u, p):
    """Phi_m(z) = F(z - 2 m pi i / xi) on U_m, the one checked Phi_m; m = 0 gives F on U_0.

    z, m, u and p broadcast, and a 0-d batch gives a complex.  Each point's u and p
    are checked, and xi taken, by the cached saddle_data, and its m by require_sector;
    then one require_strip checks every z against its U_m, and one f_values call
    evaluates them all.  Its library caller is region.check_f_p12.
    """
    shape = np.broadcast_shapes(np.shape(z), np.shape(m), np.shape(u), np.shape(p))
    zs, ms, us, ps = (np.broadcast_to(a, shape).ravel() for a in (np.asarray(z, dtype=complex), m, u, p))
    triples = list(zip(us.tolist(), ps.tolist(), ms.tolist()))
    shifts = []
    for u_i, p_i, m_i in triples:
        xi = saddle_data(u_i, p_i).xi
        require_sector(m_i, p_i)
        shifts.append(2j * m_i * math.pi / xi)
    require_strip(zs, ms / ps, (ms + 1) / ps, "U_m",
                  lambda i: "(u, p, m) = (%r, %r, %r)" % triples[i], us / (2.0 * math.pi * ps))
    values = f_values(zs - np.array(shifts), us, ps)
    return complex(values[0]) if shape == () else values.reshape(shape)


# ---------------------------------------------------------------------------
# Theorem right-hand side and ratio experiment
# ---------------------------------------------------------------------------

def asymptotic_rhs(ctx: EvalContext) -> complex:
    """Closed-form side of the main asymptotics for J_N(E; e^{xi/N}).

    (sqrt(-pi)/(2 sinh(u/2))) T_E^{1/2} J_p(E;e^{4 N pi^2/xi})
        (N/xi)^{1/2} exp((N/xi) S_E(u)),
    returned as its complex log: SaddleData.rhs(N/xi) plus lc_sum(beta_factors).
    """
    sd = saddle_data(ctx.u, ctx.p)
    return sd.rhs(ctx.n / sd.xi) + lc_sum(beta_factors(ctx))


def asymptotic_ratio(ctx: EvalContext) -> complex:
    """J_N(E;e^{xi/N}) divided by asymptotic_rhs; approaches 1 as N grows.

    The theorem assumes no coprimality of p and N.  A ratio that overflows a
    float raises OverflowError naming ctx.
    """
    return exp_of_log(jones_at_cusp(ctx) - asymptotic_rhs(ctx), f"theorem ratio at {ctx}")
