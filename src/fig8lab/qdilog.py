"""Quantum dilogarithm by contour quadrature.

T_N(z) is a quarter of the integral of e^{(2z-1)x} / (x sinh(x) sinh(gamma x))
along the contour Omega = (-oo,-1] + upper unit semicircle + [1,oo), oriented
left to right, with gamma = xi/(2 N pi i) and xi = u + 2 p pi i.  The integral
converges on the strip -p/(2N) < Re z < 1 + p/(2N).  E_N(z) = exp(T_N(z)) is
only ever used through its complex log T_N(z), which is the only
representation that survives the sizes reached downstream.  The same driver
evaluates the N-free integrals behind L_0, L_1, L_2, to cross-check the
closed forms of numkernel.

One batched driver serves every z.  Each ray is cut where the analytic tail
bound drops below tol and covered by Gauss panels graded to the integrand
(see _RATE_WIDTH), so a point near the strip edge, whose ray is long, needs
few of them.  The nodes of all points are evaluated in one numpy call per ray
and level and summed back per point.  Refinement level k splits each graded
ray panel into 2^k Gauss panels and the semicircle into 8 * 2^k.  Level 0 is
followed by levels 1, 2, 3 until a point moves by less than tol (at most 3
refinements); only unconverged points go on.  tol (default TOL) is the one
accuracy setting: it also sets where each ray is cut.

Poles of the T_N integrand sit at k pi i (from sinh x) and at the zeros of
sinh(gamma x), i.e. x = -2 k N pi^2 / xi; for admissible (u, p, N) both
families stay far from Omega, so plain panel refinement is sufficient.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numkernel import DomainError, QuadratureError, lc_one_minus_exp
from .numkernel import l0_closed, l1_closed, l2_closed

KAPPA = math.acosh(1.5)


def require_u(u: float, closed_end: bool = False) -> None:
    """Raise DomainError unless 0 < u < kappa (0 < u <= kappa with closed_end)."""
    hi_ok = u <= KAPPA if closed_end else u < KAPPA
    if not (0.0 < u and hi_ok):
        end = "]" if closed_end else ")"
        raise DomainError(f"u must lie in (0, {KAPPA:.6f}{end}, got {u}")


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)
TOL = 1.0e-10
_MAX_REFINEMENTS = 3
_MAX_TAIL = 5.0e5
# Ray panels double in width from [1, 2] up to _RATE_WIDTH / (|a| + |Im gamma|), a
# the ray's exponential rate.  12-point Gauss then errs near 5.8^-24 = 5e-19 on
# [x, 2x] (the pole of 1/x at 0) and 3e-15 on e^{a x} over a width of 8/|a|.
_RATE_WIDTH = 8.0


@dataclass(frozen=True)
class EvalContext:
    """The evaluation triple (u, p, N) with xi = u + 2 p pi i derived.

    Requires 0 < u < kappa = arccosh(3/2) and positive integers p, N.
    Re gamma equals p/N exactly by construction.
    """

    u: float
    p: int
    n: int

    def __post_init__(self):
        require_u(self.u)
        if self.p < 1 or self.n < 1:
            raise DomainError("p and N must be positive integers")

    @property
    def xi(self) -> complex:
        return complex(self.u, 2.0 * math.pi * self.p)

    @property
    def gamma(self) -> complex:
        # xi / (2 N pi i) written so that Re gamma is exactly p/N
        return complex(self.p / self.n, -self.u / (2.0 * math.pi * self.n))


# ---------------------------------------------------------------------------
# Batched panel quadrature
# ---------------------------------------------------------------------------

def _tail_abscissa(nu: np.ndarray, tol: float) -> np.ndarray:
    """Truncation points X with integral_X^oo 4 e^{-nu x}/x dx safely < tol."""
    x = (np.log(40.0 / (tol * nu)) + 4.0) / nu
    x = (np.log(40.0 / (tol * nu * np.maximum(x, 1.0))) + 4.0) / nu
    return np.maximum(x, 10.0)


def _ray_sums(x_end, cap, rate, split: int, ray) -> np.ndarray:
    """Per-point Gauss sums of e^{rate x} ray(x) over graded panels of [1, x_end].

    The panel edges are 2^j until a panel would be wider than the point's
    cap, then evenly spaced by cap.  Each panel is split into `split` equal
    Gauss panels.
    """
    k = np.maximum(np.ceil(np.log2(cap)), 0.0)
    x_k = 2.0 ** k
    count = np.where(x_k >= x_end, np.ceil(np.log2(x_end)),
                     k + np.ceil((x_end - x_k) / cap)).astype(np.int64)
    owner = np.repeat(np.arange(count.size), count)
    j = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    k, cap, x_end = k[owner], cap[owner], x_end[owner]

    def edge(i):
        return np.minimum(2.0 ** np.minimum(i, k) + np.maximum(i - k, 0.0) * cap, x_end)

    left = edge(j)
    half = (edge(j + 1) - left) / (2 * split)
    mid = left[:, None] + half[:, None] * np.arange(1, 2 * split, 2)
    nodes = (mid[:, :, None] + half[:, None, None] * _GAUSS_X).ravel()
    values = np.exp(np.repeat(rate, count * split * _GAUSS_X.size) * nodes) * ray(nodes)
    panels = half * np.dot(values.reshape(left.size, -1), np.tile(_GAUSS_W, split))
    return np.add.reduceat(panels, np.cumsum(count) - count)


def _contour(z: np.ndarray, gamma: complex, tol: float, ray, circ,
             neg_sign: float, where: str) -> np.ndarray:
    """Per-point integrals along Omega, with the per-point two-level check.

    The integrand is e^{(2z-1) x} circ(x) on the semicircle.  On the rays it
    is rewritten as e^{(2z-2-gamma) x} ray(x) on [1, oo), and as
    neg_sign e^{-(2z+gamma) x} ray(x) on the negative ray mirrored onto
    [1, oo) (gamma = 0 for the L_k integrals).
    """
    if not tol > 0.0:
        raise DomainError(f"quadrature tol must be positive, got {tol}")
    if not z.size:
        return np.zeros(0, dtype=complex)
    rates = (2.0 * z - 2.0 - gamma, -(2.0 * z + gamma))
    ends = [_tail_abscissa(-rate.real, tol) for rate in rates]
    far = (ends[0] > _MAX_TAIL) | (ends[1] > _MAX_TAIL)
    if far.any():
        raise QuadratureError(f"tail cutoff exceeds {_MAX_TAIL:.3g}: z = {z[far][0]} "
                              f"too close to the strip edge at {where}")
    caps = [_RATE_WIDTH / (np.abs(rate) + abs(gamma.imag)) for rate in rates]

    def evaluate(level: int, idx: np.ndarray) -> np.ndarray:
        total = np.zeros(idx.size, dtype=complex)
        for sign, rate, end, cap in zip((1.0, neg_sign), rates, ends, caps):
            total += sign * _ray_sums(end[idx], cap[idx], rate[idx], 1 << level, ray)
        # points with the same panel count share the semicircle nodes x = e^{it}
        n_circ = np.maximum(np.ceil(np.abs(2.0 * z[idx] - 1.0)).astype(int), 8 << level)
        for n in set(n_circ.tolist()):  # np.unique would import numpy.ma, 10-20 ms
            half = 0.5 * math.pi / n
            x = np.exp(1j * half * (2 * np.arange(n)[:, None] + 1 + _GAUSS_X).ravel())
            sel = n_circ == n
            # the semicircle runs t: pi -> 0, and dx = i x dt
            total[sel] -= np.dot(np.exp(np.outer(2.0 * z[idx[sel]] - 1.0, x)),
                                 1j * x * np.tile(half * _GAUSS_W, n) * circ(x))
        return total

    active = np.arange(z.size)
    value = evaluate(0, active)
    best = np.full(z.size, np.inf)
    for level in range(1, _MAX_REFINEMENTS + 1):
        refined = evaluate(level, active)
        delta = np.abs(refined - value[active])
        best[active] = np.minimum(best[active], delta)
        value[active] = refined
        active = active[delta >= tol]
        if not active.size:
            return value
    i = active[0]
    raise QuadratureError(
        f"quadrature failed to meet tol at maximum refinement: z = {z[i]} at {where}, "
        f"level {level}, best |delta| = {best[i]:.3g} >= tol = {tol:.3g}"
    )


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def t_n(z, ctx: EvalContext, tol: float = TOL):
    """Quantum dilogarithm T_N(z) on -p/(2N) < Re z < 1 + p/(2N).

    z is a complex scalar (a complex is returned) or an array of points at
    the same (u, p, N), integrated in one batched quadrature (an array of
    the same shape is returned).
    """
    half_gamma = 0.5 * ctx.p / ctx.n
    gamma = ctx.gamma

    def ray(x):
        # 1/sinh factored as 2 e^{-x}/(1-e^{-2x}) to avoid overflow on the ray
        return 4.0 / (x * (1.0 - np.exp(-2.0 * x)) * (1.0 - np.exp(-2.0 * gamma * x)))

    def circ(x):
        return 1.0 / (x * np.sinh(x) * np.sinh(gamma * x))

    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    outside = ~((-half_gamma < flat.real) & (flat.real < 1.0 + half_gamma))
    if outside.any():
        raise DomainError(f"Re z = {flat[outside][0].real} outside convergence strip "
                          f"(-{half_gamma}, {1 + half_gamma})")
    values = 0.25 * _contour(flat, gamma, tol, ray, circ, -1.0,
                             f"(u, p, N) = ({ctx.u}, {ctx.p}, {ctx.n})")
    return complex(values[0]) if zs.ndim == 0 else values.reshape(zs.shape)


def e_n(z: complex, ctx: EvalContext) -> complex:
    """The complex log of E_N(z) = exp(T_N(z)), that is T_N at one point."""
    return t_n(complex(z), ctx)


def e_n_ratio(num: complex, den: complex, ctx: EvalContext, tol: float = TOL) -> complex:
    """The complex log of E_N(num) / E_N(den), both T_N values from one batched call."""
    t_num, t_den = t_n([num, den], ctx, tol)
    return t_num - t_den


def l_k_quadrature(k: int, z: complex, tol: float = TOL) -> complex:
    """L_k(z) by direct contour quadrature, k in {0, 1, 2}, 0 < Re z < 1."""
    if k not in (0, 1, 2):
        raise DomainError(f"k must be 0, 1 or 2, got {k}")
    z = complex(z)
    if not 0.0 < z.real < 1.0:
        raise DomainError(f"Re z = {z.real} outside (0, 1)")

    def ray(x):
        return 2.0 / (x ** k * (1.0 - np.exp(-2.0 * x)))

    def circ(x):
        return 1.0 / (x ** k * np.sinh(x))

    prefactor = {0: 1.0, 1: -0.5, 2: 0.5j * math.pi}[k]
    # on the negative ray x^k flips sign for odd k
    value = _contour(np.array([z]), 0j, tol, ray, circ, -(-1.0) ** k, f"L_{k}")
    return prefactor * complex(value[0])


# ---------------------------------------------------------------------------
# Functional-equation residuals
# ---------------------------------------------------------------------------

def check_shift_identity(z: complex, ctx: EvalContext, tol: float = TOL) -> float:
    """Residual of E_N(z - gamma/2) / E_N(z + gamma/2) = 1 - e^{2 pi i z}."""
    z = complex(z)
    if not 0.0 < z.real < 1.0:
        raise DomainError("shift identity requires 0 < Re z < 1")
    rhs = lc_one_minus_exp(2j * math.pi * z)
    if rhs.real < -7.0:
        raise DomainError("z too close to an integer: identity RHS vanishes")
    half = 0.5 * ctx.gamma
    lhs = e_n_ratio(z - half, z + half, ctx, tol)
    return abs(cmath.exp(lhs - rhs) - 1.0)


def check_gamma_half(w: complex, ctx: EvalContext, tol: float = TOL) -> float:
    """Residual of E_N(w+gamma/2)/E_N(w-gamma/2+1) = (1-e^{2 pi i w/gamma})/(1-e^{2 pi i w})."""
    w = complex(w)
    gamma = ctx.gamma
    if not abs(w.real) < gamma.real:
        raise DomainError("gamma/2 identity requires |Re w| < Re gamma")
    denom = lc_one_minus_exp(2j * math.pi * w)
    if denom.real < -9.0:
        raise DomainError("identity denominator 1 - e^{2 pi i w} vanishes")
    rhs = lc_one_minus_exp(2j * math.pi * w / gamma) - denom
    half = 0.5 * gamma
    lhs = e_n_ratio(w + half, w - half + 1.0, ctx, tol)
    return abs(cmath.exp(lhs - rhs) - 1.0)


def check_unit_shift(z: complex, ctx: EvalContext, tol: float = TOL) -> float:
    """Residual of E_N(z)/E_N(z+1) = 1 + e^{2 pi i z/gamma}."""
    z = complex(z)
    gamma = ctx.gamma
    if not abs(z.real) < 0.5 * gamma.real:
        raise DomainError("unit shift identity requires |Re z| < Re gamma / 2")
    # 1 + e^v = 1 - e^{v + i pi}
    rhs = lc_one_minus_exp(2j * math.pi * z / gamma + 1j * math.pi)
    lhs = e_n_ratio(z, z + 1.0, ctx, tol)
    return abs(cmath.exp(lhs - rhs) - 1.0)
