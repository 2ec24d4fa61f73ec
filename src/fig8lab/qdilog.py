"""Quantum dilogarithm by contour quadrature.

T_N(z) is a quarter of the integral of e^{(2z-1)x} / (x sinh(x) sinh(gamma x))
along the contour Omega = (-oo,-1] + upper unit semicircle + [1,oo), oriented
left to right, with gamma = xi/(2 N pi i) and xi = u + 2 p pi i.  The integral
converges on the strip -p/(2N) < Re z < 1 + p/(2N).  E_N(z) = exp(T_N(z)) is
returned in log form, which is the only representation that survives the
sizes reached downstream.

The same contour machinery evaluates the N-free integrals behind L_0, L_1,
L_2 so the closed forms of numkernel can be cross-checked against direct
quadrature.

Poles of the T_N integrand sit at k pi i (from sinh x) and at the zeros of
sinh(gamma x), i.e. x = -2 k N pi^2 / xi; for admissible (u, p, N) both
families stay far from Omega, so plain panel refinement is sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .numkernel import (
    DomainError,
    LogComplex,
    QuadratureError,
    lc_one_minus_exp,
    lc_one_plus_exp,
    l0_closed,
    l1_closed,
    l2_closed,
)

KAPPA = math.acosh(1.5)

_GAUSS_ORDER = 12
_MAX_REFINEMENTS = 3
_MAX_TAIL = 5.0e5


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
        if not 0.0 < self.u < KAPPA:
            raise DomainError(f"u must lie in (0, {KAPPA:.6f}), got {self.u}")
        if self.p < 1 or self.n < 1:
            raise DomainError("p and N must be positive integers")

    @property
    def xi(self) -> complex:
        return complex(self.u, 2.0 * math.pi * self.p)

    @property
    def gamma(self) -> complex:
        # xi / (2 N pi i) written so that Re gamma is exactly p/N
        return complex(self.p / self.n, -self.u / (2.0 * math.pi * self.n))


@dataclass(frozen=True)
class QuadratureConfig:
    """Contour refinement knobs.

    The truncation abscissa of each ray is derived per evaluation from the
    integrand's exponential decay rate, so the analytic tail bound stays
    below tol.
    """

    panels_per_unit: int = 1
    semicircle_panels: int = 8
    tol: float = 1.0e-10

    def refined(self) -> "QuadratureConfig":
        return replace(
            self,
            panels_per_unit=2 * self.panels_per_unit,
            semicircle_panels=2 * self.semicircle_panels,
        )


DEFAULT_CONFIG = QuadratureConfig()


# ---------------------------------------------------------------------------
# Panel quadrature plumbing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_nodes(a: float, b: float, n_panels: int):
    """Gauss-Legendre nodes/weights on n_panels equal panels of [a, b]."""
    x, w = _gauss_rule(_GAUSS_ORDER)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    weights = np.broadcast_to(half * w[None, :], (n_panels, x.size)).ravel()
    return nodes, weights


def _tail_abscissa(nu: float, tol: float) -> float:
    """Truncation point X with integral_X^oo 4 e^{-nu x}/x dx safely < tol."""
    if nu <= 0.0:
        raise DomainError("non-decaying integrand tail")
    x = (math.log(40.0 / (tol * nu)) + 4.0) / nu
    x = (math.log(40.0 / (tol * nu * max(x, 1.0))) + 4.0) / nu
    x = max(x, 10.0)
    if x > _MAX_TAIL:
        raise QuadratureError(
            f"tail cutoff {x:.3g} exceeds limit; z too close to the strip edge"
        )
    return x


def _ray_panel_count(length: float, ppu: int, osc_rate: float) -> int:
    density = max(ppu, math.ceil(max(osc_rate, 1e-12) / 4.0))
    return max(1, math.ceil(length * density))


def _contour_quadrature(z: complex, gamma: complex | None, cfg: QuadratureConfig,
                        pos_fn, neg_fn, circ_fn) -> complex:
    """Integrate along Omega with per-ray stable integrand forms."""
    g_re = gamma.real if gamma is not None else 0.0
    nu_pos = 2.0 + g_re - 2.0 * z.real
    nu_neg = 2.0 * z.real + g_re

    x_pos = _tail_abscissa(nu_pos, cfg.tol)
    x_neg = _tail_abscissa(nu_neg, cfg.tol)

    osc = 2.0 * abs(z.imag) + (abs(gamma.imag) if gamma is not None else 0.0)

    total = 0j
    nodes, weights = _panel_nodes(1.0, x_pos, _ray_panel_count(x_pos - 1.0, cfg.panels_per_unit, osc))
    total += np.sum(pos_fn(nodes) * weights)
    nodes, weights = _panel_nodes(-x_neg, -1.0, _ray_panel_count(x_neg - 1.0, cfg.panels_per_unit, osc))
    total += np.sum(neg_fn(nodes) * weights)

    n_circ = max(cfg.semicircle_panels, math.ceil(abs(2.0 * z - 1.0)))
    t_nodes, t_weights = _panel_nodes(0.0, math.pi, n_circ)
    total -= np.sum(circ_fn(t_nodes) * t_weights)  # semicircle runs t: pi -> 0
    return complex(total)


def _tn_raw(z: complex, gamma: complex, cfg: QuadratureConfig) -> complex:
    two_z = 2.0 * z

    def pos(x):
        # 1/sinh factored as 2 e^{-x}/(1-e^{-2x}) to avoid overflow on the ray
        expo = (two_z - 2.0 - gamma) * x
        return 4.0 * np.exp(expo) / (x * (1.0 - np.exp(-2.0 * x)) * (1.0 - np.exp(-2.0 * gamma * x)))

    def neg(x):
        expo = (two_z + gamma) * x
        return 4.0 * np.exp(expo) / (x * (1.0 - np.exp(2.0 * x)) * (1.0 - np.exp(2.0 * gamma * x)))

    def circ(t):
        x = np.exp(1j * t)
        return np.exp((two_z - 1.0) * x) / (x * np.sinh(x) * np.sinh(gamma * x)) * 1j * x

    return 0.25 * _contour_quadrature(z, gamma, cfg, pos, neg, circ)


def _with_refinement(evaluate, cfg: QuadratureConfig) -> complex:
    value = evaluate(cfg)
    fine = cfg
    for _ in range(_MAX_REFINEMENTS):
        fine = fine.refined()
        refined = evaluate(fine)
        if abs(refined - value) < cfg.tol:
            return refined
        value = refined
    raise QuadratureError("quadrature failed to meet tol at maximum refinement")


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def t_n(z: complex, ctx: EvalContext, cfg: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """Quantum dilogarithm T_N(z) on -p/(2N) < Re z < 1 + p/(2N)."""
    z = complex(z)
    half_gamma = 0.5 * ctx.p / ctx.n
    if not -half_gamma < z.real < 1.0 + half_gamma:
        raise DomainError(
            f"Re z = {z.real} outside convergence strip (-{half_gamma}, {1 + half_gamma})"
        )
    return _with_refinement(lambda c: _tn_raw(z, ctx.gamma, c), cfg)


def e_n(z: complex, ctx: EvalContext, cfg: QuadratureConfig = DEFAULT_CONFIG) -> LogComplex:
    """E_N(z) = exp(T_N(z)) in log form: logmag is exactly Re T_N(z)."""
    return LogComplex.from_exponent(t_n(z, ctx, cfg))


_L_CLOSED = {0: l0_closed, 1: l1_closed, 2: l2_closed}


def l_k_quadrature(k: int, z: complex, cfg: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """L_k(z) by direct contour quadrature, k in {0, 1, 2}, 0 < Re z < 1."""
    if k not in (0, 1, 2):
        raise DomainError(f"k must be 0, 1 or 2, got {k}")
    z = complex(z)
    if not 0.0 < z.real < 1.0:
        raise DomainError(f"Re z = {z.real} outside (0, 1)")
    two_z = 2.0 * z

    def pos(x):
        return 2.0 * np.exp((two_z - 2.0) * x) / (x ** k * (1.0 - np.exp(-2.0 * x)))

    def neg(x):
        return -2.0 * np.exp(two_z * x) / (x ** k * (1.0 - np.exp(2.0 * x)))

    def circ(t):
        x = np.exp(1j * t)
        return np.exp((two_z - 1.0) * x) / (x ** k * np.sinh(x)) * 1j * x

    prefactor = {0: 1.0, 1: -0.5, 2: 0.5j * math.pi}[k]
    value = _with_refinement(
        lambda c: _contour_quadrature(z, None, c, pos, neg, circ), cfg
    )
    return prefactor * value


# ---------------------------------------------------------------------------
# Functional-equation residuals
# ---------------------------------------------------------------------------

def _relative_residual(lhs: LogComplex, rhs: LogComplex) -> float:
    ratio = (lhs / rhs).to_complex()
    return abs(ratio - 1.0)


def check_shift_identity(z: complex, ctx: EvalContext,
                         cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Residual of E_N(z - gamma/2) / E_N(z + gamma/2) = 1 - e^{2 pi i z}."""
    z = complex(z)
    if not 0.0 < z.real < 1.0:
        raise DomainError("shift identity requires 0 < Re z < 1")
    rhs = lc_one_minus_exp(2j * math.pi * z)
    if rhs.is_zero or rhs.logmag < -7.0:
        raise DomainError("z too close to an integer: identity RHS vanishes")
    half = 0.5 * ctx.gamma
    lhs = e_n(z - half, ctx, cfg) / e_n(z + half, ctx, cfg)
    return _relative_residual(lhs, rhs)


def check_gamma_half(w: complex, ctx: EvalContext,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Residual of E_N(w+gamma/2)/E_N(w-gamma/2+1) = (1-e^{2 pi i w/gamma})/(1-e^{2 pi i w})."""
    w = complex(w)
    gamma = ctx.gamma
    if not abs(w.real) < gamma.real:
        raise DomainError("gamma/2 identity requires |Re w| < Re gamma")
    denom = lc_one_minus_exp(2j * math.pi * w)
    if denom.is_zero or denom.logmag < -9.0:
        raise DomainError("identity denominator 1 - e^{2 pi i w} vanishes")
    rhs = lc_one_minus_exp(2j * math.pi * w / gamma) / denom
    half = 0.5 * gamma
    lhs = e_n(w + half, ctx, cfg) / e_n(w - half + 1.0, ctx, cfg)
    return _relative_residual(lhs, rhs)


def check_unit_shift(z: complex, ctx: EvalContext,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Residual of E_N(z)/E_N(z+1) = 1 + e^{2 pi i z/gamma}."""
    z = complex(z)
    gamma = ctx.gamma
    if not abs(z.real) < 0.5 * gamma.real:
        raise DomainError("unit shift identity requires |Re z| < Re gamma / 2")
    rhs = lc_one_plus_exp(2j * math.pi * z / gamma)
    lhs = e_n(z, ctx, cfg) / e_n(z + 1.0, ctx, cfg)
    return _relative_residual(lhs, rhs)
