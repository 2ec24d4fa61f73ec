"""SL(2,Z) action on the evaluation parameter and modularity experiments.

With X = 2 N pi i / xi, the proved asymptotics of J_N(E;e^{xi/N}) can be
read as a transformation law under eta = (a b; c d) acting by Moebius maps,
with weight carried by hbar_eta(X) = 2 c pi i/(c X + d).  This module
computes the ratio J_{cN+dp}(E;e^{2 pi i eta(X)}) / J_p(E;e^{2 pi i X}),
the conjectural right-hand side taken at C = 1 (qmccj_rhs), and the
undetermined constant C as the Richardson-extrapolated ratio of the two per
p (estimate_c; the interesting question being whether the estimates agree
across p).

For u = 0 the evaluation points are roots of unity and the comparison
target is the weight-3/2 law with the Bettin-Drappeau constant; those runs
are exploratory output, never assertions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .numkernel import DomainError, li2
from .qdilog import EvalContext
from .jones import jones_exp, jones_exp_unity
from .saddle import saddle_data


@dataclass(frozen=True)
class ModularMatrix:
    """An element of SL(2, Z); ratio experiments additionally require c > 0."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise DomainError(f"determinant must be 1, got {self.a * self.d - self.b * self.c}")

    @classmethod
    def from_string(cls, text: str) -> "ModularMatrix":
        parts = [int(t) for t in text.replace(";", ",").split(",")]
        if len(parts) != 4:
            raise DomainError(f"expected four integers a,b,c,d, got {text!r}")
        return cls(*parts)

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c},{self.d}"


def mobius(eta: ModularMatrix, x: complex) -> complex:
    """eta(x) = (a x + b)/(c x + d)."""
    denom = eta.c * x + eta.d
    if denom == 0:
        raise DomainError("x is the pole of the Moebius transformation")
    return (eta.a * x + eta.b) / denom


def hbar(eta: ModularMatrix, x: complex) -> complex:
    """hbar_eta(x) = 2 pi i/(x - eta^{-1}(oo)) = 2 c pi i/(c x + d)."""
    denom = eta.c * x + eta.d
    if denom == 0:
        raise DomainError("x is the pole of the Moebius transformation")
    return 2j * math.pi * eta.c / denom


def build_x(ctx: EvalContext) -> complex:
    """X = 2 N pi i / xi; Re X grows linearly with N."""
    return 2j * ctx.n * math.pi / ctx.xi


def build_x0(p: int, n: int) -> float:
    """X_0 = N/p, the u = 0 (root of unity) evaluation parameter."""
    if p < 1 or n < 1:
        raise DomainError("p and N must be positive integers")
    return n / p


def _require_experiment(eta: ModularMatrix, p: int, n: int) -> int:
    if eta.c <= 0:
        raise DomainError("ratio experiments require c > 0")
    m = eta.c * n + eta.d * p
    if m < 1:
        raise DomainError(f"cN + dp = {m} must be a positive integer")
    return m


def modularity_ratio(eta: ModularMatrix, ctx: EvalContext) -> complex:
    """The complex log of J_{cN+dp}(E; e^{2 pi i eta(X)}) / J_p(E; e^{2 pi i X})."""
    m = _require_experiment(eta, ctx.p, ctx.n)
    x = build_x(ctx)
    return jones_exp(m, 2j * math.pi * mobius(eta, x)) - jones_exp(ctx.p, 2j * math.pi * x)


def qmccj_rhs(eta: ModularMatrix, ctx: EvalContext) -> complex:
    """(sqrt(-pi)/(2 sinh(u/2))) (T_E(u)/hbar)^{1/2} exp(S_E(u)/hbar), as a complex log.

    This is the conjectural right-hand side at C = 1; estimate_c extrapolates C.

    Square-root branches as in the saddle module: the torsion root is the
    principal root of T_E (fixed by the positive-i inner root), and the
    1/hbar root is principal, positive real part for admissible X.
    """
    _require_experiment(eta, ctx.p, ctx.n)
    sd = saddle_data(ctx.u, ctx.p)
    hb = hbar(eta, build_x(ctx))
    pref = (
        cmath.sqrt(complex(-math.pi, 0.0))
        / (2.0 * math.sinh(0.5 * ctx.u))
        * cmath.sqrt(sd.t_e)
        * cmath.sqrt(1.0 / hb)
    )
    return cmath.log(pref) + sd.s_e / hb


@dataclass(frozen=True)
class CEstimate:
    """Per-p Richardson estimates of C_{E,eta}(u) with their cross-p spread."""

    eta: ModularMatrix
    u: float
    estimates: dict        # p -> complex
    spread: float          # max pairwise relative difference across p
    samples: list          # (p, N, log ratio, log rhs, ratio/rhs), logs as complex


def estimate_c(eta: ModularMatrix, u: float, p_list, n_list) -> CEstimate:
    """Extrapolate ratio/rhs(C=1) in 1/N, separately for each p.

    Richardson on the last two N values removes the proven O(1/N) term:
    C ~= (N2 R(N2) - N1 R(N1)) / (N2 - N1).
    """
    n_list = sorted(set(n_list))
    if len(n_list) < 2:
        raise DomainError("need at least two distinct N values to extrapolate")
    estimates = {}
    samples = []
    for p in p_list:
        ratios = []
        for n in n_list:
            ctx = EvalContext(u=u, p=p, n=n)
            ratio = modularity_ratio(eta, ctx)
            rhs = qmccj_rhs(eta, ctx)
            r = cmath.exp(ratio - rhs)
            ratios.append(r)
            samples.append((p, n, ratio, rhs, r))
        n1, n2 = n_list[-2], n_list[-1]
        r1, r2 = ratios[-2], ratios[-1]
        estimates[p] = (n2 * r2 - n1 * r1) / (n2 - n1)
    values = list(estimates.values())
    spread = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            denom = max(abs(values[i]), abs(values[j]))
            if denom > 0:
                spread = max(spread, abs(values[i] - values[j]) / denom)
    return CEstimate(eta=eta, u=u, estimates=estimates, spread=spread, samples=samples)


# ---------------------------------------------------------------------------
# u = 0: Zagier form at roots of unity
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def cusp_volume() -> float:
    """Vol(S^3 minus the figure-eight knot) = Im(Li2(e^{i pi/3}) - Li2(e^{-i pi/3})).

    The complex volume has zero Chern-Simons part here, so this single real
    number is the full exponent constant of the u = 0 modularity law.
    """
    return 2.0 * li2(cmath.exp(1j * math.pi / 3.0)).imag


def bettin_drappeau_c(eta: ModularMatrix) -> complex:
    """Closed-form C_{E,eta} = (c e^{3 pi i/4}/3^{1/4}) prod_g |w_g|^{2g/c}
    sum_{r<=c} prod_{g<=r} |w_g|^2, with w_g = 1 - e^{2 pi i (a g/c - 5/(6c))}."""
    if eta.c <= 0:
        raise DomainError("constant defined for c > 0")
    c, a = eta.c, eta.a
    omegas = [
        abs(1.0 - cmath.exp(2j * math.pi * (a * g / c - 5.0 / (6.0 * c))))
        for g in range(1, c + 1)
    ]
    product = 1.0
    for g, w in enumerate(omegas, start=1):
        product *= w ** (2.0 * g / c)
    tail = 0.0
    running = 1.0
    for w in omegas:
        running *= w * w
        tail += running
    return c * cmath.exp(0.75j * math.pi) / 3.0 ** 0.25 * product * tail


def zagier_rhs(eta: ModularMatrix, p: int, n: int) -> complex:
    """C_{E,eta} (2 pi / hbar(X_0))^{3/2} exp(i Vol / hbar(X_0)) at X_0 = N/p,
    as a complex log."""
    _require_experiment(eta, p, n)
    hb = hbar(eta, build_x0(p, n))
    pref = bettin_drappeau_c(eta) * (2.0 * math.pi / hb) ** 1.5
    # log|pref| as math.log(abs(pref)): cmath.log rounds it differently near
    # |pref| = 1, and the emitted zagier records are kept bit-for-bit stable
    return complex(math.log(abs(pref)), cmath.phase(pref)) + 1j * cusp_volume() / hb


def zagier_lhs(eta: ModularMatrix, p: int, n: int) -> complex:
    """The complex log of J_{cN+dp}(E;e^{2 pi i eta(X_0)}) / J_p(E;e^{2 pi i X_0}),
    exactly at roots of unity (integer exponent arithmetic, exact zero detection)."""
    m = _require_experiment(eta, p, n)
    denominator = jones_exp_unity(p, n, p)
    if denominator.real == -math.inf:
        raise DomainError("denominator colored Jones value vanishes")
    return jones_exp_unity(m, eta.a * n + eta.b * p, m) - denominator
