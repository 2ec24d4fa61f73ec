"""SL(2,Z) action on the evaluation parameter and modularity experiments.

With X = 2 N pi i / xi, the proved asymptotics of J_N(E;e^{xi/N}) can be
read as a transformation law under eta = (a b; c d) acting by Moebius maps,
with weight carried by hbar_eta(X) = 2 c pi i/(c X + d).  modularity_sample
gives the ratio J_{cN+dp}(E;e^{2 pi i eta(X)}) / J_p(E;e^{2 pi i X}) with the
conjectural right-hand side at C = 1, and estimate_c the undetermined
constant C as their Richardson-extrapolated quotient per p (the interesting
question being whether the estimates agree across p).  Since 2 pi i X =
-4 N pi^2/xi and the knot is amphichiral, the denominator is the theorem's
dual factor, lc_sum(jones.beta_factors(ctx)), and at eta = S the right-hand
side is the theorem's SaddleData.rhs(N/xi).

For u = 0 the evaluation points are roots of unity, and zagier_sample pairs
the ratio with the weight-3/2 law with the Bettin-Drappeau constant; those
runs are exploratory output, never assertions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .numkernel import DomainError, exp_of_log, lc_sum, li2
from .qdilog import EvalContext, require_counts, require_integers
from .jones import beta_factors, jones_exp, jones_exp_unity
from .saddle import saddle_data


@dataclass(frozen=True)
class ModularMatrix:
    """An element of SL(2, Z); ratio experiments additionally require c > 0."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        require_integers("a, b, c and d", self.a, self.b, self.c, self.d)
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


def _denominator(eta: ModularMatrix, x: complex) -> complex:
    """c x + d, unless x is the pole of eta."""
    denom = eta.c * x + eta.d
    if denom == 0:
        raise DomainError("x is the pole of the Moebius transformation")
    return denom


def mobius(eta: ModularMatrix, x: complex) -> complex:
    """eta(x) = (a x + b)/(c x + d)."""
    return (eta.a * x + eta.b) / _denominator(eta, x)


def hbar(eta: ModularMatrix, x: complex) -> complex:
    """hbar_eta(x) = 2 pi i/(x - eta^{-1}(oo)) = 2 c pi i/(c x + d)."""
    return 2j * math.pi * eta.c / _denominator(eta, x)


def build_x(ctx: EvalContext) -> complex:
    """X = 2 N pi i / xi; Re X grows linearly with N."""
    return 2j * ctx.n * math.pi / ctx.xi


def _require_experiment(eta: ModularMatrix, p: int, n: int) -> int:
    """cN + dp, once p, N >= 1, c > 0 and cN + dp >= 1 are checked."""
    require_counts("p and N", p, n)
    if eta.c <= 0:
        raise DomainError("ratio experiments require c > 0")
    m = eta.c * n + eta.d * p
    if m < 1:
        raise DomainError(f"cN + dp = {m} must be a positive integer")
    return m


def modularity_sample(eta: ModularMatrix, ctx: EvalContext) -> tuple[complex, complex]:
    """(log ratio, log rhs) at X = 2 N pi i / xi, as complex logs.

    The ratio is J_{cN+dp}(E; e^{2 pi i eta(X)}) / J_p(E; e^{2 pi i X}), its
    denominator the dual factor (see the module docstring); the rhs is the
    conjectural (sqrt(-pi)/(2 sinh(u/2))) (T_E(u)/hbar)^{1/2} exp(S_E(u)/hbar)
    at C = 1, SaddleData.rhs at h = 1/hbar (square-root branches there).
    """
    m = _require_experiment(eta, ctx.p, ctx.n)
    x = build_x(ctx)
    ratio = jones_exp(m, 2j * math.pi * mobius(eta, x)) - lc_sum(beta_factors(ctx))
    return ratio, saddle_data(ctx.u, ctx.p).rhs(1.0 / hbar(eta, x))


@dataclass(frozen=True)
class CEstimate:
    """Per-p Richardson estimates of C_{E,eta}(u) with their cross-p spread."""

    estimates: dict        # p -> complex
    spread: float          # max pairwise relative difference across p
    samples: list          # (p, N, log ratio, log rhs, ratio/rhs), logs as complex


def estimate_c(eta: ModularMatrix, u: float, p_list, n_list) -> CEstimate:
    """Extrapolate ratio/rhs(C=1) in 1/N, separately for each p.

    Richardson on the last two N values removes the proven O(1/N) term:
    C ~= (N2 R(N2) - N1 R(N1)) / (N2 - N1).  A repeated p or N counts once.
    """
    n_list = sorted(set(n_list))
    if len(n_list) < 2:
        raise DomainError("need at least two distinct N values to extrapolate")
    p_list = list(dict.fromkeys(p_list))
    if not p_list:
        raise DomainError("need at least one p value")
    estimates = {}
    samples = []
    for p in p_list:
        ratios = []
        for n in n_list:
            ctx = EvalContext(u=u, p=p, n=n)
            ratio, rhs = modularity_sample(eta, ctx)
            r = exp_of_log(ratio - rhs, f"modularity ratio / rhs at {ctx}")
            ratios.append(r)
            samples.append((p, n, ratio, rhs, r))
        n1, n2 = n_list[-2], n_list[-1]
        r1, r2 = ratios[-2], ratios[-1]
        estimates[p] = (n2 * r2 - n1 * r1) / (n2 - n1)
    pairs = [(abs(a - b), max(abs(a), abs(b))) for a, b in combinations(estimates.values(), 2)]
    spread = max([0.0] + [diff / denom for diff, denom in pairs if denom > 0])
    return CEstimate(estimates=estimates, spread=spread, samples=samples)


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


def zagier_sample(eta: ModularMatrix, p: int, n: int) -> tuple[complex, complex]:
    """(log lhs, log rhs) at X_0 = N/p, the u = 0 (root of unity) parameter.

    The lhs J_{cN+dp}(E;e^{2 pi i eta(X_0)}) / J_p(E;e^{2 pi i X_0}) is exact
    (integer exponent arithmetic, exact zero detection), and its denominator
    never vanishes: q = e^{2 pi i N/p} has q^p = 1, so J_p(E; q) =
    sum_k prod_{l<=k} |1 - q^l|^2 >= 1 (its k = 0 term is 1).  The rhs is
    C_{E,eta} (2 pi / hbar(X_0))^{3/2} exp(i Vol / hbar(X_0)).
    """
    m = _require_experiment(eta, p, n)
    lhs = jones_exp_unity(m, eta.a * n + eta.b * p, m) - jones_exp_unity(p, n, p)
    hb = hbar(eta, n / p)
    pref = bettin_drappeau_c(eta) * (2.0 * math.pi / hb) ** 1.5
    # log|pref| as math.log(abs(pref)): cmath.log rounds it differently near
    # |pref| = 1, and the emitted zagier records are kept bit-for-bit stable
    return lhs, complex(math.log(abs(pref)), cmath.phase(pref)) + 1j * cusp_volume() / hb
