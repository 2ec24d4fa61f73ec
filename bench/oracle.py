"""Reference values for the benchmark, computed with mpmath only.

Nothing here imports fig8lab: every formula is written out again from its
mathematical definition and evaluated in arbitrary precision, so a float
error in the package cannot hide in its own reference.  Evaluations whose
float counterpart cancels catastrophically run under ``converged``, which
doubles the working precision until two successive results agree.

Inputs are the same float values the package receives (u = 0.2 means the
binary double nearest 0.2); pi and the exponentials are exact to the
working precision.
"""

from __future__ import annotations

import math

import mpmath as mp

AGREE_DIGITS = 25
START_DPS = 30
MAX_DPS = 2000


def converged(evaluate, start_dps: int = START_DPS):
    """evaluate() at doubling precision until two results agree to AGREE_DIGITS.

    evaluate may return one mpmath number or a tuple of them; a tuple has
    converged when every component has.
    """
    previous = None
    dps = start_dps
    while dps <= MAX_DPS:
        with mp.workdps(dps):
            value = evaluate()
            parts = value if isinstance(value, tuple) else (value,)
            if previous is not None and all(
                abs(a - b) <= abs(a) * mp.mpf(10) ** (-AGREE_DIGITS) for a, b in zip(parts, previous)
            ):
                return value
            previous = parts
        dps *= 2
    raise ArithmeticError(f"no agreement to {AGREE_DIGITS} digits below dps {MAX_DPS}")


# ---------------------------------------------------------------------------
# Colored Jones polynomial of the figure-eight knot
# ---------------------------------------------------------------------------

def jones_sum(n: int, w):
    """J_n(E; e^w) = sum_{k<n} e^{-k n w} prod_{l<=k} (1 - e^{(n+l)w})(1 - e^{(n-l)w})."""
    w = mp.mpc(w)
    q, q_inv = mp.exp(w), mp.exp(-w)
    q_n, q_minus_n = mp.exp(n * w), mp.exp(-n * w)
    total = product = mp.mpc(1)
    q_l = q_l_inv = weight = mp.mpc(1)
    for _ in range(1, n):
        q_l *= q
        q_l_inv *= q_inv
        weight *= q_minus_n
        product *= (1 - q_n * q_l) * (1 - q_n * q_l_inv)
        total += weight * product
    return total


def jones_root_of_unity(n: int, num: int, den: int):
    """J_n(E; e^{2 pi i num/den}) with exponents reduced exactly modulo den."""
    def unit(r: int):
        return mp.expjpi(mp.mpf(2 * (r % den)) / den)

    total = product = mp.mpc(1)
    for k in range(1, n):
        for e in (n + k, n - k):
            r = (e * num) % den
            product = mp.mpc(0) if r == 0 else product * (1 - unit(r))
        if product == 0:
            break
        total += unit(-k * n * num) * product
    return total


def naive_jones_coefficients(n: int) -> dict:
    """J_n(E; q) expanded as a Laurent polynomial: {exponent: integer coefficient}."""
    def mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    total = {}
    product = {0: 1}
    for k in range(n):
        if k:
            product = mul(product, {0: 1, n + k: -1})
            product = mul(product, {0: 1, n - k: -1})
        for e, c in mul(product, {-k * n: 1}).items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def naive_jones(n: int, w):
    """J_n(E; e^w) from the integer coefficients of the expanded polynomial."""
    return mp.fsum(c * mp.exp(e * mp.mpc(w)) for e, c in naive_jones_coefficients(n).items())


# ---------------------------------------------------------------------------
# Saddle data: F, sigma_0, S_E, T_E
# ---------------------------------------------------------------------------

def xi_of(u: float, p: int):
    return mp.mpc(u, 2 * mp.pi * p)


def theta_of(u: float):
    """Im varphi(u) = -arccos(cosh u - 1/2), in (-pi/3, 0]."""
    return -mp.acos(min(mp.cosh(u) - mp.mpf(1) / 2, mp.mpf(1)))


def inner_root(u: float):
    """sqrt((2 cosh u + 1)(2 cosh u - 3)) as a positive multiple of i."""
    c = mp.cosh(u)
    return mp.mpc(0, mp.sqrt((2 * c + 1) * (3 - 2 * c)))


def sigma0(u: float, p: int):
    return mp.mpc(0, theta_of(u) + 2 * mp.pi) / xi_of(u, p)


def potential(z, u: float, p: int):
    """F(z) in the small-argument form valid on U_0."""
    xi = xi_of(u, p)
    li2 = lambda x: mp.polylog(2, x)
    return (li2(mp.exp(-xi * (1 + z))) - li2(mp.exp(-xi * (1 - z)))) / xi + u * z - 2j * mp.pi


def shifted_potential(z, m: int, u: float, p: int):
    """Phi_m(z) = F(z - 2 m pi i / xi)."""
    return potential(z - 2j * m * mp.pi / xi_of(u, p), u, p)


def growth_rate(u: float):
    """S_E(u) = Li2(e^{-u-varphi}) - Li2(e^{-u+varphi}) + u (varphi + 2 pi i)."""
    phi = mp.mpc(0, theta_of(u))
    return (mp.polylog(2, mp.exp(-u - phi)) - mp.polylog(2, mp.exp(-u + phi))
            + u * (phi + 2j * mp.pi))


def theorem_rhs(u: float, p: int, n: int):
    """(sqrt(-pi)/(2 sinh(u/2))) T_E^{1/2} J_p(E;e^{4N pi^2/xi}) (N/xi)^{1/2} e^{(N/xi) S_E}."""
    xi = xi_of(u, p)
    prefactor = mp.sqrt(mp.mpc(-mp.pi, 0)) * mp.sqrt(2 / inner_root(u)) / (2 * mp.sinh(u / 2))
    return (prefactor * mp.sqrt(n / xi) * jones_sum(p, 4 * n * mp.pi ** 2 / xi)
            * mp.exp(n / xi * growth_rate(u)))


# ---------------------------------------------------------------------------
# SL(2, Z) experiments
# ---------------------------------------------------------------------------

def modularity_sample(eta, u: float, p: int, n: int):
    """(ratio, rhs) of the eta-transformation experiment at C = 1."""
    a, b, c, d = eta
    xi = xi_of(u, p)
    x = 2j * n * mp.pi / xi
    ratio = (jones_sum(c * n + d * p, 2j * mp.pi * (a * x + b) / (c * x + d))
             / jones_sum(p, 2j * mp.pi * x))
    hbar = 2j * mp.pi * c / (c * x + d)
    rhs = (mp.sqrt(mp.mpc(-mp.pi, 0)) / (2 * mp.sinh(u / 2)) * mp.sqrt(2 / inner_root(u))
           * mp.sqrt(1 / hbar) * mp.exp(growth_rate(u) / hbar))
    return ratio, rhs


def cusp_volume():
    return 2 * mp.im(mp.polylog(2, mp.expjpi(mp.mpf(1) / 3)))


def bettin_drappeau_constant(eta):
    a, c = eta[0], eta[2]
    omegas = [abs(1 - mp.expjpi(2 * (mp.mpf(a * g) / c - mp.mpf(5) / (6 * c))))
              for g in range(1, c + 1)]
    product = mp.fprod(w ** (mp.mpf(2 * g) / c) for g, w in enumerate(omegas, start=1))
    tail, running = mp.mpf(0), mp.mpf(1)
    for w in omegas:
        running *= w * w
        tail += running
    return c * mp.expjpi(mp.mpf(3) / 4) / mp.mpf(3) ** (mp.mpf(1) / 4) * product * tail


def zagier_sample(eta, p: int, n: int):
    """(lhs, rhs) of the u = 0 root-of-unity comparison at X_0 = N/p."""
    a, b, c, d = eta
    m = c * n + d * p
    lhs = jones_root_of_unity(m, a * n + b * p, m) / jones_root_of_unity(p, n, p)
    hbar = 2j * mp.pi * c / (c * mp.mpf(n) / p + d)
    rhs = (bettin_drappeau_constant(eta) * (2 * mp.pi / hbar) ** mp.mpf(1.5)
           * mp.exp(1j * cusp_volume() / hbar))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Closed forms behind the lemma suite
# ---------------------------------------------------------------------------

def l_k_closed(k: int, z):
    """L_0 = -2 pi i/(1 - e^{-2 pi i z}), L_1 = log(1 - e^{2 pi i z}), L_2 = Li2(e^{2 pi i z})."""
    z = mp.mpc(z)
    if k == 0:
        return -2j * mp.pi / (1 - mp.exp(-2j * mp.pi * z))
    if k == 1:
        return mp.log(1 - mp.exp(2j * mp.pi * z))
    return mp.polylog(2, mp.exp(2j * mp.pi * z))


def c_pm(u: float, p: int, m: int):
    """c_{p,m}(u) with q = u((6m+5) pi + 2 theta)/(2 p pi)."""
    q = u * ((6 * m + 5) * mp.pi + 2 * theta_of(u)) / (2 * p * mp.pi)
    return mp.re(mp.polylog(2, -mp.exp(-u - q)) - mp.polylog(2, -mp.exp(-u + q))) + u * q - 2 * p * mp.pi ** 2


def c_pm_derivative_bound():
    kappa = mp.acosh(mp.mpf(3) / 2)
    return kappa / 2 * mp.log(3 + 2 * mp.cosh(3 * kappa)) - 2 * mp.pi ** 2


def p12_margin(u: float, p: int, m: int):
    """Re F(sigma_0) - Re Phi_m(P12), P12 = (2m+1)/(2p) + conj(xi)/(p pi) Im sigma_m."""
    xi = xi_of(u, p)
    s0 = sigma0(u, p)
    sigma_m = s0 + 2j * m * mp.pi / xi
    p12 = mp.mpf(2 * m + 1) / (2 * p) + mp.conj(xi) / (p * mp.pi) * mp.im(sigma_m)
    return mp.re(potential(s0, u, p)) - mp.re(shifted_potential(p12, m, u, p))


def log_parts(value) -> tuple:
    """(log|v|, arg v) as floats; a LogComplex-style pair."""
    return float(mp.log(abs(value))), float(mp.arg(value))


def log_relative_error(logmag: float, phase: float, ref: tuple) -> float:
    """|v/ref - 1| for v = e^{logmag + i phase} and ref = (log|ref|, arg ref)."""
    d_mag = logmag - ref[0]
    d_phase = math.remainder(phase - ref[1], 2.0 * math.pi)
    if d_mag > 700.0:
        return math.inf
    return abs(complex(math.exp(d_mag) * math.cos(d_phase) - 1.0, math.exp(d_mag) * math.sin(d_phase)))
