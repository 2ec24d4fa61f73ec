"""Reference forms, written out independently of the library's routes.

Shared by the test modules; the library keeps one route for each quantity,
and these are the second routes its tests compare against.
"""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np

from fig8lab.numkernel import li2


def naive_jones(n: int, w: complex) -> complex:
    """Plain-complex evaluation of the defining sum in its sinh-product form.

    Independent oracle: uses the (q^{a/2} - q^{-a/2}) factorization rather
    than the 1 - q^a products of the implementation under test.
    """
    total = 0j
    for k in range(n):
        prod = 1 + 0j
        for l in range(1, k + 1):
            prod *= (cmath.exp(w * (n + l) / 2) - cmath.exp(-w * (n + l) / 2)) * (
                cmath.exp(w * (n - l) / 2) - cmath.exp(-w * (n - l) / 2)
            )
        total += prod
    return total


def f_eval_original(z, u, p):
    """F(z) in its defining form, Li2(e^{xi(1-z)})/xi - Li2(e^{xi(1+z)})/xi - u z + 4 p pi^2/xi."""
    xi = complex(u, 2.0 * math.pi * p)
    return (
        (li2(cmath.exp(xi * (1.0 - z))) - li2(cmath.exp(xi * (1.0 + z)))) / xi
        - u * z
        + 4.0 * p * math.pi ** 2 / xi
    )


def f_prime(z, u, p):
    """F'(z) = log(e^u + e^{-u} - e^{xi z} - e^{-xi z}), principal branch.

    The elementary formula extends continuously to the closure of U_0, which
    the boundary-segment checks rely on; no strip validation here.
    """
    xi = complex(u, 2.0 * math.pi * p)
    return cmath.log(2.0 * math.cosh(u) - 2.0 * cmath.cosh(xi * z))


def f_second(z, u, p):
    """F''(z) = xi (e^{-xi z} - e^{xi z}) / (e^u + e^{-u} - e^{xi z} - e^{-xi z})."""
    xi = complex(u, 2.0 * math.pi * p)
    w = xi * z
    return xi * (-2.0 * cmath.sinh(w)) / (2.0 * math.cosh(u) - 2.0 * cmath.cosh(w))


def saddle_prefactor_closed(u):
    """sqrt(2 pi) e^{i pi/4} / ((1 + 2 cosh u)(3 - 2 cosh u))^{1/4}."""
    c = math.cosh(u)
    return math.sqrt(2.0 * math.pi) * cmath.exp(0.25j * math.pi) / ((2.0 * c + 1.0) * (3.0 - 2.0 * c)) ** 0.25


def saddle_constants_mp(u, p):
    """(sigma_0, S_E, T_E, a_2) at (u, p) in mpmath at 40 digits, from theta =
    -acos(cosh u - 1/2) and the root i sqrt((2 cosh u + 1)(3 - 2 cosh u))."""
    with mpmath.workdps(40):
        u = mpmath.mpf(u)
        xi = mpmath.mpc(u, 2 * mpmath.pi * p)
        phi = mpmath.mpc(0, -mpmath.acos(mpmath.cosh(u) - mpmath.mpf(1) / 2))
        root = 1j * mpmath.sqrt((2 * mpmath.cosh(u) + 1) * (3 - 2 * mpmath.cosh(u)))
        s_e = (mpmath.polylog(2, mpmath.exp(-u - phi)) - mpmath.polylog(2, mpmath.exp(-u + phi))
               + u * (phi + 2j * mpmath.pi))
        return (phi + 2j * mpmath.pi) / xi, s_e, 2 / root, xi * root / 2


def phi_m_prime(z, m, u, p):
    """Phi_m'(z) = F'(z - 2 m pi i/xi), the elementary formula, valid up to the U_m boundary."""
    return f_prime(z - 2j * m * math.pi / complex(u, 2.0 * math.pi * p), u, p)


def _log1p(w):
    """log(1 + w) elementwise; the real part through real log1p, accurate for tiny |w|."""
    return 0.5 * np.log1p(2.0 * w.real + w.real ** 2 + w.imag ** 2) + 1j * np.arctan2(w.imag, 1.0 + w.real)


def exact_t_n(z, u, p, n):
    """T_N(z) modulo 2 pi i by Faddeev's q-Pochhammer form, for Im gamma < 0:

        T_N(z) = -sum_{k>=0} log(1 - e^{2 pi i z - 2 pi i gamma (k + 1/2)})
                 + sum_{k>=0} log(1 + e^{2 pi i (z + k) / gamma}).

    Both sums run until their terms fall below e^-45.  The first needs about
    45 N / u terms, since each term is e^{-u/N} times the last.
    """
    gamma = complex(p / n, -u / (2.0 * math.pi * n))
    z = complex(z)
    k = np.arange(max(int((-2.0 * math.pi * z.imag + 45.0) / (u / n)), 0) + 1)
    a = 2j * math.pi * z - 2j * math.pi * gamma * (k + 0.5)
    b0 = 2j * math.pi * z / gamma
    slope = 2.0 * math.pi * -gamma.imag / abs(gamma) ** 2      # Re b falls by this per term
    k = np.arange(max(int((b0.real + 45.0) / slope), 0) + 1)
    b = b0 + 2j * math.pi * k / gamma
    # log(1 + e^b) = b + log(1 + e^-b) where Re b > 0
    big = b.real > 0.0
    ones = np.where(big, b, 0.0) + _log1p(np.exp(np.where(big, -b, b)))
    return complex(np.sum(ones) - np.sum(_log1p(-np.exp(a))))


def _log_qpoch_mp(c, q):
    """log (c; q)_oo = sum_{k>=0} log(1 - c q^k) modulo 2 pi i, for |q| < 1, in mpmath.

    Factors with |c q^k| > 1/2 are multiplied out.  The rest, from c' on,
    sum as -sum_{m>=1} c'^m / (m (1 - q^m)): with |c'| <= 1/2, 127 terms.
    """
    head = mpmath.mpc(1)
    while abs(c) > 0.5:
        head *= 1 - c
        c *= q
    tail, c_m, q_m = 0, 1, 1
    for m in range(1, 128):
        c_m *= c
        q_m *= q
        tail += c_m / (m * (1 - q_m))
    return mpmath.log(head) - tail


def exact_t_n_mp(z, u, p, n):
    """exact_t_n's product in mpmath at 30 digits, the same value modulo 2 pi i.

    Below Im z = -0.3 the float sums of exact_t_n err by up to 1.5e-11 at N
    near 100; this form meets the quadrature there to 4e-14.
    """
    with mpmath.workdps(30):
        two_pi_i = 2j * mpmath.pi
        gamma = mpmath.mpc(mpmath.mpf(p) / n, -mpmath.mpf(u) / (2 * mpmath.pi * n))
        z = mpmath.mpc(z)
        first = _log_qpoch_mp(mpmath.exp(two_pi_i * (z - gamma / 2)), mpmath.exp(-two_pi_i * gamma))
        second = _log_qpoch_mp(-mpmath.exp(two_pi_i * z / gamma), mpmath.exp(two_pi_i / gamma))
        return complex(second - first)


def _legendre_even_part(n):
    """Exact coefficients of P_n (n even) in y = x^2, ascending, as Fractions."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, n):
        nxt = [Fraction(0)] + [(2 * k + 1) * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= k * c
        prev, cur = cur, [c / (k + 1) for c in nxt]
    return cur[0::2]


def kronrod_rule(n=12, dps=60):
    """The (2n+1)-point Gauss-Kronrod rule on [-1, 1], n even, in mpmath at dps digits.

    The n + 1 Kronrod nodes are the roots of the Stieltjes polynomial
    E_{n+1}, monic and odd, orthogonal to x^k P_n for k <= n; the weights
    make the rule exact on P_0 .. P_{2n}.  Returns the Kronrod nodes >= 0 and
    the weights of all 2n + 1 nodes, each ascending in its node.
    """
    with mpmath.workdps(dps):
        pn = _legendre_even_part(n)                  # P_n(x) = sum_i pn[i] x^{2i}

        def moment(j):                               # int_{-1}^{1} x^{2j} P_n(x) dx
            return sum(mpmath.mpf(c.numerator) / c.denominator * mpmath.mpf(2) / (2 * (i + j) + 1)
                       for i, c in enumerate(pn))

        # E_{n+1} = x (y^{n/2} + sum_{i < n/2} a_i y^i), y = x^2; only odd k give conditions
        half = n // 2
        a = mpmath.lu_solve(mpmath.matrix([[moment(i + k + 1) for i in range(half)] for k in range(half)]),
                            mpmath.matrix([-moment(half + k + 1) for k in range(half)]))
        e_roots = mpmath.polyroots([1] + [a[i] for i in reversed(range(half))], maxsteps=200, extraprec=dps)
        g_roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator for c in reversed(pn)],
                                   maxsteps=200, extraprec=dps)
        kronrod = sorted([mpmath.mpf(0)] + [mpmath.sqrt(mpmath.re(y)) for y in e_roots])
        gauss = sorted(mpmath.sqrt(mpmath.re(y)) for y in g_roots)
        nodes = sorted([-x for x in kronrod[1:]] + kronrod + [-x for x in gauss] + gauss)
        weights = mpmath.lu_solve(
            mpmath.matrix([[mpmath.legendre(j, x) for x in nodes] for j in range(2 * n + 1)]),
            mpmath.matrix([2] + [0] * (2 * n)))
        return kronrod, [weights[i] for i in range(2 * n + 1)]
