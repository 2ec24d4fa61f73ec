"""Reference forms, written out independently of the library's routes.

Shared by the test modules; the library keeps one route for each quantity,
and these are the second routes its tests compare against.
"""

import cmath
import math

import numpy as np

from fig8lab.numkernel import li2
from fig8lab.saddle import discriminant, f_prime


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


def f_second(z, u, p):
    """F''(z) = xi (e^{-xi z} - e^{xi z}) / (e^u + e^{-u} - e^{xi z} - e^{-xi z})."""
    xi = complex(u, 2.0 * math.pi * p)
    w = xi * z
    return xi * (-2.0 * cmath.sinh(w)) / (2.0 * math.cosh(u) - 2.0 * cmath.cosh(w))


def saddle_prefactor_closed(u):
    """sqrt(2 pi) e^{i pi/4} / ((1 + 2 cosh u)(3 - 2 cosh u))^{1/4}."""
    return math.sqrt(2.0 * math.pi) * cmath.exp(0.25j * math.pi) / discriminant(u) ** 0.25


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
