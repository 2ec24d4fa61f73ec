"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest` shows them for failing criteria only.
"""

import cmath
import contextlib
import math
import time

import numpy as np

import fig8lab as f8
from fig8lab.jones import decomposition_residual, product_identity_residual
from fig8lab.qdilog import KAPPA, l_k_closed, l_k_quadrature
from fig8lab.region import c_pm, c_pm_derivative_bound, check_f_p12, components_d_cap_e
from fig8lab.saddle import f_zero_value, phi_m
from reference import f_prime, f_second, naive_jones

U_GRID = (0.2, 0.5, 0.9)
P_GRID = (1, 2, 3)


@contextlib.contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL ({time.perf_counter() - start:6.2f}s): {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS ({time.perf_counter() - start:6.2f}s): {label}")


def test_criterion_01_constants():
    with criterion(1, "paper constants kappa, c_{1,0}(kappa), derivative bound"):
        assert abs(KAPPA - 0.962424) <= 1e-6
        assert abs(c_pm(KAPPA, 1, 0) - (-14.9942)) <= 5e-3
        assert abs(c_pm_derivative_bound() - (-18.274)) <= 5e-3


def test_criterion_02_l_k_closed_vs_quadrature():
    with criterion(2, "L_0, L_1, L_2 quadrature vs closed forms on 100 points"):
        rng = np.random.default_rng(101)
        for i in range(100):
            k = i % 3
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(-1.0, 1.0))
            err = abs(l_k_quadrature(k, z) - l_k_closed(k, z))
            assert err <= 1e-8, (k, z, err)


def test_criterion_03_functional_equation_suites():
    with criterion(3, "E_N functional equations, 50 samples each identity"):
        rng = np.random.default_rng(103)
        grids = [(u, p, n) for u in U_GRID for p in P_GRID for n in (31, 40, 97)]
        for i in range(50):
            u, p, n = grids[int(rng.integers(len(grids)))]
            ctx = f8.EvalContext(u=u, p=p, n=n)
            z = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
            assert f8.identity_residuals([("shift", z, ctx)])[0] <= 1e-7

            u, p, n = grids[int(rng.integers(len(grids)))]
            ctx = f8.EvalContext(u=u, p=p, n=n)
            g = ctx.gamma.real
            w = complex(rng.uniform(0.1, 0.9) * g * rng.choice((-1, 1)),
                        rng.uniform(-0.3, 0.3))
            assert f8.identity_residuals([("gamma_half", w, ctx)])[0] <= 1e-7

            u, p, n = grids[int(rng.integers(len(grids)))]
            ctx = f8.EvalContext(u=u, p=p, n=n)
            z = complex(rng.uniform(-0.45, 0.45) * ctx.gamma.real,
                        rng.uniform(-0.3, 0.3))
            assert f8.identity_residuals([("unit_shift", z, ctx)])[0] <= 1e-7


def test_criterion_04_t_n_convergence_rate():
    with criterion(4, "T_N -> (N/xi) Li2 at O(1/N): halving ratios in [1.6, 2.4]"):
        z = 0.4 + 0.1j
        target_arg = cmath.exp(2j * math.pi * z)
        errors = []
        for n in (32, 64, 128, 256):
            ctx = f8.EvalContext(u=0.5, p=2, n=n)
            errors.append(abs(f8.t_n(z, ctx) - ctx.n / ctx.xi * f8.li2(target_arg)))
        for a, b in zip(errors, errors[1:]):
            assert 1.6 <= a / b <= 2.4, errors


def test_criterion_05_decomposition_identity():
    with criterion(5, "beta/f_N decomposition residual <= 1e-9, six configurations"):
        for u in U_GRID:
            for (p, n) in ((2, 97), (3, 101)):
                residual = decomposition_residual(f8.EvalContext(u=u, p=p, n=n))
                assert residual <= 1e-9, (u, p, n, residual)


def test_criterion_06_product_identity_gcd_paths():
    with criterion(6, "q-factorial product identity at gcd > 1, incl. the sector ends k = N'"):
        checked = 0
        # p >= N: sectors that hold no k, and at (4, 4) every k on a sector end
        for (p, n) in ((4, 12), (6, 9), (4, 4), (6, 4), (10, 4)):
            ctx = f8.EvalContext(u=0.5, p=p, n=n)
            n_prime = n // math.gcd(p, n)
            saw_multiple = False
            for k in range(1, n):
                residual = product_identity_residual(k, ctx)
                assert residual <= 1e-7, (p, n, k, residual)
                saw_multiple = saw_multiple or (k % n_prime == 0)
                checked += 1
            assert saw_multiple
        assert checked >= 19


def test_criterion_07_main_theorem_ratio():
    with criterion(7, "main asymptotics: |ratio - 1| O(1/N) down to < 0.02 at N=801"):
        gaps = []
        for n in (101, 201, 401, 801):
            ratio = f8.asymptotic_ratio(f8.EvalContext(u=0.5, p=2, n=n))
            gaps.append(abs(ratio - 1.0))
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
        for a, b in zip(gaps, gaps[1:]):
            assert 0.3 <= b / a <= 0.8, gaps
        assert gaps[-1] < 0.02, gaps


def test_criterion_08_oracle_equivalence():
    with criterion(8, "direct-sum oracle match (N <= 8) and amphicheirality"):
        rng = np.random.default_rng(108)
        for _ in range(30):
            w = 1j * rng.uniform(-math.pi, math.pi)
            for n in range(1, 9):
                mine = cmath.exp(f8.jones_exp(n, w))
                ref = naive_jones(n, w)
                assert abs(mine - ref) <= 1e-12 * abs(ref), (n, w)
        for _ in range(30):
            n = int(rng.integers(2, 21))
            w = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.8, 0.8))
            a = cmath.exp(f8.jones_exp(n, w))
            b = cmath.exp(f8.jones_exp(n, -w))
            assert abs(a - b) <= 1e-10 * abs(b), (n, w)


def test_criterion_09_region_topology():
    with criterion(9, "two-lobe region topology and boundary inequalities"):
        for (p, m, u) in ((3, 2, 0.5), (1, 0, 0.5), (2, 1, 0.2)):
            assert components_d_cap_e(m, u, p, resolution=400) == 2, (p, m, u)
        for u in (0.05, 0.2, 0.5, 0.9):
            for p in P_GRID:
                re_f0 = f_zero_value(u, p).real
                assert 0.0 < re_f0 < f8.saddle_data(u, p).f_sigma0.real, (u, p)
                for m in range(p):
                    assert check_f_p12(u, p, m) > 0.0, (u, p, m)


def test_criterion_10_saddle_calculus():
    with criterion(10, "saddle calculus: F'(sigma0), F''(sigma0), Taylor exponent"):
        for u in U_GRID:
            for p in P_GRID:
                sd = f8.saddle_data(u, p)
                assert abs(f_prime(sd.sigma0, u, p)) <= 1e-10
                target = sd.xi * 1j * math.sqrt((2 * math.cosh(u) + 1) * (3 - 2 * math.cosh(u)))
                assert abs(f_second(sd.sigma0, u, p) - target) <= 1e-10
                remainders = [
                    abs(phi_m(sd.sigma0 + h, 0, u, p) - sd.f_sigma0 - sd.a2 * h * h)
                    for h in (1e-2, 5e-3, 2.5e-3)
                ]
                for r1, r2 in zip(remainders, remainders[1:]):
                    exponent = math.log(r1 / r2) / math.log(2.0)
                    assert 2.8 <= exponent <= 3.2, (u, p, remainders)


def test_criterion_11_quantum_modularity():
    with criterion(11, "modularity: C -> 1 for eta=S within 5%; exploratory etas run"):
        s = f8.ModularMatrix(0, -1, 1, 0)
        for u in (0.3, 0.5):
            result = f8.estimate_c(s, u, [1, 2, 3], [299, 599, 899])
            for p, est in result.estimates.items():
                assert abs(est - 1.0) <= 0.05, (u, p, est)
            assert result.spread <= 0.05, (u, result.spread)
        for eta in (f8.ModularMatrix(1, 0, 1, 1), f8.ModularMatrix(1, 1, 1, 2)):
            result = f8.estimate_c(eta, 0.3, [1, 2], [149, 299])
            for est in result.estimates.values():
                assert math.isfinite(est.real) and math.isfinite(est.imag)


def test_criterion_runtime_smoke():
    # the constants criterion must be effectively instantaneous
    start = time.perf_counter()
    c_pm(KAPPA, 1, 0)
    c_pm_derivative_bound()
    assert time.perf_counter() - start < 1.0
