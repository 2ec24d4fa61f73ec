"""Saddle-point data, potential calculus, and the asymptotic ratio."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from fig8lab.numkernel import DomainError, lc_sum, reduce_phase
from fig8lab.qdilog import KAPPA, EvalContext
from fig8lab.jones import beta_factors, jones_at_cusp
from fig8lab.modularity import cusp_volume
from fig8lab import saddle
from fig8lab.saddle import (
    asymptotic_ratio,
    asymptotic_rhs,
    f_values,
    f_zero_value,
    phi_m,
    saddle_data,
    varphi,
)
from reference import f_eval_original, f_prime, f_second, saddle_constants_mp, saddle_prefactor_closed

U_GRID = (0.2, 0.5, 0.9)
P_GRID = (1, 2, 3)


def test_kappa_constants():
    assert KAPPA == pytest.approx(0.962424, abs=1e-6)
    assert math.cosh(KAPPA) == pytest.approx(1.5, abs=1e-15)
    assert 2 * math.cosh(KAPPA) - 2 == pytest.approx(1.0, abs=1e-15)


def test_varphi_limits_and_identity():
    assert varphi(1e-9) == pytest.approx(-1j * math.pi / 3, abs=1e-4)
    assert abs(varphi(KAPPA)) <= 1e-7
    for u in U_GRID:
        phi = varphi(u)
        assert phi.real == 0.0
        assert -math.pi / 3 < phi.imag < 0
        assert abs(cmath.exp(phi)) == pytest.approx(1.0, abs=1e-12)
        residual = 2 * math.cosh(u) - 2 * cmath.cosh(phi) - 1
        assert abs(residual) <= 1e-12
    with pytest.raises(DomainError):
        varphi(-0.1)
    with pytest.raises(DomainError):
        varphi(1.0)


def test_saddle_data_invariants():
    for u in U_GRID:
        for p in P_GRID:
            sd = saddle_data(u, p)
            # sigma0 sits on the mid-level of U_0
            skew = sd.sigma0.real + u / (2 * math.pi * p) * sd.sigma0.imag
            assert skew == pytest.approx((varphi(u).imag + 2 * math.pi) / (2 * math.pi * p), abs=1e-12)
            assert sd.a2.real < 0.0
            assert abs(sd.s_e - sd.xi * (sd.f_sigma0 + 2j * math.pi)) <= 1e-10
            # torsion factor is negative imaginary under the positive-i root
            assert sd.t_e.real == pytest.approx(0.0, abs=1e-15)
            assert sd.t_e.imag < 0.0


def test_saddle_data_is_cached_and_errors_are_not():
    assert saddle_data(0.5, 2) is saddle_data(0.5, 2)
    assert saddle_data(0.5, 2) is not saddle_data(0.5, 3)
    # a p or m that is not an integer names no sector: refused, not evaluated
    for u, p in [(1.5, 2), (-0.1, 2), (0.5, 0), (0.5, 2.5)]:
        for _ in range(2):
            with pytest.raises(DomainError):
                saddle_data(u, p)
    assert saddle_data(0.5, np.int64(3)).p == 3
    with pytest.raises(DomainError, match="m must lie"):
        saddle_data(0.5, 3).sigma_m(0.5)


def test_s_e_small_u_is_volume():
    sd = saddle_data(1e-8, 1)
    assert abs(sd.s_e - 1j * cusp_volume()) <= 1e-6


@pytest.mark.parametrize("p", [1, 2, 3])
def test_saddle_data_matches_mpmath(p):
    # in units of eps = 2^-52: sigma_0 and S_E to 2 eps; T_E and a_2 to 16 eps,
    # the conditioning of 3 - 2 cosh u near kappa (9.8 eps at u = 0.95)
    eps = 2.0 ** -52
    for u in (0.02, 0.05, 0.1, 0.3, 0.5, 0.77, 0.9, 0.95):
        sd = saddle_data(u, p)
        refs = saddle_constants_mp(u, p)
        for name, value, ref, bound in zip(("sigma0", "s_e", "t_e", "a2"),
                                           (sd.sigma0, sd.s_e, sd.t_e, sd.a2), refs, (2, 2, 16, 16)):
            err = float(abs(mp.mpc(value) - ref) / abs(ref)) / eps
            assert err < bound, (name, u, p, err)


def _s_e_slope(u):
    """dS_E/du from the A-polynomial of the figure-eight knot, no Li2:
    i (2 pi - arccos(cosh 2u - cosh u - 1))."""
    return 1j * (2 * mp.pi - mp.acos(mp.cosh(2 * u) - mp.cosh(u) - 1))


def test_s_e_slope_is_on_the_a_polynomial():
    # with L = e^{S_E'} and M = e^{u/2}: L + 1/L = M^4 + M^-4 - M^2 - M^-2 - 2
    with mp.workdps(30):
        for u in (0.05, 0.2, 0.5, 0.9):
            big_l, big_m = mp.exp(_s_e_slope(mp.mpf(u))), mp.exp(mp.mpf(u) / 2)
            lhs = big_l + 1 / big_l
            assert abs(lhs - (big_m ** 4 + big_m ** -4 - big_m ** 2 - big_m ** -2 - 2)) <= 1e-25
    # S_E is the same at every p; its central difference matches the slope
    h = 1e-5
    for u in (0.05, 0.2, 0.5, 0.9):
        assert saddle_data(u, 2).s_e == saddle_data(u, 3).s_e == saddle_data(u, 1).s_e
        slope = (saddle_data(u + h, 1).s_e - saddle_data(u - h, 1).s_e) / (2 * h)
        assert abs(slope - complex(_s_e_slope(u))) <= 1e-8


def test_f_forms_agree_in_u0():
    rng = np.random.default_rng(41)
    for u in U_GRID:
        for p in P_GRID:
            sd = saddle_data(u, p)
            for _ in range(25):
                z = complex(rng.uniform(0.1, 0.9) / p, rng.uniform(-0.05, 0.05))
                skew = z.real + u / (2 * math.pi * p) * z.imag
                if not 0.02 / p < skew < 0.98 / p:
                    continue
                assert abs(phi_m(z, 0, u, p) - f_eval_original(z, u, p)) <= 1e-10
            assert abs(phi_m(sd.sigma0, 0, u, p) - f_eval_original(sd.sigma0, u, p)) <= 1e-10


def test_f_values_takes_per_point_u_and_p():
    # each point's own (u, p) gives it the value that point takes in a call with
    # that scalar (u, p), and a 0-d z its entry in any array; phi_m evaluates all its points so
    rng = np.random.default_rng(3)
    u = rng.choice(U_GRID, 60)
    p = rng.choice(P_GRID, 60)
    z = rng.uniform(0.05, 0.3, 60) / p + 1j * rng.uniform(-0.05, 0.05, 60)
    values = f_values(z, u, p)
    for i, (u_i, p_i) in enumerate(zip(u.tolist(), p.tolist())):
        assert values[i] == f_values(z, u_i, p_i)[i] == f_values(z[i:i + 1], u_i, p_i)[0]
        assert values[i] == f_values(z[i], u_i, p_i)
    assert f_values(z.reshape(6, 10), u.reshape(6, 10), 2).shape == (6, 10)


def test_f_values_large_batch_is_its_small_batches():
    # past 16,384 points numpy's temporary elision would compute xi times a
    # temporary in place, operands swapped, which rounds differently
    rng = np.random.default_rng(5)
    z = rng.uniform(0.05, 0.3, 40_000) / 3 + 1j * rng.uniform(-0.05, 0.05, 40_000)
    values = f_values(z, 0.5, 3)
    assert np.array_equal(values, np.concatenate([f_values(z[s:s + 1000], 0.5, 3)
                                                  for s in range(0, z.size, 1000)]))


def test_f_domain_error():
    with pytest.raises(DomainError):
        phi_m(0.0, 0, 0.5, 2)
    with pytest.raises(DomainError):
        phi_m(0.6, 0, 0.5, 2)


def test_f_prime_vanishes_at_sigma0():
    for u in U_GRID:
        for p in P_GRID:
            sd = saddle_data(u, p)
            assert abs(f_prime(sd.sigma0, u, p)) <= 1e-10


def test_f_prime_is_the_reference_formula():
    # the library's elementwise F' against the cmath reference, inside U_0 and at sigma_0
    rng = np.random.default_rng(47)
    for u in U_GRID:
        for p in P_GRID:
            z = rng.uniform(0.05, 0.95, 20) / p + 1j * rng.uniform(-0.04, 0.04, 20)
            values = saddle.f_prime(z, u, p)
            assert np.all(np.abs(values - [f_prime(w, u, p) for w in z.tolist()])
                          <= 1e-14 * np.maximum(1.0, np.abs(values)))
            assert abs(saddle.f_prime(saddle_data(u, p).sigma0, u, p)) <= 1e-10


def test_f_second_matches_closed_form():
    for u in U_GRID:
        for p in P_GRID:
            sd = saddle_data(u, p)
            target = sd.xi * 1j * math.sqrt((2 * math.cosh(u) + 1) * (3 - 2 * math.cosh(u)))
            assert abs(f_second(sd.sigma0, u, p) - target) <= 1e-10
            assert abs(f_second(sd.sigma0, u, p) - 2 * sd.a2) <= 1e-10


def test_f_prime_against_finite_differences():
    rng = np.random.default_rng(43)
    h = 1e-6
    for u in U_GRID:
        for p in P_GRID:
            count = 0
            while count < 12:
                z = complex(rng.uniform(0.1, 0.9) / p, rng.uniform(-0.04, 0.04))
                skew = z.real + u / (2 * math.pi * p) * z.imag
                if not (h < skew and skew < 1.0 / p - h):
                    continue
                fd = (phi_m(z + h, 0, u, p) - phi_m(z - h, 0, u, p)) / (2 * h)
                exact = f_prime(z, u, p)
                assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))
                count += 1


def test_taylor_remainder_exponent():
    # F(sigma0 + h) - F(sigma0) - a2 h^2 = O(h^3): fitted exponent in [2.8, 3.2]
    for u in U_GRID:
        for p in (1, 2):
            sd = saddle_data(u, p)
            hs = (1e-2, 5e-3, 2.5e-3)
            rem = [
                abs(phi_m(sd.sigma0 + h, 0, u, p) - sd.f_sigma0 - sd.a2 * h * h)
                for h in hs
            ]
            for r1, r2 in zip(rem, rem[1:]):
                exponent = math.log(r1 / r2) / math.log(2.0)
                assert 2.8 <= exponent <= 3.2


def test_xi_f_difference_purely_imaginary():
    for u in U_GRID:
        for p in P_GRID:
            sd = saddle_data(u, p)
            value = sd.xi * (sd.f_sigma0 - f_zero_value(u, p))
            assert abs(value.real) <= 1e-10
            assert value.imag > 0.0


def test_phi_m_examples():
    u, p = 0.5, 3
    sd = saddle_data(u, p)
    for m in range(p):
        assert abs(phi_m(sd.sigma_m(m), m, u, p) - sd.f_sigma0) <= 1e-12
    with pytest.raises(DomainError):
        phi_m(sd.sigma0, 1, u, p)
    for m in (0.5, -1, p):
        with pytest.raises(DomainError, match="m must lie"):
            phi_m(sd.sigma_m(1), m, u, p)
    # a p that is not an integer names no sector count: refused, as by saddle_data
    with pytest.raises(DomainError, match="p must be a positive integer"):
        phi_m(0.1, 0, 0.5, 2.5)
    with pytest.raises(DomainError, match="p must be a positive integer"):
        f_zero_value(0.5, 2.5)
    assert phi_m(sd.sigma_m(1), 1, u, np.int64(p)) == phi_m(sd.sigma_m(1), 1, u, p)
    assert f_zero_value(u, np.int64(p)) == f_zero_value(u, p)


def test_phi_m_batch_is_its_scalar_calls():
    # one require_strip and one f_values call take every point; each value is the scalar call's
    sigmas = [(saddle_data(u, p).sigma_m(m), m, u, p)
              for u in U_GRID for p in P_GRID for m in range(p)]
    z, m, u, p = (np.array(column) for column in zip(*sigmas))
    values = phi_m(z + 0.01 - 0.002j, m, u, p)
    assert values.shape == (18,)
    assert values.tolist() == [phi_m(z_i + 0.01 - 0.002j, m_i, u_i, p_i) for z_i, m_i, u_i, p_i in sigmas]
    assert isinstance(phi_m(z[0], m[0], u[0], p[0]), complex)
    # z, m, u and p broadcast: a column of z against a row of u
    grid = phi_m(np.array([[0.3], [0.4]]), 0, np.array([0.2, 0.9]), 1)
    assert grid.shape == (2, 2)
    assert grid.tolist() == [[phi_m(x, 0, u_i, 1) for u_i in (0.2, 0.9)] for x in (0.3, 0.4)]


def test_phi_m_batch_refuses_any_bad_point():
    # a bad u, p, m or z anywhere in the batch is refused, as its scalar call is
    z = np.array([0.3, 0.4])
    with pytest.raises(DomainError, match="u must lie in"):
        phi_m(z, 0, np.array([0.5, 1.2]), 1)
    with pytest.raises(DomainError, match="p must be a positive integer"):
        phi_m(z, 0, 0.5, np.array([1, 2.5]))
    with pytest.raises(DomainError, match="m must lie in"):
        phi_m(z + 0.5, np.array([1, 2]), 0.5, 2)
    with pytest.raises(DomainError, match=r"outside U_m: .* at \(u, p, m\) = \(0\.5, 1, 0\)$"):
        phi_m(np.array([0.3, 1.3]), 0, 0.5, 1)


def test_prefactor_routes_agree():
    for u in U_GRID:
        closed = saddle_prefactor_closed(u) / (2.0 * math.sinh(0.5 * u))
        assert abs(saddle_data(u, 1).prefactor - closed) <= 1e-12


def test_rhs_p1_specialization():
    # for p = 1 the dual factor is 1 and the closed form collapses to the
    # single-saddle expression sqrt(-pi)/(2 sinh(u/2)) T^{1/2} (N/xi)^{1/2} e^{N S/xi}
    ctx = EvalContext(u=0.5, p=1, n=101)
    sd = saddle_data(0.5, 1)
    assert lc_sum(beta_factors(ctx)) == 0j
    pref = (
        cmath.sqrt(complex(-math.pi, 0.0))
        / (2 * math.sinh(0.25))
        * cmath.sqrt(sd.t_e)
        * cmath.sqrt(ctx.n / sd.xi)
    )
    expected = cmath.log(pref) + ctx.n / sd.xi * sd.s_e
    value = asymptotic_rhs(ctx)
    assert value.real == pytest.approx(expected.real, abs=1e-12)
    assert float(reduce_phase(value.imag - expected.imag)) == pytest.approx(0.0, abs=1e-9)


def test_growth_rate_p1():
    # logmag/N -> Re(S_E/xi) for p = 1 (no dual growth)
    u = 0.5
    sd = saddle_data(u, 1)
    rate = (sd.s_e / sd.xi).real
    logmags = {}
    for n in (400, 800):
        logmags[n] = asymptotic_rhs(EvalContext(u=u, p=1, n=n)).real
    fitted = (logmags[800] - logmags[400]) / 400.0
    assert abs(fitted - rate) / rate <= 0.01


def test_growth_rate_p2_includes_dual_term():
    # for p >= 2 the dual factor J_p(e^{4N pi^2/xi}) adds its own growth,
    # dominated by the m = p-1 beta term
    u, p = 0.5, 2
    sd = saddle_data(u, p)
    dual_rate = 4 * p * (p - 1) * math.pi ** 2 * u / abs(sd.xi) ** 2
    rate = (sd.s_e / sd.xi).real + dual_rate
    logmags = {}
    for n in (401, 801):
        logmags[n] = jones_at_cusp(EvalContext(u=u, p=p, n=n)).real
    fitted = (logmags[801] - logmags[401]) / 400.0
    assert abs(fitted - rate) / rate <= 0.01


def test_theorem_ratio_desk_scale():
    ratio = asymptotic_ratio(EvalContext(u=0.5, p=2, n=101))
    assert abs(ratio - 1.0) < 0.1


def test_theorem_ratio_noncoprime():
    # gcd(p, N) = 2 here
    value = asymptotic_ratio(EvalContext(u=0.5, p=2, n=10))
    assert np.isfinite(value.real) and np.isfinite(value.imag)
