"""SL(2,Z) machinery, the proved modularity case, and exploratory runs."""

import cmath
import math

import numpy as np
import pytest

from fig8lab.numkernel import DomainError, lc_sum
from fig8lab.qdilog import EvalContext
from fig8lab.jones import beta_factors, jones_at_cusp, jones_exp_unity
from fig8lab.saddle import asymptotic_ratio, asymptotic_rhs
from fig8lab.modularity import (
    ModularMatrix,
    bettin_drappeau_c,
    build_x,
    cusp_volume,
    estimate_c,
    hbar,
    mobius,
    modularity_sample,
    zagier_sample,
)

S = ModularMatrix(0, -1, 1, 0)


# ---------------------------------------------------------------------------
# matrices and transforms
# ---------------------------------------------------------------------------

def test_matrix_validation():
    with pytest.raises(DomainError):
        ModularMatrix(1, 1, 1, 1)
    # ad - bc = 1 with entries that are not integers names no element of SL(2,Z)
    with pytest.raises(DomainError, match="a, b, c and d must be integers"):
        ModularMatrix(1.5, 0.5, 1, 1)
    eta = ModularMatrix.from_string("1,0,1,1")
    assert (eta.a, eta.b, eta.c, eta.d) == (1, 0, 1, 1)
    with pytest.raises(DomainError):
        ModularMatrix.from_string("1,0,1")


def test_mobius_examples():
    x = 2.0 + 3.0j
    translation = ModularMatrix(1, 5, 0, 1)
    assert mobius(translation, x) == x + 5
    assert mobius(S, x) == -1.0 / x
    assert hbar(S, x) == 2j * math.pi / x
    with pytest.raises(DomainError, match="pole"):
        mobius(S, 0)


def test_mobius_composition():
    rng = np.random.default_rng(61)
    mats = [ModularMatrix(0, -1, 1, 0), ModularMatrix(1, 0, 1, 1),
            ModularMatrix(1, 1, 1, 2), ModularMatrix(2, 1, 1, 1),
            ModularMatrix(1, -1, 2, -1)]
    for _ in range(50):
        e1 = mats[rng.integers(len(mats))]
        e2 = mats[rng.integers(len(mats))]
        x = complex(rng.uniform(0.5, 3), rng.uniform(0.2, 3))
        prod = ModularMatrix(
            e1.a * e2.a + e1.b * e2.c, e1.a * e2.b + e1.b * e2.d,
            e1.c * e2.a + e1.d * e2.c, e1.c * e2.b + e1.d * e2.d,
        )
        assert abs(mobius(e1, mobius(e2, x)) - mobius(prod, x)) <= 1e-12


def test_hbar_two_forms():
    rng = np.random.default_rng(67)
    for _ in range(50):
        eta = ModularMatrix(1, 0, int(rng.integers(1, 5)), 1)
        eta = ModularMatrix(eta.a, eta.b, eta.c, eta.d)
        x = complex(rng.uniform(0.5, 4), rng.uniform(0.1, 4))
        inv_infinity = -eta.d / eta.c
        assert abs(hbar(eta, x) - 2j * math.pi / (x - inv_infinity)) <= 1e-12


def test_build_x():
    ctx = EvalContext(u=0.5, p=2, n=100)
    x = build_x(ctx)
    assert abs(x - 200j * math.pi / ctx.xi) == 0.0
    assert abs(2j * math.pi * x - (-4 * ctx.n * math.pi ** 2 / ctx.xi)) <= 1e-12
    assert abs(hbar(S, x) - ctx.xi / ctx.n) <= 1e-15
    assert x.real > 0
    # u -> 0: X approaches the real value N/p
    small = build_x(EvalContext(u=1e-9, p=2, n=100))
    assert small == pytest.approx(50.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the proved case eta = S
# ---------------------------------------------------------------------------

def test_ratio_p1_is_mirrored_cusp_value():
    ctx = EvalContext(u=0.5, p=1, n=60)
    ratio = modularity_sample(S, ctx)[0]       # denominator J_1 = 1
    cusp = jones_at_cusp(ctx)                  # amphicheiral partner
    assert abs(cmath.exp(ratio - cusp) - 1.0) <= 1e-10


def test_qmccj_rhs_reconciles_with_main_asymptotics():
    for (u, p, n) in ((0.5, 2, 101), (0.3, 1, 150), (0.9, 3, 80)):
        ctx = EvalContext(u=u, p=p, n=n)
        lhs = modularity_sample(S, ctx)[1]
        rhs = asymptotic_rhs(ctx) - lc_sum(beta_factors(ctx))
        assert abs(cmath.exp(lhs - rhs) - 1.0) <= 1e-12


def test_ratio_close_to_rhs_at_desk_scale():
    ctx = EvalContext(u=0.5, p=2, n=101)
    ratio, rhs = modularity_sample(S, ctx)
    r = cmath.exp(ratio - rhs)
    assert abs(r - 1.0) < 0.1


@pytest.mark.parametrize("u, p, n", [(0.5, 2, 101), (0.5, 2, 201), (0.5, 3, 299)])
def test_s_sample_is_the_theorem_ratio(u, p, n):
    # at eta = S the ratio's dual J_p and the rhs's saddle side are the
    # theorem's, so ratio / rhs is asymptotic_ratio
    ctx = EvalContext(u=u, p=p, n=n)
    ratio, rhs = modularity_sample(S, ctx)
    assert abs(cmath.exp(ratio - rhs) - asymptotic_ratio(ctx)) <= 1e-9


def test_estimate_c_proved_case_quick():
    result = estimate_c(S, 0.5, [1, 2], [299, 599])
    for est in result.estimates.values():
        assert abs(est - 1.0) <= 0.02
    assert result.spread <= 0.02
    assert len(result.samples) == 4


def test_estimate_c_needs_two_points():
    with pytest.raises(DomainError):
        estimate_c(S, 0.5, [1], [101])
    with pytest.raises(DomainError, match="distinct"):
        estimate_c(S, 0.5, [1], [101, 101])
    with pytest.raises(DomainError, match="at least one p"):
        estimate_c(S, 0.5, [], [49, 101])
    # repeated values count once, p as well as N
    assert len(estimate_c(S, 0.5, [1], [49, 101, 101]).samples) == 2
    assert len(estimate_c(S, 0.5, [1, 1], [49, 101]).samples) == 2
    assert [(p, n) for p, n, *_ in estimate_c(S, 0.5, [2, 1, 2], [49, 101]).samples] == [
        (2, 49), (2, 101), (1, 49), (1, 101)]


def test_exploratory_etas_emit_finite_records():
    for eta in (ModularMatrix(1, 0, 1, 1), ModularMatrix(1, 1, 1, 2)):
        result = estimate_c(eta, 0.3, [1, 2], [149, 299])
        for est in result.estimates.values():
            assert math.isfinite(est.real) and math.isfinite(est.imag)
        for (_, _, ratio, rhs, r) in result.samples:
            assert math.isfinite(ratio.real) and math.isfinite(rhs.real)
            assert math.isfinite(abs(r))


def test_experiment_requires_positive_c():
    ctx = EvalContext(u=0.5, p=1, n=50)
    with pytest.raises(DomainError):
        modularity_sample(ModularMatrix(1, 0, 0, 1), ctx)
    with pytest.raises(DomainError, match="constant defined for c > 0"):
        bettin_drappeau_c(ModularMatrix(1, 0, 0, 1))
    with pytest.raises(DomainError, match="ratio experiments require c > 0"):
        zagier_sample(ModularMatrix(1, 0, -1, 1), 1, 10)
    with pytest.raises(DomainError, match=r"cN \+ dp = 0 must be a positive integer"):
        zagier_sample(ModularMatrix(1, -3, 1, -2), 1, 2)
    # a p or N that is not an integer names no root of unity
    with pytest.raises(DomainError, match="p and N must be positive integers"):
        zagier_sample(S, 2.5, 10)
    with pytest.raises(DomainError, match="p and N must be positive integers"):
        zagier_sample(S, 2, 10.5)


# ---------------------------------------------------------------------------
# u = 0 Zagier form
# ---------------------------------------------------------------------------

def test_cusp_volume_value():
    # frozen from the block-summed series oracle (see test_numkernel)
    assert cusp_volume() == pytest.approx(2.0298832128, abs=1e-9)


def test_bettin_drappeau_c_for_s():
    omega1 = 1 - cmath.exp(-2j * math.pi * 5 / 6)
    expected = cmath.exp(0.75j * math.pi) / 3 ** 0.25 * abs(omega1) ** 2 * abs(omega1) ** 2
    assert abs(bettin_drappeau_c(S) - expected) <= 1e-14
    # |omega_1|^2 = 1 at this matrix, so the constant is e^{3 pi i/4}/3^{1/4}
    assert abs(bettin_drappeau_c(S) - cmath.exp(0.75j * math.pi) / 3 ** 0.25) <= 1e-14


def test_zagier_rhs_matches_amphicheiral_restatement():
    # for eta = S the law restates as
    # -2 pi^{3/2} T_E(0)^{1/2} (N/(2 p pi i))^{3/2} exp(N S_E(0)/(2 p pi i))
    t_e0 = 2.0 / (1j * math.sqrt(3.0))
    s_e0 = 1j * cusp_volume()
    for (p, n) in ((1, 200), (2, 151), (3, 100)):
        scale = n / (2j * p * math.pi)
        direct = -2 * math.pi ** 1.5 * cmath.sqrt(t_e0) * scale ** 1.5
        value = zagier_sample(S, p, n)[1]
        expected_logmag = math.log(abs(direct)) + (n * s_e0 / (2j * p * math.pi)).real
        assert value.real == pytest.approx(expected_logmag, rel=1e-12)
        phase_diff = value.imag - cmath.phase(direct) - (n * s_e0 / (2j * p * math.pi)).imag
        assert abs(cmath.exp(1j * phase_diff) - 1.0) <= 1e-9


def test_zagier_lhs_finite_and_trending():
    # the u = 0 case is exploratory output: records exist and stay finite;
    # the log-ratio shrinking with N is observed, not asserted as a bound
    gaps = []
    for n in (200, 400):
        lhs, rhs = zagier_sample(S, 1, n)
        assert math.isfinite(lhs.real) and math.isfinite(rhs.real)
        gaps.append(abs((lhs - rhs).real))
    assert gaps[1] < gaps[0]


def test_zagier_denominator_never_vanishes():
    # J_p(E; e^{2 pi i N/p}) = sum_k prod_{l<=k} |1 - q^l|^2 >= 1, so its log is
    # never -inf; over this grid the smallest log|J_p| reads exactly 0.0
    smallest = min(jones_exp_unity(p, n, p).real for p in range(1, 13) for n in range(1, 120))
    assert smallest >= -1e-12


def test_zagier_lhs_non_coprime_zero_detection():
    # gcd(p, N) > 1 can kill numerator factors exactly; result stays defined
    value = zagier_sample(S, 2, 10)[0]
    assert value.real == -math.inf or math.isfinite(value.real)
