"""Kernel tests: phase normalization, log-domain arithmetic, dilogarithms.

Expected values follow independent oracles: partial sums with tail bounds
for the series identities, central finite differences for the derivative
relations, and the inversion identity as a self-consistency residual.
"""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fig8lab.numkernel import (
    BranchCutError,
    DomainError,
    LogComplex,
    ONE,
    ZERO,
    l0_closed,
    l1_closed,
    l2_closed,
    lc_one_minus_exp,
    lc_one_plus_exp,
    lc_sum,
    li2,
    log1mexp,
    normalize_phase,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# normalize_phase
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x,expected", [
    (3 * math.pi, math.pi),
    (0.0, 0.0),
    (-math.pi, math.pi),
    (math.pi, math.pi),
    (5.5 * math.pi, -0.5 * math.pi),
])
def test_normalize_phase_examples(x, expected):
    assert normalize_phase(x) == pytest.approx(expected, abs=1e-12)


def test_normalize_phase_random():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-50.0, 50.0, size=300):
        y = normalize_phase(float(x))
        assert -math.pi < y <= math.pi
        k = (x - y) / TWO_PI
        assert abs(k - round(k)) < 1e-9


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_normalize_phase_nonfinite(bad):
    with pytest.raises(DomainError):
        normalize_phase(bad)


# ---------------------------------------------------------------------------
# LogComplex
# ---------------------------------------------------------------------------

def test_roundtrip_relative_error():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if w == 0:
            continue
        w *= 10.0 ** rng.integers(-12, 12)
        back = LogComplex.from_complex(w).to_complex()
        assert abs(back - w) / abs(w) < 1e-14


def test_mul_adds_logmags():
    a = LogComplex(3.0, 2.0)
    b = LogComplex(-1.25, 2.5)
    c = a * b
    assert c.logmag == 3.0 - 1.25
    assert c.phase == pytest.approx(normalize_phase(4.5))


def test_zero_absorbs():
    assert (ZERO * LogComplex(5.0, 1.0)).is_zero
    assert ZERO.to_complex() == 0j
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_lc_sum_examples():
    two = lc_sum([ONE, ONE])
    assert two.logmag == pytest.approx(math.log(2.0))
    assert two.phase == pytest.approx(0.0)

    big = lc_sum([LogComplex(1000.0, 0.0), LogComplex(1000.0, 0.0)])
    assert big.logmag == pytest.approx(1000.0 + math.log(2.0))

    # 1 + e^{i pi}: the real parts cancel exactly; the imaginary residue is
    # sin(pi) at float pi, so the result is either the zero element or at
    # machine-noise level ~16 orders below the inputs
    cancel = lc_sum([ONE, LogComplex(0.0, math.pi)])
    assert cancel.is_zero or cancel.logmag < -33.0
    exact = lc_sum([ONE, LogComplex.from_complex(-1.0 + 0j), ZERO])
    assert exact.is_zero or exact.logmag < -33.0


def test_lc_sum_permutation_invariance():
    rng = np.random.default_rng(3)
    terms = [LogComplex(float(rng.uniform(-4, 4)), float(rng.uniform(-3, 3)))
             for _ in range(40)]
    ref = lc_sum(terms).to_complex()
    for seed in range(5):
        perm = list(np.random.default_rng(seed).permutation(len(terms)))
        val = lc_sum([terms[i] for i in perm]).to_complex()
        assert abs(val - ref) / abs(ref) < 1e-12


def test_lc_sum_empty():
    with pytest.raises(DomainError):
        lc_sum([])


def test_one_minus_exp_stability():
    # large positive real part must not overflow
    v = lc_one_minus_exp(500.0 + 1.0j)
    assert v.logmag == pytest.approx(500.0, abs=1e-9)
    w = lc_one_minus_exp(-2.0 + 0.5j)
    assert abs(w.to_complex() - (1 - cmath.exp(-2.0 + 0.5j))) < 1e-15
    x = lc_one_plus_exp(300.0 + 0.3j)
    assert x.logmag == pytest.approx(300.0, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.floats(-700.0, 700.0), st.floats(-60.0, 60.0))
@example(0.0, 0.0)
@example(-0.0, -0.0)
@example(1e-300, 0.0)
@example(-1e-9, 2 * math.pi)
def test_log1mexp_against_mpmath(re, im):
    w = complex(re, im)
    got = complex(log1mexp(w))
    scalar = lc_one_minus_exp(w)
    assert type(scalar.logmag) is float and type(scalar.phase) is float
    assert complex(scalar.logmag, scalar.phase) == got
    if w == 0:
        assert got == complex(-math.inf, 0.0) and scalar.is_zero
        return
    assert -math.pi < got.imag <= math.pi
    with mp.workdps(40):
        e = mp.exp(mp.mpc(w))
        one_minus_e = -mp.expm1(mp.mpc(w))      # 1 - e^w without cancellation near w = 0
        diff = mp.mpc(got) - mp.log(one_minus_e)
        # compare phases modulo 2 pi: a value next to the cut may land on either side
        diff = mp.mpc(diff.real, (diff.imag + mp.pi) % (2 * mp.pi) - mp.pi)
        # float rounding of e^w is amplified by |e^w / (1 - e^w)|; adding w back costs |w|
        bound = 4 * 2.0 ** -52 * (1 + abs(w) + abs(e / one_minus_e))
        assert abs(diff) <= bound


def test_log1mexp_vectorised_with_exact_zero():
    w = np.array([[0.5 + 30.0j, 0j], [-3.0 - 1.0j, 650.0 + 2.0j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log1mexp(w)
    assert out.shape == w.shape
    assert out[0, 1] == complex(-math.inf, 0.0)
    for value, x in zip(out.ravel(), w.ravel()):
        if x != 0:
            assert value == complex(log1mexp(x))


# ---------------------------------------------------------------------------
# li2
# ---------------------------------------------------------------------------

def test_li2_zero():
    assert li2(0j) == 0


def test_li2_one_against_series_oracle():
    # oracle: partial sums of sum 1/n^2 with integral tail bounds
    n = 200_000
    partial = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float) ** 2))
    lo, hi = partial + 1.0 / (n + 1), partial + 1.0 / n
    value = li2(1.0 + 0j).real
    assert lo - 1e-12 <= value <= hi + 1e-12
    assert value == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)


def test_li2_volume_identity():
    # oracle: 2 sum_n sin(n pi/3)/n^2, summed in blocks of six so the tail
    # decays like 1/n^3; frozen reference value of the identity
    s32 = math.sqrt(3.0) / 2.0
    blocks = 400_000
    b = np.arange(blocks, dtype=float) * 6.0
    oracle = 2.0 * s32 * float(np.sum(
        1.0 / (b + 1) ** 2 + 1.0 / (b + 2) ** 2 - 1.0 / (b + 4) ** 2 - 1.0 / (b + 5) ** 2
    ))
    diff = li2(cmath.exp(1j * math.pi / 3)) - li2(cmath.exp(-1j * math.pi / 3))
    assert diff.real == pytest.approx(0.0, abs=1e-14)
    assert diff.imag == pytest.approx(oracle, abs=1e-8)
    assert diff.imag == pytest.approx(2.0298832128, abs=1e-9)


def test_li2_inversion_residual():
    rng = np.random.default_rng(23)
    count = 0
    while count < 100:
        w = cmath.rect(10.0 ** rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi))
        if abs(w.imag) < 1e-3 and w.real > 0.5:
            continue  # keep clear of the cut and its reciprocal image
        lhs = li2(1.0 / w)
        rhs = -li2(w) - math.pi ** 2 / 6.0 - 0.5 * cmath.log(-w) ** 2
        assert abs(lhs - rhs) <= 1e-12
        count += 1


def test_li2_branch_cut_error():
    with pytest.raises(BranchCutError):
        li2(1.5 + 0j)
    with pytest.raises(BranchCutError):
        li2(np.array([0.3 + 0j, 7.0 + 0j]))
    # just off the cut is fine and conjugate-symmetric
    up = li2(1.5 + 1e-12j)
    dn = li2(1.5 - 1e-12j)
    assert up.imag > 0 > dn.imag


def test_li2_array_matches_scalar():
    pts = np.array([0.3 + 0.1j, -2.5 + 0.7j, 0.9 + 0.05j, 3.0 + 2.0j, -0.99 + 0j])
    arr = li2(pts)
    for z, v in zip(pts, arr):
        assert abs(v - li2(complex(z))) < 1e-14


# ---------------------------------------------------------------------------
# closed-form strip integrals
# ---------------------------------------------------------------------------

def test_l_closed_examples():
    assert l1_closed(0.5) == pytest.approx(math.log(2.0), abs=1e-14)
    assert l0_closed(0.5) == pytest.approx(-1j * math.pi, abs=1e-14)
    # oracle for Li2(-1): alternating series, pairwise-summed tail bound
    n = 200_000
    terms = (-1.0) ** np.arange(1, n + 1) / np.arange(1, n + 1, dtype=float) ** 2
    partial = float(np.sum(terms))
    assert l2_closed(0.5).real == pytest.approx(partial, abs=1e-10)
    assert l2_closed(0.5) == pytest.approx(-math.pi ** 2 / 12.0, abs=1e-13)


def test_l_derivative_relations():
    # dL2/dz = -2 pi i L1 and dL1/dz = -L0 against central differences
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(200):
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(-2.0, 2.0))
        if not 0.05 < z.real - h and z.real + h < 0.95:
            continue
        d2 = (l2_closed(z + h) - l2_closed(z - h)) / (2 * h)
        target = -2j * math.pi * l1_closed(z)
        assert abs(d2 - target) / abs(target) <= 1e-6
        d1 = (l1_closed(z + h) - l1_closed(z - h)) / (2 * h)
        target = -l0_closed(z)
        assert abs(d1 - target) / abs(target) <= 1e-6


@pytest.mark.parametrize("z", [0.0, 1.0, -0.2 + 1j, 1.4 - 2j])
def test_l_closed_domain(z):
    for fn in (l0_closed, l1_closed, l2_closed):
        with pytest.raises(DomainError):
            fn(z)
