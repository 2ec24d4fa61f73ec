"""Kernel tests: phase reduction, complex-log arithmetic, dilogarithms.

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
    lc_one_minus_exp,
    lc_sum,
    lc_sum_blocks,
    li2,
    log1mexp,
    reduce_phase,
)
from fig8lab.qdilog import l_k_closed, l_k_quadrature

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# reduce_phase
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x,expected", [
    (3 * math.pi, math.pi),
    (0.0, 0.0),
    (-math.pi, math.pi),
    (math.pi, math.pi),
    (5.5 * math.pi, -0.5 * math.pi),
])
def test_reduce_phase_examples(x, expected):
    assert float(reduce_phase(x)) == pytest.approx(expected, abs=1e-12)


def test_reduce_phase_random():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-50.0, 50.0, size=300)
    ys = reduce_phase(xs)
    assert np.all((-math.pi < ys) & (ys <= math.pi))
    k = (xs - ys) / TWO_PI
    assert np.all(np.abs(k - np.round(k)) < 1e-9)
    inside = np.abs(xs) < 3.0
    assert np.array_equal(ys[inside], xs[inside])


# ---------------------------------------------------------------------------
# complex logs: -inf + 0j is zero, lc_sum adds values
# ---------------------------------------------------------------------------

def test_roundtrip_relative_error():
    # a native complex through its complex log and lc_sum back to a value
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if w == 0:
            continue
        w *= 10.0 ** rng.integers(-12, 12)
        back = cmath.exp(lc_sum([cmath.log(w)]))
        assert abs(back - w) / abs(w) < 1e-14


def test_zero_absorbs():
    zero = complex(-math.inf, 0.0)
    # a product with zero is a sum of logs with real part -inf, whatever its phase
    product = zero + complex(5.0, 1.0)
    assert product.real == -math.inf and cmath.exp(product) == 0j
    assert lc_sum([zero, product]) == zero
    assert lc_sum([product, complex(0.5, 0.25)]) == complex(0.5, 0.25)


def test_lc_sum_examples():
    two = lc_sum([0j, 0j])
    assert two.real == pytest.approx(math.log(2.0))
    assert two.imag == pytest.approx(0.0)

    big = lc_sum([complex(1000.0, 0.0), complex(1000.0, 0.0)])
    assert big.real == pytest.approx(1000.0 + math.log(2.0))

    # 1 + e^{i pi}: the real parts cancel exactly; the imaginary residue is
    # sin(pi) at float pi, so the result is either the zero element or at
    # machine-noise level ~16 orders below the inputs
    cancel = lc_sum([0j, complex(0.0, math.pi)])
    assert cancel.real < -33.0
    exact = lc_sum([0j, cmath.log(-1.0 + 0j), complex(-math.inf, 0.0)])
    assert exact.real < -33.0

    # phases of the terms are taken as they come, reduced or not
    wound = lc_sum([complex(2.0, 0.5 + 40.0 * math.pi), complex(2.0, 0.5 - 6.0 * math.pi)])
    assert wound.real == pytest.approx(2.0 + math.log(2.0))
    assert float(reduce_phase(wound.imag)) == pytest.approx(0.5, abs=1e-13)


def test_lc_sum_permutation_invariance():
    rng = np.random.default_rng(3)
    terms = [complex(rng.uniform(-4, 4), rng.uniform(-3, 3)) for _ in range(40)]
    ref = cmath.exp(lc_sum(terms))
    for seed in range(5):
        perm = list(np.random.default_rng(seed).permutation(len(terms)))
        val = cmath.exp(lc_sum([terms[i] for i in perm]))
        assert abs(val - ref) / abs(ref) < 1e-12


def test_lc_sum_empty():
    with pytest.raises(DomainError):
        lc_sum([])


@pytest.mark.parametrize("bad", [
    pytest.param(complex(0.0, math.inf), id="inf"),
    pytest.param(complex(0.0, -math.inf), id="-inf"),
    pytest.param(complex(0.0, math.nan), id="nan"),
    pytest.param(complex(math.nan, 0.0), id="nan-logmag"),
    pytest.param(complex(math.inf, 0.0), id="inf-logmag"),
    pytest.param(complex(-math.inf, math.nan), id="zero-with-nan-phase"),
])
def test_lc_sum_refuses_non_numbers(bad):
    # every Jones value passes through lc_sum: a NaN must not reach the output
    with pytest.raises(DomainError):
        lc_sum(np.array([1.0 + 2.0j, bad, -3.0 + 0j]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(-math.inf), st.floats(-800.0, 800.0)), min_size=1, max_size=12),
       st.lists(st.floats(-50.0, 50.0), min_size=12, max_size=12),
       st.lists(st.integers(0, 12), max_size=4))
@example([710.0, 709.5], [0.0] * 12, [1])
@example([-math.inf], [1.0] * 12, [])
@example([0.0, 0.0], [0.0, 5e-324] + [0.0] * 10, [])
@example([0.0, 30.0, 800.0, -5.0], [0.5] * 12, [1, 2, 3])           # each block raises the maximum
def test_lc_sum_against_mpmath(reals, phases, cuts):
    # terms with real parts -inf (zero) and beyond 700, where e^{Re} overflows a
    # float; lc_sum_blocks takes them cut into blocks, empty ones included
    terms = [complex(r, 0.0 if r == -math.inf else phi) for r, phi in zip(reals, phases)]
    ends = sorted(min(c, len(terms)) for c in cuts)
    blocks = [terms[lo:hi] for lo, hi in zip([0] + ends, ends + [len(terms)])]
    with mp.workdps(50):
        total = mp.fsum(mp.exp(mp.mpc(t)) for t in terms if t.real > -math.inf)
        scale = mp.fsum(mp.exp(mp.mpf(t.real)) for t in terms)      # sum of |v|
        for got in (lc_sum(terms), lc_sum_blocks(blocks)):
            if abs(total) <= 1e-12 * scale:
                # all zero, or cancelled below the float noise of the terms
                assert got.real == -math.inf or mp.exp(mp.mpf(got.real)) <= 1e-11 * scale
                continue
            diff = mp.mpc(got) - mp.log(total)
            diff = mp.mpc(diff.real, (diff.imag + mp.pi) % (2 * mp.pi) - mp.pi)
            # a term's log rounds to eps |log|, and the cancellation amplifies it by sum|v| / |sum v|
            size = max(abs(t) for t in terms if t.real > -math.inf)
            bound = 64 * 2.0 ** -52 * (1 + size) * scale / abs(total)
            assert abs(diff) <= bound


def test_lc_sum_blocks_merge():
    def bits(value):
        return np.array([value]).view(np.int64).tolist()

    # empty blocks add nothing, not even a signed zero
    for one in (np.array([0.3 + 1j, 2.0 - 0.5j, -1.0 + 3j]), [complex(1.0, -0.0)]):
        assert bits(lc_sum_blocks([[], one, []])) == bits(lc_sum(one))
    quadruple = lc_sum_blocks([[0j], [0j], [complex(math.log(2.0), 0.0)]])
    assert quadruple == pytest.approx(math.log(4.0), abs=1e-15)
    # a block is summed once the next is read, at the larger maximum; the third
    # block raises it again, and the running sum is rescaled
    expected = math.log(1.0 + math.e + math.e ** 2)
    assert lc_sum_blocks([[0j], [1 + 0j], [2 + 0j]]) == pytest.approx(expected, abs=1e-15)
    assert lc_sum_blocks([[0j], [complex(800.0, 0.1)]]) == pytest.approx(complex(800.0, 0.1), abs=1e-15)
    assert lc_sum_blocks([[complex(-math.inf, 0.0)], [complex(-math.inf, 1.0)]]) == complex(-math.inf, 0.0)
    with pytest.raises(DomainError, match="empty"):
        lc_sum_blocks([[], []])
    # finite phases whose sum would overflow a float are numbers
    assert lc_sum([complex(0.0, 1e308)] * 2).real == pytest.approx(math.log(2.0))
    with pytest.raises(DomainError, match=r"complex log \(nan\+0j\) is not a number"):
        lc_sum_blocks([[1 + 0j], [0j, complex(math.nan, 0.0)]])


def test_one_minus_exp_stability():
    # large positive real part must not overflow
    v = lc_one_minus_exp(500.0 + 1.0j)
    assert v.real == pytest.approx(500.0, abs=1e-9)
    w = lc_one_minus_exp(-2.0 + 0.5j)
    assert abs(cmath.exp(w) - (1 - cmath.exp(-2.0 + 0.5j))) < 1e-15
    # 1 + e^w = 1 - e^{w + i pi}
    x = lc_one_minus_exp(300.0 + 0.3j + 1j * math.pi)
    assert x.real == pytest.approx(300.0, abs=1e-9)


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
    assert type(scalar) is complex and scalar == got
    if w == 0:
        assert got == complex(-math.inf, 0.0)
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


# (centre, radius) of circles to sample: the inversion outside |w| = 2, the
# reflection inside |1 - w| = 1/2, the plain series on |w| = 1/2; radius 0
# samples the neighbourhood of w = 1
_LI2_SWITCHES = ((0.0, 0.5), (0.0, 2.0), (1.0, 0.5), (1.0, 0.0))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_LI2_SWITCHES), st.floats(-1e-3, 1e-3),
       st.floats(-math.pi, math.pi), st.floats(-12.0, -2.0))
@example((0.0, 0.5), 0.0, 0.0, -2.0)
@example((0.0, 2.0), 0.0, math.pi / 2, -2.0)
@example((1.0, 0.5), 0.0, math.pi / 2, -2.0)
@example((1.0, 0.0), 0.0, math.pi, -10.0)
@example((1.0, 0.0), 0.0, 1e-9, -12.0)
def test_li2_against_mpmath(switch, rel, angle, log_dist):
    centre, radius = switch
    r = radius * (1.0 + rel) if radius else 10.0 ** log_dist
    w = centre + cmath.rect(r, angle)
    if w.imag == 0.0 and w.real > 1.0:
        return                       # on the cut, where li2 raises
    with mp.workdps(40):
        ref = mp.polylog(2, mp.mpc(w))
        assert abs(mp.mpc(li2(w)) - ref) <= 1e-14 * max(1.0, abs(ref))


# where the series argument v = -log(1 - t) is largest: just off the cut
# at w = 1.5 (|v| = 3.22) and on the edges of the inversion and reflection
_LI2_SERIES_EDGES = [
    w
    for sign in (1, -1)
    for w in (
        1.5 + sign * 1e-9j,
        1.9999 * cmath.exp(sign * 1e-7j),
        2.0 * (1.0 - 1e-12) * cmath.exp(sign * 0.5j),
        0.5 * cmath.exp(sign * 2j),
        1.0 + 0.5 * (1.0 + 1e-12) * cmath.exp(sign * 0.3j),
    )
]


def test_li2_series_length():
    # 22 of the series' even coefficients give 3.3e-15 here
    values = li2(np.array(_LI2_SERIES_EDGES))
    with mp.workdps(40):
        for w, value in zip(_LI2_SERIES_EDGES, values):
            ref = mp.polylog(2, mp.mpc(w))
            assert abs(mp.mpc(complex(value)) - ref) <= 1e-15 * max(1.0, abs(ref)), w


def test_li2_relative_accuracy_at_tiny_w():
    # li2(w) ~ w: an absolute tolerance would pass li2 = 0 here
    rng = np.random.default_rng(7)
    w = 10.0 ** rng.uniform(-300, -1, 200) * np.exp(1j * rng.uniform(-math.pi, math.pi, 200))
    values = li2(w)
    with mp.workdps(40):
        for z, value in zip(w, values):
            ref = mp.polylog(2, mp.mpc(complex(z)))
            assert abs(mp.mpc(complex(value)) - ref) <= 1e-15 * abs(ref), z


def test_li2_array_matches_scalar():
    pts = np.array([0.3 + 0.1j, -2.5 + 0.7j, 0.9 + 0.05j, 3.0 + 2.0j, -0.99 + 0j])
    arr = li2(pts)
    for z, v in zip(pts, arr):
        assert abs(v - li2(complex(z))) < 1e-14


# one point of each branch: the inversion |w| >= 2, the reflection
# |1 - w| <= 1/2, the plain series (|w| < 2 includes reflection points too) and w = 1
_LI2_BRANCH_POINTS = st.one_of(
    st.builds(cmath.rect, st.floats(2.0, 1e6), st.floats(-math.pi, math.pi)),
    st.builds(lambda r, a: 1.0 + cmath.rect(r, a), st.floats(0.0, 0.5), st.floats(-math.pi, math.pi)),
    st.builds(cmath.rect, st.floats(0.0, 2.0), st.floats(-math.pi, math.pi)),
    st.just(1.0 + 0j),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LI2_BRANCH_POINTS, min_size=1, max_size=24))
# a plain-series point that in-place Horner steps rounded differently when it
# was alone in its array: numpy's one-element in-place product is a reduction,
# without the array loop's fused multiply-add
@example([0.8350477318402406 - 0.5859781602498267j, 1.0 + 0j])
def test_li2_is_elementwise(points):
    # the batched callers rely on it: a point's value is the same in any array
    a = np.array([w for w in points if not (w.imag == 0.0 and w.real > 1.0)] or [1.0 + 0j])
    values = li2(a)
    for i in range(a.size):
        assert values[i] == li2(a[i])
        assert values[i] == li2(a[i:i + 1])[0]


# ---------------------------------------------------------------------------
# closed-form strip integrals
# ---------------------------------------------------------------------------

def test_l_closed_array_is_elementwise():
    # lemmas takes every L_k row in one call: each value equals the scalar call's
    rng = np.random.default_rng(9)
    z = rng.uniform(0.05, 0.95, 30) + 1j * rng.uniform(-1.0, 1.0, 30)
    k = np.arange(30) % 3
    values = l_k_closed(k, z)
    assert values.shape == (30,)
    assert values.tolist() == [l_k_closed(k_i, z_i) for k_i, z_i in zip(k.tolist(), z.tolist())]
    grid = l_k_closed(2, z.reshape(5, 6))
    assert grid.shape == (5, 6)
    assert grid.ravel().tolist() == [l_k_closed(2, z_i) for z_i in z.tolist()]
    assert isinstance(l_k_closed(2, 0.5), complex)
    with pytest.raises(DomainError, match="k must be 0, 1 or 2, got 3"):
        l_k_closed(np.array([0, 3]), 0.5)


def test_l_closed_examples():
    assert l_k_closed(1, 0.5) == pytest.approx(math.log(2.0), abs=1e-14)
    assert l_k_closed(0, 0.5) == pytest.approx(-1j * math.pi, abs=1e-14)
    # oracle for Li2(-1): alternating series, pairwise-summed tail bound
    n = 200_000
    terms = (-1.0) ** np.arange(1, n + 1) / np.arange(1, n + 1, dtype=float) ** 2
    partial = float(np.sum(terms))
    assert l_k_closed(2, 0.5).real == pytest.approx(partial, abs=1e-10)
    assert l_k_closed(2, 0.5) == pytest.approx(-math.pi ** 2 / 12.0, abs=1e-13)
    assert l_k_closed(1, 0.5 - 200j) == pytest.approx(400 * math.pi, abs=1e-12)
    # |Re w| > 700: e^{-w} (k = 0) or e^w (k = 2) is past a float's range, so
    # the closed form switches to e^w / expm1(w) or Li2's inversion there;
    # log(1 - e^w) takes its large factor out of the log
    for z in (0.5 + 200j, 0.5 - 200j, 0.3 + 200j, 0.3 - 200j, 0.9 + 150j, 0.9 - 150j):
        with mp.workdps(40):
            w = 2j * mp.pi * mp.mpc(z)
            expected = [complex(value) for value in (
                2j * mp.pi / mp.expm1(-w), mp.log(1 - mp.exp(w)), mp.polylog(2, mp.exp(w)))]
        for k in (0, 1, 2):
            assert abs(l_k_closed(k, z) - expected[k]) <= 1e-12 * max(1.0, abs(expected[k]))


def test_l_derivative_relations():
    # dL2/dz = -2 pi i L1 and dL1/dz = -L0 against central differences
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(200):
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(-2.0, 2.0))
        if not 0.05 < z.real - h and z.real + h < 0.95:
            continue
        d2 = (l_k_closed(2, z + h) - l_k_closed(2, z - h)) / (2 * h)
        target = -2j * math.pi * l_k_closed(1, z)
        assert abs(d2 - target) / abs(target) <= 1e-6
        d1 = (l_k_closed(1, z + h) - l_k_closed(1, z - h)) / (2 * h)
        target = -l_k_closed(0, z)
        assert abs(d1 - target) / abs(target) <= 1e-6


@pytest.mark.parametrize("z", [0.0, 1.0, -0.2 + 1j, 1.4 - 2j])
def test_l_closed_domain(z):
    # both routes to L_k take one check: each refuses a bad z, and a bad k, alike
    for k in (0, 1, 2, 3):
        with pytest.raises(DomainError) as closed:
            l_k_closed(k, z)
        with pytest.raises(DomainError) as quadrature:
            l_k_quadrature(k, z)
        assert str(quadrature.value) == str(closed.value)
