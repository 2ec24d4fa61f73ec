"""Contour-quadrature tests for the quantum dilogarithm and its identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fig8lab.numkernel import DomainError, QuadratureError, l0_closed, l1_closed, l2_closed, li2
from fig8lab.qdilog import (
    KAPPA,
    EvalContext,
    QuadratureConfig,
    check_gamma_half,
    check_shift_identity,
    check_unit_shift,
    e_n,
    l_k_quadrature,
    t_n,
)

CLOSED = {0: l0_closed, 1: l1_closed, 2: l2_closed}


# ---------------------------------------------------------------------------
# EvalContext
# ---------------------------------------------------------------------------

def test_context_validation():
    with pytest.raises(DomainError):
        EvalContext(u=0.0, p=1, n=10)
    with pytest.raises(DomainError):
        EvalContext(u=KAPPA, p=1, n=10)
    with pytest.raises(DomainError):
        EvalContext(u=0.5, p=0, n=10)


def test_gamma_real_part_exact():
    for (p, n) in ((1, 7), (2, 97), (3, 101), (5, 12)):
        ctx = EvalContext(u=0.5, p=p, n=n)
        assert ctx.gamma.real == p / n
        assert ctx.xi == complex(0.5, 2 * math.pi * p)


# ---------------------------------------------------------------------------
# L_k quadrature vs closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("z", [0.5 + 0j, 0.3 + 0.4j, 0.7 - 0.6j, 0.05 + 1j, 0.95 - 1j])
def test_l_k_quadrature_matches_closed(k, z):
    assert abs(l_k_quadrature(k, z) - CLOSED[k](z)) <= 1e-8


def test_l_k_quadrature_examples():
    assert abs(l_k_quadrature(1, 0.5) - math.log(2.0)) <= 1e-8
    assert abs(l_k_quadrature(0, 0.5) - (-1j * math.pi)) <= 1e-8
    assert abs(l_k_quadrature(2, 0.3 + 0.4j) - l2_closed(0.3 + 0.4j)) <= 1e-8


def test_l_k_quadrature_domain():
    with pytest.raises(DomainError):
        l_k_quadrature(1, 1.2 + 0.3j)
    with pytest.raises(DomainError):
        l_k_quadrature(3, 0.5)


# ---------------------------------------------------------------------------
# T_N
# ---------------------------------------------------------------------------

def test_t_n_strip_error():
    ctx = EvalContext(u=0.5, p=1, n=50)
    with pytest.raises(DomainError):
        t_n(-ctx.p / (2 * ctx.n) - 0.01, ctx)


def test_t_n_approaches_li2():
    ctx = EvalContext(u=0.5, p=1, n=50)
    target = ctx.n / ctx.xi * li2(-1.0 + 0j)
    err_50 = abs(t_n(0.5, ctx) - target)
    assert err_50 < 5.0 / ctx.n

    ctx2 = EvalContext(u=0.5, p=1, n=100)
    err_100 = abs(t_n(0.5, ctx2) - ctx2.n / ctx2.xi * li2(-1.0 + 0j))
    # error halves when N doubles, within +-25%
    assert 1.5 <= err_50 / err_100 <= 2.5


def test_t_n_convergence_rate_sequence():
    z = 0.4 + 0.1j
    errors = []
    for n in (32, 64, 128):
        ctx = EvalContext(u=0.5, p=2, n=n)
        target = ctx.n / ctx.xi * li2(np.exp(2j * math.pi * z))
        errors.append(abs(t_n(z, ctx) - target))
    for a, b in zip(errors, errors[1:]):
        assert 1.6 <= a / b <= 2.4


def test_self_consistency_under_refinement():
    ctx = EvalContext(u=0.5, p=2, n=40)
    base = QuadratureConfig()
    fine = QuadratureConfig(panels_per_unit=2, semicircle_panels=16)
    v1 = t_n(0.3 + 0.2j, ctx, base)
    v2 = t_n(0.3 + 0.2j, ctx, fine)
    assert abs(v1 - v2) < base.tol


def test_batched_t_n_matches_scalar():
    ctx = EvalContext(u=0.5, p=3, n=31)
    g, tol = ctx.gamma.real, QuadratureConfig().tol
    # central points, and points within 1e-3 Re gamma of either strip edge
    z = np.array([0.5, 0.3 + 0.2j, 0.9 - 0.4j,
                  complex(-g / 2 + 1e-3 * g, 0.05), complex(-g / 2 + 5e-4 * g, -0.1),
                  complex(1 + g / 2 - 1e-3 * g, -0.05), complex(1 + g / 2 - 5e-4 * g, 0.1)])
    batched = t_n(z, ctx)
    assert batched.shape == z.shape
    for zi, value in zip(z, batched):
        assert abs(value - t_n(zi, ctx)) <= tol
    assert t_n(z.reshape(7, 1), ctx).shape == (7, 1)
    assert t_n(np.array([]), ctx).shape == (0,)


def test_unmeetable_tol_names_the_failure():
    ctx = EvalContext(u=0.5, p=2, n=40)
    with pytest.raises(QuadratureError) as info:
        t_n([0.5, 0.3 + 0.2j], ctx, QuadratureConfig(tol=1e-16))
    message = str(info.value)
    assert "z = (0.5+0j)" in message
    assert "(u, p, N) = (0.5, 2, 40)" in message
    assert "level 3" in message
    assert "best |delta| = " in message


def test_e_n_logmag_is_re_t_n():
    ctx = EvalContext(u=0.5, p=1, n=50)
    value = t_n(0.37 + 0.04j, ctx)
    log_form = e_n(0.37 + 0.04j, ctx)
    assert log_form.logmag == value.real


# ---------------------------------------------------------------------------
# functional equations
# ---------------------------------------------------------------------------

def test_shift_identity_examples():
    assert check_shift_identity(0.5, EvalContext(u=0.5, p=2, n=40)) <= 1e-7
    assert check_shift_identity(0.3 + 0.2j, EvalContext(u=0.3, p=1, n=60)) <= 1e-7


def test_shift_identity_corollary_points():
    # z = j gamma - n for nN/p < j < (n+1)N/p reproduces the unity-root form
    ctx = EvalContext(u=0.5, p=2, n=41)
    for (j, n_int) in ((25, 1), (50, 2), (15, 0)):
        assert n_int * ctx.n / ctx.p < j < (n_int + 1) * ctx.n / ctx.p
        z = j * ctx.gamma - n_int
        assert check_shift_identity(z, ctx) <= 1e-7


def test_shift_identity_near_integer_error():
    ctx = EvalContext(u=0.5, p=1, n=30)
    with pytest.raises(DomainError):
        check_shift_identity(1e-9 + 0j, ctx)


def test_gamma_half_examples():
    ctx = EvalContext(u=0.5, p=2, n=40)
    w = ctx.n * ctx.gamma - ctx.p          # Re w = 0, the summation usage
    assert check_gamma_half(w, ctx) <= 1e-7
    assert check_gamma_half(ctx.gamma / 4, ctx) <= 1e-7
    with pytest.raises(DomainError):
        check_gamma_half(complex(ctx.gamma.real, 0.1), ctx)


def test_unit_shift_at_strip_edge():
    # lemmas --seed 3 draws this point, 0.11 Re gamma from the strip edge
    ctx = EvalContext(u=0.2, p=1, n=97)
    assert check_unit_shift(-0.004006817540464774 - 0.05885511384705713j, ctx) <= 1e-7


def test_unit_shift_examples():
    ctx = EvalContext(u=0.5, p=2, n=40)
    assert check_unit_shift(0j, ctx) <= 1e-7
    ctx41 = EvalContext(u=0.5, p=2, n=41)
    z = (ctx41.n - ctx41.n // ctx41.p - 0.5) * ctx41.gamma - ctx41.p + 1
    assert check_unit_shift(z, ctx41) <= 1e-7
    with pytest.raises(DomainError):
        check_unit_shift(ctx.gamma / 2, ctx)


def test_identity_random_suite():
    # compressed version of the 50-sample acceptance sweep
    rng = np.random.default_rng(17)
    grid_u, grid_p, grid_n = (0.2, 0.5, 0.9), (1, 2, 3), (31, 40, 97)
    for _ in range(12):
        ctx = EvalContext(
            u=float(rng.choice(grid_u)),
            p=int(rng.choice(grid_p)),
            n=int(rng.choice(grid_n)),
        )
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5))
        assert check_shift_identity(z, ctx) <= 1e-7
        g = ctx.gamma.real
        w = complex(rng.uniform(0.1, 0.9) * g * rng.choice((-1, 1)),
                    rng.uniform(-0.3, 0.3))
        assert check_gamma_half(w, ctx) <= 1e-7
        z = complex(rng.uniform(-0.45, 0.45) * g, rng.uniform(-0.3, 0.3))
        assert check_unit_shift(z, ctx) <= 1e-7


# each identity's range of Re z; at either end its E_N arguments reach an
# edge of the convergence strip
_IDENTITY_RANGES = (
    (check_shift_identity, lambda g: (0.0, 1.0)),
    (check_gamma_half, lambda g: (-g, g)),
    (check_unit_shift, lambda g: (-0.5 * g, 0.5 * g)),
)


@st.composite
def _identity_case(draw):
    """(check, z, ctx) with Re z central or 0.02-0.2 Re gamma inside an end of its range."""
    ctx = EvalContext(u=draw(st.floats(0.05, 0.95)), p=draw(st.integers(1, 3)),
                      n=draw(st.integers(5, 100)))
    g = ctx.gamma.real
    check, bounds = draw(st.sampled_from(_IDENTITY_RANGES))
    lo, hi = bounds(g)
    gap = draw(st.floats(0.02, 0.2)) * g
    margin = 0.1 * (hi - lo)
    re = draw(st.one_of(st.just(lo + gap), st.just(hi - gap),
                        st.floats(lo + margin, hi - margin)))
    im = draw(st.floats(0.05, 0.3)) * draw(st.sampled_from((-1, 1)))
    return check, complex(re, im), ctx


@settings(max_examples=40, deadline=None)
@given(_identity_case())
def test_identities_hold_up_to_the_strip_edge(case):
    check, z, ctx = case
    assert check(z, ctx) <= 1e-7
