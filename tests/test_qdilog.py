"""Tests of the quantum dilogarithm T_N: its Bernoulli series, its contour quadrature,
and the functional equations of E_N."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fig8lab.numkernel import DomainError, QuadratureError, li2
from fig8lab.qdilog import (
    KAPPA,
    TOL,
    EvalContext,
    check_unit_shift,
    e_n,
    identity_residuals,
    l_k_closed,
    l_k_quadrature,
    t_n,
)
from fig8lab import cli, jones, qdilog
from fig8lab.saddle import phi_m, saddle_data
from reference import exact_t_n, exact_t_n_mp, kronrod_rule


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
    for p, n in ((2.5, 10), (2, 10.0), (2.0, 10)):
        with pytest.raises(DomainError, match="p and N must be positive integers"):
            EvalContext(u=0.5, p=p, n=n)
    assert EvalContext(u=0.5, p=np.int64(2), n=np.int32(10)).gamma.real == 0.2
    # a u that is not real is refused by name, not by a failed comparison
    for u in (0.5 + 0.1j, 0.5 + 0j, "0.5", None):
        with pytest.raises(DomainError, match="u must be a real number"):
            EvalContext(u=u, p=1, n=10)
    with pytest.raises(DomainError, match="u must be a real number"):
        saddle_data(0.5 + 0j, 1)
    assert EvalContext(u=np.float64(0.5), p=1, n=10).u == 0.5


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
    assert abs(l_k_quadrature(k, z) - l_k_closed(k, z)) <= 1e-12


def test_l_k_quadrature_examples():
    assert abs(l_k_quadrature(1, 0.5) - math.log(2.0)) <= 1e-8
    assert abs(l_k_quadrature(0, 0.5) - (-1j * math.pi)) <= 1e-8
    assert abs(l_k_quadrature(2, 0.3 + 0.4j) - l_k_closed(2, 0.3 + 0.4j)) <= 1e-8


def test_l_k_quadrature_domain():
    with pytest.raises(DomainError):
        l_k_quadrature(1, 1.2 + 0.3j)
    with pytest.raises(DomainError):
        l_k_quadrature(3, 0.5)
    for k, z, message in ((1, 1.2 + 0.3j, r"Re z = 1\.2, not in \(0, 1\)"),
                          (3, 0.5, "k must be 0, 1 or 2, got 3")):
        for route in (l_k_quadrature, l_k_closed):
            with pytest.raises(DomainError, match=message):
                route(k, z)
    # a batch checks every k, then every z at once, naming the first bad point and its k
    with pytest.raises(DomainError, match=r"z = \(1\.5\+0j\) outside the L_k strip: Re z = 1\.5, "
                                          r"not in \(0, 1\) at L_2"):
        l_k_quadrature([1, 2, 0], [0.5, 1.5, -0.5])


# ---------------------------------------------------------------------------
# The Gauss-Kronrod rule
# ---------------------------------------------------------------------------

def test_kronrod_rule_matches_mpmath():
    kronrod, weights = kronrod_rule(12, 60)
    reference = np.array([float(x) for x in [-x for x in kronrod[:0:-1]] + kronrod + weights])
    literals = np.concatenate((qdilog._NODES[0::2], qdilog._K_W))
    assert np.all(np.abs(literals - reference) <= 2 * np.spacing(np.abs(reference)))
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(qdilog._NODES[1::2], gauss_x)
    assert np.array_equal(qdilog._G_W[1::2], gauss_w) and not qdilog._G_W[0::2].any()
    assert (qdilog._K_W > 0.0).all()


def test_kronrod_rule_is_exact_to_degree_37():
    for d in range(39):
        error = abs(np.dot(qdilog._K_W, qdilog._NODES ** d) - (2.0 / (d + 1) if d % 2 == 0 else 0.0))
        assert error <= 1e-15 if d <= 37 else error > 1e-15, d


def test_lemmas_and_product_identity_points_meet_tol_at_level_0(monkeypatch, capsys):
    # each quadrature call sums each of its two rays once: the K25 - G12 estimate
    # clears TOL at level 0 for every point, so no point refines
    splits = []
    ray_sums = qdilog._ray_sums

    def counted(*args):
        splits.append(args[6])
        return ray_sums(*args)

    monkeypatch.setattr(qdilog, "_ray_sums", counted)
    # one identity_residuals call for the 150 identity samples, one l_k_quadrature call
    assert cli.main(["lemmas", "--samples", "50", "--seed", "0"]) == 0
    assert splits == [1, 1, 1, 1]
    ctx = EvalContext(u=0.5, p=4, n=12)
    for k in range(1, 12):
        splits.clear()
        assert jones.product_identity_residual(k, ctx) <= 1e-12
        assert splits == [1, 1], k


@pytest.mark.parametrize("z", [complex(0.5, math.nan), complex(0.5, math.inf)])
def test_non_finite_z_is_refused_by_the_one_strip_check(z):
    # each strip of z goes through qdilog.require_strip, which refuses a z whose
    # Re z lies inside the strip but which is not finite, naming strip and context
    ctx = EvalContext(u=0.5, p=2, n=97)
    at = re.escape(f"at {ctx}")
    for strip, where, call in (("the T_N strip", at, lambda: t_n(z, ctx)),
                               ("the T_N strip", at, lambda: identity_residuals([("shift", z, ctx)])),
                               ("the L_k strip", "at L_1", lambda: l_k_quadrature(1, z)),
                               ("the L_k strip", "at L_1", lambda: l_k_closed(1, z)),
                               ("the f_N strip", at, lambda: jones.f_n(z, ctx)),
                               ("U_m", r"at \(u, p, m\) = \(0\.5, 2, 0\)", lambda: phi_m(z, 0, ctx.u, ctx.p))):
        with pytest.raises(DomainError, match=rf"outside {strip}: not finite, not in \(.*\) {where}$"):
            call()


# ---------------------------------------------------------------------------
# T_N
# ---------------------------------------------------------------------------

def test_t_n_strip_error():
    ctx = EvalContext(u=0.5, p=1, n=50)
    with pytest.raises(DomainError):
        t_n(-ctx.p / (2 * ctx.n) - 0.01, ctx)
    # just inside the strip end, a ray's tail would run past _MAX_TAIL: refused
    edge = EvalContext(u=0.5, p=2, n=97)
    z = np.array([1.0 + edge.gamma / 2 - 1e-5 * (1 + 1j)])
    with pytest.raises(QuadratureError,
                       match=r"ray path exceeds 5e\+05: .* at \(u, p, N\) = \(0\.5, 2, 97\)"):
        qdilog._t_quadrature(z, np.full(1, edge.gamma), lambda i: str(edge))


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


def test_self_consistency_under_refinement(monkeypatch):
    ctx = EvalContext(u=0.5, p=2, n=40)
    v1 = t_n(0.3 + 0.2j, ctx)
    monkeypatch.setattr(qdilog, "TOL", 1e-13)
    v2 = t_n(0.3 + 0.2j, ctx)
    assert abs(v1 - v2) < TOL


def test_batched_t_n_matches_scalar():
    ctx = EvalContext(u=0.5, p=3, n=31)
    g, tol = ctx.gamma.real, TOL
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


def _fails_alone(quadrature, *args):
    """Whether a single-point call misses qdilog.TOL, which callers set to 1e-16."""
    try:
        quadrature(*args)
    except QuadratureError:
        return True
    return False


def _edge_points(ctx, frac):
    """Points frac Re gamma inside either strip edge."""
    g = ctx.gamma.real
    return [complex(-g / 2 + frac * g, 0.05), complex(1 + g / 2 - frac * g, -0.1)]


_BATCH_CONTEXTS = (EvalContext(u=0.5, p=3, n=31), EvalContext(u=0.3, p=2, n=17),
                   EvalContext(u=0.7, p=5, n=40))


def _quadrature(points):
    """_t_quadrature of (z, ctx) points in one batch, each point named by its context."""
    z = np.array([z for z, _ in points], dtype=complex)
    gamma = np.array([ctx.gamma for _, ctx in points])
    return qdilog._t_quadrature(z, gamma, lambda i: str(points[i][1]))


def test_t_n_batch_across_contexts_is_bit_equal():
    per_ctx = {ctx: [0.3 + 0.2j] + _edge_points(ctx, 1e-3) + _edge_points(ctx, 5e-3)
               for ctx in _BATCH_CONTEXTS}
    # interleaved, so that each point's neighbours belong to other contexts
    points = [(zs[i], ctx) for i in range(5) for ctx, zs in per_ctx.items()]
    alone = {ctx: iter(_quadrature([(z, ctx) for z in zs])) for ctx, zs in per_ctx.items()}
    assert np.array_equal(_quadrature(points), [next(alone[ctx]) for _, ctx in points])
    # 10 |gamma| >= 1/2 in every context, so t_n takes the same quadrature
    for ctx, zs in per_ctx.items():
        assert np.array_equal(t_n(zs, ctx), _quadrature([(z, ctx) for z in zs]))


def test_t_n_strip_error_names_the_point_context():
    # Re z is just below Re gamma / 2, so the unit shift admits z, but Re(z + 1)
    # rounds to the strip end 1 + Re gamma / 2: the second sample's context is named
    ctx = _BATCH_CONTEXTS[1]
    edge = complex(np.nextafter(ctx.gamma.real / 2, 0.0), 0.1)
    samples = [("shift", 0.5 + 0.1j, _BATCH_CONTEXTS[0]), ("unit_shift", edge, ctx)]
    with pytest.raises(DomainError, match=r"Re z = 1\.0588.* at \(u, p, N\) = \(0\.3, 2, 17\)"):
        identity_residuals(samples)


@pytest.mark.parametrize("block", [12, 100])
def test_node_blocks_are_bit_equal(monkeypatch, block):
    ctx = EvalContext(u=0.5, p=3, n=31)
    edge = _edge_points(ctx, 1e-3)
    dec = EvalContext(u=0.5, p=2, n=97)
    # an infinite shift width turns the series down at every point, so the
    # 384 T_N points of the 192 decomposition terms all reach the quadrature
    monkeypatch.setattr(qdilog, "_SHIFT_WIDTH", math.inf)
    monkeypatch.setattr(qdilog, "_BLOCK_NODES", 10 ** 9)
    whole = t_n(edge, ctx), jones.decomposition_residual(dec)
    monkeypatch.setattr(qdilog, "_BLOCK_NODES", block)
    blocked = t_n(edge, ctx), jones.decomposition_residual(dec)
    assert np.array_equal(blocked[0], whole[0]) and blocked[1] == whole[1]


def _strip_points(count):
    rng = np.random.default_rng(0)
    return rng.uniform(0.05, 0.95, count) + 1j * rng.uniform(-0.5, 0.5, count)


@pytest.mark.parametrize("block", [1, 500])
def test_semicircle_row_blocks_are_bit_equal(monkeypatch, block):
    # 41 points of one context share each semicircle; block 1 gives two-row
    # blocks and a three-row last one, block 500 blocks of five rows and more
    ctx = EvalContext(u=0.5, p=2, n=40)
    z = _strip_points(41)
    monkeypatch.setattr(qdilog, "TOL", 1e-13)
    monkeypatch.setattr(qdilog, "_BLOCK_NODES", 10 ** 9)
    whole = t_n(z, ctx)
    monkeypatch.setattr(qdilog, "_BLOCK_NODES", block)
    assert np.array_equal(t_n(z, ctx), whole)


def test_many_points_of_one_context_keep_memory_bounded(monkeypatch):
    # unblocked semicircle rows peaked at 12.7 MB here (3.2 MB for 500 points)
    ctx = EvalContext(u=0.5, p=2, n=40)
    z = _strip_points(2000)
    monkeypatch.setattr(qdilog, "TOL", 1e-13)
    t_n(z[:3], ctx)                         # Gauss rules and imports outside the trace
    tracemalloc.start()
    try:
        t_n(z, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_unmeetable_tol_in_a_batch_names_the_first_failing_point(monkeypatch):
    monkeypatch.setattr(qdilog, "TOL", 1e-16)
    points = [(z, ctx) for ctx in _BATCH_CONTEXTS for z in (0.5 + 0.1j, 0.2 - 0.3j)]
    z, ctx = next((z, ctx) for z, ctx in points if _fails_alone(t_n, z, ctx))
    with pytest.raises(QuadratureError) as info:
        _quadrature(points)
    assert f"z = {np.complex128(z)} at (u, p, N) = ({ctx.u}, {ctx.p}, {ctx.n})," in str(info.value)


def test_l_k_batch_is_bit_equal_and_names_the_first_failing_row(monkeypatch):
    k = np.array([2, 0, 1, 1, 2, 0])
    z = np.array([0.3 + 0.4j, 0.5, 0.06 - 0.9j, 0.94 + 0.99j, 0.7 - 0.2j, 0.2 + 0.8j])
    alone = [l_k_quadrature(int(k_i), z_i) for k_i, z_i in zip(k, z)]
    assert np.array_equal(l_k_quadrature(k, z), alone)
    assert l_k_quadrature(k.reshape(2, 3), z.reshape(2, 3)).shape == (2, 3)
    monkeypatch.setattr(qdilog, "TOL", 1e-16)
    first = next(i for i in range(k.size) if _fails_alone(l_k_quadrature, int(k[i]), z[i]))
    with pytest.raises(QuadratureError) as info:
        l_k_quadrature(k, z)
    assert f"z = {z[first]} at L_{k[first]}, level 3" in str(info.value)
    with pytest.raises(DomainError, match="k must be 0, 1 or 2, got 3"):
        l_k_quadrature([0, 3], [0.5, 0.5])


def test_unmeetable_tol_names_the_failure(monkeypatch):
    monkeypatch.setattr(qdilog, "TOL", 1e-16)
    ctx = EvalContext(u=0.5, p=2, n=40)
    with pytest.raises(QuadratureError) as info:
        t_n([0.5, 0.3 + 0.2j], ctx)
    message = str(info.value)
    assert "z = (0.5+0j)" in message
    assert "(u, p, N) = (0.5, 2, 40)" in message
    assert "level 3" in message
    assert "best |delta| = " in message
    # the K25 - G12 estimate stalls near 7e-15 here, its rounding floor, far above TOL
    with pytest.raises(QuadratureError, match=r"z = \(0\.5-3j\) at L_0, level 3"):
        l_k_quadrature(0, 0.5 - 3j)


def test_e_n_logmag_is_re_t_n():
    ctx = EvalContext(u=0.5, p=1, n=50)
    value = t_n(0.37 + 0.04j, ctx)
    log_form = e_n(0.37 + 0.04j, ctx)
    assert type(log_form) is complex and log_form == value


# ---------------------------------------------------------------------------
# Bernoulli series
# ---------------------------------------------------------------------------

def _reduced(d):
    """d with its imaginary part reduced into [-pi, pi)."""
    return complex(d.real, (d.imag + math.pi) % (2.0 * math.pi) - math.pi)


@pytest.mark.parametrize("u,p,n", [(0.5, 2, 97), (0.3, 3, 101), (0.7, 2, 200)])
def test_series_matches_quadrature(monkeypatch, u, p, n):
    ctx = EvalContext(u=u, p=p, n=n)
    g = ctx.gamma.real
    rng = np.random.default_rng(n)
    z = np.concatenate([rng.uniform(-g / 2, 1 + g / 2, 8) + 1j * rng.uniform(-0.5, 0.5, 8),
                        _edge_points(ctx, 1e-3)])
    gamma = np.full(z.size, ctx.gamma)
    ok, series = qdilog._t_series(z, ctx.gamma)
    assert ok.all()
    monkeypatch.setattr(qdilog, "TOL", 1e-12)
    quadrature = qdilog._t_quadrature(z, gamma, lambda i: f"point {i}")
    assert np.abs(series - quadrature).max() <= 1e-12


@pytest.mark.parametrize("n", [801, 3201])
def test_series_matches_exact_product(n):
    u, p = 0.5, 2
    ctx = EvalContext(u=u, p=p, n=n)
    g = ctx.gamma.real
    rng = np.random.default_rng(n)
    z = np.concatenate([rng.uniform(0.0, 1.0, 3) + 1j * rng.uniform(-0.3, 0.3, 3),
                        _edge_points(ctx, 1e-3)])
    ok, series = qdilog._t_series(z, ctx.gamma)
    assert ok.all()
    for zi, value in zip(z, series):
        # the product's principal logs are off by multiples of 2 pi i
        assert abs(_reduced(value - exact_t_n(zi, u, p, n))) <= 1e-11 * abs(value)


@pytest.mark.parametrize("u,p,n", [(0.2, 3, 40), (0.5, 2, 97), (0.9, 1, 97)])
def test_quadrature_matches_exact_product(monkeypatch, u, p, n):
    # the float product serves for |Im z| <= 0.3; below about -0.3 it errs by
    # up to 1.5e-11 at these N, so points with -0.5 < Im z < -0.3 take the
    # product in mpmath, which the quadrature meets to 4e-14
    ctx = EvalContext(u=u, p=p, n=n)
    rng = np.random.default_rng([n, p])
    z = rng.uniform(0.0, 1.0, 8) + 1j * rng.uniform(-0.3, 0.3, 8)
    low = rng.uniform(0.0, 1.0, 3) + 1j * rng.uniform(-0.5, -0.3, 3)
    monkeypatch.setattr(qdilog, "TOL", 1e-12)
    points = np.concatenate([z, low])
    quadrature = qdilog._t_quadrature(points, np.full(points.size, ctx.gamma), lambda i: f"point {i}")
    for zi, value in zip(z, quadrature):
        assert abs(_reduced(value - exact_t_n(zi, u, p, n))) <= 1e-11
    for zi, value in zip(low, quadrature[z.size:]):
        assert abs(_reduced(value - exact_t_n_mp(zi, u, p, n))) <= 1e-13


@pytest.mark.parametrize("u,p,n", [(0.2, 1, 97), (0.5, 2, 97), (0.9, 3, 40)])
def test_quadrature_at_the_strip_edges_matches_exact_product(u, p, n):
    # z and z + 1 lie 0.05 to 0.5 Re gamma inside the two strip edges, as the
    # unit_shift samples of lemmas do; default TOL and _MAX_TAIL
    ctx = EvalContext(u=u, p=p, n=n)
    rng = np.random.default_rng([n, p, 1])
    x = np.concatenate([[-0.45, 0.45], rng.uniform(-0.45, 0.45, 2)])
    z = x * ctx.gamma.real + 1j * rng.uniform(-0.3, 0.3, 4)
    points = np.concatenate([z, z + 1.0])
    values = qdilog._t_quadrature(points, np.full(points.size, ctx.gamma), lambda i: str(ctx))
    for zi, value in zip(points, values):
        assert abs(_reduced(value - exact_t_n_mp(zi, u, p, n))) <= 5e-14


def test_each_caller_reaches_its_evaluator(monkeypatch):
    def refuse(*args):
        raise AssertionError("this evaluator must not be called")

    monkeypatch.setattr(qdilog, "_t_quadrature", refuse)
    assert jones.decomposition_residual(EvalContext(u=0.5, p=2, n=97)) <= 5e-13
    jones.f_n(np.linspace(0.0005, 0.4995, 1000) + 0.01j, EvalContext(u=0.5, p=2, n=3201))
    monkeypatch.undo()
    monkeypatch.setattr(qdilog, "_t_series", refuse)
    assert residual("shift", 0.3 + 0.2j, EvalContext(u=0.5, p=2, n=3201)) <= 1e-7
    assert abs(l_k_quadrature(2, 0.3 + 0.4j) - l_k_closed(2, 0.3 + 0.4j)) <= 1e-8


def test_series_declines_what_it_cannot_promise(monkeypatch):
    # small N: gamma too large to shift within (0, 1); an unmeetable TOL
    small = EvalContext(u=0.5, p=1, n=7)
    assert not qdilog._t_series(np.array([0.5]), small.gamma)[0].any()
    large = EvalContext(u=0.5, p=2, n=3201)
    z = np.array([0.5, 0.3 + 0.2j])
    assert qdilog._t_series(z, large.gamma)[0].all()
    monkeypatch.setattr(qdilog, "TOL", 1e-16)
    assert not qdilog._t_series(z, large.gamma)[0].any()


# ---------------------------------------------------------------------------
# functional equations
# ---------------------------------------------------------------------------

def residual(kind, z, ctx):
    """The residual of one identity sample, as identity_residuals gives it."""
    return identity_residuals([(kind, z, ctx)])[0]


def test_shift_identity_examples():
    assert residual("shift", 0.5, EvalContext(u=0.5, p=2, n=40)) <= 1e-7
    assert residual("shift", 0.3 + 0.2j, EvalContext(u=0.3, p=1, n=60)) <= 1e-7


def test_shift_identity_corollary_points():
    # z = j gamma - n for nN/p < j < (n+1)N/p reproduces the unity-root form
    ctx = EvalContext(u=0.5, p=2, n=41)
    for (j, n_int) in ((25, 1), (50, 2), (15, 0)):
        assert n_int * ctx.n / ctx.p < j < (n_int + 1) * ctx.n / ctx.p
        z = j * ctx.gamma - n_int
        assert residual("shift", z, ctx) <= 1e-7


def test_shift_identity_near_integer_error():
    ctx = EvalContext(u=0.5, p=1, n=30)
    with pytest.raises(DomainError):
        residual("shift", 1e-9 + 0j, ctx)


def test_gamma_half_examples():
    ctx = EvalContext(u=0.5, p=2, n=40)
    w = ctx.n * ctx.gamma - ctx.p          # Re w = 0, the summation usage
    assert residual("gamma_half", w, ctx) <= 1e-7
    assert residual("gamma_half", ctx.gamma / 4, ctx) <= 1e-7
    with pytest.raises(DomainError):
        residual("gamma_half", complex(ctx.gamma.real, 0.1), ctx)


def _lemma_samples(seed, count):
    """(kind, z, ctx) draws over the lemmas grid, as lemmas draws them."""
    rng = np.random.default_rng(seed)
    samples = []
    for kind in ("shift", "gamma_half", "unit_shift"):
        for _ in range(count):
            ctx = EvalContext(u=float(rng.choice((0.2, 0.5, 0.9))), p=int(rng.choice((1, 2, 3))),
                              n=int(rng.choice((31, 40, 97))))
            g = ctx.gamma.real
            z = {"shift": lambda: complex(rng.uniform(0.1, 0.9), rng.uniform(-0.5, 0.5)),
                 "gamma_half": lambda: complex(rng.uniform(0.1, 0.9) * g * rng.choice((-1, 1)),
                                               rng.uniform(-0.3, 0.3)),
                 "unit_shift": lambda: complex(rng.uniform(-0.45, 0.45) * g,
                                               rng.uniform(-0.3, 0.3))}[kind]()
            samples.append((kind, z, ctx))
    return samples


def test_identity_residuals_equal_the_single_checks():
    samples = _lemma_samples(7, 12)
    samples.insert(5, ("unit_shift", -0.004006817540464774 - 0.05885511384705713j,
                       EvalContext(u=0.2, p=1, n=97)))
    residuals = identity_residuals(samples)
    assert len(residuals) == len(samples)
    for (kind, z, ctx), value in zip(samples, residuals):
        assert value == residual(kind, z, ctx)
        if kind == "unit_shift":
            assert value == check_unit_shift(z, ctx)
    assert identity_residuals([]) == []


def test_identity_domain_errors_come_before_any_quadrature(monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran before the domain checks")

    monkeypatch.setattr(qdilog, "_contour", no_quadrature)
    ctx = EvalContext(u=0.5, p=1, n=30)
    samples = [("shift", 0.5 + 0.1j, ctx), ("shift", 1e-9 + 0j, ctx), ("unit_shift", 5.0, ctx)]
    with pytest.raises(DomainError, match=r"too close to an integer.*z = \(1e-09\+0j\) "
                                          r"at \(u, p, N\) = \(0\.5, 1, 30\)"):
        identity_residuals(samples)
    with pytest.raises(DomainError, match="unknown identity 'swap'"):
        identity_residuals([("swap", 0.5, ctx)])
    ctx = EvalContext(u=0.5, p=2, n=97)
    with pytest.raises(DomainError, match=r"shift identity requires 0 < Re z < 1: z = \(1\.2\+0\.1j\)"):
        identity_residuals([("shift", 1.2 + 0.1j, ctx)])
    with pytest.raises(DomainError, match=r"identity denominator 1 - e\^\{2 pi i w\} vanishes"):
        identity_residuals([("gamma_half", 1e-6, ctx)])


def test_identity_batch_failure_names_the_first_failing_point(monkeypatch):
    monkeypatch.setattr(qdilog, "TOL", 1e-16)
    samples = _lemma_samples(0, 2)
    _, points, _ = qdilog._identity_points(samples)
    ctxs = [ctx for _, _, ctx in samples for _ in range(2)]
    z, ctx = next((z, ctx) for z, ctx in zip(points, ctxs) if _fails_alone(t_n, z, ctx))
    with pytest.raises(QuadratureError) as info:
        identity_residuals(samples)
    assert f"z = {np.complex128(z)} at (u, p, N) = ({ctx.u}, {ctx.p}, {ctx.n})," in str(info.value)


def test_unit_shift_at_strip_edge():
    # lemmas --seed 3 draws this point, 0.11 Re gamma from the strip edge
    ctx = EvalContext(u=0.2, p=1, n=97)
    assert check_unit_shift(-0.004006817540464774 - 0.05885511384705713j, ctx) <= 1e-7


def test_unit_shift_examples():
    ctx = EvalContext(u=0.5, p=2, n=40)
    assert residual("unit_shift", 0j, ctx) <= 1e-7
    ctx41 = EvalContext(u=0.5, p=2, n=41)
    z = (ctx41.n - ctx41.n // ctx41.p - 0.5) * ctx41.gamma - ctx41.p + 1
    assert residual("unit_shift", z, ctx41) <= 1e-7
    with pytest.raises(DomainError):
        residual("unit_shift", ctx.gamma / 2, ctx)


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
        assert residual("shift", z, ctx) <= 1e-7
        g = ctx.gamma.real
        w = complex(rng.uniform(0.1, 0.9) * g * rng.choice((-1, 1)),
                    rng.uniform(-0.3, 0.3))
        assert residual("gamma_half", w, ctx) <= 1e-7
        z = complex(rng.uniform(-0.45, 0.45) * g, rng.uniform(-0.3, 0.3))
        assert residual("unit_shift", z, ctx) <= 1e-7


# each identity's range of Re z; at either end its E_N arguments reach an
# edge of the convergence strip
_IDENTITY_RANGES = (
    ("shift", lambda g: (0.0, 1.0)),
    ("gamma_half", lambda g: (-g, g)),
    ("unit_shift", lambda g: (-0.5 * g, 0.5 * g)),
)


@st.composite
def _identity_case(draw):
    """(kind, z, ctx) with Re z central or 0.02-0.2 Re gamma inside an end of its range."""
    ctx = EvalContext(u=draw(st.floats(0.05, 0.95)), p=draw(st.integers(1, 3)),
                      n=draw(st.integers(5, 100)))
    g = ctx.gamma.real
    kind, bounds = draw(st.sampled_from(_IDENTITY_RANGES))
    lo, hi = bounds(g)
    gap = draw(st.floats(0.02, 0.2)) * g
    margin = 0.1 * (hi - lo)
    re = draw(st.one_of(st.just(lo + gap), st.just(hi - gap),
                        st.floats(lo + margin, hi - margin)))
    im = draw(st.floats(0.05, 0.3)) * draw(st.sampled_from((-1, 1)))
    return kind, complex(re, im), ctx


@settings(max_examples=40, deadline=None)
@given(_identity_case())
def test_identities_hold_up_to_the_strip_edge(case):
    kind, z, ctx = case
    assert residual(kind, z, ctx) <= 1e-7
