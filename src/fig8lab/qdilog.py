"""Quantum dilogarithm T_N, by its Bernoulli series or by contour quadrature.

T_N(z) is a quarter of the integral of e^{(2z-1)x} / (x sinh(x) sinh(gamma x))
along the contour Omega = (-oo,-1] + upper unit semicircle + [1,oo), oriented
left to right, with gamma = xi/(2 N pi i) and xi = u + 2 p pi i.  The integral
converges on the strip -p/(2N) < Re z < 1 + p/(2N).  E_N(z) = exp(T_N(z)) is
only ever used through its complex log T_N(z), which is the only
representation that survives the sizes reached downstream.

Two evaluators serve T_N.  t_n, and so jones.f_n and everything built on it,
takes the Bernoulli series in gamma (_t_series) for every point whose error
estimate is below TOL, and contour quadrature (_t_quadrature) for the rest:
small N, where gamma is too large for the series, and any point where the
series cannot promise TOL.  identity_residuals and l_k_quadrature call the
quadrature directly: the exact functional equations of E_N, and the closed
forms of L_0, L_1, L_2 in numkernel, are what test it, and the series' edge
shifts use one of those equations.

The series expands 1/sinh(gamma x) in the integrand:

    T_N(z) = Li2(e^{2 pi i z}) / (2 pi i gamma)
             + sum_{j>=1} (2^{2j-1} - 1) B_{2j}/(2j)! h^{2j-1} P_{2j-2}(s),

with h = pi i gamma, s = 1/(1 - e^{-2 pi i z}), P_0 = s and
P_{n+1} = (s^2 - s) P_n'.  It is asymptotic, valid on 0 < Re z < 1 and
poor near its ends, so a point closer than _SHIFT_WIDTH |gamma| to an end
first moves inward by whole steps of gamma, through
T_N(z) = T_N(z + gamma) + log(1 - e^{2 pi i (z + gamma/2)}) (mirrored at the
right end).  _SERIES_TERMS terms are summed; the next one, while the terms
still decrease, plus a rounding allowance, is the error estimate.

One batched quadrature driver serves every z, and one call of it takes points
of any (u, p, N): identity_residuals checks all three functional equations of
E_N for samples of any contexts with one quadrature call (t_n takes one
context).  The same driver evaluates the N-free integrals behind L_0, L_1,
L_2.  Points with the same integrand share the semicircle nodes.  The ray
nodes of all points, and the semicircle rows of each group of points, are
evaluated in blocks of at most _BLOCK_NODES nodes, so memory stays bounded
however large the batch.  Refinement level l splits each ray panel into 2^l
Gauss panels and the semicircle into 8 * 2^l.  Level 0 is followed by levels
1, 2, 3 until a point moves by less than TOL (at most 3 refinements); only
unconverged points go on.  The module constant TOL = 1e-10 is the one accuracy
target, read at call time: an absolute bound on the error of each T_N value,
which also sets where each ray is cut.  No argument or option changes it.

Each ray is bent.  With a its exponential rate (2z - 2 - gamma on [1, oo),
-(2z + gamma) on the negative ray mirrored onto it), Gauss panels double in
width along the real axis from 1 to x_k = 2^k, the first power of two at least
the panel cap (see _RATE_WIDTH).  An evenly spaced tail then leaves x_k in the
direction d = e^{i theta}, theta = clip(arg(-conj a), -pi/4, pi/4)
(_MAX_TURN), along which e^{a x} does not oscillate but decays monotonically
at nu = -Re(a d) >= |a|/sqrt 2.  Near the strip edge -Re a tends to 0 while
|a| need not, so the tail stays short.  When Im a = 0, theta = 0 and the ray
is straight.  The tail is cut at the length s where a bound on the whole
integrand left past it falls below 1e-5 TOL.  Along d, |x|, Re x and
Re(gamma x) only grow (Re(gamma d) > 0), so |ray| there is at most its value
at the real x_k with the key made real, the factor
1/|1 - e^{-2 gamma x}| <= 1/(1 - e^{-2 Re(gamma) x_k}) included, and the
tail left out is below |ray(x_k, Re key)| e^{Re(a) x_k - nu s} / nu.  Every
level cuts at the same s, so the refinement check cannot see the cut; 1e-5
TOL keeps it near the rounding of the sums at the default TOL.  A point whose
path x_k + s exceeds _MAX_TAIL is refused.

Bending changes no integral.  The ray integrands have poles only at
x = i k pi (from sinh x) and at x = i k pi / gamma = -2 k N pi^2 / xi (from
sinh(gamma x)).  For k > 0 the second family lies in the left half-plane; for
k < 0 at argument -pi/2 + atan(u / (2 p pi)), at most -81.3 degrees since
u < kappa; the L_k rays have only the poles i k pi.  So a tail turned at a
real x_k >= 1 by |theta| <= pi/4 sweeps no pole.  On the closing arc at
infinity, Re(a e^{i phi}) < 0 for every phi between 0 and theta (it is
negative at both ends, and the arc is shorter than pi), and
|1 - e^{-2 gamma x}| tends to 1 there since Re(gamma e^{i phi}) > 0, so the
arc adds nothing.  The negative ray, mirrored, uses the same ray(x, gamma),
so the same argument covers it.  Both pole families stay far from Omega
itself, so plain panel refinement is sufficient.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .numkernel import _LI2_COEF, DomainError, QuadratureError, li2, log1mexp

KAPPA = math.acosh(1.5)


def require_u(u: float, closed_end: bool = False) -> None:
    """Raise DomainError unless 0 < u < kappa (0 < u <= kappa with closed_end)."""
    hi_ok = u <= KAPPA if closed_end else u < KAPPA
    if not (0.0 < u and hi_ok):
        end = "]" if closed_end else ")"
        raise DomainError(f"u must lie in (0, {KAPPA:.6f}{end}, got {u}")


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)
TOL = 1.0e-10
_MAX_REFINEMENTS = 3
_MAX_TAIL = 5.0e5
# Ray panels double in width along the real axis from [1, 2] up to the cap
# _RATE_WIDTH / (|a| + |Im gamma|), a the ray's exponential rate; the turned
# tail's panels are at most the cap wide.  12-point Gauss then errs near
# 5.8^-24 = 5e-19 on [x, 2x] (the pole of 1/x at 0) and 3e-15 on e^{a x} over
# a width of 8/|a|.
_RATE_WIDTH = 8.0
# The tail of each ray turns by at most pi/4 off the real axis.  The poles of
# the ray integrands, x = i k pi and x = i k pi / gamma, lie on the imaginary
# axis, in the left half-plane, or at argument -pi/2 + atan(u / (2 p pi)) <=
# -81.3 degrees (u < kappa): a tail turned by pi/4 at a real x_k >= 1 sweeps none.
_MAX_TURN = 0.25 * math.pi


@dataclass(frozen=True)
class EvalContext:
    """The evaluation triple (u, p, N) with xi = u + 2 p pi i derived.

    Requires 0 < u < kappa = arccosh(3/2) and positive integers p, N.
    Re gamma equals p/N exactly by construction.
    """

    u: float
    p: int
    n: int

    def __post_init__(self):
        require_u(self.u)
        # int is tried first: the Integral ABC check alone takes longer than the rest
        # of this method, and lemmas makes one context per sample
        p, n = self.p, self.n
        if not (isinstance(p, (int, Integral)) and isinstance(n, (int, Integral))
                and p >= 1 and n >= 1):
            raise DomainError("p and N must be positive integers")

    @property
    def xi(self) -> complex:
        return complex(self.u, 2.0 * math.pi * self.p)

    @property
    def gamma(self) -> complex:
        # xi / (2 N pi i) written so that Re gamma is exactly p/N
        return complex(self.p / self.n, -self.u / (2.0 * math.pi * self.n))

    def __str__(self) -> str:
        """The context as errors name it: (u, p, N) = (...)."""
        return f"(u, p, N) = ({self.u}, {self.p}, {self.n})"


# ---------------------------------------------------------------------------
# Batched panel quadrature
# ---------------------------------------------------------------------------

# Ray nodes evaluated at once, so that a large batch keeps its temporaries small.
_BLOCK_NODES = 16_384


def _bend(rate, gamma, key, ray):
    """Each point's bent ray (see the module docstring) for the given rate.

    Returns k, the turn d, the tail's panel count and width, and the path's
    end x_k + s, which _MAX_TAIL bounds.  The tail's length s is where the
    bound on the whole integrand left past it, |ray(x_k, Re key)|
    e^{Re(rate) x_k - nu s} / nu with nu = -Re(rate d), falls below 1e-5 TOL;
    s is at least one panel width.
    """
    cap = _RATE_WIDTH / (np.abs(rate) + np.abs(gamma.imag))
    k = np.maximum(np.ceil(np.log2(cap)), 0.0)
    x_k = 2.0 ** k
    turn = np.exp(1j * np.clip(np.angle(-rate.conjugate()), -_MAX_TURN, _MAX_TURN))
    nu = -(rate * turn).real
    bound = np.abs(ray(x_k, key.real))
    length = np.maximum((np.log(1e5 * bound / (TOL * nu)) + rate.real * x_k) / nu, cap)
    count = np.ceil(length / cap)
    return k.astype(np.int64), turn, count.astype(np.int64), length / count, x_k + length


def _ray_sums(k, turn, count, width, rate, key, split: int, ray) -> np.ndarray:
    """Per-point Gauss sums of e^{rate x} ray(x, key) along each point's bent ray.

    The ray runs along the real axis from 1 to x_k = 2^k in the panels
    [2^j, 2^{j+1}], then leaves x_k in the direction turn in count evenly
    spaced panels of the given width.  Each panel is split into `split`
    equal Gauss panels.  The panels are evaluated in blocks (see _row_blocks).
    """
    per = k + count
    first = np.cumsum(per) - per
    owner = np.repeat(np.arange(per.size), per)
    j = np.arange(owner.size) - first[owner]
    k, rate, key = k[owner], rate[owner], key[owner]
    x_j = 2.0 ** np.minimum(j, k)
    step = np.where(j < k, x_j, (width * turn)[owner])
    left = x_j + np.maximum(j - k, 0) * step
    half = step / (2 * split)
    offsets = (np.arange(1, 2 * split, 2)[:, None] + _GAUSS_X).ravel()
    weights = np.tile(_GAUSS_W, split)
    panels = np.empty(left.size, dtype=complex)
    for b in _row_blocks(left.size, weights.size):
        nodes = left[b, None] + half[b, None] * offsets
        values = np.exp(rate[b, None] * nodes) * ray(nodes, key[b, None])
        panels[b] = half[b] * np.dot(values, weights)
    return np.add.reduceat(panels, first)


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows), each of at most _BLOCK_NODES // width rows.

    A block holds at least two rows, and no block is a lone last row: BLAS
    sums a one-row product in another order than a row of a larger one, so
    the blocks keep every row's sum bit-equal to the unblocked product's.
    """
    step = max(_BLOCK_NODES // width, 2)
    bounds = [0, *range(step, rows - 1, step), rows]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _contour(z, gamma, sign, key, ray, circ, where) -> np.ndarray:
    """Per-point integrals along Omega, with the per-point two-level check at TOL.

    Every argument but ray, circ and where is a per-point array, so one
    call takes points of any integrand.  The integrand is e^{(2z-1) x}
    circ(x, key) on the semicircle.  On the rays it is rewritten as
    e^{(2z-2-gamma) x} ray(x, key) on [1, oo), and as sign e^{-(2z+gamma) x}
    ray(x, key) on the negative ray mirrored onto [1, oo) (gamma = 0 for the
    L_k integrals); each ray is bent as the module docstring says, and
    ray(x_k, key.real) at the real x_k bounds |ray| along its tail.  where(i)
    names point i in an error.
    """
    if not z.size:
        return np.zeros(0, dtype=complex)
    rates = (2.0 * z - 2.0 - gamma, -(2.0 * z + gamma))
    bends = [_bend(rate, gamma, key, ray) for rate in rates]
    far = np.flatnonzero((bends[0][-1] > _MAX_TAIL) | (bends[1][-1] > _MAX_TAIL))
    if far.size:
        raise QuadratureError(f"ray path exceeds {_MAX_TAIL:.3g}: z = {z[far[0]]} "
                              f"too close to the strip edge at {where(far[0])}")
    signs = (np.ones(z.size), sign)

    def evaluate(level: int, idx: np.ndarray) -> np.ndarray:
        total = np.zeros(idx.size, dtype=complex)
        for s, rate, bend in zip(signs, rates, bends):
            k, turn, count, width, _ = (part[idx] for part in bend)
            total += s[idx] * _ray_sums(k, turn, count, width, rate[idx], key[idx], 1 << level, ray)
        n_circ = np.maximum(np.ceil(np.abs(2.0 * z[idx] - 1.0)).astype(int), 8 << level)
        keys = key[idx]
        # points with the same panel count and key share the semicircle nodes
        # x = e^{it} and one matrix product (np.unique would import numpy.ma, 10-20 ms)
        for n, g in set(zip(n_circ.tolist(), keys.tolist())):
            half = 0.5 * math.pi / n
            x = np.exp(1j * half * (2 * np.arange(n)[:, None] + 1 + _GAUSS_X).ravel())
            # the semicircle runs t: pi -> 0, and dx = i x dt
            weights = 1j * x * np.tile(half * _GAUSS_W, n) * circ(x, g)
            rows = np.flatnonzero((n_circ == n) & (keys == g))
            for b in _row_blocks(rows.size, x.size):
                sel = rows[b]
                total[sel] -= np.dot(np.exp(np.outer(2.0 * z[idx[sel]] - 1.0, x)), weights)
        return total

    active = np.arange(z.size)
    value = evaluate(0, active)
    best = np.full(z.size, np.inf)
    for level in range(1, _MAX_REFINEMENTS + 1):
        refined = evaluate(level, active)
        delta = np.abs(refined - value[active])
        best[active] = np.minimum(best[active], delta)
        value[active] = refined
        active = active[delta >= TOL]
        if not active.size:
            return value
    i = active[0]
    raise QuadratureError(
        f"quadrature failed to meet tol at maximum refinement: z = {z[i]} at {where(i)}, "
        f"level {level}, best |delta| = {best[i]:.3g} >= tol = {TOL:.3g}"
    )


def _t_ray(x, gamma):
    # 1/sinh factored as 2 e^{-x}/(1-e^{-2x}) to avoid overflow on the ray
    return 4.0 / (x * (1.0 - np.exp(-2.0 * x)) * (1.0 - np.exp(-2.0 * gamma * x)))


def _t_circ(x, gamma):
    return 1.0 / (x * np.sinh(x) * np.sinh(gamma * x))


def _t_quadrature(z, gamma, where) -> np.ndarray:
    """T_N at the points z by contour quadrature; gamma and where as in _contour."""
    return 0.25 * _contour(z, gamma, np.full(z.size, -1.0), gamma, _t_ray, _t_circ, where)


# ---------------------------------------------------------------------------
# Bernoulli series
# ---------------------------------------------------------------------------

# Terms of the series summed; one more is computed for the error estimate.
_SERIES_TERMS = 8
# A point closer than _SHIFT_WIDTH |gamma| to an end of (0, 1) moves inward,
# which takes up to _SHIFT_WIDTH + 1 steps of gamma.  10 |gamma| is 0.2 at
# (p, N) = (2, 97); the series needs the moved point inside (0, 1), so it is
# tried only while this width is below 1/2.
_SHIFT_WIDTH = 10.0
# Rounding allowance of the series, relative to the magnitude it sums.
_ROUNDING = 16.0 * np.finfo(float).eps


def _series_coefficients(count: int) -> np.ndarray:
    """Row j - 1 holds (2^{2j-1} - 1) B_{2j}/(2j)! P_{2j-2}(s), ascending in s, j = 1..count.

    B_{2j}/(2j)! is (2j + 1) times numkernel's Li2 coefficient B_{2j}/(2j+1)!.
    """
    rows = np.zeros((count, 2 * count))
    poly = np.array([0.0, 1.0])                             # P_0 = s
    for j in range(1, count + 1):
        rows[j - 1, :poly.size] = (2.0 ** (2 * j - 1) - 1.0) * (2 * j + 1) * _LI2_COEF[2 * j] * poly
        for _ in range(2):                                  # P_{n+1} = (s^2 - s) P_n'
            deriv = poly[1:] * np.arange(1, poly.size)
            poly = np.concatenate(([0.0, 0.0], deriv)) - np.concatenate(([0.0], deriv, [0.0]))
    return rows


_SERIES_COEF = _series_coefficients(_SERIES_TERMS + 1)


def _t_series(z, gamma):
    """T_N by its Bernoulli series (see the module docstring), and where it meets TOL.

    z and gamma are per-point arrays.  Returns (ok, values): ok marks the
    points whose error estimate is below TOL, and values holds T_N there;
    elsewhere values is undefined.
    """
    width = _SHIFT_WIDTH * np.abs(gamma)
    ok = np.zeros(z.size, dtype=bool)
    values = np.empty(z.size, dtype=complex)
    tried = np.flatnonzero(width < 0.5)
    if not tried.size:
        return ok, values
    z, gamma, width = z[tried], gamma[tried], width[tried]
    # whole steps of gamma from the nearer end of (0, 1), inward
    sign = np.where(z.real < 0.5, 1.0, -1.0)
    steps = np.ceil((width - np.minimum(z.real, 1.0 - z.real)) / gamma.real)
    steps = np.maximum(steps, 0.0).astype(np.int64)
    # T_N(z) = T_N(z + sign steps gamma) + sign sum_k log(1 - e^{2 pi i (z + sign (k + 1/2) gamma)})
    owner = np.repeat(np.arange(z.size), steps)
    first = np.cumsum(steps) - steps
    half_steps = np.arange(owner.size) - first[owner] + 0.5
    logs = log1mexp(2j * math.pi * (z[owner] + sign[owner] * half_steps * gamma[owner]))
    shifted = np.flatnonzero(steps)
    correction = np.zeros(z.size, dtype=complex)
    correction[shifted] = sign[shifted] * np.add.reduceat(logs, first[shifted])
    z = z + sign * steps * gamma

    # s from e^{+-2 pi i z} of modulus at most 1
    upper = z.imag >= 0.0
    q = np.exp(2j * math.pi * np.where(upper, z, -z))
    s = np.where(upper, q / (q - 1.0), 1.0 / (1.0 - q))
    lead = li2(np.exp(2j * math.pi * z)) / (2j * math.pi * gamma)
    h = 1j * math.pi * gamma
    count = _SERIES_TERMS
    terms = (np.vander(s, 2 * count + 2, increasing=True) @ _SERIES_COEF.T
             * h[:, None] * np.vander(h * h, count + 1, increasing=True))
    values[tried] = lead + terms[:, :count].sum(axis=1) + correction
    size = np.abs(terms)
    truncation = np.where(size[:, count] < size[:, count - 1], size[:, count], np.inf)
    rounding = _ROUNDING * (np.abs(lead) + np.abs(correction) + 1.0)
    ok[tried] = truncation + rounding < TOL
    return ok, values


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def _require_strip(z, gamma, where) -> None:
    """Raise DomainError, naming the first point, unless -Re gamma/2 < Re z < 1 + Re gamma/2."""
    half = 0.5 * gamma.real
    outside = np.flatnonzero(~((-half < z.real) & (z.real < 1.0 + half)))
    if outside.size:
        i = outside[0]
        raise DomainError(f"Re z = {z[i].real} outside convergence strip "
                          f"(-{half[i]}, {1 + half[i]}) at {where(i)}")


def t_n(z, ctx: EvalContext):
    """Quantum dilogarithm T_N(z) on -p/(2N) < Re z < 1 + p/(2N).

    z is a complex scalar (a complex is returned) or an array of points of
    the one context ctx, evaluated in one batch (an array of the same shape
    is returned): by the Bernoulli series where its error estimate is below
    TOL, the one accuracy target, and by one batched quadrature elsewhere.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    gamma = np.full(flat.size, ctx.gamma)

    def where(i):
        return str(ctx)
    _require_strip(flat, gamma, where)
    ok, values = _t_series(flat, gamma)
    rest = np.flatnonzero(~ok)
    if rest.size:
        values[rest] = _t_quadrature(flat[rest], gamma[rest], where)
    return complex(values[0]) if zs.ndim == 0 else values.reshape(zs.shape)


def e_n(z: complex, ctx: EvalContext) -> complex:
    """The complex log of E_N(z) = exp(T_N(z)), that is T_N at one point.

    No library path calls it; bench/spans.py wraps it as a span.
    """
    return t_n(complex(z), ctx)


_LK_PREFACTOR = np.array([1.0, -0.5, 0.5j * math.pi])


def l_k_quadrature(k, z):
    """L_k(z) by direct contour quadrature, k in {0, 1, 2}, 0 < Re z < 1.

    k and z are scalars (a complex is returned) or broadcastable arrays,
    integrated in one batched quadrature (an array is returned).
    """
    ks, zs = np.broadcast_arrays(np.asarray(k), np.asarray(z, dtype=complex))
    for k_i, z_i in zip(ks.flat, zs.flat):
        if k_i not in (0, 1, 2):
            raise DomainError(f"k must be 0, 1 or 2, got {k_i}")
        if not 0.0 < z_i.real < 1.0:
            raise DomainError(f"Re z = {z_i.real} outside (0, 1)")
    ks, flat = ks.ravel().astype(int), zs.ravel()

    # the integrands take a point's index: each point is its own semicircle
    # group, summed by the one-row product of a single-point call
    def ray(x, i):
        return 2.0 / (np.choose(ks[i], (1.0, x, x * x)) * (1.0 - np.exp(-2.0 * x)))

    def circ(x, i):
        return 1.0 / (x ** int(ks[i]) * np.sinh(x))

    # on the negative ray x^k flips sign for odd k
    values = _LK_PREFACTOR[ks] * _contour(flat, np.zeros(flat.size, dtype=complex),
                                           -(-1.0) ** ks, np.arange(flat.size),
                                           ray, circ, lambda i: f"L_{ks[i]}")
    return complex(values[0]) if zs.ndim == 0 else values.reshape(zs.shape)


# ---------------------------------------------------------------------------
# Functional-equation residuals
# ---------------------------------------------------------------------------

def _identity_form(kind: str, z: complex, gamma: complex) -> list:
    """[num, den, w1, w2] of the identity E_N(num) / E_N(den) = (1 - e^{w1}) / (1 - e^{w2}).

    w2 = -inf stands for no factor, since log1mexp(-inf) is exactly 0.  An
    unknown kind gets NaN points; _identity_points refuses it.  A list, not
    a tuple: freed tuples of four stay on CPython's free list, which the
    benchmark's tracemalloc peak would count.
    """
    v = 2j * math.pi * z
    if kind == "shift":             # 1 - e^{2 pi i z}
        return [z - 0.5 * gamma, z + 0.5 * gamma, v, -math.inf]
    if kind == "gamma_half":        # (1 - e^{2 pi i z/gamma}) / (1 - e^{2 pi i z})
        return [z + 0.5 * gamma, z - 0.5 * gamma + 1.0, v / gamma, v]
    if kind == "unit_shift":        # 1 + e^{2 pi i z/gamma} = 1 - e^{2 pi i z/gamma + i pi}
        return [z, z + 1.0, v / gamma + 1j * math.pi, -math.inf]
    return [math.nan, math.nan, -math.inf, -math.inf]


def _identity_fault(kind: str, z: complex, gamma: complex, top: complex, bottom: complex):
    """Why z lies outside the domain of its identity, or None.

    top and bottom are the logs of 1 - e^{w1} and 1 - e^{w2} (see _identity_form).
    """
    if kind == "shift":
        if not 0.0 < z.real < 1.0:
            return "shift identity requires 0 < Re z < 1"
        if top.real < -7.0:
            return "z too close to an integer: identity RHS vanishes"
    elif kind == "gamma_half":
        if not abs(z.real) < gamma.real:
            return "gamma/2 identity requires |Re w| < Re gamma"
        if bottom.real < -9.0:
            return "identity denominator 1 - e^{2 pi i w} vanishes"
    elif not abs(z.real) < 0.5 * gamma.real:
        return "unit shift identity requires |Re z| < Re gamma / 2"
    return None


def _identity_points(samples):
    """(log right-hand sides, E_N points, their gammas) of (kind, z, ctx) samples.

    The points are each sample's numerator and denominator in turn (see
    _identity_form).  One log1mexp call takes the (M, 2) exponents of every
    sample; then each sample's kind and domain are checked, in order.
    """
    gammas = [ctx.gamma for _, _, ctx in samples]
    forms = np.array([_identity_form(kind, z, gamma) for (kind, z, _), gamma in zip(samples, gammas)],
                     dtype=complex).reshape(-1, 4)
    logs = log1mexp(forms[:, 2:])
    for (kind, z, ctx), gamma, (top, bottom) in zip(samples, gammas, logs.tolist()):
        if kind not in ("shift", "gamma_half", "unit_shift"):
            raise DomainError(f"unknown identity {kind!r}")
        fault = _identity_fault(kind, z, gamma, top, bottom)
        if fault:
            raise DomainError(f"{fault}: z = {z} at {ctx}")
    return logs[:, 0] - logs[:, 1], forms[:, :2].ravel(), np.repeat(np.array(gammas, dtype=complex), 2)


def identity_residuals(samples) -> list[float]:
    """Residuals |E_N(num) / E_N(den) / rhs - 1| of (kind, z, ctx) samples.

    kind is "shift", "gamma_half" or "unit_shift".  Every sample's domain is
    checked, in order, before one quadrature call integrates all their
    points.  The quadrature is called directly, never the series: the exact
    identities are its test.
    """
    samples = [(kind, complex(z), ctx) for kind, z, ctx in samples]
    rhs, points, gamma = _identity_points(samples)

    def where(i):
        return str(samples[i // 2][2])

    _require_strip(points, gamma, where)
    t = _t_quadrature(points, gamma, where)
    return [abs(cmath.exp(t_num - t_den - r) - 1.0)
            for r, t_num, t_den in zip(rhs.tolist(), t[0::2].tolist(), t[1::2].tolist())]


def check_unit_shift(z: complex, ctx: EvalContext) -> float:
    """Residual of E_N(z)/E_N(z+1) = 1 + e^{2 pi i z/gamma}.

    One sample of identity_residuals; the benchmark (bench/workloads.py)
    calls it for its strip-edge sample.
    """
    return identity_residuals([("unit_shift", z, ctx)])[0]
