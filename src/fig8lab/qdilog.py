"""Quantum dilogarithm T_N, by its Bernoulli series or by contour quadrature.

T_N(z) is a quarter of the integral of e^{(2z-1)x} / (x sinh(x) sinh(gamma x))
along the contour Omega = (-oo,-1] + upper unit semicircle + [1,oo), oriented
left to right, with gamma = xi/(2 N pi i) and xi = u + 2 p pi i.  The integral
converges on the strip -p/(2N) < Re z < 1 + p/(2N).  E_N(z) = exp(T_N(z)) is
only ever used through its complex log T_N(z), which is the only
representation that survives the sizes reached downstream.

The package's parameter checks live here, one per parameter: require_u,
require_counts (p, N and every other positive-integer count),
require_integers (any other integer), require_sector (a sector m in
[0, p-1]) and require_strip (a finite z on the T_N, L_k or f_N strip or
U_m, each lo < Re z + c Im z < hi); jones.sector_points checks its k.

Two evaluators serve T_N.  t_n, and so jones.f_n and everything built on it,
takes the Bernoulli series in its one gamma (_t_series) for every point
whose error estimate is below TOL, and contour quadrature (_t_quadrature)
for the rest: small N, where gamma is too large for the series, and any
point where the series cannot promise TOL.  identity_residuals and
l_k_quadrature call the quadrature directly: the exact functional equations
of E_N, and the closed forms of L_0, L_1, L_2 (l_k_closed, which shares
l_k_quadrature's one check of k and z), are what test it, and the series'
edge shifts use one of those equations.

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
L_2.  Each refinement level sums both rays of every point still active in
one ray sum.  On the semicircle, one rule serves every integrand: points with
the same panel count and key (gamma for T_N, k for L_k) share the nodes and
one matrix product, a lone row summed as one of two, so a point's value does
not depend on the batch it comes in.  The ray nodes of
all points, and the semicircle rows of each group of points, are evaluated
in blocks of whole rows and at most _BLOCK_NODES = 4,096 nodes, never with a
lone last row (_row_blocks), and each ray block builds its own panel
geometry.  So memory stays bounded however large the batch, and a block's
temporaries, each of at most 64 KiB (but for semicircle rows wider than a
third of a block), stay in a core's L2 cache: measured, that lowers both
time and peak memory (see _BLOCK_NODES).  t_n runs the series over blocks of
points by the same rule.  The node offsets and the semicircle nodes are
read-only tables, one per panel count.
Every panel takes the 25-point Gauss-Kronrod rule K25, and its 12 embedded
Gauss nodes give G12 at no extra evaluation; a point's value is its K25 sum
and its error estimate |K25 - G12|.  Refinement level l splits each ray
panel into 2^l panels and the semicircle into 4 * 2^l (at least ceil|2z - 1|).  Only the points whose estimate is TOL or more go on
to the next level, up to level 3.  The module constant TOL = 1e-10 is the
one accuracy target, read at call time: an absolute bound on the error of
each T_N value, which also sets where each ray is cut.  No argument or option
changes it.

Each ray is bent.  With a its exponential rate (2z - 2 - gamma on [1, oo),
-(2z + gamma) on the negative ray mirrored onto it), panels double in width
along the real axis from 1 to x_k = 2^k, the first power of two at least the
panel cap (see _RATE_WIDTH).  An evenly spaced tail then leaves x_k in the
direction d = e^{i theta}, theta = clip(arg(-conj a), -pi/4, pi/4)
(_MAX_TURN), along which e^{a x} does not oscillate but decays monotonically
at nu = -Re(a d) >= |a|/sqrt 2.  Near the strip edge -Re a tends to 0 while
|a| need not, so the tail stays short.  When Im a = 0, theta = 0 and the ray
is straight.  The tail is cut at the length s where a bound on the whole
integrand left past it falls below 1e-5 TOL.  Along d, |x|, Re x and
Re(gamma x) only grow (Re(gamma d) > 0), so |ray| there is at most its value
at the real x_k with the key made real, the factor
1/|1 - e^{-2 gamma x}| <= 1/(1 - e^{-2 Re(gamma) x_k}) included, and the
tail left out is below |ray(x_k, Re key)| e^{Re(a) x_k - nu s} / nu.  K25,
G12 and every level cut at the same s, so the error estimate cannot see the
cut; 1e-5 TOL keeps it near the rounding of the sums at the default TOL.  A
point whose path x_k + s exceeds _MAX_TAIL is refused.

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
import functools
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .numkernel import _LI2_COEF, DomainError, QuadratureError, li2, log1mexp

KAPPA = math.acosh(1.5)


def require_u(u: float, closed_end: bool = False) -> None:
    """Raise DomainError unless u is real (float tried first) and 0 < u < kappa (<= with closed_end)."""
    if not isinstance(u, (float, Real)):
        raise DomainError(f"u must be a real number, got {u!r}")
    hi_ok = u <= KAPPA if closed_end else u < KAPPA
    if not (0.0 < u and hi_ok):
        end = "]" if closed_end else ")"
        raise DomainError(f"u must lie in (0, {KAPPA:.6f}{end}, got {u}")


def require_counts(names: str, *counts) -> None:
    """Raise DomainError "<names> must be positive integers" unless every count is one.

    int is tried first: the Integral ABC check (numpy integers) alone takes longer
    than the rest of an EvalContext, and lemmas makes one per sample."""
    for count in counts:
        if not (isinstance(count, (int, Integral)) and count >= 1):
            kind = "positive integers" if len(counts) > 1 else "a positive integer"
            raise DomainError(f"{names} must be {kind}")


def require_integers(names: str, *values) -> None:
    """Raise DomainError "<names> must be integers" unless every value is one (see require_counts)."""
    if not all(isinstance(value, (int, Integral)) for value in values):
        raise DomainError(f"{names} must be {'integers' if len(values) > 1 else 'an integer'}")


def require_sector(m, p: int) -> None:
    """Raise DomainError "m must lie in [0, p-1], got m" unless m is an integer in [0, p-1]."""
    if not (isinstance(m, (int, Integral)) and 0 <= m <= p - 1):
        raise DomainError(f"m must lie in [0, p-1], got {m}")


def require_strip(z, lo, hi, name: str, where, skew=0.0) -> None:
    """Raise DomainError naming the first z that is not finite or not on lo < Re z + skew Im z < hi.

    lo, hi and skew are scalars or arrays of z's size; where(i) names point i's context."""
    z = np.asarray(z, dtype=complex).ravel()
    finite = np.isfinite(z)
    s = np.where(finite, z, np.nan)
    s = s.real + skew * s.imag
    inside = (lo < s) & (s < hi)
    if not inside.all():
        i = int(inside.argmin())
        detail = f"{'skew abscissa' if np.any(skew) else 'Re z'} = {s[i]}" if finite[i] else "not finite"
        lo, hi = np.broadcast_to(lo, z.shape)[i], np.broadcast_to(hi, z.shape)[i]
        raise DomainError(f"z = {z[i]} outside {name}: {detail}, not in ({lo}, {hi}) at {where(i)}")


# The 25-point Gauss-Kronrod rule on [-1, 1] (Laurie, Math. Comp. 66, 1997),
# symmetric about 0, from its nodes >= 0: the 13 Kronrod nodes at the even
# positions, computed in mpmath at 60 digits and rounded to float64, and the
# 12 Gauss nodes at the odd ones, with Gauss weights bit-equal to leggauss(12)'s.
_HALF_NODES = np.array([
    0.0, 0.1252334085114689, 0.2485057483204693, 0.3678314989981802, 0.48133945047815707,
    0.5873179542866175, 0.6840598954700559, 0.7699026741943047, 0.8435581241611533,
    0.9041172563704748, 0.9505377959431213, 0.9815606342467192, 0.9969339225295955])
_HALF_K_W = np.array([
    0.12555689390547434, 0.12458416453615608, 0.12162630352394839, 0.11671205350175683,
    0.11002260497764407, 0.10164973227906028, 0.09154946829504922, 0.0799202753336017,
    0.06725090705083993, 0.05369701760775625, 0.038915230469299476, 0.023036084038982232,
    0.008257711433168396])
_HALF_G_W = np.array([
    0.0, 0.2491470458134027, 0.0, 0.2334925365383546, 0.0, 0.20316742672306573, 0.0,
    0.16007832854334642, 0.0, 0.10693932599531907, 0.0, 0.04717533638651141, 0.0])
_NODES = np.concatenate((-_HALF_NODES[:0:-1], _HALF_NODES))
_K_W = np.concatenate((_HALF_K_W[:0:-1], _HALF_K_W))
_G_W = np.concatenate((_HALF_G_W[:0:-1], _HALF_G_W))
TOL = 1.0e-10
_MAX_REFINEMENTS = 3
_MAX_TAIL = 5.0e5
# Ray panels double in width along the real axis from [1, 2] up to the cap
# _RATE_WIDTH / (|a| + |Im gamma|), a the ray's exponential rate; the turned
# tail's panels are at most the cap wide.  The embedded 12-point Gauss rule,
# whose distance from K25 is the error estimate, then errs near 5.8^-24 = 5e-19
# on [x, 2x] (the pole of 1/x at 0) and 3e-15 on e^{a x} over a width of 8/|a|,
# so level 0 meets TOL; K25 itself is exact to degree 37 instead of 23.
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
        require_counts("p and N", self.p, self.n)

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

# Nodes evaluated at once, so that every temporary of a block is at most
# 4,096 complex values, 64 KiB (see _row_blocks).  That keeps a block's ten or
# so temporaries in a core's L2 cache, and the blocks a quarter of the size
# from which numpy's temporary elision reuses an operand in place and may swap
# a product's operands (256 KiB).  Measured with bench/run.py on a 2-core Xeon
# with 2 MiB of L2 per core, identities workload: 16,384 nodes peaked at
# 2.41 MB, 8,192 at 1.73 MB and 4,096 at 1.38 MB, with passes 4-5% faster
# than 16,384's; 2,048 peaked at 1.21 MB but its passes were 2.5% slower than
# 4,096's.  The same rule blocks t_n's series points.
_BLOCK_NODES = 4_096


def _bend(rate, gamma, key, ray):
    """Each ray's bend (see the module docstring); rate, gamma and key are per ray.

    Returns k, the tail's panel count, its panel step (the panel width times
    the turn d) and the path's end x_k + s, which _MAX_TAIL bounds.  The
    tail's length s is where the bound on the whole integrand left past it,
    |ray(x_k, Re key)| e^{Re(rate) x_k - nu s} / nu with nu = -Re(rate d),
    falls below 1e-5 TOL; s is at least one panel width.
    """
    cap = _RATE_WIDTH / (np.abs(rate) + np.abs(gamma.imag))
    k = np.maximum(np.ceil(np.log2(cap)), 0.0)
    x_k = 2.0 ** k
    # arg(-conj rate), clipped to [-_MAX_TURN, _MAX_TURN]
    turn = np.exp(1j * np.minimum(np.maximum(np.arctan2(rate.imag, -rate.real), -_MAX_TURN), _MAX_TURN))
    nu = -(rate * turn).real
    bound = np.abs(ray(x_k, key.real))
    length = np.maximum((np.log(1e5 * bound / (TOL * nu)) + rate.real * x_k) / nu, cap)
    count = np.ceil(length / cap)
    return k.astype(np.int64), count.astype(np.int64), length / count * turn, x_k + length


def _ray_sums(k, count, step, rate, key, split: int, ray) -> np.ndarray:
    """Per-ray K25 and G12 sums of e^{rate x} ray(x, key) along each bent ray.

    Every argument but split and ray is a per-ray array, so one call sums
    both rays of every point.  A ray runs along the real axis from 1 to
    x_k = 2^k in the panels [2^j, 2^{j+1}], then leaves x_k in count panels
    of the complex step.  Each panel is split into `split` equal panels of
    25 nodes.  The panels are evaluated in blocks (see _row_blocks), and
    each block builds its own panel geometry, so that no per-panel array
    outgrows a block.  Returns the Kronrod sums in row 0 and the Gauss sums
    in row 1.
    """
    ends = np.cumsum(k + count)
    first = ends - (k + count)
    offsets, k_w, g_w, _ = _panel_rule(split)
    panels = np.empty((2, ends[-1]), dtype=complex)
    for b in _row_blocks(ends[-1], offsets.size):
        panel = np.arange(b.start, b.stop)
        owner = np.searchsorted(ends, panel, side="right")
        j, k_j = panel - first[owner], k[owner]
        x_j = 2.0 ** np.minimum(j, k_j)
        width = np.where(j < k_j, x_j, step[owner])
        left = x_j + np.maximum(j - k_j, 0) * width
        half = width / (2 * split)
        nodes = left[:, None] + half[:, None] * offsets
        values = rate[owner, None] * nodes
        np.exp(values, out=values)
        values *= ray(nodes, key[owner, None])
        for row, w in zip(panels, (k_w, g_w)):
            row[b] = half * np.dot(values, w)
    return np.add.reduceat(panels, first, axis=1)


@functools.lru_cache(maxsize=64)
def _panel_rule(count: int):
    """K25 on count equal panels of width 2: the node offsets 2 j + 1 + x from
    the left end, the K25 and G12 weights tiled to match, and the semicircle
    nodes e^{i h offsets}, h = pi / (2 count), of count panels of the arc.
    A constant table per count, read-only since every later call shares it.
    The offsets are complex: numpy would cast float ones in every product."""
    offsets = (2 * np.arange(count)[:, None] + 1 + _NODES).ravel().astype(complex)
    arc = np.exp(1j * (0.5 * math.pi / count) * offsets)
    rule = offsets, np.tile(_K_W, count), np.tile(_G_W, count), arc
    for table in rule:
        table.flags.writeable = False
    return rule


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows), each of at most _BLOCK_NODES // width rows.

    A block of rows of width values thus holds at most _BLOCK_NODES values,
    64 KiB of complex (see _BLOCK_NODES for the measured reason).  Unless
    rows is 1, a block holds at least two rows, and no block is a lone last
    row: BLAS sums a one-row product in another order than a row of a larger
    one, so the blocks keep every row's sum bit-equal to the unblocked
    product's.  So a block has step = _BLOCK_NODES // width - 1 rows, and the
    last one up to step + 1, as it takes a row that would be left alone.  step
    is at least 2, so a width above _BLOCK_NODES / 3 gets blocks of 2 or 3
    rows, beyond the bound.  A single row is one block; _contour never passes
    one, since it sums a lone semicircle row as one of two, and the ray
    panels of a point are at least two.  Zero rows are one empty block.
    """
    step = max(_BLOCK_NODES // width - 1, 2)
    bounds = [0, *range(step, rows - 1, step), rows]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _contour(z, gamma, sign, key, ray, circ, where) -> np.ndarray:
    """Per-point K25 integrals along Omega, each refined until |K25 - G12| < TOL.

    Every argument but ray, circ and where is a per-point array, so one call
    takes points of any integrand.  The integrand is e^{(2z-1) x} circ(x, key)
    on the semicircle.  On the rays it is rewritten as e^{(2z-2-gamma) x}
    ray(x, key) on [1, oo), and as sign e^{-(2z+gamma) x} ray(x, key) on the
    negative ray mirrored onto [1, oo) (gamma = 0 for the L_k integrals);
    each ray is bent as the module docstring says, and ray(x_k, key.real) at
    the real x_k bounds |ray| along its tail.  The rays are bent once, and
    each level sums both rays of every active point in one _ray_sums call.
    One rule holds for every key: the points with the same key and
    semicircle panel count share the rows of one matrix product, and a lone
    row is summed as one of two rows, as in any batch that gives it company.
    where(i) names point i in an error.
    """
    if not z.size:
        return np.zeros(0, dtype=complex)
    # the rays of point i are i on [1, oo) and z.size + i on the negative ray
    rate = np.concatenate((2.0 * z - 2.0 - gamma, -(2.0 * z + gamma)))
    key2 = np.concatenate((key, key))
    k, count, step, end = _bend(rate, np.concatenate((gamma, gamma)), key2, ray)
    far = np.flatnonzero((end > _MAX_TAIL).reshape(2, -1).any(axis=0))
    if far.size:
        raise QuadratureError(f"ray path exceeds {_MAX_TAIL:.3g}: z = {z[far[0]]} "
                              f"too close to the strip edge at {where(far[0])}")

    def evaluate(level: int, idx: np.ndarray) -> np.ndarray:
        """The K25 sums (row 0) and G12 sums (row 1) of the points idx at level."""
        rays = np.concatenate((idx, z.size + idx))
        sums = _ray_sums(k[rays], count[rays], step[rays], rate[rays], key2[rays], 1 << level, ray)
        total = np.zeros((2, idx.size), dtype=complex)
        total += sums[:, :idx.size]
        total += sign[idx] * sums[:, idx.size:]
        # the arc integrand's nearest singularity, sinh x = 0 at x = i pi, sits at
        # t = pi/2 - i log pi, 1.14 off the arc, so G12 on arcs of pi/4 errs near 2e-19
        n_circ = np.maximum(np.ceil(np.abs(2.0 * z[idx] - 1.0)).astype(int), 4 << level)
        keys = key[idx]
        # points with the same panel count and key share the semicircle nodes
        # x = e^{it} and one matrix product (np.unique would import numpy.ma, 10-20 ms)
        for n, g in set(zip(n_circ.tolist(), keys.tolist())):
            _, k_w, g_w, x = _panel_rule(n)
            # the semicircle runs t: pi -> 0, and dx = i x dt
            arc = 1j * (0.5 * math.pi / n) * x * circ(x, g)
            weights = arc * k_w, arc * g_w
            rows = np.flatnonzero((n_circ == n) & (keys == g))
            if rows.size == 1:
                rows = np.repeat(rows, 2)
            for b in _row_blocks(rows.size, x.size):
                sel = rows[b]
                values = np.exp(np.outer(2.0 * z[idx[sel]] - 1.0, x))
                for row, w in zip(total, weights):
                    row[sel] -= np.dot(values, w)
        return total

    active = np.arange(z.size)
    value = np.empty(z.size, dtype=complex)
    best = np.full(z.size, np.inf)
    for level in range(_MAX_REFINEMENTS + 1):
        kronrod, gauss = evaluate(level, active)
        delta = np.abs(kronrod - gauss)
        best[active] = np.minimum(best[active], delta)
        value[active] = kronrod
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


def _lk_ray(x, k):
    return 2.0 / (x ** k * (1.0 - np.exp(-2.0 * x)))


def _lk_circ(x, k):
    return 1.0 / (x ** k * np.sinh(x))


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

    z is an array of points of one context, gamma its complex gamma.  Returns
    (ok, values): ok marks the points whose error estimate is below TOL, and
    values holds T_N there; elsewhere values is undefined.
    """
    width = _SHIFT_WIDTH * abs(gamma)
    if width >= 0.5:
        return np.zeros(z.size, dtype=bool), np.empty(z.size, dtype=complex)
    # whole steps of gamma from the nearer end of (0, 1), inward
    sign = np.where(z.real < 0.5, 1.0, -1.0)
    steps = np.ceil((width - np.minimum(z.real, 1.0 - z.real)) / gamma.real)
    steps = np.maximum(steps, 0.0).astype(np.int64)
    # T_N(z) = T_N(z + sign steps gamma) + sign sum_k log(1 - e^{2 pi i (z + sign (k + 1/2) gamma)})
    owner = np.repeat(np.arange(z.size), steps)
    first = np.cumsum(steps) - steps
    half_steps = np.arange(owner.size) - first[owner] + 0.5
    logs = log1mexp(2j * math.pi * (z[owner] + sign[owner] * half_steps * gamma))
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
             * h * np.vander([h * h], count + 1, increasing=True))
    values = lead + terms[:, :count].sum(axis=1) + correction
    size = np.abs(terms)
    truncation = np.where(size[:, count] < size[:, count - 1], size[:, count], np.inf)
    rounding = _ROUNDING * (np.abs(lead) + np.abs(correction) + 1.0)
    return truncation + rounding < TOL, values


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

def t_n(z, ctx: EvalContext):
    """Quantum dilogarithm T_N(z) on -p/(2N) < Re z < 1 + p/(2N).

    z is a complex scalar (a complex is returned) or an array of points of
    the one context ctx, evaluated in one batch (an array of the same shape
    is returned): by the Bernoulli series where its error estimate is below
    TOL, the one accuracy target, and by one batched quadrature elsewhere.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()

    def where(i):
        return str(ctx)
    require_strip(flat, -0.5 * ctx.gamma.real, 1.0 + 0.5 * ctx.gamma.real, "the T_N strip", where)
    ok = np.empty(flat.size, dtype=bool)
    values = np.empty(flat.size, dtype=complex)
    # the series' temporaries take about 1.1 KB a point, so it runs in blocks
    for b in _row_blocks(flat.size, 1):
        ok[b], values[b] = _t_series(flat[b], ctx.gamma)
    rest = np.flatnonzero(~ok)
    if rest.size:
        values[rest] = _t_quadrature(flat[rest], np.full(rest.size, ctx.gamma), where)
    return complex(values[0]) if zs.ndim == 0 else values.reshape(zs.shape)


def e_n(z: complex, ctx: EvalContext) -> complex:
    """The complex log of E_N(z) = exp(T_N(z)), that is T_N at one point.

    No library path calls it; bench/spans.py counts its calls.
    """
    return t_n(complex(z), ctx)


def _lk_points(k, z):
    """(k, z, shape, where): k and z broadcast to shape, flattened, k as ints, and
    where(i) naming point i's L_k; DomainError at the first k that is not 0, 1
    or 2, then at the first z off 0 < Re z < 1."""
    ks, zs = np.broadcast_arrays(np.asarray(k), np.asarray(z, dtype=complex))
    bad = ((ks != 0) & (ks != 1) & (ks != 2)).ravel()
    if bad.any():
        raise DomainError(f"k must be 0, 1 or 2, got {ks.flat[bad.argmax()]}")

    def where(i):
        return f"L_{ks.flat[i]}"
    require_strip(zs, 0, 1, "the L_k strip", where)
    return ks.ravel().astype(int), zs.ravel(), zs.shape, where


def l_k_closed(k, z):
    """L_k(z) in closed form, k and z as in l_k_quadrature: with w = 2 pi i z,
    2 pi i / expm1(-w), the principal log(1 - e^w) and Li2(e^w) for k = 0, 1, 2.

    Past |Re w| = 700, where that exponential overflows, L_0 is -2 pi i e^w /
    expm1(w) and L_2 is -pi^2/6 - (w - i pi)^2 / 2 - Li2(e^-w), Li2's
    inversion with log(-e^w) = w - i pi.  k and z are scalars (a complex is
    returned) or broadcastable arrays (an array is returned).  The forms are
    elementwise, so a point's value is the same in any batch.
    """
    ks, z, shape, _ = _lk_points(k, z)
    w = 2j * math.pi * z
    zero, one, two = (ks == k_i for k_i in range(3))
    low, high = zero & (w.real < -700.0), two & (w.real > 700.0)
    values = np.empty(w.size, dtype=complex)
    with np.errstate(over="raise"):
        values[zero & ~low] = 2j * math.pi / np.expm1(-w[zero & ~low])
        values[low] = -2j * math.pi * np.exp(w[low]) / np.expm1(w[low])
        values[one] = log1mexp(w[one])
        values[two & ~high] = li2(np.exp(w[two & ~high]))
        values[high] = -math.pi ** 2 / 6 - 0.5 * (w[high] - 1j * math.pi) ** 2 - li2(np.exp(-w[high]))
    return complex(values[0]) if not shape else values.reshape(shape)


_LK_PREFACTOR = np.array([1.0, -0.5, 0.5j * math.pi])


def l_k_quadrature(k, z):
    """L_k(z) by direct contour quadrature, k in {0, 1, 2}, 0 < Re z < 1.

    k and z are scalars (a complex is returned) or broadcastable arrays,
    integrated in one batched quadrature (an array is returned).  The key
    of a point is its k, so points with the same k share semicircle nodes.
    """
    ks, z, shape, where = _lk_points(k, z)
    # on the negative ray x^k flips sign for odd k
    values = _LK_PREFACTOR[ks] * _contour(z, np.zeros(z.size, dtype=complex), -(-1.0) ** ks, ks,
                                           _lk_ray, _lk_circ, where)
    return complex(values[0]) if not shape else values.reshape(shape)


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

    require_strip(points, -0.5 * gamma.real, 1.0 + 0.5 * gamma.real, "the T_N strip", where)
    t = _t_quadrature(points, gamma, where)
    return [abs(cmath.exp(t_num - t_den - r) - 1.0)
            for r, t_num, t_den in zip(rhs.tolist(), t[0::2].tolist(), t[1::2].tolist())]


def check_unit_shift(z: complex, ctx: EvalContext) -> float:
    """Residual of E_N(z)/E_N(z+1) = 1 + e^{2 pi i z/gamma}.

    One sample of identity_residuals; the benchmark (bench/workloads.py)
    calls it for its strip-edge sample.
    """
    return identity_residuals([("unit_shift", z, ctx)])[0]
