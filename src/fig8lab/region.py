"""Region geometry around the saddle and grid-based topology checks.

For each m the strip U_m = {m/p < Re z + (u/2 p pi) Im z < (m+1)/p} carries
the shifted potential Phi_m.  The hexagon E_m (the strip clipped to
|Im z| <= 2 Im sigma_m and b_m^- <= Re z <= b_m^+), the sublevel region
D_m = {Re Phi_m < Re Phi_m(sigma_m)} and the two tilted-threshold bands
R-bar / R-under are reconstructed on a rectangular grid, from which the
two-lobe structure of D_m within E_m and the connectivity of the bands are
verified by 4-connected component labelling.  The closed-form lemma checks
return plain margins: Re Phi_m(sigma_m) - Re Phi_m(P12) at the hexagon
vertex P12, and Re F(sigma_0) - Re f_N at the summation points near the
ends of each sector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numkernel import DomainError, li2
from .qdilog import EvalContext
from .jones import f_n, k_range
from .saddle import (
    KAPPA,
    f_values,
    phi_m,
    saddle_data,
    varphi,
)


# ---------------------------------------------------------------------------
# Region grid
# ---------------------------------------------------------------------------

@dataclass
class RegionGrid:
    """Rectangular sampling of Re Phi_m over E_m's bounding box."""

    m: int
    u: float
    p: int
    nu: float
    resolution: tuple
    bounds: tuple            # (x_lo, x_hi, y_lo, y_hi)
    xs: np.ndarray
    ys: np.ndarray
    re_phi: np.ndarray       # shape (ny, nx); NaN outside U_m
    in_u: np.ndarray         # also E_m: the grid box is E_m's bounding box by construction
    in_d: np.ndarray
    in_rbar: np.ndarray
    in_runder: np.ndarray
    threshold: float         # Re Phi_m(sigma_m) = Re F(sigma_0)
    sigma_m: complex


_SCAN_BLOCK = 16_384            # in-U_m points per f_values call


def grid_scan(m: int, u: float, p: int, resolution=400, nu: float = 0.02) -> RegionGrid:
    """Re Phi_m and the region flags on the grid over E_m's bounding box.

    F is evaluated in blocks of _SCAN_BLOCK points, so that the temporaries
    (256 KB an array) stay in cache; a 400x400 scan peaks at 12 MB, not 28.
    """
    if isinstance(resolution, int):
        resolution = (resolution, resolution)
    nx, ny = resolution
    if nx < 50 or ny < 50:
        raise DomainError("resolution must be at least 50x50")
    if not 0.0 < nu < 0.5:
        raise DomainError("nu must lie in (0, 0.5)")
    if not 0 <= m <= p - 1:
        raise DomainError(f"m must lie in [0, p-1], got {m}")

    sd = saddle_data(u, p)
    xi = sd.xi
    sigma_m = sd.sigma_m(m)
    ims = sigma_m.imag
    threshold = sd.f_sigma0.real

    x_lo, x_hi = (m + nu) / p, (m + 1 - nu) / p
    y_lo, y_hi = -2.0 * ims, 2.0 * ims
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(y_lo, y_hi, ny)
    X, Y = np.meshgrid(xs, ys)

    skew = X + u / (2.0 * math.pi * p) * Y
    in_u = (skew > m / p) & (skew < (m + 1) / p)

    re_phi = np.full(X.shape, np.nan)
    z_inside = (X + 1j * Y)[in_u] - 2j * m * math.pi / xi
    values = np.empty(z_inside.size)
    for s in range(0, z_inside.size, _SCAN_BLOCK):
        values[s:s + _SCAN_BLOCK] = f_values(z_inside[s:s + _SCAN_BLOCK], u, p).real
    re_phi[in_u] = values

    with np.errstate(invalid="ignore"):
        in_d = in_u & (re_phi < threshold)
        in_rbar = in_u & (Y >= 0.0) & (re_phi < threshold + 2.0 * math.pi * Y)
        in_runder = in_u & (Y <= 0.0) & (re_phi < threshold - 2.0 * math.pi * Y)

    return RegionGrid(
        m=m, u=u, p=p, nu=nu, resolution=(nx, ny),
        bounds=(x_lo, x_hi, y_lo, y_hi), xs=xs, ys=ys,
        re_phi=re_phi, in_u=in_u, in_d=in_d,
        in_rbar=in_rbar, in_runder=in_runder,
        threshold=threshold, sigma_m=sigma_m,
    )


def label_components(mask: np.ndarray):
    """4-connected component labels of a boolean grid; returns (labels, count).

    Components are numbered 1, 2, ... in the raster order of their first
    cell.  Each horizontal run of set cells is one node; runs in adjacent
    rows that share a column are merged by a union-find whose links always
    point to the lower run index, so each root is its component's first run.
    """
    mask = np.asarray(mask, dtype=bool)
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    run = np.cumsum(starts).reshape(mask.shape)    # run number at set cells
    touch = mask[:-1] & mask[1:]
    touch[:, 1:] &= ~touch[:, :-1]                  # one cell per touching pair of runs
    parent = list(range(int(np.count_nonzero(starts)) + 1))
    for a, b in zip(run[:-1][touch].tolist(), run[1:][touch].tolist()):
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        parent[max(a, b)] = min(a, b)
    root = np.array(parent)
    while not np.array_equal(root[root], root):
        root = root[root]
    number = np.cumsum(root == np.arange(root.size)) - 1    # 0 for the background run 0
    labels = np.where(mask, number[root][run], 0).astype(np.int32)
    return labels, int(number[-1])


def pinch_epsilon(grid: RegionGrid) -> float:
    """Sublevel regularization matched to the grid's resolution at the saddle.

    D_m's two lobes meet E_m's excluded ridge only at the single point
    sigma_m, so the strict sublevel set is separated by a barrier whose
    width shrinks to zero there; any finite grid leaks through it.  Lowering
    the threshold by the quadratic variation of Phi_m over a few cells,
    eps = |a_2| (3 h)^2, restores a barrier wider than one cell while
    removing only an O(h)-radius disk at the saddle, and vanishes as the
    grid refines, so the count below converges to the continuum count.
    """
    sd = saddle_data(grid.u, grid.p)
    dx = grid.xs[1] - grid.xs[0]
    dy = grid.ys[1] - grid.ys[0]
    return abs(sd.a2) * (3.0 * max(dx, dy)) ** 2


def components_d_cap_e(grid: RegionGrid) -> int:
    """Number of 4-connected components of D_m within E_m.

    Counted on {Re Phi_m < threshold - pinch_epsilon(grid)}, the sublevel
    set lowered by the pinch-aware margin above.
    """
    with np.errstate(invalid="ignore"):
        mask = grid.in_u & (grid.re_phi < grid.threshold - pinch_epsilon(grid))
    if not mask.any():
        raise DomainError("D_m ∩ E_m is empty on this grid")
    _, count = label_components(mask)
    return count


def band_endpoints_connected(grid: RegionGrid, lower: bool = False) -> bool:
    """Whether b_m^- and b_m^+ fall in one component of R-bar (or R-under)."""
    mask = grid.in_runder if lower else grid.in_rbar
    labels, _ = label_components(mask)
    iy = int(np.argmin(np.abs(grid.ys)))
    candidates = [iy] + [iy - 1, iy + 1]
    left = right = 0
    for row in candidates:
        if 0 <= row < labels.shape[0]:
            if left == 0:
                left = labels[row, 0]
            if right == 0:
                right = labels[row, -1]
    return left != 0 and left == right


# ---------------------------------------------------------------------------
# Closed-form inequality checks
# ---------------------------------------------------------------------------

def c_pm(u: float, p: int, m: int) -> float:
    """c_{p,m}(u) = Li2(-e^{-u-q}) - Li2(-e^{-u+q}) + u q - 2 p pi^2,
    with q = u((6m+5) pi + 2 theta)/(2 p pi); negative throughout (0, kappa]."""
    theta = varphi(u).imag
    q = u * ((6 * m + 5) * math.pi + 2.0 * theta) / (2.0 * p * math.pi)
    value = (
        li2(-math.exp(-u - q))
        - li2(-math.exp(-u + q))
        + u * q
        - 2.0 * p * math.pi ** 2
    )
    return float(value.real)


def c_pm_derivative_bound() -> float:
    """Upper bound (kappa/2) log(3 + 2 cosh(3 kappa)) - 2 pi^2 = -18.274...

    Bounds the p-derivative (kappa/2p^2) log(3 + 2 cosh(kappa(3 - 1/2p)))
    - 2 pi^2 of c_{p,p-1}(kappa) from above, uniformly in p >= 1.
    """
    return 0.5 * KAPPA * math.log(3.0 + 2.0 * math.cosh(3.0 * KAPPA)) - 2.0 * math.pi ** 2


def check_f_p12(u: float, p: int, m: int) -> float:
    """Margin Re Phi_m(sigma_m) - Re Phi_m(P12) of the lemma Re Phi_m(P12) < Re Phi_m(sigma_m).

    P12 = (2m+1)/(2p) + conj(xi) Im sigma_m / (p pi) is the hexagon vertex on
    the midline L_M.  The vertices P1, P45 and P4 sit at m/p, (2m+1)/(2p) and
    (m+1)/p, shifted by the same offset; the hexagon exists only when
    Re P1 < Re P45 and Re P12 < min(Re P4, Re sigma_m).
    """
    if not 0 <= m <= p - 1:
        raise DomainError(f"m must lie in [0, p-1], got {m}")
    sd = saddle_data(u, p)
    sigma_m = sd.sigma_m(m)
    offset = sd.xi.conjugate() / (p * math.pi) * sigma_m.imag
    mid = (2 * m + 1) / (2 * p)
    p12 = mid + offset
    if not ((m / p + offset).real < (mid - offset).real
            and p12.real < ((m + 1) / p - offset).real
            and p12.real < sigma_m.real):
        raise DomainError("hexagon vertex ordering violated; parameters out of range")
    return sd.f_sigma0.real - phi_m(p12, m, u, p).real


# ---------------------------------------------------------------------------
# Finite-N endpoint decay
# ---------------------------------------------------------------------------

def endpoint_decay(ctx: EvalContext, m: int, delta_grid: float) -> list:
    """Re f_N at summation points near the ends of (m/p, (m+1)/p).

    Returns the rows (k, k/N, Re f_N, margin) with the margin
    Re F(sigma_0) - Re f_N((2k+1)/2N - 2m pi i/xi), which the endpoint
    estimates require to be positive.
    """
    if math.gcd(ctx.p, ctx.n) != 1:
        raise DomainError("endpoint decay requires gcd(p, N) = 1")
    sd = saddle_data(ctx.u, ctx.p)
    top = sd.f_sigma0.real
    shift = 2j * m * math.pi / sd.xi
    lo_edge, hi_edge = m / ctx.p, (m + 1) / ctx.p
    ks = [k for k in k_range(m, ctx)
          if k / ctx.n - lo_edge <= delta_grid or hi_edge - k / ctx.n <= delta_grid]
    if not ks:
        raise DomainError("no summation points within delta_grid of the interval ends")
    values = f_n((2 * np.array(ks) + 1) / (2.0 * ctx.n) - shift, ctx).real
    return [(k, k / ctx.n, value, top - value) for k, value in zip(ks, values.tolist())]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def write_grid_header(grid: RegionGrid, path, components: int) -> None:
    """The grid's parameters, sigma_m, threshold and D_m component count as JSON."""
    header = {
        "schema": "fig8lab/1",
        "kind": "region-grid",
        "params": {
            "m": grid.m,
            "u": grid.u,
            "p": grid.p,
            "nu": grid.nu,
            "resolution": list(grid.resolution),
            "bounds": list(grid.bounds),
        },
        "sigma_m": [grid.sigma_m.real, grid.sigma_m.imag],
        "threshold": grid.threshold,
        "components_d_cap_e": components,
    }
    with open(path, "w") as fh:
        json.dump(header, fh, sort_keys=True)
        fh.write("\n")


# "in_u,in_e,in_d,in_rbar,in_runder" cells, indexed by the 4-bit code
# in_u in_d in_rbar in_runder (in_u the high bit); in_e repeats in_u
_FLAG_CELLS = tuple("%d,%d,%d,%d,%d" % (k >> 3, k >> 3, k >> 2 & 1, k >> 1 & 1, k & 1)
                    for k in range(16))


def write_grid_csv(grid: RegionGrid, path) -> None:
    """Cell dump: x, y, rePhi and the five membership flags as 0/1.

    The in_e column repeats in_u, since within the grid E_m and U_m coincide.
    Every number is written with %.17g and every flag with %d, but only
    re_phi is formatted cell by cell.  Each x is formatted once per grid and
    each y once per grid row, and both are baked into that row's template
    "x,y,%.17g,%s".  The four independent flags form a 4-bit code per cell
    that picks its flag columns from a 16-entry string table.  The grid is
    written one row at a time, so only one row of Python values is alive.
    """
    code = np.zeros(grid.re_phi.shape, dtype=np.uint8)
    for flag in (grid.in_u, grid.in_d, grid.in_rbar, grid.in_runder):
        code <<= 1
        code |= flag
    x_cells = ["%.17g" % x for x in grid.xs.tolist()]
    values = [None] * (2 * len(x_cells))
    with open(path, "w") as fh:
        fh.write("x,y,re_phi,in_u,in_e,in_d,in_rbar,in_runder\n")
        for y, re_phi, flags in zip(grid.ys.tolist(), grid.re_phi, code):
            rest = ",%.17g,%%.17g,%%s\n" % y
            values[0::2] = re_phi.tolist()
            values[1::2] = [_FLAG_CELLS[k] for k in flags.tolist()]
            fh.write((rest.join(x_cells) + rest) % tuple(values))
