"""Region geometry around the saddle, its component count and grid checks.

For each m the strip U_m = {m/p < Re z + (u/2 p pi) Im z < (m+1)/p} carries
the shifted potential Phi_m.  The hexagon E_m (the strip clipped to
|Im z| <= 2 Im sigma_m and b_m^- <= Re z <= b_m^+) holds the sublevel region
D_m = {Re Phi_m < Re Phi_m(sigma_m)}, which has two lobes there.  That count
is taken on the boundary of E_m: Re Phi_m is harmonic, so every component of
D_m within E_m reaches the boundary, and a walk along it counts the runs
where Re Phi_m lies below the threshold (components_d_cap_e).  D_m and the
two tilted-threshold bands R-bar / R-under are also reconstructed on a
square grid, for the grid files; the tests check on it, with 4-connected
component labelling, that each band joins b_m^- to b_m^+.  Walk and grid
share one box (_grid_box), inset from the ends of U_m by a margin set by
sigma_m.  The closed-form lemma checks return plain margins: the margin
Re Phi_m(sigma_m) - Re Phi_m(P12) at the hexagon vertex P12, and the margins
Re F(sigma_0) - Re f_N at the summation points near the ends of each sector.

Emission: the grid files are a JSON header and a CSV of every cell, each
line the bytes of "%.17g,%.17g,%.17g,%d,%d,%d,%d,%d" % (x, y, Re Phi_m and
the five flags).  The Re Phi_m cells are formatted in numpy, in row blocks
(write_grid_csv): a cell with 1e-4 <= |Re Phi_m| < 1e16 gets its 17
correctly rounded digits from the exact product of |Re Phi_m| and a power of
ten, carried in two doubles (_g17), which is what Python's "%.17g" prints;
NaN (outside U_m), +-0, +-inf and the ranges beyond go through Python's
"%.17g" itself.  So the file is byte-identical to a per-cell "%.17g" dump.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._g17 import WIDTH, format_cells, text_cells
from .numkernel import DomainError, QuadratureError, li2
from .qdilog import KAPPA, EvalContext, require_counts, require_sector
from .jones import f_n, sector_points
from .saddle import f_prime, f_values, phi_m, saddle_data, varphi


# ---------------------------------------------------------------------------
# Region grid
# ---------------------------------------------------------------------------

@dataclass
class RegionGrid:
    """Rectangular sampling of Re Phi_m over E_m's bounding box."""

    m: int
    u: float
    p: int
    nu: float                # the box's inset from the ends of U_m, chosen by _grid_box
    xs: np.ndarray
    ys: np.ndarray
    re_phi: np.ndarray       # shape (resolution, resolution); NaN outside U_m
    in_u: np.ndarray         # also E_m: the grid box is E_m's bounding box by construction
    in_d: np.ndarray
    in_rbar: np.ndarray
    in_runder: np.ndarray
    threshold: float         # Re Phi_m(sigma_m) = Re F(sigma_0)
    sigma_m: complex


# grid cells per row block of grid_scan, 20 rows at 400x400; the block's
# temporaries add about 0.9 MB to the grid's own 12 bytes a cell
_SCAN_BLOCK = 8_192
# the walk's inward offset from U_m's sides, where the Li2 arguments of F
# reach their cut, in units of the skew coordinate Re z + (u/2 p pi) Im z
_CUT_GAP = 1e-9
# halvings of the walk's near-threshold segments before a count is refused
WALK_HALVINGS = 24
# grid cells per row block of write_grid_csv, 5 rows at 400x400; a block
# lays out 79 bytes a cell at 400x400, and the writer peaks near 1.4 MB
_WRITE_BLOCK = 2_048


def _grid_box(m, u, p, resolution):
    """The checked grid box of E_m: (saddle_data(u, p), sigma_m, nu, (x_lo, x_hi, y_lo, y_hi)).

    It spans (m + nu)/p to (m + 1 - nu)/p in Re z, nu = min(0.02, (m + 1 - p Re sigma_m)/2),
    and holds sigma_m strictly inside: p Re sigma_m - m >= 5/6, and m + 1 - p Re sigma_m
    falls to 0.023 at p = 1 and 0.0004 at p = 8 near kappa.  grid_scan and components_d_cap_e
    share it and its refusals: a resolution below 50 or not a count, and a bad u, p or m.
    """
    require_counts("resolution", resolution)
    if resolution < 50:
        raise DomainError("resolution must be at least 50")
    sd = saddle_data(u, p)
    sigma_m = sd.sigma_m(m)
    nu = min(0.02, 0.5 * (m + 1 - p * sigma_m.real))
    return sd, sigma_m, nu, ((m + nu) / p, (m + 1 - nu) / p, -2.0 * sigma_m.imag, 2.0 * sigma_m.imag)


def grid_scan(m: int, u: float, p: int, resolution=400) -> RegionGrid:
    """Re Phi_m and the region flags on the resolution x resolution grid over E_m's bounding box.

    The grid is scanned in blocks of whole rows, at most _SCAN_BLOCK cells
    each (one row if a row is longer): each block builds its own points and
    U_m mask and takes F at its cells inside U_m in one f_values call.  So no
    full-grid temporary is built: a 400x400 scan peaks at 2.8 MB (tracemalloc),
    where full-grid meshes peaked at 12.2 MB.  f_values is batch-independent,
    so every cell holds the same bits as F at that cell alone.
    """
    sd, sigma_m, nu, (x_lo, x_hi, y_lo, y_hi) = _grid_box(m, u, p, resolution)
    threshold = sd.f_sigma0.real
    xs = np.linspace(x_lo, x_hi, resolution)
    ys = np.linspace(y_lo, y_hi, resolution)
    slope = u / (2.0 * math.pi * p)
    shift = 2j * m * math.pi / sd.xi

    re_phi = np.full((resolution, resolution), np.nan)
    in_u = np.empty((resolution, resolution), dtype=bool)
    rows = max(1, _SCAN_BLOCK // resolution)
    for r in range(0, resolution, rows):
        y = ys[r:r + rows, None]
        skew = xs + slope * y
        in_u[r:r + rows] = inside = (skew > m / p) & (skew < (m + 1) / p)
        re_phi[r:r + rows][inside] = f_values((xs + 1j * y)[inside] - shift, u, p).real

    Y = ys[:, None]
    with np.errstate(invalid="ignore"):
        in_d = in_u & (re_phi < threshold)
        in_rbar = in_u & (Y >= 0.0) & (re_phi < threshold + 2.0 * math.pi * Y)
        in_runder = in_u & (Y <= 0.0) & (re_phi < threshold - 2.0 * math.pi * Y)

    return RegionGrid(
        m=m, u=u, p=p, nu=nu, xs=xs, ys=ys,
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


def _boundary_walk(m, u, p, box, resolution) -> np.ndarray:
    """Points along the boundary of E_m, counter-clockwise, one grid cell apart.

    The box is clipped to m/p + _CUT_GAP <= skew <= (m+1)/p - _CUT_GAP (one
    Sutherland-Hodgman pass per side of U_m).  Each edge is cut into the
    fewest equal segments no wider nor taller than a cell, so a full side of
    the box carries as many points as the grid has cells along it.
    """
    x_lo, x_hi, y_lo, y_hi = box
    dx, dy = (x_hi - x_lo) / (resolution - 1), (y_hi - y_lo) / (resolution - 1)
    slope = u / (2.0 * math.pi * p)
    corners = [complex(x_lo, y_lo), complex(x_hi, y_lo), complex(x_hi, y_hi), complex(x_lo, y_hi)]
    for sign, bound in ((1.0, m / p + _CUT_GAP), (-1.0, _CUT_GAP - (m + 1) / p)):
        gaps = [sign * (z.real + slope * z.imag) - bound for z in corners]
        kept = []
        for a, b, ga, gb in zip(corners, corners[1:] + corners[:1], gaps, gaps[1:] + gaps[:1]):
            if ga >= 0.0:
                kept.append(a)
            if (ga >= 0.0) != (gb >= 0.0):
                kept.append(a + (b - a) * (ga / (ga - gb)))
        corners = kept
    edges = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = max(1, math.ceil(max(abs((b - a).real) / dx, abs((b - a).imag) / dy)))
        edges.append(a + (b - a) * (np.arange(n) / n))
    return np.concatenate(edges)


def _cyclic_runs(below: np.ndarray) -> int:
    """Number of cyclic runs of True in a closed walk's samples."""
    if below.all():
        return 1
    return int(np.count_nonzero(below & ~np.roll(below, 1)))


def components_d_cap_e(m: int, u: float, p: int, resolution=400) -> int:
    """Number of components of D_m within E_m, counted on E_m's boundary.

    The walk samples Re Phi_m at the points of _boundary_walk, with the
    grid's cell spacing, in one f_values call, and counts k, the cyclic runs
    of samples below the threshold Re Phi_m(sigma_m).  k = 2 gives exactly 2:
      - Re Phi_m is harmonic on U_m.  A component of D_m within E_m that
        stayed off the boundary of E_m would sit at the threshold all along
        its own boundary, and by the minimum principle not below it inside;
        so each component reaches a run, and there are at most k of them;
      - sigma_m, F's only critical point in U_m, lies exactly at the
        threshold, and the two sublevel sectors at it cannot share a
        component: a path joining them, closed through sigma_m, would
        enclose a superlevel sector, with Re Phi_m at most the threshold on
        the loop, against the maximum principle; so there are at least 2.
    The bound k holds when the walk sees every run: a run narrower than one
    segment can hide between two samples above the threshold.  Samples can
    only miss runs, never make them, so a k below 2 is undersampling: each
    segment whose two ends both lie within h |Phi_m'| of the threshold (h
    the segment's length) is halved, up to WALK_HALVINGS times, until k
    reaches 2.  A k other than 2 at the end, above 2 included, which no
    halving can lower, is refused with QuadratureError naming (u, p, m) and
    the stage.  resolution is checked, and the box taken, as in grid_scan.
    """
    sd, _, _, box = _grid_box(m, u, p, resolution)
    z = _boundary_walk(m, u, p, box, resolution)
    shift = 2j * m * math.pi / sd.xi
    threshold = sd.f_sigma0.real
    gap = f_values(z - shift, u, p).real - threshold
    count = _cyclic_runs(gap < 0.0)
    halvings = 0
    while count < 2 and halvings < WALK_HALVINGS:
        z_next = np.roll(z, -1)
        reach = np.abs(z_next - z)
        grad = np.abs(f_prime(z - shift, u, p))
        halve = (np.abs(gap) <= reach * grad) & (np.abs(np.roll(gap, -1)) <= reach * np.roll(grad, -1))
        if not halve.any():
            break
        mid = 0.5 * (z + z_next)[halve]
        at = np.flatnonzero(halve) + 1
        z = np.insert(z, at, mid)
        gap = np.insert(gap, at, f_values(mid - shift, u, p).real - threshold)
        halvings += 1
        count = _cyclic_runs(gap < 0.0)
    if count != 2:
        raise QuadratureError(
            f"region count at (u, p, m) = ({u!r}, {p!r}, {m!r}): the boundary walk of E_m "
            f"resolves k = {count}, not 2, runs of Re Phi_m below its threshold after "
            f"{halvings} halvings")
    return count


# ---------------------------------------------------------------------------
# Closed-form inequality checks
# ---------------------------------------------------------------------------

def c_pm(u: float, p: int, m: int) -> float:
    """c_{p,m}(u) = Li2(-e^{-u-q}) - Li2(-e^{-u+q}) + u q - 2 p pi^2,
    with q = u((6m+5) pi + 2 Im varphi(u))/(2 p pi); negative throughout (0, kappa]."""
    require_counts("p", p)
    require_sector(m, p)
    q = u * ((6 * m + 5) * math.pi + 2.0 * varphi(u).imag) / (2.0 * p * math.pi)
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


def check_f_p12(u, p, m):
    """Margin Re Phi_m(sigma_m) - Re Phi_m(P12) of the lemma Re Phi_m(P12) < Re Phi_m(sigma_m).

    P12 = (2m+1)/(2p) + conj(xi) Im sigma_m / (p pi) is the hexagon vertex on
    the midline L_M.  The vertices P1, P45 and P4 sit at m/p, (2m+1)/(2p) and
    (m+1)/p, shifted by the same offset; the hexagon exists only when
    Re P1 < Re P45 and Re P12 < min(Re P4, Re sigma_m).

    u, p and m are scalars (a float is returned) or broadcastable arrays (an
    array of margins is returned).  The triples' u, p, m and vertex order
    are checked in turn; saddle.phi_m then checks every P12 against its U_m
    and evaluates them all in one call.  F is elementwise, so a triple's
    margin is the same in any batch.
    """
    shape = np.broadcast_shapes(np.shape(u), np.shape(p), np.shape(m))
    us, ps, ms = (np.broadcast_to(a, shape).ravel() for a in (u, p, m))
    tops, p12s = [], []
    for u_i, p_i, m_i in zip(us.tolist(), ps.tolist(), ms.tolist()):
        sd = saddle_data(u_i, p_i)
        sigma_m = sd.sigma_m(m_i)
        offset = sd.xi.conjugate() / (p_i * math.pi) * sigma_m.imag
        mid = (2 * m_i + 1) / (2 * p_i)
        p12 = mid + offset
        if not ((m_i / p_i + offset).real < (mid - offset).real
                and p12.real < ((m_i + 1) / p_i - offset).real
                and p12.real < sigma_m.real):
            raise DomainError("hexagon vertex ordering violated; parameters out of range")
        tops.append(sd.f_sigma0.real)
        p12s.append(p12)
    margins = np.array(tops) - phi_m(np.array(p12s), ms, us, ps).real
    return float(margins[0]) if shape == () else margins.reshape(shape)


# ---------------------------------------------------------------------------
# Finite-N endpoint decay
# ---------------------------------------------------------------------------

def endpoint_decay(ctx: EvalContext, m: int, delta_grid: float) -> list:
    """Re f_N at the summation points of sector m near the ends of [m/p, (m+1)/p).

    The points are those of sector_points with floor(k p/N) = m, so a
    k = m N/p on the sector's start is one of them.  Returns the rows
    (k, k/N, Re f_N, margin) with the margin
    Re F(sigma_0) - Re f_N((2k+1)/2N - 2m pi i/xi), which the endpoint
    estimates require to be positive.
    """
    require_sector(m, ctx.p)
    ks = np.arange(1, ctx.n)
    ms, z = sector_points(ks, ctx)
    near = (ms == m) & ((ks / ctx.n - m / ctx.p <= delta_grid)
                        | ((m + 1) / ctx.p - ks / ctx.n <= delta_grid))
    if not near.any():
        raise DomainError("no summation points within delta_grid of the interval ends")
    top = saddle_data(ctx.u, ctx.p).f_sigma0.real
    values = f_n(z[near], ctx).real
    return [(k, k / ctx.n, value, top - value)
            for k, value in zip(ks[near].tolist(), values.tolist())]


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
            "resolution": [grid.xs.size, grid.ys.size],
            "bounds": grid.xs[[0, -1]].tolist() + grid.ys[[0, -1]].tolist(),
        },
        "sigma_m": [grid.sigma_m.real, grid.sigma_m.imag],
        "threshold": grid.threshold,
        "components_d_cap_e": components,
    }
    with open(path, "w") as fh:
        json.dump(header, fh, sort_keys=True)
        fh.write("\n")


# ",in_u,in_e,in_d,in_rbar,in_runder\n" line ends as bytes, indexed by the
# 4-bit code in_u in_d in_rbar in_runder (in_u the high bit); in_e repeats in_u
_FLAG_CELLS = np.full((16, 11), ord(","), dtype=np.uint8)
_FLAG_CELLS[:, 1:10:2] = (np.arange(16)[:, None] >> [3, 3, 2, 1, 0] & 1) + ord("0")
_FLAG_CELLS[:, 10] = ord("\n")


def write_grid_csv(grid: RegionGrid, path) -> None:
    """Cell dump: x, y, rePhi and the five membership flags as 0/1.

    The in_e column repeats in_u, since within the grid E_m and U_m coincide.
    Every line is the bytes of "%.17g,%.17g,%.17g,%d,%d,%d,%d,%d" % (x, y,
    re_phi, in_u, in_e, in_d, in_rbar, in_runder).  Each x is formatted once
    per grid and each y once per grid row, by Python.  The re_phi cells are
    formatted in numpy by _g17.format_cells: a cell with
    1e-4 <= |re_phi| < 1e16 gets the 17 correctly rounded digits of its
    exact binary value, which is what "%.17g" prints, and every other one
    (NaN outside U_m, +-0, +-inf and the far ranges) goes through Python's
    "%.17g" itself, so every byte is the per-cell template's.
    The four independent flags form a 4-bit code per cell that picks its
    line end from _FLAG_CELLS.  The grid is written in blocks of whole rows,
    at most _WRITE_BLOCK cells each (one row if a row is longer): each
    block's lines are laid out in a NUL-padded (rows, nx, width) byte array,
    whose padding is dropped before it is written.
    """
    code = np.zeros(grid.re_phi.shape, dtype=np.uint8)
    for flag in (grid.in_u, grid.in_d, grid.in_rbar, grid.in_runder):
        code <<= 1
        code |= flag
    x_cells = text_cells(["%.17g," % x for x in grid.xs.tolist()])
    y_cells = text_cells(["%.17g," % y for y in grid.ys.tolist()])
    x_end = x_cells.shape[1]
    y_end = x_end + y_cells.shape[1]
    phi_end = y_end + WIDTH
    ny, nx = code.shape
    rows = max(1, _WRITE_BLOCK // nx)
    with open(path, "wb") as fh:
        fh.write(b"x,y,re_phi,in_u,in_e,in_d,in_rbar,in_runder\n")
        for r in range(0, ny, rows):
            re_phi = grid.re_phi[r:r + rows]
            block = np.empty(re_phi.shape + (phi_end + _FLAG_CELLS.shape[1],), dtype=np.uint8)
            block[..., :x_end] = x_cells
            block[..., x_end:y_end] = y_cells[r:r + rows, None]
            block[..., y_end:phi_end] = format_cells(re_phi.ravel()).reshape(re_phi.shape + (WIDTH,))
            block[..., phi_end:] = _FLAG_CELLS.take(code[r:r + rows], axis=0)
            flat = block.ravel()
            fh.write(flat[flat != 0])
