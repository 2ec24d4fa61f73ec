"""Region geometry, grid topology, and the boundary inequality checks."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from fig8lab.numkernel import DomainError
from fig8lab.qdilog import KAPPA, EvalContext
from fig8lab.region import (
    _SCAN_BLOCK,
    c_pm,
    c_pm_derivative_bound,
    check_f_p12,
    components_d_cap_e,
    endpoint_decay,
    grid_scan,
    label_components,
    pinch_epsilon,
    write_grid_csv,
    write_grid_header,
)
from fig8lab.saddle import f_values, f_zero_value, phi_m, saddle_data
from reference import phi_m_prime


def band_endpoints_connected(grid, lower=False):
    """Whether b_m^- and b_m^+ fall in one component of R-bar (or R-under).

    The ends are the first band cells in the grid's first and last columns,
    looked for in the row nearest y = 0 and then in the rows on either side.
    """
    labels, _ = label_components(grid.in_runder if lower else grid.in_rbar)
    iy = int(np.argmin(np.abs(grid.ys)))
    rows = [r for r in (iy, iy - 1, iy + 1) if 0 <= r < labels.shape[0]]
    left = next((labels[r, 0] for r in rows if labels[r, 0]), 0)
    right = next((labels[r, -1] for r in rows if labels[r, -1]), 0)
    return left != 0 and left == right


# ---------------------------------------------------------------------------
# grids and components
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u", [0.5, 0.9])
def test_grid_flags_are_consistent(u):
    grid = grid_scan(0, u, 1, resolution=80)
    inside = grid.in_u
    if u == 0.9:
        # corner cells outside U_m, so the NaN check below is not empty
        assert (~inside).any()
    with np.errstate(invalid="ignore"):
        assert np.array_equal(grid.in_d, inside & (grid.re_phi < grid.threshold))
        upper = inside & (grid.ys[:, None] >= 0)
        assert np.array_equal(
            grid.in_rbar,
            upper & (grid.re_phi < grid.threshold + 2 * math.pi * grid.ys[:, None]),
        )
    assert not np.isnan(grid.re_phi[inside]).any()
    assert np.isnan(grid.re_phi[~inside]).all()


@pytest.mark.parametrize("u", [0.5, 0.9])
def test_grid_scan_blocks_match_one_call(u):
    p, m = 1, 0
    grid = grid_scan(m, u, p, resolution=(200, 150))
    inside = grid.in_u
    assert inside.sum() > _SCAN_BLOCK
    assert (~inside).any() == (u == 0.9)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    xi = complex(u, 2 * math.pi * p)
    ref = np.full(X.shape, np.nan)
    ref[inside] = f_values((X + 1j * Y)[inside] - 2j * m * math.pi / xi, u, p).real
    assert np.array_equal(np.isnan(grid.re_phi), np.isnan(ref))
    assert np.all(np.abs(grid.re_phi[inside] - ref[inside]) <= 1e-15 * np.maximum(1.0, np.abs(ref[inside])))
    skew = X + u / (2 * math.pi * p) * Y
    assert np.array_equal(inside, (skew > m / p) & (skew < (m + 1) / p))
    with np.errstate(invalid="ignore"):
        assert np.array_equal(grid.in_d, inside & (ref < grid.threshold))
        assert np.array_equal(grid.in_rbar, inside & (Y >= 0) & (ref < grid.threshold + 2 * math.pi * Y))
        assert np.array_equal(grid.in_runder, inside & (Y <= 0) & (ref < grid.threshold - 2 * math.pi * Y))


def test_grid_resolution_guard():
    with pytest.raises(DomainError):
        grid_scan(0, 0.5, 1, resolution=30)


@pytest.mark.parametrize("m", [-1, 2, 5, 0.5])
def test_grid_scan_requires_strip_index(m):
    with pytest.raises(DomainError, match="m must lie"):
        grid_scan(m, 0.5, 2, resolution=50)


def test_label_components_simple():
    mask = np.array([
        [1, 1, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ], dtype=bool)
    labels, count = label_components(mask)
    assert count == 3
    assert labels[0, 0] == labels[1, 1]
    assert labels[1, 3] == labels[2, 3] != labels[3, 0]
    # cells touching only at a corner are apart: pinch_epsilon relies on 4-connectivity
    labels, count = label_components(np.eye(2, dtype=bool))
    assert count == 2 and labels[0, 0] != labels[1, 1]
    labels, count = label_components(np.zeros((3, 5), dtype=bool))
    assert count == 0 and not labels.any()


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)))
def test_label_components_matches_ndimage(mask):
    labels, count = label_components(mask)
    ref_labels, ref_count = ndimage.label(mask)
    assert count == ref_count
    assert np.array_equal(labels, ref_labels)


@pytest.mark.parametrize("p,m,u", [(3, 2, 0.5), (1, 0, 0.5), (2, 1, 0.2)])
def test_two_components(p, m, u):
    grid = grid_scan(m, u, p, resolution=400)
    assert components_d_cap_e(grid) == 2


def test_component_count_resolution_stable():
    for res in (300, 500):
        grid = grid_scan(2, 0.5, 3, resolution=res)
        assert components_d_cap_e(grid) == 2


def test_saddle_cell_excluded():
    # Phi_m equals its own threshold at sigma_m, so the saddle cell is never
    # part of the regularized sublevel mask
    u, p, m = 0.5, 3, 2
    sd = saddle_data(u, p)
    grid = grid_scan(m, u, p, resolution=200)
    assert abs(phi_m(sd.sigma_m(m), m, u, p).real - grid.threshold) <= 1e-10
    eps = pinch_epsilon(grid)
    ix = int(np.argmin(np.abs(grid.xs - sd.sigma_m(m).real)))
    iy = int(np.argmin(np.abs(grid.ys - sd.sigma_m(m).imag)))
    assert not (grid.re_phi[iy, ix] < grid.threshold - eps)


def test_vertical_ridge_above_and_below_saddle():
    u, p, m = 0.5, 3, 2
    sd = saddle_data(u, p)
    sm = sd.sigma_m(m)
    for frac in (0.1, 0.3, 0.5, -0.1, -0.3, -0.5):
        z = sm + 1j * frac * sm.imag
        assert phi_m(z, m, u, p).real > sd.f_sigma0.real


def test_l_sigma_segment_in_d():
    # along the saddle ray, Re Phi_m < Re Phi_m(sigma_m) except at sigma_m
    u, p, m = 0.5, 3, 2
    sd = saddle_data(u, p)
    sm = sd.sigma_m(m)
    theta = sd.theta
    t_lo = 2 * m * math.pi / (2 * (m + 1) * math.pi + theta)
    t_hi = 2 * (m + 1) * math.pi / (2 * (m + 1) * math.pi + theta)
    for t in np.linspace(t_lo + 0.01, t_hi - 0.01, 25):
        if abs(t - 1.0) < 0.02:
            continue
        assert phi_m(t * sm, m, u, p).real < sd.f_sigma0.real


def test_monotonicity_classification():
    # sign of d(Re Phi_m)/dy against the sector classification, by central FD
    rng = np.random.default_rng(53)
    u, p, m = 0.5, 2, 1
    sd = saddle_data(u, p)
    ims = sd.sigma_m(m).imag
    h = 1e-6
    checked = 0
    while checked < 500:
        x = rng.uniform(m / p + 0.02, (m + 1) / p - 0.02)
        y = rng.uniform(-2 * ims, 2 * ims)
        skew = x + u / (2 * math.pi * p) * y
        if not m / p + 0.01 < skew < (m + 1) / p - 0.01:
            continue
        level = u * y + 2 * math.pi * p * x            # in (2m pi, 2(m+1) pi)
        radial = u * x - 2 * math.pi * p * y           # sign side of L_sigma
        if abs(level - (2 * m + 1) * math.pi) < 1e-3 or abs(radial) < 1e-3:
            continue
        fd = (phi_m(complex(x, y + h), m, u, p).real
              - phi_m(complex(x, y - h), m, u, p).real) / (2 * h)
        lower_half = level < (2 * m + 1) * math.pi
        expected_positive = (radial > 0) == lower_half
        assert (fd > 0) == expected_positive, (x, y, fd, level, radial)
        checked += 1


def test_directional_derivatives_on_boundary_segments():
    u, p, m = 0.5, 3, 2
    sd = saddle_data(u, p)
    ims = sd.sigma_m(m).imag
    xibar = sd.xi.conjugate()
    direction = -xibar / (2 * math.pi * p)
    # along P3 -> P4 (on L_E): strictly increasing
    for t in np.linspace(0.02, 0.98, 50) * 2 * ims:
        z = (m + 1) / p + direction * t
        deriv = (direction * phi_m_prime(z, m, u, p)).real
        assert deriv > 0.0
    # along L_M between the horizontals: strictly decreasing
    for t in np.linspace(-0.98, 0.98, 50) * 2 * ims:
        z = (2 * m + 1) / (2 * p) + direction * t
        deriv = (direction * phi_m_prime(z, m, u, p)).real
        assert deriv < 0.0


def test_band_connectivity():
    for (p, m, u) in ((3, 2, 0.5), (1, 0, 0.5)):
        grid = grid_scan(m, u, p, resolution=(301, 301))
        assert band_endpoints_connected(grid)
        assert band_endpoints_connected(grid, lower=True)


# ---------------------------------------------------------------------------
# inequality checks and constants
# ---------------------------------------------------------------------------

def test_check_f_sigma_grid():
    # 0 < Re F(0) < Re F(sigma_0)
    for u in (0.05, 0.2, 0.5, 0.9):
        for p in (1, 2, 3):
            assert 0.0 < f_zero_value(u, p).real < saddle_data(u, p).f_sigma0.real


def test_check_f_p12():
    # the margin is Re Phi_m(sigma_m) - Re Phi_m(P12) at the vertex P12 on the midline L_M
    xi = complex(0.5, 6 * math.pi)
    ims = saddle_data(0.5, 3).sigma_m(2).imag
    p12 = 5 / 6 + xi.conjugate() * ims / (3 * math.pi)
    assert p12.real + 0.5 / (6 * math.pi) * p12.imag == pytest.approx(5 / 6, abs=1e-12)
    expected = saddle_data(0.5, 3).f_sigma0.real - phi_m(p12, 2, 0.5, 3).real
    assert check_f_p12(0.5, 3, 2) == pytest.approx(expected, rel=1e-12)
    for u in (0.05, 0.2, 0.5, 0.9):
        for p in (1, 2, 3):
            for m in range(p):
                assert check_f_p12(u, p, m) > 0.0
    with pytest.raises(DomainError):
        check_f_p12(0.5, 3, 3)


def test_c_pm_constants():
    assert c_pm(KAPPA, 1, 0) == pytest.approx(-14.9942, abs=5e-3)
    assert c_pm_derivative_bound() == pytest.approx(-18.274, abs=5e-3)
    # monotone increasing in m at u = kappa, fixed p
    values = [c_pm(KAPPA, 3, m) for m in range(3)]
    assert values[0] < values[1] < values[2] < 0.0


def test_c_pm_negative_on_range():
    for u in (0.1, 0.5, 0.9, KAPPA):
        for p in (1, 2, 3):
            assert c_pm(u, p, p - 1) < 0.0


# ---------------------------------------------------------------------------
# endpoint decay
# ---------------------------------------------------------------------------

def test_endpoint_decay_positive_margins():
    # at N = 200 the sector end k = 100 is a row of sector 1
    for n in (201, 200):
        ctx = EvalContext(u=0.5, p=2, n=n)
        for m in (0, 1):
            rows = endpoint_decay(ctx, m, 0.02)
            assert rows and all(margin > 0.0 for *_, margin in rows)
    assert rows[0][0] == 100


def test_endpoint_decay_near_zero_is_small():
    # k/N near 0: Re f_N stays near 0, far below Re F(sigma_0)
    ctx = EvalContext(u=0.5, p=2, n=201)
    first = min(endpoint_decay(ctx, 0, 0.02))
    top = saddle_data(0.5, 2).f_sigma0.real
    assert abs(first[2]) < 0.1 and first[2] < top


def test_endpoint_decay_errors():
    with pytest.raises(DomainError, match="no summation points"):
        endpoint_decay(EvalContext(u=0.5, p=2, n=10), 0, 0.02)
    with pytest.raises(DomainError):
        endpoint_decay(EvalContext(u=0.5, p=2, n=201), 0, 1e-9)
    # sectors outside [0, p-1] hold no term of the Jones sum
    for m in (2, 5, -1):
        with pytest.raises(DomainError, match=r"m must lie in \[0, p-1\]"):
            endpoint_decay(EvalContext(u=0.5, p=2, n=201), m, 0.02)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_grid_emission(tmp_path):
    # at u = 0.9 the strip U_m cuts the grid box's corners, so NaN cells are written
    grid = grid_scan(0, 0.9, 1, resolution=60)
    csv_path = tmp_path / "grid.csv"
    json_path = tmp_path / "grid.json"
    write_grid_csv(grid, csv_path)
    write_grid_header(grid, json_path, components=2)
    header = json.loads(json_path.read_text())
    assert header["schema"] == "fig8lab/1"
    assert header["components_d_cap_e"] == 2
    assert header["params"]["resolution"] == [60, 60]
    x_lo, x_hi, y_lo, y_hi = header["params"]["bounds"]
    assert [x_lo, x_hi] == [0.02, 0.98] and np.array_equal(np.linspace(y_lo, y_hi, 60), grid.ys)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,y,re_phi,in_u,in_e,in_d,in_rbar,in_runder"
    assert len(lines) == 1 + 60 * 60
    rows = [line.split(",") for line in lines[1:]]
    values = np.array([[float(v) for v in row[:3]] for row in rows])
    flags = np.array([[int(v) for v in row[3:]] for row in rows], dtype=bool)
    assert all(
        "%.17g,%.17g,%.17g,%d,%d,%d,%d,%d" % (*v, *f) == line
        for v, f, line in zip(values.tolist(), flags.tolist(), lines[1:])
    )
    X, Y = np.meshgrid(grid.xs, grid.ys)
    assert np.array_equal(values[:, 0], X.ravel())
    assert np.array_equal(values[:, 1], Y.ravel())
    assert np.array_equal(values[:, 2], grid.re_phi.ravel(), equal_nan=True)
    expected = (grid.in_u, grid.in_u, grid.in_d, grid.in_rbar, grid.in_runder)
    assert np.array_equal(flags, np.stack([f.ravel() for f in expected], axis=1))
    outside = [row[2] for row, inside in zip(rows, grid.in_u.ravel()) if not inside]
    assert outside and all(v == "nan" for v in outside)


def reference_grid_csv(grid) -> str:
    """The cell dump written through one "%.17g,...,%d" template per cell."""
    lines = ["x,y,re_phi,in_u,in_e,in_d,in_rbar,in_runder\n"]
    for iy, y in enumerate(grid.ys.tolist()):
        columns = (grid.re_phi[iy], grid.in_u[iy], grid.in_u[iy], grid.in_d[iy],
                   grid.in_rbar[iy], grid.in_runder[iy])
        for x, *cell in zip(grid.xs.tolist(), *(column.tolist() for column in columns)):
            lines.append("%.17g,%.17g,%.17g,%d,%d,%d,%d,%d\n" % (x, y, *cell))
    return "".join(lines)


@pytest.mark.parametrize("m, u, p, resolution, random_flags", [
    (2, 0.5, 3, 60, False),
    (0, 0.9, 1, 60, False),
    (0, 0.9, 1, (70, 55), False),
    (0, 0.9, 1, (70, 55), True),
])
def test_grid_csv_matches_reference_writer(tmp_path, m, u, p, resolution, random_flags):
    grid = grid_scan(m, u, p, resolution=resolution)
    if u == 0.9:
        assert np.isnan(grid.re_phi).any()
    if random_flags:
        # independent flags, so every entry of the 16-entry flag table is written
        rng = np.random.default_rng(5)
        flags = {name: rng.random(grid.re_phi.shape) < 0.5
                 for name in ("in_u", "in_d", "in_rbar", "in_runder")}
        grid = dataclasses.replace(grid, **flags)
        code = sum(flag.astype(int) << bit for bit, flag in enumerate(flags.values()))
        assert np.unique(code).size == 16
    path = tmp_path / "grid.csv"
    write_grid_csv(grid, path)
    assert path.read_bytes() == reference_grid_csv(grid).encode()
