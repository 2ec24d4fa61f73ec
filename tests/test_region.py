"""Region geometry, grid topology, and the boundary inequality checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from fig8lab.numkernel import DomainError
from fig8lab.qdilog import EvalContext
from fig8lab.region import (
    band_endpoints_connected,
    c_pm,
    c_pm_derivative_bound,
    check_f_p12,
    check_f_sigma,
    components_d_cap_e,
    endpoint_decay,
    grid_scan,
    label_components,
    pinch_epsilon,
    polygon,
    write_grid_csv,
    write_grid_header,
)
from fig8lab.saddle import f_zero_value, kappa, phi_m, phi_m_prime, saddle_data


# ---------------------------------------------------------------------------
# polygon
# ---------------------------------------------------------------------------

def test_polygon_vertices():
    poly = polygon(2, 0.5, 3)
    xi = complex(0.5, 6 * math.pi)
    ims = poly.sigma_m.imag
    assert abs(poly.p34 - 6j * math.pi / xi) <= 1e-15
    assert abs(poly.p5 - (2 / 3 + 2j * ims)) <= 1e-15
    assert abs(poly.p50 - 2 * xi.conjugate() * 1j / (18 * math.pi)) <= 1e-15
    assert abs(poly.p_w - 4j * math.pi / xi) <= 1e-15
    assert poly.p0 == 2 / 3 and poly.p3 == 1.0


def test_polygon_vertex_ordering():
    for (m, u, p) in ((0, 0.5, 1), (1, 0.2, 2), (2, 0.9, 3)):
        poly = polygon(m, u, p)
        assert poly.p1.real < poly.p45.real
        assert poly.p12.real < poly.p4.real
        assert poly.p12.real < poly.sigma_m.real


def test_polygon_points_on_their_lines():
    poly = polygon(1, 0.5, 2)
    for name, pt in (("L_M", poly.p12), ("L_M", poly.p45),
                     ("L_E", poly.p34), ("L_sigma", poly.p50)):
        a, b, c = poly.lines[name]
        assert a * pt.real + b * pt.imag == pytest.approx(c, abs=1e-12)


def test_polygon_domain():
    with pytest.raises(DomainError):
        polygon(3, 0.5, 3)


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


def test_grid_resolution_guard():
    with pytest.raises(DomainError):
        grid_scan(0, 0.5, 1, resolution=30)


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
    for u in (0.05, 0.2, 0.5, 0.9):
        for p in (1, 2, 3):
            flags = check_f_sigma(u, p)
            assert flags.f0_positive and flags.ordered


def test_check_f_p12():
    assert check_f_p12(0.5, 3, 2).ok
    for u in (0.05, 0.2, 0.5, 0.9):
        for p in (1, 2, 3):
            for m in range(p):
                assert check_f_p12(u, p, m).ok


def test_c_pm_constants():
    assert c_pm(kappa(), 1, 0) == pytest.approx(-14.9942, abs=5e-3)
    assert c_pm_derivative_bound() == pytest.approx(-18.274, abs=5e-3)
    # monotone increasing in m at u = kappa, fixed p
    values = [c_pm(kappa(), 3, m) for m in range(3)]
    assert values[0] < values[1] < values[2] < 0.0


def test_c_pm_negative_on_range():
    for u in (0.1, 0.5, 0.9, kappa()):
        for p in (1, 2, 3):
            assert c_pm(u, p, p - 1) < 0.0


# ---------------------------------------------------------------------------
# endpoint decay
# ---------------------------------------------------------------------------

def test_endpoint_decay_positive_margins():
    ctx = EvalContext(u=0.5, p=2, n=201)
    for m in (0, 1):
        report = endpoint_decay(ctx, m, 0.02)
        assert report.rows and report.all_ok


def test_endpoint_decay_near_zero_is_small():
    # k/N near 0: Re f_N stays near 0, far below Re F(sigma_0)
    ctx = EvalContext(u=0.5, p=2, n=201)
    report = endpoint_decay(ctx, 0, 0.02)
    first = min(report.rows)
    top = saddle_data(0.5, 2).f_sigma0.real
    assert abs(first[2]) < 0.1 and first[2] < top


def test_endpoint_decay_errors():
    with pytest.raises(DomainError):
        endpoint_decay(EvalContext(u=0.5, p=2, n=10), 0, 0.02)
    with pytest.raises(DomainError):
        endpoint_decay(EvalContext(u=0.5, p=2, n=201), 0, 1e-9)


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


def test_f_zero_value_matches_check():
    flags = check_f_sigma(0.5, 2)
    assert flags.re_f0 == f_zero_value(0.5, 2).real
