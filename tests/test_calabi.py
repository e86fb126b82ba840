"""The Calabi invariant by both definitions and the sphere normalization."""

import math

import numpy as np
import pytest

from disclab.calabi import (PRIMITIVE_RESIDUAL_TOL, CalabiReport, cal_path,
                            normalize_on_sphere, plaquette_circulation,
                            primitive_and_cal_def1, pullback_defect_form, ray_primitives,
                            slice_integrals, spatial_integral)
from disclab.alexander import rescale
from disclab.fields import (ScalarTimeField, SeparableBump, loop_bump,
                            moving_bump, radial_bump, zero_field)
from disclab.flows import (PlaneMap, _simpson_weights, flow_map, hofer_length,
                           osc_on_grid)
from disclab.grids import IDENTITY_AREA, SPHERE_VOLUME, square_grid


def closed_form_cal(amp, rho, m):
    """Time-1 Calabi of an autonomous radial bump."""
    return amp * math.pi * rho**2 / (m + 1)


# ---------------------------------------------------------------------------
# path definition (double quadrature)


def test_cal_path_closed_form(bump, grid257):
    expected = closed_form_cal(0.05, 0.8, 4)
    assert cal_path(bump, grid257) == pytest.approx(expected, rel=1e-8)


def test_cal_path_zero_field():
    assert cal_path(zero_field()) == 0.0


def test_cal_path_loop_vanishes(grid257):
    L = loop_bump(amp=0.05, rho=0.8, m=4)
    assert abs(cal_path(L, grid257)) < 1e-8


def test_cal_path_moving_bump(grid257):
    # translation-invariance of the spatial integral: the moving center
    # does not change the Calabi invariant
    F = moving_bump(amp=0.05, rho=0.25, m=4, sweep=0.3)
    expected = closed_form_cal(0.05, 0.25, 4)
    assert cal_path(F, grid257) == pytest.approx(expected, rel=1e-6)


def test_cal_path_is_linear(bump, grid257):
    assert cal_path(bump.amplified(3.0), grid257) == pytest.approx(
        3.0 * cal_path(bump, grid257), rel=1e-12
    )


# the three time quadratures of a field: (integral, integrand at t)
TIME_INTEGRALS = {
    "cal_path": (lambda H, grid, nt: cal_path(H, grid, nt),
                 lambda H, grid, t: spatial_integral(H, t, grid)),
    "hofer_length": (lambda H, grid, nt: hofer_length(H, grid, nt),
                     lambda H, grid, t: osc_on_grid(H, t, grid)),
    "offset_integral": (
        lambda H, grid, nt: normalize_on_sphere(H, grid).offset_integral(nt=nt),
        lambda H, grid, t: spatial_integral(H, t, grid) / (2.0 * math.pi)),
}


@pytest.mark.parametrize("name", sorted(TIME_INTEGRALS))
@pytest.mark.parametrize("H, autonomous", [(radial_bump(amp=0.05), True),
                                           (loop_bump(amp=0.05), False)])
def test_time_integral_evaluates_an_autonomous_field_once(name, H, autonomous,
                                                          monkeypatch):
    integral, _ = TIME_INTEGRALS[name]

    def count(field):
        calls = []
        evaluator = field._evaluator

        def counting(t, pts):
            calls.append(t)
            return evaluator(t, pts)

        monkeypatch.setattr(field, "_evaluator", counting)
        return calls

    calls = count(H)
    profile_calls = [] if autonomous else count(H.time_profiles[1][0])
    integral(H, square_grid(65), 9)
    if autonomous:
        assert calls == [0.0]
    elif name == "hofer_length":
        # oscillation is not linear in H: one slice per time
        assert calls == list(np.linspace(0.0, 1.0, 9)) and profile_calls == []
    else:
        # the loop is tau(t) times one profile, integrated once
        assert calls == [] and profile_calls == [0.0]


@pytest.mark.parametrize("name", sorted(TIME_INTEGRALS))
def test_one_slice_equals_the_simpson_sum(name, bump, grid129):
    # an autonomous integrand is the same slice at every Simpson node
    integral, integrand = TIME_INTEGRALS[name]
    times = np.linspace(0.0, 1.0, 129)
    vals = np.array([integrand(bump, grid129, t) for t in times])
    simpson = np.sum(_simpson_weights(129) * vals) * (times[1] - times[0])
    assert integral(bump, grid129, 129) == pytest.approx(simpson, rel=1e-14)


def _simpson_slices(H, grid, nt):
    """Composite Simpson over time of one node sum per time sample."""
    times = np.linspace(0.0, 1.0, nt)
    vals = np.array([spatial_integral(H, t, grid) for t in times])
    return np.sum(_simpson_weights(nt) * vals) * (times[1] - times[0])


@pytest.mark.parametrize("H", [
    loop_bump(amp=0.05),
    SeparableBump(amp=0.05, rho=0.8, m=4, tau=lambda t: 1.0 + t),
    rescale(loop_bump(amp=0.05), 0.5),
], ids=["loop", "ramp", "rescaled_loop"])
def test_profile_path_equals_the_per_slice_simpson_sum(H, grid129):
    # H = tau(t) * P: Cal^path and the offset integral take one node sum of
    # P, and agree with one node sum per time up to rounding
    (profile,) = H.time_profiles[1]
    scale = abs(spatial_integral(profile, 0.0, grid129))
    simpson = _simpson_slices(H, grid129, 65)
    assert cal_path(H, grid129, 65) == pytest.approx(simpson, rel=1e-13,
                                                     abs=1e-15 * scale)
    offset_integral = normalize_on_sphere(H, grid129).offset_integral(nt=65)
    assert offset_integral == pytest.approx(simpson / (2.0 * math.pi), rel=1e-13,
                                            abs=1e-15 * scale)


@pytest.mark.parametrize("name", sorted(TIME_INTEGRALS))
@pytest.mark.parametrize("H", [radial_bump(amp=0.05), loop_bump(amp=0.05)],
                         ids=["autonomous", "loop"])
@pytest.mark.parametrize("nt", [4, 1])
def test_time_integral_rejects_bad_sample_counts(name, H, nt):
    integral, _ = TIME_INTEGRALS[name]
    with pytest.raises(ValueError, match="odd number of samples"):
        integral(H, square_grid(65), nt)


def test_cal_path_rejects_unsupported(grid257):
    H = ScalarTimeField(lambda t, pts: np.ones(pts.shape[:-1]), None)
    with pytest.raises(ValueError):
        cal_path(H, grid257)
    wide = radial_bump(amp=0.05, rho=1.2, m=4)
    with pytest.raises(ValueError):
        cal_path(wide, grid257)


def test_spatial_integral_constant_profile(bump, grid129):
    v = spatial_integral(bump, 0.0, grid129)
    assert v == pytest.approx(closed_form_cal(0.05, 0.8, 4), rel=1e-7)


# ---------------------------------------------------------------------------
# primitive definition


def test_primitive_definition_agrees_with_path(bump, grid257, bump_map_257):
    cal_p = cal_path(bump, grid257)
    rep = primitive_and_cal_def1(bump_map_257, cal_path_value=cal_p)
    assert rep.agreement_error < 1e-6
    assert rep.primitive_residual < 1e-4
    assert rep.path_independence < 1e-3
    assert rep.grid_n == 257
    assert rep.cal_path == cal_p


def test_primitive_report_json(bump_map_257, bump, grid257):
    rep = primitive_and_cal_def1(bump_map_257, cal_path_value=cal_path(bump))
    payload = rep.to_json()
    assert '"cal_def1"' in payload


def test_primitive_gauge_invariance(bump_map_257):
    # replacing alpha by alpha + d(gauge) must not move the value
    def gauge(pts):
        r2 = pts[..., 0] ** 2 + pts[..., 1] ** 2
        u = 1.0 - r2 / 0.81
        return 0.1 * np.where(u > 0.0, u, 0.0) ** 4

    plain = primitive_and_cal_def1(bump_map_257)
    gauged = primitive_and_cal_def1(bump_map_257, gauge=gauge)
    assert abs(plain.cal_def1 - gauged.cal_def1) < 1e-6


# pullback_defect_form and primitive_and_cal_def1 as they stood when the
# Jacobian took all four partials, kept verbatim but for the Jacobian, which
# the verbatim node derivative of conftest.py supplies.  The new form takes
# two partials through grids.node_derivative and the same operations per
# element, so every report field keeps its bits.

def _head_pullback_defect_form(phi, derivative, gauge=None):
    grid = phi.template
    qx, qy = grid.nodes()
    P = phi.grid_y.values
    h = grid.spacing
    j11 = derivative(phi.grid_x.values, h, 0)
    j12 = derivative(phi.grid_x.values, h, 1)
    b1 = -P * j11 + qy
    b2 = -P * j12
    if gauge is not None:
        pts = np.stack([qx, qy], axis=-1)
        img = np.stack([phi.grid_x.values, phi.grid_y.values], axis=-1)
        diff = gauge(img) - gauge(pts)
        g1, g2 = np.gradient(diff, grid.spacing, edge_order=2)
        b1 = b1 + g1
        b2 = b2 + g2
    return b1, b2


def _head_primitive_and_cal_def1(phi, derivative, cal_path_value=None, gauge=None):
    grid = phi.template
    h_sp = grid.spacing
    b1, b2 = _head_pullback_defect_form(phi, derivative, gauge=gauge)
    circ = plaquette_circulation(b1, b2, h_sp)
    residual = float(np.max(np.abs(circ)))
    assert residual <= PRIMITIVE_RESIDUAL_TOL
    h_rows, h_cols = ray_primitives(b1, b2, h_sp)
    path_independence = float(np.max(np.abs(h_rows - h_cols)))
    cal1 = 0.5 * float(np.sum(h_rows)) * h_sp * h_sp
    cal1_coarse = 0.5 * float(np.sum(h_rows[::2, ::2])) * (2 * h_sp) ** 2
    quad_err = abs(cal1 - cal1_coarse) / 3.0
    cal_p = cal1 if cal_path_value is None else cal_path_value
    return CalabiReport(
        cal_def1=cal1,
        cal_path=cal_p,
        primitive_residual=residual,
        agreement_error=abs(cal1 - cal_p),
        path_independence=path_independence,
        quadrature_error=quad_err,
        grid_n=grid.n,
    )


def _offset_gauge(pts):
    r2 = (pts[..., 0] - 0.1) ** 2 + pts[..., 1] ** 2
    u = 1.0 - r2 / 0.64
    return 0.05 * np.where(u > 0.0, u, 0.0) ** 4


@pytest.fixture(scope="module")
def rotation_map_129():
    """The exact time-1 map of a radial bump, sampled on the 129-node grid."""
    grid = square_grid(129)
    H = radial_bump(amp=0.07, rho=0.8, m=4)
    return PlaneMap.from_node_images(grid, H.exact_flow(0.0, 1.0, grid.node_points()),
                                     H.support_radius)


@pytest.mark.parametrize("gauge", [None, _offset_gauge])
def test_primitive_bits_match_four_partial_jacobian(rotation_map_129, gauge,
                                                    head_node_derivative):
    phi = rotation_map_129
    got = pullback_defect_form(phi, gauge=gauge)
    want = _head_pullback_defect_form(phi, head_node_derivative, gauge=gauge)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    for cal_path_value in (None, 0.0):
        rep = primitive_and_cal_def1(phi, cal_path_value=cal_path_value, gauge=gauge)
        ref = _head_primitive_and_cal_def1(phi, head_node_derivative,
                                           cal_path_value=cal_path_value, gauge=gauge)
        assert rep == ref
    assert rep.cal_def1 != 0.0


def test_primitive_of_identity_is_zero(grid129):
    ident = PlaneMap.identity(grid129, 0.8)
    rep = primitive_and_cal_def1(ident)
    assert abs(rep.cal_def1) < 1e-15
    assert rep.primitive_residual < 1e-12


def test_primitive_of_loop_map_is_zero(grid257):
    L = loop_bump(amp=0.05, rho=0.8, m=4)
    phi = flow_map(L, 1.0, grid=grid257, dt=1e-3)
    rep = primitive_and_cal_def1(phi)
    assert abs(rep.cal_def1) < 1e-6


def test_primitive_rejects_non_area_preserving(grid129):
    # a compactly supported non-symplectic shear: (q + g(q, p), p)
    def fn(pts):
        q, p = pts[..., 0], pts[..., 1]
        u = 1.0 - (q * q + p * p) / 0.49
        g = 3.0 * np.where(u > 0.0, u, 0.0) ** 4
        return np.stack([q + g, p], axis=-1)

    bad = PlaneMap.from_node_images(grid129, fn(grid129.node_points()), 0.8)
    with pytest.raises(ValueError, match="not closed"):
        primitive_and_cal_def1(bad)


# ---------------------------------------------------------------------------
# sphere normalization


def sphere_mean(nf, t):
    """Mean of the normalized field nf over the sphere model at time t.

    nf is H - c(t) on the unit disc and -c(t) on the identity region.
    """
    disc = slice_integrals(nf.base, nf.grid)(t) - nf.offset(t) * math.pi
    lower = -nf.offset(t) * IDENTITY_AREA
    return (disc + lower) / SPHERE_VOLUME


def test_normalized_field_mean_zero(bump):
    nf = normalize_on_sphere(bump)
    for t in (0.0, 0.4, 1.0):
        assert abs(sphere_mean(nf, t)) < 1e-15


def test_normalized_loop_mean_zero(grid129):
    # the loop's offset and disc integral both come from its one profile
    nf = normalize_on_sphere(loop_bump(amp=0.05), grid129)
    for t in (0.1, 0.4, 0.8):
        assert abs(sphere_mean(nf, t)) < 1e-15


def test_normalized_offset_integral_is_cal_over_vol(bump, grid257):
    nf = normalize_on_sphere(bump)
    cal = cal_path(bump, grid257)
    assert nf.offset_integral(1.0) == pytest.approx(cal / (2.0 * math.pi),
                                                    rel=1e-10)
    assert nf.support_radius == 0.8


def test_normalized_field_values(bump):
    nf = normalize_on_sphere(bump)
    pts = np.array([[0.0, 0.0], [0.9, 0.0]])
    vals = nf(0.0, pts)
    c = nf.offset(0.0)
    assert c > 0.0
    assert vals[0] == pytest.approx(0.05 - c, rel=1e-12)
    assert vals[1] == pytest.approx(-c, rel=1e-12)


# an autonomous field and a loop (tau(t) times one profile) take one node
# sum; a moving bump takes one per distinct time
@pytest.mark.parametrize("H, integrals", [(radial_bump(amp=0.05), 1),
                                           (moving_bump(amp=0.05), 3),
                                           (loop_bump(amp=0.05), 1)])
def test_normalized_offset_integrates_once_per_distinct_field(H, integrals,
                                                              monkeypatch):
    import disclab.calabi as cb

    calls = []
    integral = cb.spatial_integral

    def counting(field, t, grid):
        calls.append(t)
        return integral(field, t, grid)

    monkeypatch.setattr(cb, "spatial_integral", counting)
    nf = normalize_on_sphere(H, grid=square_grid(65))
    offsets = [nf.offset(t) for t in (0.0, 0.25, 0.5, 0.25)]
    assert len(calls) == integrals
    assert offsets[1] == offsets[3]


def test_normalization_needs_support_inside_the_disc():
    # rho = 1 clears the 1.05 grid extent, but the unit disc is the upper
    # hemisphere of the sphere model: the support must stay inside it
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        normalize_on_sphere(radial_bump(rho=1.0), grid=square_grid(257))
