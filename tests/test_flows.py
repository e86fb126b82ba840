"""RK4 flows, grid maps, Newton inversion, and the Hofer length."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disclab import kernels
from disclab.fields import (ScalarTimeField, loop_bump, moving_bump, radial_bump,
                            twist_bump, zero_field)
from disclab.flows import (NEWTON_MAX_ITER, NEWTON_TOL, NewtonError, PlaneMap, _rk4_segment,
                           _simpson_weights, flow_map, hamiltonian_path, hofer_length,
                           integrate_points, osc_on_grid,
                           time_integral)
from disclab.grids import square_grid


BUMP = radial_bump(amp=0.05, rho=0.8, m=4)
# width of the finite-difference stencil that checks closed-form X_H
STENCIL_WIDTH = 1e-4


# ---------------------------------------------------------------------------
# point integration


def test_vector_field_convention():
    # X_H = (dH/dp, -dH/dq); for H = radial bump at (r, 0) the q-derivative
    # is negative, so the closed-form field of kernels.bump_field points in
    # +p there
    field = kernels.bump_field(BUMP.amp, BUMP.rho, BUMP.m, [1.0], [0.0], [0.0])
    v = np.empty((2, 1))
    field(np.array([[0.4], [0.0]]), 0, 0, v)
    assert abs(v[0, 0]) < 1e-10
    assert v[1, 0] > 0.0


def test_field_without_gradient_is_not_flowed():
    # a field that is neither a bump nor carries a gradient has no X_H
    black_box = ScalarTimeField(lambda t, pts: BUMP(t, pts), 0.8)
    pts = np.array([[0.3, 0.1], [0.5, -0.2]])
    with pytest.raises(TypeError, match="no gradient"):
        integrate_points(black_box, 0.0, 1.0, pts, dt=1e-2)
    segments = [_rk4_segment(black_box, 0.0, 0.5, 1e-2), _rk4_segment(black_box, 0.5, 1.0, 1e-2)]
    with pytest.raises(TypeError, match="no gradient"):
        list(kernels.rk4(segments, pts.T.copy()))


def test_rotation_oracle():
    pts = np.array([[0.3, 0.1], [-0.2, 0.45], [0.6, -0.1]])
    num = integrate_points(BUMP, 0.0, 1.0, pts, dt=1e-3)
    exact = BUMP.exact_flow(0.0, 1.0, pts)
    assert np.max(np.abs(num - exact)) < 1e-8


def test_rk4_fourth_order_convergence():
    # the bump kernel's field is analytic, so the error is RK4's alone
    H = twist_bump(angle=2.0, rho=0.8, m=4)
    pts = np.array([[0.25, 0.0], [0.45, 0.1], [0.0, 0.55]])
    exact = H.exact_flow(0.0, 1.0, pts)
    err = []
    for dt in (0.05, 0.025):
        num = integrate_points(H, 0.0, 1.0, pts, dt=dt)
        err.append(np.max(np.abs(num - exact)))
    assert err[0] / err[1] >= 14.0


def test_reversibility():
    pts = np.array([[0.3, 0.2], [0.1, -0.5]])
    fwd = integrate_points(BUMP, 0.0, 1.0, pts, dt=1e-3)
    back = integrate_points(BUMP, 1.0, 0.0, fwd, dt=1e-3)
    assert np.max(np.abs(back - pts)) < 1e-12


def test_points_outside_support_never_move():
    pts = np.array([[0.85, 0.0], [0.0, -0.95], [1.2, 1.2]])
    out = integrate_points(BUMP, 0.0, 1.0, pts, dt=1e-2)
    assert np.array_equal(out, pts)


def test_zero_field_flow_is_identity():
    pts = np.array([[0.3, 0.2]])
    out = integrate_points(zero_field(), 0.0, 1.0, pts, dt=1e-2)
    assert np.array_equal(out, pts)


def test_integrate_points_rejects_bad_dt():
    with pytest.raises(ValueError):
        integrate_points(BUMP, 0.0, 1.0, np.zeros((1, 2)), dt=0.0)


# ---------------------------------------------------------------------------
# bump kernel


def _reference_bump_flow(pts, dt, nsteps, amp, rho, m, tau, cx, cy, support_radius):
    """RK4 on the closed-form field of a moving bump, written out independently."""

    def field(x, y, lev):
        dx, dy = x - cx[lev], y - cy[lev]
        u = 1.0 - (dx * dx + dy * dy) / (rho * rho)
        # dH/dq = -2 m amp tau / rho^2 * u^(m-1) * dx, and likewise in p
        g = -2.0 * m * amp * tau[lev] / (rho * rho) * np.where(u > 0.0, u, 0.0) ** (m - 1)
        return g * dy, -g * dx

    out = pts.copy()
    live = pts[:, 0] ** 2 + pts[:, 1] ** 2 < support_radius**2
    x, y = pts[live, 0].copy(), pts[live, 1].copy()
    for k in range(nsteps):
        k1x, k1y = field(x, y, 2 * k)
        k2x, k2y = field(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y, 2 * k + 1)
        k3x, k3y = field(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y, 2 * k + 1)
        k4x, k4y = field(x + dt * k3x, y + dt * k3y, 2 * k + 2)
        x = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    out[live, 0] = x
    out[live, 1] = y
    return out


@settings(deadline=None, max_examples=40)
@given(m=st.integers(2, 6), amp=st.floats(0.01, 0.2),
       polar=st.lists(st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi)),
                      min_size=1, max_size=32),
       sweep=st.floats(0.0, 0.3), phase=st.floats(0.0, 2.0 * math.pi))
def test_bump_kernel_matches_closed_form_rk4(m, amp, polar, sweep, phase):
    r, angle = np.array(polar).T
    pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
    nsteps, dt = 25, 1e-2
    tau = np.linspace(0.5, 1.5, 2 * nsteps + 1)
    levels = 0.5 * dt * np.arange(2 * nsteps + 1)
    cx = sweep * np.cos(2.0 * math.pi * levels + phase)
    cy = sweep * np.sin(2.0 * math.pi * levels + phase)
    rho = 0.8 - sweep
    got = kernels.rk4_bump_flow(pts.copy(), dt, nsteps, 1e-4, amp, rho, m, tau, cx, cy, 0.8)
    want = _reference_bump_flow(pts, dt, nsteps, amp, rho, m, tau, cx, cy, 0.8)
    assert np.max(np.abs(got - want)) < 1e-13


@settings(deadline=None, max_examples=40)
@given(family=st.sampled_from([radial_bump, moving_bump, loop_bump]), m=st.integers(3, 6),
       amp=st.floats(0.01, 0.2), t=st.floats(0.0, 1.0))
def test_bump_field_matches_the_stencil_of_a_black_box(family, m, amp, t, fd4_x_h):
    # kernels.bump_field's closed-form X_H against the 4th-order stencil of
    # width STENCIL_WIDTH on the same bump behind a black-box
    # ScalarTimeField, at the nodes of a 65-node grid.  The bump is only
    # C^(m-1) on its edge circle |x - c(t)| = rho, where the stencil's bias
    # is O(STENCIL_WIDTH^(m-1)), not O(STENCIL_WIDTH^4): nodes within the
    # stencil's reach of it are left out
    H = family(amp=amp, m=m)
    nodes = square_grid(65).node_points().reshape(-1, 2)
    c = H.center_at(t)
    field = kernels.bump_field(H.amp, H.rho, H.m, [H.tau_at(t)], [c[0]], [c[1]])
    z = np.ascontiguousarray(nodes.T)
    closed = np.empty_like(z)
    field(z, 0, 0, closed)
    stencil = fd4_x_h(ScalarTimeField(lambda t, pts: H(t, pts), H.support_radius),
                      t, nodes, STENCIL_WIDTH)
    off_edge = np.abs(np.hypot(*(nodes - c).T) - H.rho) > 2.0 * STENCIL_WIDTH
    assert np.max(np.abs(closed.T - stencil)[off_edge]) < 1e-8


# The RK4 loop and bump kernel as they stood before the loop was blocked and
# moved to preallocated buffers, copied verbatim.  The blocked loop keeps
# every per-element operation in this order, so its output bits match.


def _unblocked_rk4(field, pts, dt, nsteps, support_radius):
    """Advance pts (N, 2) in place through nsteps classical RK4 steps of size dt.

    field(x, y, k, j) returns the field's two components at the points
    (x, y), j in {0, 1, 2} half-steps into step k.  Points starting at
    radius >= support_radius are frozen; None freezes none.
    """
    x0 = pts[:, 0]
    y0 = pts[:, 1]
    if support_radius is None:
        live = np.ones(len(pts), dtype=bool)
    else:
        live = x0 * x0 + y0 * y0 < support_radius * support_radius
    x = x0[live]
    y = y0[live]
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(nsteps):
        k1x, k1y = field(x, y, k, 0)
        k2x, k2y = field(x + half * k1x, y + half * k1y, k, 1)
        k3x, k3y = field(x + half * k2x, y + half * k2y, k, 1)
        k4x, k4y = field(x + dt * k3x, y + dt * k3y, k, 2)
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
    pts[live, 0] = x
    pts[live, 1] = y
    return pts


def _unblocked_rk4_bump_flow(pts, dt, nsteps, h_d, amp, rho, m, tau, cx, cy, support_radius):
    """Advance pts (N, 2) in place through nsteps RK4 steps of a separable bump.

    tau, cx and cy hold the time factor and the bump center at the
    2*nsteps + 1 half-step levels.  Points starting at radius >=
    support_radius are frozen.  h_d is accepted for a stable signature
    and ignored: the field is analytic.
    """
    inv_rho2 = 1.0 / (rho * rho)
    coef = (-2.0 * m * amp * inv_rho2) * np.asarray(tau, dtype=np.float64)

    def field(x, y, k, j):
        lev = 2 * k + j
        dx = x - cx[lev]
        dy = y - cy[lev]
        u = np.maximum(1.0 - (dx * dx + dy * dy) * inv_rho2, 0.0)
        w = u
        for _ in range(m - 2):
            w = w * u
        w = w * coef[lev]
        return w * dy, -(w * dx)

    return _unblocked_rk4(field, pts, dt, nsteps, support_radius)


def _cloud_past_one_block(seed):
    # more live points than one block, plus frozen ones outside the support
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.9, 0.9, size=(2 * kernels.BLOCK + 7, 2))


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("moving", [False, True], ids=["fixed", "moving"])
@pytest.mark.parametrize("dt", [1e-2, -1e-2])
def test_bump_kernel_bits_match_unblocked_loop(m, moving, dt):
    pts = _cloud_past_one_block(m)
    live = np.count_nonzero(np.sum(pts * pts, axis=-1) < 0.64)
    assert live > kernels.BLOCK
    nsteps = 4
    levels = 0.5 * dt * np.arange(2 * nsteps + 1)
    tau = 1.0 + 0.4 * np.sin(3.0 * levels)
    if moving:
        rho = 0.45
        cx, cy = 0.3 * np.cos(5.0 * levels), 0.3 * np.sin(5.0 * levels)
    else:
        rho = 0.8
        cx = cy = np.zeros_like(levels)
    args = (dt, nsteps, None, 0.3, rho, m, tau, cx, cy, 0.8)
    got = kernels.rk4_bump_flow(pts.copy(), *args)
    want = _unblocked_rk4_bump_flow(pts.copy(), *args)
    assert np.max(np.abs(want - pts)) > 1e-3
    assert np.array_equal(got, want)


@pytest.mark.parametrize("t0, t1", [(0.0, 0.05), (0.6, 0.55)])
def test_spline_field_path_bits_match_unblocked_loop(t0, t1):
    # a time-dependent spline-backed field carrying its spline gradient,
    # through integrate_points and through the unblocked loop with the
    # callback integrate_points used to build
    from disclab.fields import ScalarTimeField

    grid = square_grid(65)
    spline = grid.with_values(BUMP(0.0, np.stack(grid.nodes(), axis=-1)))
    def gradient(t, z, out):
        spline.gradient_into(z, out)
        out *= 1.0 + t

    H = ScalarTimeField(lambda t, pts: (1.0 + t) * spline(pts), 0.8, gradient=gradient)
    pts = _cloud_past_one_block(11)
    dt = 1e-2
    got = integrate_points(H, t0, t1, pts, dt=dt)

    nsteps = max(1, round(abs(t1 - t0) / dt))
    step = (t1 - t0) / nsteps
    offsets = (0.0, 0.5 * step, step)

    def field(x, y, k, j):
        grad = np.empty((2, x.size))
        H.gradient_into(t0 + k * step + offsets[j], np.stack([x, y]), grad)
        return grad[1], -grad[0]

    want = _unblocked_rk4(field, pts.copy(), step, nsteps, H.support_radius)
    assert np.max(np.abs(want - pts)) > 1e-4
    assert np.array_equal(got, want)


# The gradient callback of integrate_points for a spline-backed field as it
# was before gradients were written into the stage buffers, kept verbatim.
# It ran vector_field through two evaluators deleted since, a ScalarTimeField
# gradient of (..., 2) points and GridField2D's value-and-gradient, copied
# here as _head_time_one_gradient and _head_value_and_gradient.

_HEAD_BSPLINE3 = np.array([
    [1.0, -3.0, 3.0, -1.0], [4.0, 0.0, -6.0, 3.0],
    [1.0, 3.0, 3.0, -3.0], [0.0, 0.0, 0.0, 1.0],
    [-3.0, 6.0, -3.0, 0.0], [0.0, -12.0, 9.0, 0.0],
    [3.0, 6.0, -9.0, 0.0], [0.0, 0.0, 3.0, 0.0],
]) / 6.0
_HEAD_TAP_SHIFTS = np.arange(-1, 3)[:, None]
_HEAD_BLOCK = 1024


def _head_covers(self, points, margin=0.0):
    pts = np.asarray(points, dtype=np.float64)
    lo, hi = self.extent
    return bool(
        np.all(pts[..., 0] >= lo[0] - margin)
        and np.all(pts[..., 0] <= hi[0] + margin)
        and np.all(pts[..., 1] >= lo[1] - margin)
        and np.all(pts[..., 1] <= hi[1] + margin)
    )


def _head_value_and_gradient(self, points):
    pts = np.asarray(points, dtype=np.float64)
    shape = pts.shape[:-1]
    flat = pts.reshape(-1, 2)
    if not _head_covers(self, flat):
        lo, hi = self.extent
        raise ValueError(f"points leave the grid extent [{lo}, {hi}]")
    value = np.empty(len(flat))
    grad = np.empty((len(flat), 2))
    for start in range(0, len(flat), _HEAD_BLOCK):
        block = slice(start, start + _HEAD_BLOCK)
        value[block], grad[block] = _head_spline_block(self, flat[block])
    return value.reshape(shape), grad.reshape(shape + (2,))


def _head_spline_block(self, flat):
    u = (flat.T - self.origin[:, None]) / self.spacing
    cell = np.minimum(np.floor(u), self.n - 2)
    t = u - cell
    powers = np.empty((4,) + t.shape)
    powers[0] = 1.0
    powers[1] = t
    np.multiply(t, t, out=powers[2])
    np.multiply(powers[2], t, out=powers[3])
    w = (_HEAD_BSPLINE3 @ powers.reshape(4, -1)).reshape((2, 4) + t.shape)
    j = np.abs(cell.astype(np.intp)[:, None, :] + _HEAD_TAP_SHIFTS)
    j = np.minimum(j, 2 * (self.n - 1) - j)
    taps = np.take(self._spline_coeffs(), j[0][:, None, :] * self.n + j[1][None, :, :])
    rows = np.einsum("abn,jbn->jan", taps, w[:, :, 1])
    m = np.einsum("ian,jan->ijn", w[:, :, 0], rows)
    return m[0, 0], np.stack([m[1, 0], m[0, 1]], axis=-1) / self.spacing


def _head_time_one_gradient(sham, s, points):
    # the deleted ScalarTimeField gradient of SHamiltonian.time_one_field()
    points = np.asarray(points, dtype=np.float64)
    grad = np.asarray(_head_value_and_gradient(sham.field_at(s), points)[1],
                      dtype=np.float64)
    if sham.support_radius is not None:
        outside = np.hypot(points[..., 0], points[..., 1]) >= sham.support_radius
        grad = np.where(outside[..., None], 0.0, grad)
    return grad


def _head_integrate_time_one(sham, t0, t1, points, dt):
    pts = np.array(points, dtype=np.float64, order="C", ndmin=2, copy=True)
    nsteps = max(1, round(abs(t1 - t0) / dt))
    step = (t1 - t0) / nsteps
    offsets = (0.0, 0.5 * step, step)

    def vector_field(t, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        grad = _head_time_one_gradient(sham, t, pts)
        return np.stack([grad[:, 1], -grad[:, 0]], axis=-1).reshape(np.shape(points))

    def field(z, k, j, out):
        out[:] = vector_field(t0 + k * step + offsets[j], np.stack([z[0], z[1]], axis=-1)).T

    for z in kernels.rk4_points(pts, [(field, step, nsteps)], sham.support_radius):
        pass
    return z[:2].T


def _time_one_sham(grid, support_radius):
    # K(s, t, .) = t H with H the standard bump sampled on grid
    from disclab.alexander import SHamiltonian

    k = grid.with_values(BUMP(0.0, np.stack(grid.nodes(), axis=-1)))
    zero = grid.with_values(np.zeros_like(k.values))
    return SHamiltonian(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                        [[zero, k], [zero, k]], support_radius)


@pytest.mark.parametrize("case", ["interior", "edge cells"])
def test_spline_time_one_flow_bits_match_stacked_callback(case):
    rng = np.random.default_rng(29)
    if case == "interior":
        # live points whose cells all keep their taps on the grid, frozen
        # ones outside the support, and live ones so close to its edge that
        # RK4 stage points leave it, where the gradient is zeroed
        sham = _time_one_sham(square_grid(129), 0.5)
        r = np.concatenate([0.5 * np.sqrt(rng.random(1800)), 0.5 + 0.5 * rng.random(200),
                            np.full(40, 0.5 - 1e-9)])
        angle = 2.0 * np.pi * rng.random(r.size)
        pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
        t1, dt = 1.0, 1e-2
    else:
        # a grid of extent 0.85 and a support radius of 0.84: live points
        # reach the edge cells, whose taps are mirror-reflected, and the
        # points in the corners of the square are frozen
        grid = square_grid(33, extent=0.85)
        sham = _time_one_sham(grid, 0.84)
        pts = rng.uniform(-0.845, 0.845, size=(2500, 2))
        lo, _ = grid.extent
        cells = np.floor((pts - lo) / grid.spacing)
        live = np.hypot(pts[:, 0], pts[:, 1]) < 0.84
        assert np.any(live & np.any((cells < 1) | (cells > grid.n - 3), axis=1))
        t1, dt = 0.1, 1e-2
    live = np.hypot(pts[:, 0], pts[:, 1]) < sham.support_radius
    assert live.sum() > 1024 and not live.all()
    got = integrate_points(sham.time_one_field(), 0.0, t1, pts, dt=dt)
    want = _head_integrate_time_one(sham, 0.0, t1, pts, dt)
    assert np.max(np.abs(want - pts)) > 1e-3
    assert np.array_equal(got, want)
    # ScalarTimeField.gradient_into, and the X_H the RK4 segment's field
    # callback takes from it, keep their values too
    K1 = sham.time_one_field()
    stage = got[live]
    grad = _head_time_one_gradient(sham, 0.5, stage)
    z = np.ascontiguousarray(stage.T)
    out = np.empty_like(z)
    K1.gradient_into(0.5, z, out)
    assert np.array_equal(out.T, grad)
    field, _, _ = _rk4_segment(K1, 0.5, 1.0, 0.5)
    field(z, 0, 0, out)
    assert np.array_equal(out.T, np.stack([grad[:, 1], -grad[:, 0]], axis=-1))


def test_bump_kernel_matches_exact_rotation_on_grid():
    qx, qy = square_grid(65).nodes()
    nodes = np.stack([qx.ravel(), qy.ravel()], axis=-1)
    num = integrate_points(BUMP, 0.0, 1.0, nodes, dt=1e-3)
    assert np.max(np.abs(num - BUMP.exact_flow(0.0, 1.0, nodes))) < 1e-12


@pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (0.7, 0.15)])
def test_generic_path_stage_times_match_bump_kernel(t0, t1):
    # a moving bump with a time-dependent tau, once through the bump kernel
    # and once as a black box carrying the same closed-form gradient: both
    # run the one RK4 stepper, so they agree to rounding only if the generic
    # path evaluates the field at the kernel's half-step levels
    from disclab.fields import SeparableBump, ScalarTimeField

    amp, rho, m = 0.3, 0.4, 3
    tau = lambda t: 1.0 + 0.8 * math.sin(2.0 * math.pi * t)
    center = lambda t: 0.3 * np.array([math.cos(2.0 * math.pi * t), math.sin(2.0 * math.pi * t)])
    H = SeparableBump(amp=amp, rho=rho, m=m, tau=tau, center=center, support_radius=0.8)

    def gradient(t, z, out):
        d = z - center(t)[:, None]
        u = np.maximum(1.0 - np.sum(d * d, axis=0) / (rho * rho), 0.0)
        np.multiply(-2.0 * m * amp * tau(t) / (rho * rho) * u ** (m - 1), d, out=out)

    generic = ScalarTimeField(H, 0.8, gradient=gradient)
    r = np.linspace(0.05, 0.75, 8)
    pts = np.stack([r * np.cos(5.0 * r), r * np.sin(5.0 * r)], axis=-1)
    a = integrate_points(H, t0, t1, pts, dt=0.02)
    b = integrate_points(generic, t0, t1, pts, dt=0.02)
    assert np.max(np.abs(a - pts)) > 0.05
    assert np.max(np.abs(a - b)) <= 1e-12


def _segment_field(name):
    """A field of each kind the segmented RK4 run builds its segments for."""
    if name == "fixed":
        return twist_bump(angle=2.0)
    if name == "moving":
        return moving_bump(amp=0.2)
    if name == "loop":
        return loop_bump(amp=0.2)
    grid = square_grid(65)
    spline = grid.with_values(BUMP(0.0, np.stack(grid.nodes(), axis=-1)))

    def gradient(t, z, out):
        spline.gradient_into(z, out)
        out *= 4.0 + t

    return ScalarTimeField(lambda t, pts: (4.0 + t) * spline(pts), 0.8, gradient=gradient)


# uneven spans, so the segments differ in step size and count, and one
# span of length zero, which integrate_points does not step
SEGMENT_TIMES = [0.0, 0.013, 0.05, 0.05, 0.052, 0.1]


@pytest.mark.parametrize("name", ["fixed", "moving", "loop", "spline"])
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_segmented_run_bits_match_chained_calls(name, backward):
    H = _segment_field(name)
    times = 0.6 - np.array(SEGMENT_TIMES) if backward else 0.3 + np.array(SEGMENT_TIMES)
    if name == "spline":
        pts = np.random.default_rng(5).uniform(-0.9, 0.9, size=(3000, 2))
    else:
        # live points past one block
        pts = _cloud_past_one_block(5)
    # one kernels.rk4_points run over _rk4_segment segments, as s_hamiltonian takes
    segments = [_rk4_segment(H, t0, t1, 1e-2) for t0, t1 in zip(times[:-1], times[1:])]
    clouds = [z.T.copy() for z in kernels.rk4_points(pts, segments, H.support_radius)]
    assert len(clouds) == len(times) - 1
    cur = pts
    for k, got in enumerate(clouds, start=1):
        cur = integrate_points(H, times[k - 1], times[k], cur, dt=1e-2)
        assert np.array_equal(got, cur)
    assert np.max(np.abs(cur - pts)) > 1e-3


@pytest.mark.parametrize("rows, value", [(2, None), (3, (0.7, -1.3))], ids=["2-row", "3-row"])
@pytest.mark.parametrize("layout", ["slice", "index"])
def test_runner_freezes_the_dead_points_and_steps_the_live_ones_as_rk4(layout, rows, value):
    # kernels.rk4_points on a live set past one block that is one contiguous
    # run (a slice) or scattered (an index array): one yield per segment,
    # the live columns bit-equal to a hand-built kernels.rk4 run on them,
    # the frozen ones at their start coordinates with zero value rows
    H = _segment_field("moving")
    pts = _cloud_past_one_block(7)
    if layout == "slice":
        pts = pts[np.argsort(np.hypot(pts[:, 0], pts[:, 1]), kind="stable")]
    before = pts.copy()
    live = np.hypot(pts[:, 0], pts[:, 1]) < H.support_radius
    assert isinstance(kernels.live_points(pts, H.support_radius), slice) == (layout == "slice")
    assert np.count_nonzero(live) > kernels.BLOCK and not live.all()
    times = 0.3 + np.array(SEGMENT_TIMES)

    def segments():
        return [_rk4_segment(H, t0, t1, 1e-2, value) for t0, t1 in zip(times[:-1], times[1:])]

    got = [z.copy() for z in kernels.rk4_points(pts, segments(), H.support_radius, rows)]
    start = np.zeros((rows, np.count_nonzero(live)))
    start[:2] = pts[live].T
    want = [z.copy() for z in kernels.rk4(segments(), start)]
    assert len(got) == len(want) == len(times) - 1
    for g, w in zip(got, want):
        assert g.shape == (rows, len(pts))
        assert g[:, live].tobytes() == w.tobytes()
        assert g[:2, ~live].tobytes() == pts[~live].T.tobytes()
        assert g[2:, ~live].tobytes() == np.zeros((rows - 2, np.count_nonzero(~live))).tobytes()
    assert pts.tobytes() == before.tobytes()
    assert np.max(np.abs(got[-1][:2, live] - pts[live].T)) > 1e-3
    if rows == 3:
        assert np.max(np.abs(got[-1][2])) > 1e-3


# ---------------------------------------------------------------------------
# rows of the stepper


def _with_row(pts):
    """The (3, N) stepper state of the points pts, (N, 2), with a zero third row."""
    z = np.zeros((3, len(pts)))
    z[:2] = pts.T
    return z


@pytest.mark.parametrize("name, value", [
    ("fixed", (0.7, -1.3)), ("moving", (0.7, -1.3)), ("loop", (2.0, 0.0)),
], ids=["fixed", "moving", "loop"])
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_third_row_keeps_the_point_bits(name, value, backward):
    # rows 0 and 1 of a 3-row run keep the bits of the 2-row run, with the
    # bump kernel's value row, past one block
    H = _segment_field(name)
    t0, t1 = (0.6, 0.5) if backward else (0.3, 0.4)
    pts = _cloud_past_one_block(5)
    pts = pts[kernels.live_points(pts, H.support_radius)]
    two = np.ascontiguousarray(pts.T)
    three = _with_row(pts)
    for _ in kernels.rk4([_rk4_segment(H, t0, t1, 1e-2)], two):
        pass
    for _ in kernels.rk4([_rk4_segment(H, t0, t1, 1e-2, value)], three):
        pass
    assert np.max(np.abs(two - pts.T)) > 1e-3
    assert np.max(np.abs(three[2])) > 1e-3
    assert three[:2].copy().tobytes() == two.tobytes()


@pytest.mark.parametrize("t0, t1", [(0.0, 0.25), (0.5, 0.25)])
def test_constant_row_integrates_to_c_t(t0, t1):
    # dyadic steps and c: every RK4 step adds c * step exactly
    c = -2.5
    pts = np.random.default_rng(3).uniform(-0.7, 0.7, size=(50, 2))
    z = _with_row(pts)
    twist, step, nsteps = _rk4_segment(twist_bump(angle=2.0), t0, t1, 2.0**-6)

    def field(z, k, j, out):
        # the twist moves the points; the third row's rate is c
        twist(z[:2], k, j, out[:2])
        out[2].fill(c)

    for _ in kernels.rk4([(field, step, nsteps)], z):
        pass
    assert np.max(np.abs(z[:2] - pts.T)) > 1e-3
    assert np.all(z[2] == c * (t1 - t0))


@settings(deadline=None, max_examples=40)
@given(family=st.sampled_from([radial_bump, moving_bump, loop_bump]), m=st.integers(2, 6),
       amp=st.floats(0.01, 0.2), t=st.floats(0.0, 1.0),
       alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
@example(family=radial_bump, m=2, amp=0.0625, t=0.0, alpha=2.225073858507e-311, beta=0.0)
def test_bump_value_row_is_alpha_h_plus_beta_x_grad_h(family, m, amp, t, alpha, beta, fd4_x_h):
    # kernels.bump_field's value row is -(alpha H + beta x . grad H), with H
    # from the bump's own evaluator and grad H from the closed-form X_H,
    # which the 4th-order stencil of a black box checks off the edge circle
    H = family(amp=amp, m=m)
    nodes = square_grid(65).node_points().reshape(-1, 2)
    c = H.center_at(t)
    levels = ([H.tau_at(t)], [c[0]], [c[1]])
    plain = kernels.bump_field(H.amp, H.rho, H.m, *levels)
    field = kernels.bump_field(H.amp, H.rho, H.m, *levels, value=(alpha, beta))
    x_h = np.empty((2, len(nodes)))
    plain(np.ascontiguousarray(nodes.T), 0, 0, x_h)
    out = np.empty((3, len(nodes)))
    field(_with_row(nodes), 0, 0, out)
    assert out[:2].tobytes() == x_h.tobytes()
    x, y = nodes.T
    euler = y * x_h[0] - x * x_h[1]
    want = alpha * H(t, nodes) + beta * euler
    scale = np.max(np.abs(alpha * H(t, nodes))) + np.max(np.abs(beta * euler))
    # at a subnormal scale 1e-12 * scale falls below the smallest positive
    # double, so the bound allows a few of those; wherever the result is a
    # normal double the added term does not change the bound
    tol = 1e-12 * scale + 4 * np.finfo(np.float64).smallest_subnormal
    assert np.max(np.abs(-out[2] - want)) <= tol
    stencil = fd4_x_h(ScalarTimeField(lambda t, pts: H(t, pts), H.support_radius),
                      t, nodes, STENCIL_WIDTH)
    off_edge = np.abs(np.hypot(*(nodes - c).T) - H.rho) > 2.0 * STENCIL_WIDTH
    fd_euler = y * stencil[:, 0] - x * stencil[:, 1]
    assert np.max(np.abs(euler - fd_euler)[off_edge]) < 1e-8


def test_value_row_pair_needs_a_scalar_bump():
    with pytest.raises(TypeError, match="SeparableBump"):
        _rk4_segment(_segment_field("spline"), 0.0, 0.1, 1e-2, (1.0, 0.0))


# ---------------------------------------------------------------------------
# PlaneMap


def test_flow_map_symplecticity(bump_map_257):
    assert bump_map_257.jacobian_defect() < 1e-4


def test_jacobian_bits_match_patched_gradient(bump_map_129, head_node_derivative):
    Q, P = bump_map_129.node_images()
    h = bump_map_129.template.spacing
    want = (head_node_derivative(Q, h, 0), head_node_derivative(Q, h, 1),
            head_node_derivative(P, h, 0), head_node_derivative(P, h, 1))
    got = bump_map_129.jacobian_at_nodes()
    assert len(got) == 4
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_identity_map():
    grid = square_grid(65)
    ident = PlaneMap.identity(grid, 0.8)
    assert ident.displacement_norm() == 0.0
    assert ident.jacobian_defect() < 1e-12
    pts = np.array([[0.3, -0.4]])
    assert np.allclose(ident(pts), pts)


def test_map_call_matches_flow(bump_map_257):
    pts = np.array([[0.3, 0.15], [-0.4, 0.2]])
    direct = integrate_points(BUMP, 0.0, 1.0, pts, dt=1e-3)
    assert np.max(np.abs(bump_map_257(pts) - direct)) < 1e-6


def test_map_is_identity_outside_support(bump_map_257):
    pts = np.array([[0.9, 0.1], [0.0, 1.01]])
    assert np.array_equal(bump_map_257(pts), pts)


def test_newton_inverse_round_trip(bump_map_257):
    pts = np.array([[0.25, 0.1], [0.5, -0.3], [0.0, 0.6]])
    back = bump_map_257.newton_invert(bump_map_257(pts))
    assert np.max(np.abs(back - pts)) < 1e-5


def test_compose_with_inverse_is_identity(bump_map_129):
    nodes = bump_map_129.template.node_points().reshape(-1, 2)
    back = bump_map_129.newton_invert(bump_map_129(nodes))
    assert np.max(np.hypot(*(back - nodes).T)) < 1e-5


def test_newton_inverts_targets_of_any_shape():
    # an (n, n, 2) array of targets comes back in its own shape, each
    # preimage the one of the flattened (n*n, 2) targets
    grid = square_grid(33)
    phi = flow_map(radial_bump(0.05), 1.0, grid, dt=1e-2)
    nodes = grid.node_points()
    back = phi.newton_invert(phi(nodes))
    assert back.shape == nodes.shape
    assert np.array_equal(back.reshape(-1, 2), phi.newton_invert(phi(nodes).reshape(-1, 2)))
    assert np.max(np.hypot(*(back - nodes).reshape(-1, 2).T)) < 1e-8


# PlaneMap.newton_invert as it stood before grids.values_at, kept verbatim
# but for `self` passed as an argument and each grid field, and the map
# itself, evaluated one at a time through the fixtures' copies of that
# value path.

def _head_newton_invert(self, targets, grid_call, plane_map_call):
    tgt = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
    y = tgt.copy()
    lo, hi = self.grid_x.extent
    g11, g12, g21, g22 = self._jacobian_grids()
    converged = False
    for _ in range(NEWTON_MAX_ITER):
        res = plane_map_call(self, y) - tgt
        err = np.hypot(res[:, 0], res[:, 1])
        active = err > NEWTON_TOL
        if not active.any():
            converged = True
            break
        ya = y[active]
        ra = res[active]
        a11 = grid_call(g11, ya)
        a12 = grid_call(g12, ya)
        a21 = grid_call(g21, ya)
        a22 = grid_call(g22, ya)
        det = a11 * a22 - a12 * a21
        bad = np.abs(det) < 1e-14
        if bad.any():
            idx = np.nonzero(active)[0][np.nonzero(bad)[0][0]]
            raise NewtonError(
                f"singular jacobian while inverting at target {tgt[idx]}",
                point=tgt[idx],
            )
        dx = (a22 * ra[:, 0] - a12 * ra[:, 1]) / det
        dy = (-a21 * ra[:, 0] + a11 * ra[:, 1]) / det
        step = np.stack([dx, dy], axis=-1)
        norm = np.hypot(step[:, 0], step[:, 1])
        lam = np.where(norm > 0.25, 0.25 / np.maximum(norm, 1e-300), 1.0)
        y[active] = np.clip(ya - lam[:, None] * step, lo, hi)
    if not converged:
        res = plane_map_call(self, y) - tgt
        err = np.hypot(res[:, 0], res[:, 1])
        if np.max(err) > 1e-8:
            idx = int(np.argmax(err))
            raise NewtonError(
                f"Newton stalled at target {tgt[idx]} (residual {err[idx]:.3e})",
                point=tgt[idx],
            )
    return y.reshape(np.shape(targets))


def test_map_and_newton_bits_match_one_grid_at_a_time(bump_map_129, rng, head_grid_call,
                                                      head_plane_map_call):
    phi = bump_map_129
    lo, hi = phi.template.extent
    # several blocks of points, inside and outside the support, the
    # extent's corners included
    pts = np.concatenate([rng.uniform(lo, hi, size=(2500, 2)), [lo, hi, [lo[0], hi[1]]]])
    got = phi(pts)
    assert got.tobytes() == head_plane_map_call(phi, pts).tobytes()
    assert phi(pts.reshape(-1, 1, 2)).tobytes() == got.tobytes()
    # Newton's targets: the images of the nodes in and near the support
    nodes = phi.template.node_points().reshape(-1, 2)
    targets = phi(nodes[np.hypot(nodes[:, 0], nodes[:, 1]) < 0.85])
    assert len(targets) > 2048
    want = _head_newton_invert(phi, targets, head_grid_call, head_plane_map_call)
    assert phi.newton_invert(targets).tobytes() == want.tobytes()


def test_newton_iterates_stay_on_the_grid():
    # a shift by 0.6 has no preimage of (-0.7, 0) on a grid of extent 1.05:
    # damped steps drive the iterate past the grid's left edge, where it is
    # clipped, and Newton stalls there instead of leaving the grid
    grid = square_grid(33)
    phi = PlaneMap.from_node_images(grid, grid.node_points() + (0.6, 0.0), 1.0)
    with pytest.raises(NewtonError, match="Newton stalled") as err:
        phi.newton_invert([[-0.7, 0.0]])
    assert np.array_equal(err.value.point, [-0.7, 0.0])


def test_map_save_load(tmp_path, bump_map_129):
    prefix = str(tmp_path / "map")
    bump_map_129.save(prefix)
    back = PlaneMap.load(prefix)
    assert np.array_equal(back.grid_x.values, bump_map_129.grid_x.values)
    assert np.array_equal(back.grid_y.values, bump_map_129.grid_y.values)
    assert back.support_radius == bump_map_129.support_radius


def test_map_load_accepts_old_sidecar(tmp_path, bump_map_129):
    # older sidecars carry a jacobian_tolerance that nothing reads
    import json

    prefix = str(tmp_path / "map")
    bump_map_129.save(prefix)
    with open(f"{prefix}.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert "jacobian_tolerance" not in meta
    with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(meta, jacobian_tolerance=1e-5), fh)
    back = PlaneMap.load(prefix)
    assert np.array_equal(back.grid_x.values, bump_map_129.grid_x.values)
    assert back.support_radius == bump_map_129.support_radius


# ---------------------------------------------------------------------------
# paths


def test_hamiltonian_path_structure(bump):
    maps = hamiltonian_path(bump, nt=5, grid=square_grid(65), dt=2e-3)
    assert len(maps) == 5
    assert maps[0].displacement_norm() == 0.0
    assert maps[1].displacement_norm() > 0.0


@pytest.mark.parametrize("nt", [1, 0, -1])
def test_paths_reject_fewer_than_two_times(bump, nt):
    # a path of fewer than two time samples never reaches t = 1
    grid = square_grid(33)
    with pytest.raises(ValueError, match="nt must be at least 2"):
        hamiltonian_path(bump, nt=nt, grid=grid)


def test_path_endpoint_matches_flow_map(bump):
    grid = square_grid(65)
    maps = hamiltonian_path(bump, nt=5, grid=grid, dt=1e-3)
    phi = flow_map(bump, 1.0, grid=grid, dt=1e-3)
    assert np.max(np.abs(maps[-1].grid_x.values - phi.grid_x.values)) < 1e-12


# ---------------------------------------------------------------------------
# metrics


def test_simpson_weights():
    with pytest.raises(ValueError):
        _simpson_weights(4)
    with pytest.raises(ValueError):
        _simpson_weights(1)
    # exact for cubics: int_0^1 t^3 dt = 1/4
    n = 9
    ts = np.linspace(0.0, 1.0, n)
    w = _simpson_weights(n)
    assert np.sum(w * ts**3) * (ts[1] - ts[0]) == pytest.approx(0.25, rel=1e-14)


@pytest.mark.parametrize("H, samples, value", [
    # an autonomous H: one sample, t1 * g(0)
    (BUMP, [0.0], 0.5),
    # otherwise Simpson, exact for the cubic: int_0^0.5 (1 + t^3) dt
    (loop_bump(amp=0.05), list(np.linspace(0.0, 0.5, 5)), 0.5 + 0.5**4 / 4.0),
])
def test_time_integral_samples(H, samples, value):
    seen = []

    def g(t):
        seen.append(t)
        return 1.0 + t**3

    assert time_integral(H, g, 5, t1=0.5) == pytest.approx(value, rel=1e-14)
    assert seen == samples
    # nt is checked before either branch samples g
    for nt in (4, 1):
        with pytest.raises(ValueError, match="odd number of samples"):
            time_integral(H, g, nt)
    assert seen == samples


def test_oscillation_and_hofer_length(bump):
    grid = square_grid(257)
    assert osc_on_grid(bump, 0.0, grid) == pytest.approx(0.05, rel=1e-12)
    # autonomous: the Hofer length is the oscillation itself
    assert hofer_length(bump, grid) == pytest.approx(0.05, rel=1e-12)
