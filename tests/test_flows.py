"""RK4 flows, grid maps, Newton inversion, and the path-space metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import kernels
from disclab.fields import loop_bump, moving_bump, radial_bump, twist_bump, zero_field
from disclab.flows import (PlaneMap, _simpson_weights, c0_distance, flow_map,
                           hamiltonian_path, hofer_length, integrate_points, osc_on_grid,
                           time_integral, vector_field)
from disclab.grids import square_grid


BUMP = radial_bump(amp=0.05, rho=0.8, m=4)


# ---------------------------------------------------------------------------
# point integration


def test_vector_field_convention():
    # X_H = (dH/dp, -dH/dq); for H = radial bump at (r, 0) the q-derivative
    # is negative, so the field points in +p there
    v = vector_field(BUMP, 0.0, np.array([[0.4, 0.0]]))[0]
    assert abs(v[0]) < 1e-10
    assert v[1] > 0.0


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


def test_bump_kernel_matches_exact_rotation_on_grid():
    qx, qy = square_grid(65).nodes()
    nodes = np.stack([qx.ravel(), qy.ravel()], axis=-1)
    num = integrate_points(BUMP, 0.0, 1.0, nodes, dt=1e-3)
    assert np.max(np.abs(num - BUMP.exact_flow(0.0, 1.0, nodes))) < 1e-12


def test_generic_evaluator_matches_bump_kernel():
    # the same bump run through the closed-form kernel and the generic
    # 4th-order centered-difference path must agree to integrator accuracy
    from disclab.fields import ScalarTimeField

    generic = ScalarTimeField(lambda t, pts: BUMP(t, pts), 0.8, 3)
    pts = np.array([[0.3, 0.1], [0.5, -0.2]])
    a = integrate_points(BUMP, 0.0, 1.0, pts, dt=1e-3)
    b = integrate_points(generic, 0.0, 1.0, pts, dt=1e-3)
    assert np.max(np.abs(a - b)) < 1e-9


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

    def gradient(t, pts):
        d = pts - center(t)
        u = np.maximum(1.0 - np.sum(d * d, axis=-1) / (rho * rho), 0.0)
        return (-2.0 * m * amp * tau(t) / (rho * rho) * u ** (m - 1))[..., None] * d

    generic = ScalarTimeField(H, 0.8, gradient=gradient)
    r = np.linspace(0.05, 0.75, 8)
    pts = np.stack([r * np.cos(5.0 * r), r * np.sin(5.0 * r)], axis=-1)
    a = integrate_points(H, t0, t1, pts, dt=0.02)
    b = integrate_points(generic, t0, t1, pts, dt=0.02)
    assert np.max(np.abs(a - pts)) > 0.05
    assert np.max(np.abs(a - b)) <= 1e-12


# ---------------------------------------------------------------------------
# PlaneMap


def test_flow_map_symplecticity(bump_map_257):
    assert bump_map_257.jacobian_defect() < 1e-4


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
    inv = bump_map_257.inverse()
    back = inv(bump_map_257(pts))
    assert np.max(np.abs(back - pts)) < 1e-5


def test_backward_integration_inverse(bump):
    grid = square_grid(129)
    phi = flow_map(bump, 1.0, grid=grid, dt=1e-3, with_inverse=True)
    inv = phi.inverse()
    pts = np.array([[0.3, 0.2], [-0.1, 0.45]])
    assert np.max(np.abs(inv(phi(pts)) - pts)) < 1e-6
    # inverse of the inverse restores the forward grids
    assert inv.inverse().grid_x is phi.grid_x


def test_compose_with_inverse_is_identity(bump_map_129):
    comp = bump_map_129.inverse().compose(bump_map_129)
    assert comp.displacement_norm() < 1e-5


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
    path = hamiltonian_path(bump, nt=5, grid=square_grid(65), dt=2e-3)
    assert len(path.maps) == 5
    assert path.maps[0].displacement_norm() == 0.0
    assert path.time_samples[0] == 0.0
    assert path.time_samples[-1] == 1.0
    with pytest.raises(KeyError):
        path.map_at(0.1)
    assert path.map_at(0.5) is path.maps[2]


def test_path_start_is_its_own_inverse(bump, monkeypatch):
    grid = square_grid(65)
    path = hamiltonian_path(bump, nt=3, grid=grid, dt=2e-3, with_inverse=True)

    def no_newton(self, *args, **kwargs):
        raise AssertionError("the identity map was Newton-inverted")

    monkeypatch.setattr(PlaneMap, "newton_invert", no_newton)
    nodes = np.stack(grid.nodes(), axis=-1)
    inv = path.maps[0].inverse()
    assert np.array_equal(np.stack(inv.node_images(), axis=-1), nodes)
    # the cubic spline reproduces its node values up to rounding
    assert np.max(np.abs(inv(nodes) - nodes)) < 1e-15


def _stored_inverse_nodes(path):
    return [np.stack([v.ravel() for v in m.inverse().node_images()], axis=-1)
            for m in path.maps]


def _reintegrated_inverse_nodes(H, grid, nt, dt):
    nodes = np.stack([c.ravel() for c in grid.nodes()], axis=-1)
    return [integrate_points(H, t, 0.0, nodes, dt) for t in np.linspace(0.0, 1.0, nt)]


def test_autonomous_inverses_come_from_one_backward_sweep(monkeypatch):
    H = radial_bump(amp=0.05, rho=0.8, m=4)
    grid = square_grid(65)
    steps = []
    kernel = kernels.rk4_bump_flow

    def counting(pts, dt, nsteps, *args):
        steps.append(math.copysign(nsteps, dt))
        return kernel(pts, dt, nsteps, *args)

    monkeypatch.setattr(kernels, "rk4_bump_flow", counting)
    path = hamiltonian_path(H, nt=17, grid=grid, dt=4e-3, with_inverse=True)
    monkeypatch.undo()
    # one segment per stored time in each direction, with equal step counts
    forward = [n for n in steps if n > 0]
    backward = [-n for n in steps if n < 0]
    assert len(forward) == len(backward) == 16
    assert forward == backward
    for got, want in zip(_stored_inverse_nodes(path),
                         _reintegrated_inverse_nodes(H, grid, 17, 4e-3)):
        assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("family", [loop_bump, moving_bump])
def test_nonautonomous_inverses_are_reintegrated(family):
    H = family(amp=0.05)
    grid = square_grid(65)
    path = hamiltonian_path(H, nt=5, grid=grid, dt=4e-3, with_inverse=True)
    for got, want in zip(_stored_inverse_nodes(path),
                         _reintegrated_inverse_nodes(H, grid, 5, 4e-3)):
        assert np.array_equal(got, want)


def test_path_endpoint_matches_flow_map(bump):
    grid = square_grid(65)
    path = hamiltonian_path(bump, nt=5, grid=grid, dt=1e-3)
    phi = flow_map(bump, 1.0, grid=grid, dt=1e-3)
    assert np.max(np.abs(path.maps[-1].grid_x.values - phi.grid_x.values)) < 1e-12


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


def test_c0_distance(bump_map_129):
    grid = bump_map_129.template
    ident = PlaneMap.identity(grid, 0.8)
    assert c0_distance(bump_map_129, bump_map_129, with_inverses=False) < 1e-12
    d = c0_distance(bump_map_129, ident)
    assert 0.0 < d <= 2.0 * 0.8
    # the distance to the identity matches the displacement norm
    assert d == pytest.approx(bump_map_129.displacement_norm(), rel=1e-6)
