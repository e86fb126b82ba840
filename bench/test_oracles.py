"""Tests of the benchmark's references and of its tracer.

Run from the repository root:  python3 -m pytest bench -q

Each closed form in oracles.py is checked against an independent
numerical computation in plain numpy: polar quadrature for integrals, a
small RK4 integrator for flows, finite differences for derivatives.
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracles  # noqa: E402
import tracing  # noqa: E402

CASES = [(0.05, 0.8, 4), (0.03, 0.5, 3), (0.12, 0.7, 6)]


def polar_integral(fn_of_r, radius, n=20001):
    """int over the disc of radius `radius` of a radial function, by Simpson in r."""
    r = np.linspace(0.0, radius, n)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(np.sum(w * 2.0 * math.pi * r * fn_of_r(r)) * (r[1] - r[0]) / 3.0)


def hamiltonian_field(H, points, h=1e-6):
    """X_H = (dH/dp, -dH/dq) by centered differences of H(points)."""
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    hq = (H(points + ex) - H(points - ex)) / (2 * h)
    hp = (H(points + ey) - H(points - ey)) / (2 * h)
    return np.stack([hp, -hq], axis=-1)


def bump(amp, rho, m):
    return lambda pts: oracles.bump_values(pts, amp, rho, m)


def rk4(H, points, t1, steps=2000):
    x = np.array(points, dtype=np.float64)
    dt = t1 / steps
    for _ in range(steps):
        k1 = hamiltonian_field(H, x)
        k2 = hamiltonian_field(H, x + 0.5 * dt * k1)
        k3 = hamiltonian_field(H, x + 0.5 * dt * k2)
        k4 = hamiltonian_field(H, x + dt * k3)
        x += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def sample_points(n=64, radius=1.0, seed=3):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random(n))
    a = 2 * math.pi * rng.random(n)
    return np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)


@pytest.mark.parametrize("amp,rho,m", CASES)
@pytest.mark.parametrize("tau", [1.0, 0.4])
def test_calabi_closed_form_matches_polar_quadrature(amp, rho, m, tau):
    numeric = tau * polar_integral(
        lambda r: oracles.bump_values(np.stack([r, 0 * r], -1), amp, rho, m), rho)
    assert oracles.bump_calabi(amp, rho, m, tau) == pytest.approx(numeric, rel=1e-10)


@pytest.mark.parametrize("amp,rho,m", CASES)
def test_rotation_matches_rk4_of_the_hamiltonian_field(amp, rho, m):
    pts = sample_points(48, radius=1.0)
    tau = 0.7   # an autonomous field scaled by tau, integrated over unit time
    flowed = rk4(bump(tau * amp, rho, m), pts, 1.0)
    exact = oracles.radial_bump_flow(pts, amp, rho, m, tau_integral=tau)
    assert np.max(np.abs(flowed - exact)) < 1e-8


def test_rotation_is_identity_outside_the_support():
    pts = sample_points(32, radius=1.0)
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) >= 0.8]
    assert np.array_equal(oracles.radial_bump_flow(pts, 0.05, 0.8, 4), pts)


@pytest.mark.parametrize("amp,rho,m", CASES)
def test_identity_value_is_the_integrated_normalisation_offset(amp, rho, m):
    # c(t) = int H(t, .) dA / vol(sphere); the identity-region value is int_0^1 c
    offset = polar_integral(
        lambda r: oracles.bump_values(np.stack([r, 0 * r], -1), amp, rho, m), rho
    ) / (2.0 * math.pi)   # total area of the sphere model
    assert oracles.identity_value(oracles.bump_calabi(amp, rho, m)) == pytest.approx(
        offset, rel=1e-10)


@pytest.mark.parametrize("a", [0.75, 0.5, 0.25, 0.0625])
def test_rescaled_calabi_scales_like_a_to_the_fourth(a):
    amp, rho, m = CASES[0]
    base = polar_integral(
        lambda r: oracles.bump_values(np.stack([r, 0 * r], -1), amp, rho, m), rho)
    rescaled = polar_integral(
        lambda r: a * a * oracles.bump_values(np.stack([r / a, 0 * r], -1), amp, rho, m),
        a * rho)
    assert rescaled / base == pytest.approx(oracles.rescaled_calabi_ratio(a), rel=1e-9)


@pytest.mark.parametrize("a", [0.5, 0.25, 0.125])
def test_shrunk_hofer_length_and_its_ratio(a):
    amp, rho, m = CASES[0]
    pts = np.concatenate([[[0.0, 0.0]], sample_points(200, radius=1.0)])

    def osc(scale):
        vals = oracles.bump_values(pts / scale, amp, rho, m) / (scale * scale)
        return float(np.max(vals) - np.min(vals))

    assert osc(a) == pytest.approx(oracles.shrunk_hofer_length(amp, a), rel=1e-12)
    assert osc(a / 2) / osc(a) == pytest.approx(oracles.HOFER_RATIO_PER_HALVING, rel=1e-12)


@pytest.mark.parametrize("a", [0.5, 0.25, 0.03125])
def test_shrunk_member_displaces_points_by_at_most_2a(a):
    amp, rho, m = CASES[0]
    pts = sample_points(400, radius=a)
    img = oracles.radial_bump_flow(pts, amp / (a * a), a * rho, m)
    assert np.max(np.hypot(*(img - pts).T)) <= oracles.c0_bound(a)


@pytest.mark.parametrize("s,t", [(0.5, 1.0), (1.0, 0.5), (0.75, 0.25)])
def test_linear_family_s_hamiltonian_generates_the_s_motion(s, t):
    # phi_s^t = phi_H^(s t); its s-velocity at x = phi_s^t(y) must be X_{tH}(x)
    amp, rho, m = CASES[0]
    y = sample_points(64, radius=0.78)
    h = 1e-6
    x = oracles.radial_bump_flow(y, amp, rho, m, s * t)
    v = (oracles.radial_bump_flow(y, amp, rho, m, (s + h) * t)
         - oracles.radial_bump_flow(y, amp, rho, m, (s - h) * t)) / (2 * h)
    K = lambda pts: oracles.linear_family_k(t, pts, amp, rho, m)
    assert np.max(np.abs(v - hamiltonian_field(K, x))) < 1e-7


def test_linear_family_s_hamiltonian_gauge():
    pts = sample_points(64, radius=1.0)
    assert np.all(oracles.linear_family_k(0.0, pts, 0.05, 0.8, 4) == 0.0)
    outside = pts[np.hypot(pts[:, 0], pts[:, 1]) >= 0.8]
    assert np.all(oracles.linear_family_k(1.0, outside, 0.05, 0.8, 4) == 0.0)


# ---------------------------------------------------------------------------
# tracer


def test_layer_stats_self_time_and_outermost_busy_time():
    spans = [
        ["a", 0.0, 10.0, -1, 0, 0, False],
        ["b", 1.0, 4.0, 0, 5, 0, False],
        ["b", 2.0, 3.0, 1, 7, 0, True],     # recursion: not counted again
        ["c", 5.0, 6.0, 0, 2, 1, False],
        ["a", 11.0, 12.0, -1, 0, 0, False],
    ]
    stats, top = tracing.layer_stats(spans, 0, len(spans))
    assert top == pytest.approx(11.0)
    assert stats["a"]["busy_s"] == pytest.approx(11.0)
    assert stats["a"]["self_s"] == pytest.approx(11.0 - 3.0 - 1.0)
    assert stats["b"]["busy_s"] == pytest.approx(3.0)
    assert stats["b"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert stats["b"]["count"] == 5 and stats["b"]["calls"] == 2
    assert stats["c"]["aux_count"] == 2
    assert stats["b"]["under"] == {"a": 1, "b": 1}
    # a slice maps parent indices relative to its start
    stats, top = tracing.layer_stats(spans, 1, 3)
    assert top == pytest.approx(3.0)
    assert stats["b"]["self_s"] == pytest.approx(3.0)


def test_tracer_rebinds_every_module_and_counts_kernel_work():
    from disclab import alexander, experiments, flows, phase
    from disclab.fields import radial_bump
    from disclab.grids import GridField2D

    tracer = tracing.Tracer().install()
    try:
        for mod in (flows, alexander, experiments):
            assert hasattr(mod.hamiltonian_path, "__wrapped__")
        assert experiments.flow_map is flows.flow_map is phase.flow_map
        assert hasattr(GridField2D.__call__, "__wrapped__")
        pts = np.array([[0.1, 0.2], [0.3, -0.1], [0.9, 0.0]])   # the last is outside
        flows.integrate_points(radial_bump(0.05), 0.0, 1.0, pts, dt=0.1)
        flows.integrate_points(radial_bump(0.05), 1.0, 0.0, pts, dt=0.1)
    finally:
        tracer.uninstall()
    assert not hasattr(flows.hamiltonian_path, "__wrapped__")
    assert not hasattr(GridField2D.__call__, "__wrapped__")
    stats, _ = tracing.layer_stats(tracer.spans, 0, len(tracer.spans))
    metrics = tracing.layer_metrics(stats)
    assert metrics["kernels.calls"] == 2
    assert metrics["kernels.point_steps"] == 2 * 2 * 10
    assert metrics["kernels.point_steps_backward"] == 2 * 10
    assert metrics["flows.integrate_points.calls"] == 2
    assert set(metrics) | {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                           "trace.coverage", "trace.spans"} == set(tracing.UNITS)
