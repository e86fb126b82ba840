"""Built-in Hamiltonian families and their exact algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab.fields import (ScalarTimeField, SeparableBump, loop_bump, moving_bump,
                            radial_bump, twist_bump, zero_field)
from disclab.flows import integrate_points


ORIGIN = np.zeros((1, 2))


def test_bump_peak_and_support():
    H = radial_bump(amp=0.05, rho=0.8, m=4)
    assert H(0.0, ORIGIN)[0] == pytest.approx(0.05)
    edge = np.array([[0.8, 0.0]])
    assert H(0.0, edge)[0] == 0.0
    outside = np.array([[0.9, 0.3]])
    assert H(0.0, outside)[0] == 0.0
    assert H.support_radius == 0.8
    assert H.smoothness_order == 3


def test_bump_profile_value():
    H = radial_bump(amp=2.0, rho=0.5, m=3)
    pt = np.array([[0.3, 0.0]])
    expected = 2.0 * (1.0 - 0.09 / 0.25) ** 3
    assert H(0.0, pt)[0] == pytest.approx(expected, rel=1e-14)


@settings(deadline=None, max_examples=60)
@given(m=st.integers(2, 6), amp=st.floats(0.01, 2.0), rho=st.floats(0.1, 0.8),
       t=st.floats(0.0, 1.0), moving=st.booleans(), sweep=st.floats(0.0, 0.5),
       polar=st.lists(st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 2.0 * math.pi)),
                      min_size=1, max_size=32))
def test_bump_value_is_the_profile_power(m, amp, rho, t, moving, sweep, polar):
    # amp * tau * max(u, 0)^m on the float64 u, within 4 ulp of the exact
    # product, and exactly 0 at r >= support_radius (r^2 >= R^2 in floats),
    # also where a moving disc pokes out of the support
    if moving:
        center = lambda s: sweep * np.array([math.cos(2.0 * math.pi * s),
                                             math.sin(2.0 * math.pi * s)])
        H = SeparableBump(amp=amp, rho=rho, m=m, center=center, support_radius=0.8,
                          tau=lambda s: 1.0 + 0.5 * math.sin(2.0 * math.pi * s))
    else:
        H = SeparableBump(amp=amp, rho=rho, m=m)
    # plus points on the support circle and past it, toward the center
    R = H.support_radius
    r, angle = np.array(polar + [(R, 2.0 * math.pi * t), (1.05 * R, 2.0 * math.pi * t)]).T
    pts = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
    got = H(t, pts)
    d = pts - H.center_at(t)
    u = 1.0 - (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) / (H.rho * H.rho)
    outside = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1] >= R * R
    assert np.all(got[outside] == 0.0)
    for value, ui in zip(got[~outside], u[~outside]):
        exact = Fraction(H.amp) * Fraction(H.tau_at(t)) * Fraction(max(ui, 0.0)) ** m
        assert abs(Fraction(value) - exact) <= 4 * Fraction(np.finfo(float).eps) * exact


def test_fixed_bump_support_covers_its_disc():
    # a fixed bump is nonzero up to r = rho, so a smaller support is refused
    assert SeparableBump(rho=0.5, support_radius=0.8).support_radius == 0.8
    with pytest.raises(ValueError, match="support_radius must be >= rho"):
        SeparableBump(rho=0.8, support_radius=0.5)


def test_zero_field():
    Z = zero_field()
    pts = np.random.default_rng(0).normal(size=(10, 2))
    assert np.all(Z(0.3, pts) == 0.0)


def test_gradient_is_masked_like_values():
    def grad(t, z, out):
        out[0] = t
        out[1] = z[0]

    H = ScalarTimeField(lambda t, pts: np.ones(pts.shape[:-1]), 0.8, gradient=grad)
    pts = np.array([[0.1, 0.2], [0.9, 0.0], [0.0, -0.8]])
    assert H.has_gradient
    assert np.array_equal(H.gradient(0.5, pts), [[0.5, 0.1], [0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(H(0.5, pts), [1.0, 0.0, 0.0])
    plain = ScalarTimeField(lambda t, pts: np.ones(pts.shape[:-1]), 0.8)
    assert not plain.has_gradient and not radial_bump().has_gradient
    with pytest.raises(TypeError):
        plain.gradient(0.0, pts)


def test_evaluator_runs_only_inside_the_support():
    seen = []

    def evaluator(t, pts):
        seen.append(pts.copy())
        return pts[..., 0] + 2.0 * pts[..., 1]

    H = ScalarTimeField(evaluator, 0.8)
    pts = np.array([[[0.1, 0.2], [0.9, 0.0]], [[0.0, -0.8], [-0.3, 0.5]]])
    assert np.array_equal(H(0.0, pts), [[0.5, 0.0], [0.0, 0.7]])
    assert np.array_equal(seen[0], [[0.1, 0.2], [-0.3, 0.5]])
    assert H(0.0, [0.9, 0.0]).shape == ()


def test_scaled_keeps_structured_family():
    H = radial_bump(amp=0.05, rho=0.8, m=4)
    K = H.scaled(0.5)
    assert isinstance(K, SeparableBump)
    pts = np.array([[0.2, -0.1]])
    assert K(0.0, pts)[0] == pytest.approx(0.5 * H(0.0, pts)[0], rel=1e-14)


def test_generic_scaled_multiplies_values():
    H = ScalarTimeField(lambda t, pts: np.ones(pts.shape[:-1]), 0.8)
    K = H.scaled(3.0)
    assert K(0.0, ORIGIN)[0] == pytest.approx(3.0)


def test_rescaled_is_a_squared_composition(rng):
    H = radial_bump(amp=0.05, rho=0.8, m=4)
    a = 0.37
    K = H.rescaled(a)
    pts = rng.uniform(-0.3, 0.3, size=(50, 2))
    assert np.allclose(K(0.0, pts), a * a * H(0.0, pts / a), rtol=1e-13)
    assert K.support_radius == pytest.approx(a * 0.8)


def test_rescaled_moving_bump_center_shrinks():
    H = moving_bump(amp=0.05, rho=0.25, m=4, sweep=0.3)
    a = 0.5
    K = H.rescaled(a)
    pts = np.array([[0.1, 0.05], [0.05, -0.1]])
    for t in (0.0, 0.3, 0.7):
        assert np.allclose(K(t, pts), a * a * H(t, pts / a), rtol=1e-12)


def test_amplified():
    H = radial_bump(amp=0.05, rho=0.8, m=4)
    K = H.amplified(4.0)
    pts = np.array([[0.2, 0.3]])
    assert K(0.0, pts)[0] == pytest.approx(4.0 * H(0.0, pts)[0], rel=1e-14)
    assert K.support_radius == H.support_radius


@pytest.mark.parametrize("H, autonomous", [
    (radial_bump(), True),
    (radial_bump().scaled(0.5), True),
    (radial_bump().rescaled(0.5), True),
    (radial_bump().amplified(3.0), True),
    (loop_bump(), False),
    (moving_bump(), False),
    (radial_bump().reparametrized(lambda t: t * t, lambda t: 2.0 * t), False),
    (zero_field(), False),
])
def test_is_autonomous(H, autonomous):
    assert H.is_autonomous is autonomous


@pytest.mark.parametrize("H", [
    loop_bump(),
    SeparableBump(amp=0.05, rho=0.5, m=3, tau=lambda t: 1.0 + t, support_radius=0.8),
    radial_bump().reparametrized(lambda t: t * t, lambda t: 2.0 * t).rescaled(0.5),
], ids=["loop", "ramp_wide_support", "reparametrized_rescaled"])
def test_fixed_bump_with_tau_is_tau_times_one_profile(H, rng):
    weights, (profile,) = H.time_profiles
    assert profile.is_autonomous and profile.support_radius == H.support_radius
    pts = rng.uniform(-1.0, 1.0, size=(300, 2))
    for t in (0.0, 0.3, 0.75):
        (w,) = weights(t)
        assert w == H.tau_at(t)
        assert np.allclose(H(t, pts), w * profile(0.0, pts), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("H", [radial_bump(), moving_bump(), zero_field(),
                               ScalarTimeField(lambda t, pts: t + pts[..., 0], 0.8)])
def test_fields_without_time_profiles_declare_none(H):
    assert H.time_profiles is None


def test_reparametrized_chain_rule():
    H = radial_bump(amp=0.05, rho=0.8, m=4)
    chi = lambda t: t * t
    dchi = lambda t: 2.0 * t
    K = H.reparametrized(chi, dchi)
    pts = np.array([[0.3, 0.1]])
    for t in (0.2, 0.6, 0.9):
        assert K(t, pts)[0] == pytest.approx(2.0 * t * H(t * t, pts)[0], rel=1e-13)


def test_rotation_rate_closed_form():
    H = radial_bump(amp=0.05, rho=0.8, m=4)
    r = 0.4
    u = 1.0 - r * r / 0.64
    expected = -2.0 * 4 * 0.05 / 0.64 * u ** 3
    assert H.rotation_rate(r) == pytest.approx(expected, rel=1e-14)
    # rate vanishes outside the support
    assert H.rotation_rate(0.9) == 0.0


def test_exact_flow_matches_integrator():
    H = radial_bump(amp=0.05, rho=0.8, m=4)
    for r in (0.15, 0.4, 0.65):
        x0 = np.array([r, 0.0])
        num = integrate_points(H, 0.0, 1.0, x0[None, :], dt=1e-3)[0]
        exact = H.exact_flow(0.0, 1.0, x0[None, :])[0]
        assert np.max(np.abs(num - exact)) < 1e-8
        # with X_H = (H_p, -H_q) a positive bump rotates counterclockwise
        assert exact[1] > 0.0
        assert math.hypot(*exact) == pytest.approx(r, rel=1e-12)


def test_exact_flow_requires_radial():
    H = moving_bump()
    with pytest.raises(ValueError):
        H.exact_flow(0.0, 1.0, ORIGIN)
    with pytest.raises(ValueError):
        H.rotation_rate(0.3)


def test_moving_bump_support_validation():
    with pytest.raises(ValueError):
        moving_bump(rho=0.25, sweep=0.6, support_radius=0.8)
    with pytest.raises(ValueError):
        SeparableBump(amp=1.0, rho=0.25, m=4, center=lambda t: (0.0, 0.0))


@pytest.mark.parametrize("m", [0, 1])
def test_bump_rejects_low_exponent(m):
    # m = 0 is constant on the support, m = 1 has a discontinuous X_H
    with pytest.raises(ValueError, match="m must be >= 2"):
        SeparableBump(amp=1.0, rho=0.8, m=m)


def test_loop_bump_returns_to_start():
    L = loop_bump(amp=0.05, rho=0.8, m=4)
    pts = np.array([[0.3, 0.2]])
    # chi(1) = chi(0) = 0, so the time-integral of the profile vanishes
    assert L(0.0, pts)[0] == pytest.approx(0.0, abs=1e-12)
    assert L(1.0, pts)[0] == pytest.approx(0.0, abs=1e-12)
    ts = np.linspace(0.0, 1.0, 2001)
    vals = np.array([L(t, pts)[0] for t in ts])
    assert abs(np.trapezoid(vals, ts)) < 1e-8


def test_twist_bump_peak_angle():
    angle = 1.3
    H = twist_bump(angle=angle, rho=0.8, m=4)
    # the peak clockwise rotation rate equals the requested angle
    assert abs(H.rotation_rate(0.0)) == pytest.approx(angle, rel=1e-14)
