"""Closed-form references for the benchmark's checks, computed apart from disclab.

Nothing here imports disclab.  Every formula is derived from the
definitions alone, for the separable radial bump

    H(t, x) = amp * tau(t) * (1 - |x|^2 / rho^2)_+^m

with the sign convention X_H = (dH/dp, -dH/dq) on the plane (q, p).  The
benchmark's own tests (test_oracles.py) check each formula against an
independent numerical computation.
"""

import math

import numpy as np

#: Total area of the sphere model: the unit disc plus an identity region.
SPHERE_VOLUME = 2.0 * math.pi


def bump_values(points, amp, rho, m):
    """amp * (1 - |x|^2 / rho^2)_+^m at points of shape (..., 2)."""
    pts = np.asarray(points, dtype=np.float64)
    u = 1.0 - (pts[..., 0] ** 2 + pts[..., 1] ** 2) / (rho * rho)
    return amp * np.maximum(u, 0.0) ** m


def bump_calabi(amp, rho, m, tau_integral=1.0):
    """Cal = amp * pi * rho^2 / (m + 1) * int tau.

    int_disc (1 - r^2/rho^2)^m dA = pi rho^2 int_0^1 v^m dv = pi rho^2 / (m + 1).
    """
    return amp * math.pi * rho * rho / (m + 1) * tau_integral


def rotation_angle(r, amp, rho, m, tau_integral=1.0):
    """Counterclockwise angle theta(r) = 2 m amp / rho^2 (1 - r^2/rho^2)^(m-1) int tau.

    For a radial H = h(r^2), X_H = 2 h'(r^2) (p, -q) = omega (-p, q) with
    omega = -2 h'(r^2) = 2 m amp / rho^2 * u^(m-1): a rotation at constant
    rate on each circle.
    """
    r = np.asarray(r, dtype=np.float64)
    u = np.maximum(1.0 - r * r / (rho * rho), 0.0)
    return 2.0 * m * amp / (rho * rho) * u ** (m - 1) * tau_integral


def radial_bump_flow(points, amp, rho, m, tau_integral=1.0):
    """Exact time-one image of points (..., 2) under the radial bump."""
    pts = np.asarray(points, dtype=np.float64)
    theta = rotation_angle(np.hypot(pts[..., 0], pts[..., 1]), amp, rho, m,
                           tau_integral)
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty_like(pts)
    out[..., 0] = c * pts[..., 0] - s * pts[..., 1]
    out[..., 1] = s * pts[..., 0] + c * pts[..., 1]
    return out


def identity_value(cal, sphere_volume=SPHERE_VOLUME):
    """Value of the phase function on the identity region: Cal / vol(sphere)."""
    return cal / sphere_volume


def rescaled_calabi_ratio(a):
    """Cal(a^2 H(t, x/a)) / Cal(H) = a^4 (area a^2 times amplitude a^2)."""
    return a**4


def shrunk_hofer_length(amp, a, tau_abs_integral=1.0):
    """Hofer length of a^-2 H(t, x/a): oscillation amp / a^2, integrated in t."""
    return amp / (a * a) * tau_abs_integral


#: Hofer length ratio between consecutive members when the scale halves.
HOFER_RATIO_PER_HALVING = 4.0


def c0_bound(a):
    """Displacement bound 2a: the support of the member at scale a has radius < a."""
    return 2.0 * a


def linear_family_k(t, points, amp, rho, m):
    """s-Hamiltonian of the family H(s) = s H for an autonomous H: K(s, t, .) = t H.

    phi_s^t = phi_H^(s t), so d/ds phi_s^t = t X_H(phi_s^t): the
    generator in s is the Hamiltonian t H, independent of s.  It vanishes
    at t = 0 and outside the support, as the gauge requires.
    """
    return t * bump_values(points, amp, rho, m)
