"""Vectorized numpy fallback for the bump-flow RK4 kernel.

Same algorithm as the compiled lane in _kernels.pyx: classical RK4 on the
centered-difference Hamiltonian vector field of a separable bump, with
time data tabulated at half-step levels.  Each field evaluation shares
its stencil: dx, dy and their squares are formed once and reused at the
four points (x, y +- h_d) and (x +- h_d, y), the factor amp*tau/(2 h_d)
is applied once per component, and the profile power max(u, 0)^m is
taken by repeated multiplication, as in the compiled lane.
"""

import numpy as np

BACKEND = "numpy"


def _profile(r2, inv_rho2, m):
    """max(1 - r2 / rho^2, 0)^m by repeated multiplication."""
    u = np.maximum(1.0 - r2 * inv_rho2, 0.0)
    acc = u
    for _ in range(m - 1):
        acc = acc * u
    return acc


def _field(x, y, cx, cy, amp_tau, inv_rho2, m, h_d):
    dx = x - cx
    dy = y - cy
    dx2 = dx * dx
    dy2 = dy * dy
    dxp, dxm = dx + h_d, dx - h_d
    dyp, dym = dy + h_d, dy - h_d
    scale = amp_tau * (0.5 / h_d)
    vx = (_profile(dx2 + dyp * dyp, inv_rho2, m)
          - _profile(dx2 + dym * dym, inv_rho2, m)) * scale
    vy = (_profile(dxm * dxm + dy2, inv_rho2, m)
          - _profile(dxp * dxp + dy2, inv_rho2, m)) * scale
    return vx, vy


def rk4_bump_flow(pts, dt, nsteps, h_d, amp, rho, m, tau, cx, cy, support_radius):
    inv_rho2 = 1.0 / (rho * rho)
    x0 = pts[:, 0]
    y0 = pts[:, 1]
    live = x0 * x0 + y0 * y0 < support_radius * support_radius
    x = x0[live].copy()
    y = y0[live].copy()
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(nsteps):
        lev = 2 * k
        k1x, k1y = _field(x, y, cx[lev], cy[lev], amp * tau[lev], inv_rho2, m, h_d)
        k2x, k2y = _field(x + half * k1x, y + half * k1y, cx[lev + 1], cy[lev + 1],
                          amp * tau[lev + 1], inv_rho2, m, h_d)
        k3x, k3y = _field(x + half * k2x, y + half * k2y, cx[lev + 1], cy[lev + 1],
                          amp * tau[lev + 1], inv_rho2, m, h_d)
        k4x, k4y = _field(x + dt * k3x, y + dt * k3y, cx[lev + 2], cy[lev + 2],
                          amp * tau[lev + 2], inv_rho2, m, h_d)
        x += sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    pts[live, 0] = x
    pts[live, 1] = y
    return pts
