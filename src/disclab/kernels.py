"""The RK4 flow kernel of a separable-bump Hamiltonian, in numpy.

For H(t, x) = amp * tau(t) * u^m with u = 1 - |x - c(t)|^2 / rho^2 the
Hamiltonian vector field X_H = (dH/dp, -dH/dq) has the closed form

    X_H = -2 m amp tau / rho^2 * max(u, 0)^(m-1) * (dy, -dx),
    (dx, dy) = x - c(t),

so each RK4 stage takes one profile power, by repeated multiplication,
and no finite differences.  The constant -2 m amp / rho^2 is folded into
the tabulated tau levels once per call.  The field is continuous for
m >= 2, which SeparableBump enforces.
"""

import numpy as np

BACKEND = "numpy"


def rk4_bump_flow(pts, dt, nsteps, h_d, amp, rho, m, tau, cx, cy, support_radius):
    """Advance pts (N, 2) in place through nsteps classical RK4 steps of size dt.

    tau, cx and cy hold the time factor and the bump center at the
    2*nsteps + 1 half-step levels.  Points starting at radius >=
    support_radius are frozen (the field vanishes there).  h_d is
    accepted for the caller's uniform signature and ignored: the field
    is analytic.
    """
    inv_rho2 = 1.0 / (rho * rho)
    coef = (-2.0 * m * amp * inv_rho2) * np.asarray(tau, dtype=np.float64)

    def field(x, y, lev):
        dx = x - cx[lev]
        dy = y - cy[lev]
        u = np.maximum(1.0 - (dx * dx + dy * dy) * inv_rho2, 0.0)
        w = u
        for _ in range(m - 2):
            w = w * u
        w = w * coef[lev]
        return w * dy, -(w * dx)

    x0 = pts[:, 0]
    y0 = pts[:, 1]
    live = x0 * x0 + y0 * y0 < support_radius * support_radius
    x = x0[live].copy()
    y = y0[live].copy()
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(nsteps):
        lev = 2 * k
        k1x, k1y = field(x, y, lev)
        k2x, k2y = field(x + half * k1x, y + half * k1y, lev + 1)
        k3x, k3y = field(x + half * k2x, y + half * k2y, lev + 1)
        k4x, k4y = field(x + dt * k3x, y + dt * k3y, lev + 2)
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
    pts[live, 0] = x
    pts[live, 1] = y
    return pts
