"""The one RK4 stepper of every flow, and the closed-form separable-bump field.

``rk4`` steps any field through one in-place, cache-blocked loop over a
list of segments, each with its own field callback, step size and step
count, and hands back the state at every segment end; a run of several
segments is the same arithmetic as one call per segment, with the work
buffers allocated once.  The state is a (d, N) array: rows 0 and 1 are
the point coordinates, and any further row is a quantity the field's
callback writes the rate of, integrated along each trajectory by the
same RK4 steps.  ``rk4_points`` is the one runner of point clouds and
grid nodes: it steps the live points of an (N, 2) cloud, freezes the
rest, and yields the state of all N points at every segment end;
``rk4_bump_flow`` runs it on a separable bump.  The live points are held
as one (d, N) array and run in blocks of at most BLOCK points:
segment by segment, each block through every step of the segment, with
preallocated stage buffers and ufuncs writing through ``out=``.  Points
are independent and every per-element operation keeps its order, so
neither the blocking, nor the buffers, nor a further row moves a bit of
the coordinates.

For H(t, x) = amp * tau(t) * u^m with u = 1 - |x - c(t)|^2 / rho^2 the
Hamiltonian vector field X_H = (dH/dp, -dH/dq) has the closed form

    X_H = -2 m amp tau / rho^2 * max(u, 0)^(m-1) * (dy, -dx),
    (dx, dy) = x - c(t),

so each RK4 stage takes one profile power, by repeated multiplication,
and no finite differences.  A bump whose center stays at the origin skips
the subtraction.  The field is continuous for m >= 2, which
SeparableBump enforces.  Given a value row (alpha, beta), the bump's
callback also writes -(alpha H + beta x . grad H) as the rate of a third
row, from the u and u^(m-1) of X_H and from X_H itself: on a run with a
negative step that row accumulates the integral of alpha H + beta x . grad H
along the trajectory.  The callback folds -2 m amp / rho^2 into the
tabulated tau levels once per segment.  Negating amp flips X_H exactly.
"""

import numpy as np

BACKEND = "numpy"

# live points per block: a block's stage buffers stay in a core's L2 cache
BLOCK = 16384


def live_points(pts, support_radius):
    """The points of pts (N, 2) that RK4 moves, as an index for pts's first axis.

    Those start at radius < support_radius; None moves all.  Points in
    one contiguous run give a slice, which gathers and scatters as a
    view; any others give integer indices, which gather and scatter
    faster than a boolean mask.
    """
    if support_radius is None:
        return slice(0, len(pts))
    x0 = pts[:, 0]
    y0 = pts[:, 1]
    live = np.flatnonzero(x0 * x0 + y0 * y0 < support_radius * support_radius)
    if live.size and live[-1] - live[0] + 1 == live.size:
        return slice(live[0], live[-1] + 1)
    return live


def rk4(segments, z_all):
    """Advance the (d, N) state z_all in place through segments of classical RK4 steps.

    segments is an iterable of (field, dt, nsteps): nsteps steps of size
    dt through field(z, k, j, out), which writes the rates of the d rows
    at the states z, shape (d, n), into out, shape (d, n), j in {0, 1, 2}
    half-steps into the segment's step k.  Rows 0 and 1 are the points;
    d = 2 is a plain flow.  A generator: it yields z_all at the end of
    each segment, and the next segment steps on from there.
    """
    bufs = np.empty((5, z_all.shape[0], min(BLOCK, z_all.shape[1])))
    for field, dt, nsteps in segments:
        half = 0.5 * dt
        sixth = dt / 6.0
        for b in range(0, z_all.shape[1], BLOCK):
            z = z_all[:, b:b + BLOCK]
            k1, k2, k3, k4, s = bufs[:, :, :z.shape[1]]
            for k in range(nsteps):
                field(z, k, 0, k1)
                np.multiply(k1, half, out=s)
                s += z
                field(s, k, 1, k2)
                np.multiply(k2, half, out=s)
                s += z
                field(s, k, 1, k3)
                np.multiply(k3, dt, out=s)
                s += z
                field(s, k, 2, k4)
                # z += sixth * (k1 + 2 (k2 + k3) + k4), in this order
                k2 += k3
                k2 *= 2.0
                k2 += k1
                k2 += k4
                k2 *= sixth
                z += k2
        yield z_all


def rk4_points(pts, segments, support_radius, rows=2):
    """Run the points of pts (N, 2) through segments, freezing those outside the support.

    A generator: at each segment end it yields the (rows, N) state of all
    N points, rows 0 and 1 the coordinates and any further row a value the
    segments' fields write the rate of (see rk4).  The live points (see
    live_points) are stepped; every other point keeps its start
    coordinates bit for bit, and its value rows stay 0.  pts is not
    written to.
    """
    z = np.zeros((rows, len(pts)))
    z[:2] = pts.T
    live = live_points(pts, support_radius)
    # a C-order copy: z[:, index array] alone comes back in Fortran order,
    # whose strided rows slow every ufunc of the stepper
    moving = z[:, live].copy()
    for state in rk4(segments, moving):
        z[:, live] = state
        yield z


def bump_field(amp, rho, m, tau, cx, cy, value=None):
    """The closed-form X_H callback of a separable bump for rk4.

    tau, cx and cy hold the time factor and the bump center at the
    2*nsteps + 1 half-step levels of one segment; amp and rho are
    scalars.  Without value the callback steps a (2, n) state.  With a
    value row (alpha, beta) it steps a (3, n) state and also writes
    -(alpha H + beta x . grad H) into out[2].
    """
    inv_rho2 = 1.0 / (rho * rho)
    coef = -2.0 * m * amp * inv_rho2 * np.asarray(tau, dtype=np.float64)
    if value is not None:
        alpha, beta = value
        # -alpha H = alpha rho^2 / (2 m) * u * w, with w = coef u^(m-1)
        alpha_h = alpha * rho * rho / (2.0 * m)
    centers = np.stack([cx, cy], axis=-1)[:, :, None]
    # x - 0.0 == x, so a center fixed at the origin is skipped bit-exactly
    fixed = np.count_nonzero(centers) == 0
    scratch = {}

    def field(z, k, j, out):
        lev = 2 * k + j
        n = z.shape[1]
        if n not in scratch:
            scratch[n] = (np.empty((2, n)), np.empty(n), np.empty(n))
        d, u, w = scratch[n]
        if value is None:
            x, x_h = z, out
        else:
            x, x_h = z[:2], out[:2]
        if fixed:
            d = x
        else:
            np.subtract(x, centers[lev], out=d)
        np.multiply(d[0], d[0], out=u)
        np.multiply(d[1], d[1], out=w)
        u += w
        u *= inv_rho2
        np.subtract(1.0, u, out=u)
        np.maximum(u, 0.0, out=u)
        # w = coef * u^(m-1), the power by repeated multiplication
        c = coef[lev]
        if m == 2:
            np.multiply(u, c, out=w)
        else:
            np.multiply(u, u, out=w)
            for _ in range(m - 3):
                w *= u
            w *= c
        np.multiply(d[::-1], w, out=x_h)
        np.negative(x_h[1], out=x_h[1])
        if value is None:
            return
        # out[2] = -(alpha H + beta x . grad H): -alpha H = alpha_h u w, and
        # x . grad H = x dH/dq + y dH/dp = y X_H[0] - x X_H[1]
        row = out[2]
        np.multiply(u, w, out=row)
        row *= alpha_h
        if beta != 0.0:
            np.multiply(z[1], x_h[0], out=u)
            np.multiply(z[0], x_h[1], out=w)
            u -= w
            u *= beta
            row -= u

    return field


def rk4_bump_flow(pts, dt, nsteps, h_d, amp, rho, m, tau, cx, cy, support_radius):
    """Advance pts (N, 2) in place through nsteps RK4 steps of a separable bump.

    tau, cx and cy hold the time factor and the bump center at the
    2*nsteps + 1 half-step levels; amp, rho and support_radius are
    scalars.  Points starting at radius >= support_radius are frozen.
    h_d is ignored, since the field is analytic; the signature keeps it
    because the benchmark's tracer binds these eleven positional
    arguments to count each call's work.
    """
    for z in rk4_points(pts, [(bump_field(amp, rho, m, tau, cx, cy), dt, nsteps)], support_radius):
        pts[:] = z.T
    return pts
