"""The one RK4 stepper of every flow, and the closed-form separable-bump field.

``rk4`` steps any field through one in-place, cache-blocked loop over a
list of segments, each with its own field callback, step size and step
count, and hands back the cloud at every segment end; a run of several
segments is the same arithmetic as one call per segment, with the work
buffers allocated once.  ``rk4_points`` runs it on the live points of an
(N, 2) cloud, and ``rk4_bump_flow`` on a separable bump.  The live points
are held as one (2, N) array and run in blocks of at most BLOCK points:
segment by segment, each block through every step of the segment, with
preallocated stage buffers and ufuncs writing through ``out=``.  Points
are independent and every per-element operation keeps its order, so
neither the blocking nor the buffers move a bit of the output.

For H(t, x) = amp * tau(t) * u^m with u = 1 - |x - c(t)|^2 / rho^2 the
Hamiltonian vector field X_H = (dH/dp, -dH/dq) has the closed form

    X_H = -2 m amp tau / rho^2 * max(u, 0)^(m-1) * (dy, -dx),
    (dx, dy) = x - c(t),

so each RK4 stage takes one profile power, by repeated multiplication,
and no finite differences.  A bump whose center stays at the origin skips
the subtraction.  The field is continuous for m >= 2, which
SeparableBump enforces.

amp, rho and support_radius may each be a scalar or a per-point (N,)
array, so the clouds of several autonomous bumps of one m step together
in one call.  Scalar constants fold -2 m amp / rho^2 into the tabulated
tau levels once per segment.  Per-point constants ride with the live points
through the blocks instead, and each stage multiplies the per-point
-2 m amp / rho^2 by its tau level (not at all where tau is 1): the same
product, so a cloud's bits do not depend on what it shares a call with.
Negating amp flips X_H exactly, which lets a backward sweep join a
forward one.
"""

import functools

import numpy as np

BACKEND = "numpy"

# live points per block: a block's stage buffers stay in a core's L2 cache
BLOCK = 16384


def live_points(pts, support_radius):
    """The points of pts (N, 2) that RK4 moves, as an index for pts's first axis.

    Those start at radius < support_radius, a scalar or an (N,) array;
    None moves all.  Points in one contiguous run give a slice, which
    gathers and scatters as a view; any others give integer indices,
    which gather and scatter faster than a boolean mask.
    """
    if support_radius is None:
        return slice(0, len(pts))
    x0 = pts[:, 0]
    y0 = pts[:, 1]
    live = np.flatnonzero(x0 * x0 + y0 * y0 < support_radius * support_radius)
    if live.size and live[-1] - live[0] + 1 == live.size:
        return slice(live[0], live[-1] + 1)
    return live


def rk4(segments, z_all, aux=None):
    """Advance the (2, N) cloud z_all in place through segments of classical RK4 steps.

    segments is an iterable of (field, dt, nsteps): nsteps steps of size
    dt through field(z, k, j, out), which writes the field's two
    components at the points z, shape (2, n), into out, shape (2, n),
    j in {0, 1, 2} half-steps into the segment's step k.  aux, shape
    (P, N), holds per-point field constants: field also receives a
    block's (P, n) columns as the keyword a.  A generator: it yields
    z_all at the end of each segment, and the next segment steps on from
    there.
    """
    bufs = np.empty((5, 2, min(BLOCK, z_all.shape[1])))
    for field, dt, nsteps in segments:
        half = 0.5 * dt
        sixth = dt / 6.0
        for b in range(0, z_all.shape[1], BLOCK):
            z = z_all[:, b:b + BLOCK]
            f = field if aux is None else functools.partial(field, a=aux[:, b:b + BLOCK])
            k1, k2, k3, k4, s = bufs[:, :, :z.shape[1]]
            for k in range(nsteps):
                f(z, k, 0, k1)
                np.multiply(k1, half, out=s)
                s += z
                f(s, k, 1, k2)
                np.multiply(k2, half, out=s)
                s += z
                f(s, k, 1, k3)
                np.multiply(k3, dt, out=s)
                s += z
                f(s, k, 2, k4)
                # z += sixth * (k1 + 2 (k2 + k3) + k4), in this order
                k2 += k3
                k2 *= 2.0
                k2 += k1
                k2 += k4
                k2 *= sixth
                z += k2
        yield z_all


def rk4_points(pts, segments, support_radius, aux=None):
    """Advance pts (N, 2) in place through segments, freezing its points outside the support.

    Points starting at radius >= support_radius are frozen, and aux,
    shape (P, N), is gathered with the live points; see live_points and
    rk4.
    """
    live = live_points(pts, support_radius)
    z_all = np.stack([pts[live, 0], pts[live, 1]])
    for _ in rk4(segments, z_all, None if aux is None else aux[:, live]):
        pass
    pts[live, 0] = z_all[0]
    pts[live, 1] = z_all[1]
    return pts


def bump_field(amp, rho, m, tau, cx, cy):
    """The closed-form X_H callback of a separable bump for rk4, and its per-point constants.

    tau, cx and cy hold the time factor and the bump center at the
    2*nsteps + 1 half-step levels of one segment.  amp and rho are
    scalars or per-point (N,) arrays; for arrays the second value
    returned is the (2, N) aux of rk4, else None.
    """
    tau = np.asarray(tau, dtype=np.float64)
    inv_rho2 = 1.0 / (rho * rho)
    c0 = -2.0 * m * amp * inv_rho2
    if np.ndim(c0):
        # per point: inv_rho2 and c0 ride with the live points
        aux = np.stack(np.broadcast_arrays(inv_rho2, c0))
    else:
        aux = None
        coef = c0 * tau
    centers = np.stack([cx, cy], axis=-1)[:, :, None]
    # x - 0.0 == x, so a center fixed at the origin is skipped bit-exactly
    fixed = np.count_nonzero(centers) == 0
    scratch = {}

    def field(z, k, j, out, a=None):
        lev = 2 * k + j
        n = z.shape[1]
        if n not in scratch:
            scratch[n] = (np.empty((2, n)), np.empty(n), np.empty(n), np.empty(n))
        d, u, w, c = scratch[n]
        if a is None:
            inv, c = inv_rho2, coef[lev]
        elif tau[lev] == 1.0:
            # c0 * 1.0 == c0
            inv, c = a[0], a[1]
        else:
            inv = a[0]
            np.multiply(a[1], tau[lev], out=c)
        if fixed:
            d = z
        else:
            np.subtract(z, centers[lev], out=d)
        np.multiply(d[0], d[0], out=u)
        np.multiply(d[1], d[1], out=w)
        u += w
        u *= inv
        np.subtract(1.0, u, out=u)
        np.maximum(u, 0.0, out=u)
        # w = c * u^(m-1), the power by repeated multiplication
        if m == 2:
            np.multiply(u, c, out=w)
        else:
            np.multiply(u, u, out=w)
            for _ in range(m - 3):
                w *= u
            w *= c
        np.multiply(d[::-1], w, out=out)
        np.negative(out[1], out=out[1])

    return field, aux


def rk4_bump_flow(pts, dt, nsteps, h_d, amp, rho, m, tau, cx, cy, support_radius):
    """Advance pts (N, 2) in place through nsteps RK4 steps of a separable bump.

    tau, cx and cy hold the time factor and the bump center at the
    2*nsteps + 1 half-step levels.  amp, rho and support_radius are
    scalars or per-point (N,) arrays.  Points starting at radius >=
    support_radius are frozen.  h_d is accepted for a stable signature
    and ignored: the field is analytic.
    """
    field, aux = bump_field(amp, rho, m, tau, cx, cy)
    return rk4_points(pts, [(field, dt, nsteps)], support_radius, aux)
