"""The one RK4 stepper of every flow, and the closed-form separable-bump field.

``rk4`` steps any field through one in-place, cache-blocked loop over a
list of segments, each with its own field callback, step size and step
count, and hands back the state at every segment end; a run of several
segments is the same arithmetic as one call per segment, with the work
buffers allocated once.  The state is a (d, N) array: rows 0 and 1 are
the point coordinates, and any further row is a quantity the field's
callback writes the rate of, integrated along each trajectory by the
same RK4 steps.  The state is run in blocks of at most BLOCK columns:
segment by segment, each block through every step of the segment, with
preallocated stage buffers and ufuncs writing through ``out=``.  Points
are independent and every per-element operation keeps its order, so
neither the blocking, nor the buffers, nor a further row moves a bit of
the coordinates.

``rk4_points`` is the one runner of point clouds and grid nodes.  It
runs a stack of members over one (N, 2) cloud as one ``rk4`` run: each
member has its own segments and support, its live points sit side by
side in one (d, sum N_i) state, and every other point is frozen.  It
yields the states of all members at every segment end.  A stack of one
is the single-field run; a stack of several needs bump fields with one
m and one segment structure (``BumpField.stack``).  ``rk4_bump_flow``
runs one separable bump.

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

A bump moves no point farther than rho from its center, so a point
beyond its reach, max |c| over the run's stage levels plus rho, has
u < 0 at every stage and stepping it changes no bit: ``rk4_points``
freezes it.  A stack of bumps lays out the stepper's blocks: a member of
PACK columns or more takes blocks of its own, stepped with its scalars,
the arithmetic of its own run; narrower members share blocks, in which
each column takes its member's constants, the same values.  So every
member's state has the bits of its own run.
"""

from collections import namedtuple

import numpy as np

BACKEND = "numpy"

# live points per block: a block's stage buffers stay in a core's L2 cache
BLOCK = 16384

# a stacked member narrower than this shares blocks with its neighbours:
# there numpy's per-call overhead outweighs the per-column constants of a
# shared block, which a wider member steps past in blocks of its own
PACK = BLOCK // 8

# the relative margin of a bump's reach over max |c| + rho: far above the
# rounding of u, so a point beyond the reach has u < 0, not u = 0
REACH_MARGIN = 1e-9


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
    half-steps into the segment's step k.  The state is stepped in blocks
    of BLOCK columns, unless the field has a blocks(N) method (BumpField),
    which lays out the blocks, at most BLOCK wide, and hands out each
    block's callback.  Rows 0 and 1 are the points; d = 2 is a plain flow.
    A generator: it yields z_all at the end of each segment, and the next
    segment steps on from there.
    """
    bufs = np.empty((5, z_all.shape[0], min(BLOCK, z_all.shape[1])))
    for field, dt, nsteps in segments:
        half = 0.5 * dt
        sixth = dt / 6.0
        n = z_all.shape[1]
        if hasattr(field, "blocks"):
            blocks = field.blocks(n)
        else:
            blocks = [(lo, min(lo + BLOCK, n), field) for lo in range(0, n, BLOCK)]
        for lo, hi, f in blocks:
            z = z_all[:, lo:hi]
            k1, k2, k3, k4, s = bufs[:, :, :hi - lo]
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


def reach(segments, support_radius):
    """The radius outside which segments move no point, at most support_radius.

    A bump field's reach is max |c| + rho (1 + REACH_MARGIN) over its
    stage levels; segments with any other field reach support_radius.
    """
    if support_radius is None:
        return None
    radius = 0.0
    for field, _, nsteps in segments:
        if not nsteps:
            continue
        if not isinstance(field, BumpField):
            return support_radius
        radius = max(radius, field.reach())
    return min(support_radius, radius)


def rk4_points(pts, members, rows=2):
    """Run the points of pts (N, 2) under every member of a stack as one rk4 run.

    members is a list of (segments, support_radius), one per member.  All
    members have as many segments, and the i-th segments of all members
    take the same step and step count; a stack of several needs bump
    fields (BumpField.stack).  A generator: at each segment end it yields
    the (M, rows, N) states of the M members, rows 0 and 1 the
    coordinates and any further row a value the fields write the rate of
    (see rk4).  Each member steps the points inside its reach (see
    reach and live_points) as one column run of the stacked state; every
    other point keeps its start coordinates bit for bit, and its value
    rows stay 0.  pts is not written to.
    """
    runs = [list(segments) for segments, _ in members]
    lives = [live_points(pts, reach(run, radius)) for run, (_, radius) in zip(runs, members)]
    starts = [pts[live] for live in lives]
    bounds = np.cumsum([0] + [len(s) for s in starts])
    # a C-order copy: z[:, index array] alone comes back in Fortran order,
    # whose strided rows slow every ufunc of the stepper
    moving = np.zeros((rows, bounds[-1]))
    moving[:2] = np.concatenate(starts).T
    if len(runs) == 1:
        segments = runs[0]
    else:
        segments = [_stacked(parts, np.diff(bounds)) for parts in zip(*runs, strict=True)]
    z = np.zeros((len(runs), rows, len(pts)))
    z[:, :2] = pts.T
    for state in rk4(segments, moving):
        for zi, live, lo, hi in zip(z, lives, bounds[:-1], bounds[1:]):
            zi[:, live] = state[:, lo:hi]
        yield z


def _stacked(parts, counts):
    """The segment that steps the i-th segments parts of all members over their column runs."""
    _, dt, nsteps = parts[0]
    if any(part[1:] != (dt, nsteps) for part in parts):
        raise ValueError("stacked members must share every segment's step and step count")
    return (BumpField.stack([field for field, _, _ in parts], counts) if nsteps else None,
            dt, nsteps)


# one bump's constants over one segment: scalars rho, 1/rho^2 and the value
# row's alpha rho^2 / (2 m) and beta (None without a value row); coef, the
# tau levels times -2 m amp / rho^2; centers, shape (levels, 2, 1), or None
# for a center that stays at the origin
_Bump = namedtuple("_Bump", "rho inv_rho2 coef centers alpha_h beta")


class BumpField:
    """The closed-form X_H callback of separable bumps over one segment, for rk4.

    bump_field builds it for one bump; its callback steps a state of any
    width with the bump's scalars.  stack lays the bumps of several such
    fields over consecutive column runs of one state, and rk4 takes the
    blocks and each block's callback from blocks.
    """

    def __init__(self, m, bumps, counts=None):
        self.m = m
        self.bumps = bumps
        self.bounds = None if counts is None else np.cumsum([0] + list(counts))
        # each bump's own callback, with its scalars, built once
        self._alone = {}

    @classmethod
    def stack(cls, fields, counts):
        """The field of the single bumps of fields, over column runs of counts columns."""
        if not all(isinstance(f, BumpField) and len(f.bumps) == 1 for f in fields):
            raise TypeError("a stack of several members needs one bump field per member")
        if len({f.m for f in fields}) > 1:
            raise ValueError("stacked bumps must share m")
        bumps = [f.bumps[0] for f in fields]
        if len({b.alpha_h is None for b in bumps}) > 1:
            raise ValueError("stacked bumps take a value row all or none")
        return cls(fields[0].m, bumps, counts)

    def reach(self):
        """max |c| + rho (1 + REACH_MARGIN) over the levels, for a single bump."""
        (bump,) = self.bumps
        center = 0.0 if bump.centers is None else float(np.max(np.hypot(*bump.centers[:, :, 0].T)))
        return center + bump.rho * (1.0 + REACH_MARGIN)

    def __call__(self, z, k, j, out):
        self._columns(0, z.shape[1])(z, k, j, out)

    def blocks(self, n):
        """(lo, hi, callback) of each block of the n columns rk4 steps, at most BLOCK wide.

        A member of at least PACK columns takes blocks of its own; runs of
        narrower members share blocks.
        """
        cuts = [0]
        if self.bounds is not None:
            for a, b in zip(self.bounds[:-1], self.bounds[1:]):
                if (b - a >= PACK or b - cuts[-1] > BLOCK) and a > cuts[-1]:
                    cuts.append(a)
                if b - a >= PACK:
                    cuts.extend(range(a + BLOCK, b, BLOCK))
                    cuts.append(b)
        cuts.extend(range(cuts[-1] + BLOCK, n, BLOCK))
        if n > cuts[-1]:
            cuts.append(n)
        return [(lo, hi, self._columns(lo, hi)) for lo, hi in zip(cuts[:-1], cuts[1:])]

    def _columns(self, lo, hi):
        """The callback of columns lo:hi of the stacked state (of any columns, for one bump)."""
        if self.bounds is None:
            first = last = 0
        else:
            first = int(np.searchsorted(self.bounds, lo, "right")) - 1
            last = int(np.searchsorted(self.bounds, hi, "left")) - 1
        if first == last:
            if first not in self._alone:
                self._alone[first] = _callback(self.m, self.bumps[first])
            return self._alone[first]
        # each column's constants from its bump: a bump index per column
        member = np.searchsorted(self.bounds, np.arange(lo, hi), "right") - 1 - first
        bumps = self.bumps[first:last + 1]

        def per_column(values):
            return np.array(values)[member]

        centers = None
        if any(b.centers is not None for b in bumps):
            origin = np.zeros_like(next(b.centers for b in bumps if b.centers is not None))
            centers = np.concatenate([origin if b.centers is None else b.centers for b in bumps],
                                     axis=2)
        with_value = bumps[0].alpha_h is not None
        table = _Bump(None, per_column([b.inv_rho2 for b in bumps]),
                      np.stack([b.coef for b in bumps], axis=1), centers,
                      per_column([b.alpha_h for b in bumps]) if with_value else None,
                      per_column([b.beta for b in bumps]) if with_value else None)
        return _callback(self.m, table, member)


def bump_field(amp, rho, m, tau, cx, cy, value=None):
    """The closed-form X_H field of a separable bump for rk4, a BumpField.

    tau, cx and cy hold the time factor and the bump center at the
    2*nsteps + 1 half-step levels of one segment; amp and rho are
    scalars.  Without value the callback steps a (2, n) state.  With a
    value row (alpha, beta) it steps a (3, n) state and also writes
    -(alpha H + beta x . grad H) into out[2].
    """
    inv_rho2 = 1.0 / (rho * rho)
    coef = -2.0 * m * amp * inv_rho2 * np.asarray(tau, dtype=np.float64)
    centers = np.stack([cx, cy], axis=-1)[:, :, None]
    # x - 0.0 == x, so a center fixed at the origin is skipped bit-exactly
    if np.count_nonzero(centers) == 0:
        centers = None
    alpha_h = beta = None
    if value is not None:
        alpha, beta = value
        # -alpha H = alpha rho^2 / (2 m) * u * w, with w = coef u^(m-1)
        alpha_h = alpha * rho * rho / (2.0 * m)
    return BumpField(m, [_Bump(rho, inv_rho2, coef, centers, alpha_h, beta)])


def _callback(m, bump, member=None):
    """rk4's callback of the bump constants bump, on one block of columns.

    Without member the constants are one bump's.  With member, each
    column's bump index, the scalars are per-column arrays and coef and
    centers hold one column per bump, from which every stage takes the
    column's own.
    """
    inv_rho2, coef, centers, alpha_h, beta = bump[1:]
    with_beta = alpha_h is not None and bool(np.any(beta != 0.0))
    scratch = {}

    def field(z, k, j, out):
        lev = 2 * k + j
        n = z.shape[1]
        if n not in scratch:
            scratch[n] = (np.empty((2, n)), np.empty(n), np.empty(n), np.empty((2, n)),
                          np.empty(n))
        d, u, w, cen, c = scratch[n]
        if alpha_h is None:
            x, x_h = z, out
        else:
            x, x_h = z[:2], out[:2]
        if centers is None:
            d = x
        elif member is None:
            np.subtract(x, centers[lev], out=d)
        else:
            np.subtract(x, np.take(centers[lev], member, axis=1, out=cen, mode="clip"), out=d)
        np.multiply(d[0], d[0], out=u)
        np.multiply(d[1], d[1], out=w)
        u += w
        u *= inv_rho2
        np.subtract(1.0, u, out=u)
        np.maximum(u, 0.0, out=u)
        # w = coef * u^(m-1), the power by repeated multiplication
        if member is None:
            c = coef[lev]
        else:
            np.take(coef[lev], member, out=c, mode="clip")
        if m == 2:
            np.multiply(u, c, out=w)
        else:
            np.multiply(u, u, out=w)
            for _ in range(m - 3):
                w *= u
            w *= c
        np.multiply(d[::-1], w, out=x_h)
        np.negative(x_h[1], out=x_h[1])
        if alpha_h is None:
            return
        # out[2] = -(alpha H + beta x . grad H): -alpha H = alpha_h u w, and
        # x . grad H = x dH/dq + y dH/dp = y X_H[0] - x X_H[1]
        row = out[2]
        np.multiply(u, w, out=row)
        row *= alpha_h
        if with_beta:
            # a column with beta = 0 subtracts a zero: that can turn a rate
            # of -0.0 into +0.0, which no sum onto the state can tell apart
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
    scalars.  Points starting at radius >= support_radius, or beyond the
    bump's reach, are frozen.  h_d is ignored, since the field is
    analytic; the signature keeps it because the benchmark's tracer binds
    these eleven positional arguments to count each call's work.
    """
    segment = (bump_field(amp, rho, m, tau, cx, cy), dt, nsteps)
    for (z,) in rk4_points(pts, [([segment], support_radius)]):
        pts[:] = z.T
    return pts
