"""Hamiltonian flows on the disc and the Hofer length.

Sign convention: Omega = dq^dp and i_{X_H} Omega = dH, so
X_H = (dH/dp, -dH/dq).  Every flow runs through the one classical RK4
stepper, disclab.kernels.rk4: one in-place loop over blocks of live
points, with a field callback that writes X_H into the loop's (2, n)
stage buffers.  X_H has two sources.  A separable bump hands the stepper
the closed-form X_H of kernels.bump_field.  Any other field writes its
gradient at the stage points straight into a scratch buffer through
ScalarTimeField.gradient_into (grid-backed fields differentiate their
cubic spline analytically), and the callback takes X_H from it; a field
without a gradient evaluator raises gradient_into's TypeError.
Symplecticity is monitored, not enforced.  Points starting outside the
support radius never move.

integrate_points runs one cloud from t0 to t1 as one segment of
kernels.rk4.  integrate_segments runs a cloud through a list of stored
times in one stepper run, one segment per pair of consecutive times, each
with the step size and stage times integrate_points would give it, and
hands back the cloud at every stored time.

sweep_nodes steps the grid nodes of several flows together through the
stored times of a path, forward or backward, one segment at a time;
hamiltonian_path is its case of one Hamiltonian.  The small clouds of
several autonomous bumps of one exponent take one kernel call per
segment, with per-point amp, rho and support radius.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import SeparableBump
from .grids import GridField2D, centered_diff4, square_grid

# Newton inversion stops once every residual is under NEWTON_TOL; after
# NEWTON_MAX_ITER steps it still accepts residuals up to 1e-8
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


class NewtonError(RuntimeError):
    """Newton inversion stalled; carries the offending target point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


# ---------------------------------------------------------------------------
# point integration


def _bump_levels(H, t0, dt, nsteps):
    """A separable bump's tau and center coordinates at the half-step levels of an RK4 run."""
    levels = t0 + 0.5 * dt * np.arange(2 * nsteps + 1)
    tau = np.array([H.tau_at(t) for t in levels])
    if H.center is None:
        cx = np.zeros_like(tau)
        cy = np.zeros_like(tau)
    else:
        centers = np.array([H.center_at(t) for t in levels])
        cx = np.ascontiguousarray(centers[:, 0])
        cy = np.ascontiguousarray(centers[:, 1])
    return tau, cx, cy


def _rk4_bump(H, pts, t0, dt, nsteps):
    """Run a separable bump through the closed-form kernel."""
    tau, cx, cy = _bump_levels(H, t0, dt, nsteps)
    return kernels.rk4_bump_flow(
        pts, dt, nsteps, None, H.amp, H.rho, H.m, tau, cx, cy, H.support_radius
    )


def _check_dt(dt):
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")


def _steps(t0, t1, dt):
    """Step count and signed step of the RK4 run from t0 to t1."""
    nsteps = max(1, round(abs(t1 - t0) / dt))
    return nsteps, (t1 - t0) / nsteps


def integrate_points(H, t0, t1, points, dt=1e-3):
    """Advance an (N, 2) cloud from time t0 to t1 (either direction)."""
    _check_dt(dt)
    pts = np.array(points, dtype=np.float64, order="C", ndmin=2, copy=True)
    if t1 == t0:
        return pts
    if isinstance(H, SeparableBump):
        nsteps, step = _steps(t0, t1, dt)
        return _rk4_bump(H, pts, t0, step, nsteps)
    return kernels.rk4_points(pts, [_rk4_segment(H, t0, t1, dt)], H.support_radius)


def _rk4_segment(H, t0, t1, dt):
    """(field, step, nsteps): the kernels.rk4 segment that integrate_points steps from t0 to t1."""
    if t1 == t0:
        # a span of length zero takes no step
        return None, 0.0, 0
    nsteps, step = _steps(t0, t1, dt)
    if isinstance(H, SeparableBump):
        field, _ = kernels.bump_field(H.amp, H.rho, H.m, *_bump_levels(H, t0, step, nsteps))
        return field, step, nsteps
    offsets = (0.0, 0.5 * step, step)
    scratch = {}

    def field(z, k, j, out):
        # X_H = (dH/dp, -dH/dq) from the gradient H writes into a scratch buffer
        n = z.shape[1]
        if n not in scratch:
            scratch[n] = np.empty((2, n))
        grad = scratch[n]
        H.gradient_into(t0 + k * step + offsets[j], z, grad)
        out[0] = grad[1]
        np.negative(grad[0], out=out[1])

    return field, step, nsteps


def integrate_segments(H, times, points, dt=1e-3):
    """Advance an (N, 2) cloud through the given times in one RK4 run.

    Yields, for k = 1, ..., len(times) - 1, the cloud at times[k] in the
    stepper's (2, N) layout: one array, which the next segment
    overwrites.  Each segment is stepped as integrate_points(H, times[k-1],
    times[k], ...) steps it, with the same step size and stage times, so
    a bump's cloud has the bits of those chained calls.  The live points
    are those inside the support at times[0]; a chained call would test
    again at each times[k], which differs only where a field that is not
    exactly zero off its support lets rounding carry a point across it.
    """
    _check_dt(dt)
    pts = np.array(points, dtype=np.float64, ndmin=2)
    cloud = np.stack([pts[:, 0], pts[:, 1]])
    live = kernels.live_points(pts, H.support_radius)
    z_all = cloud[:, live]
    segments = (_rk4_segment(H, t0, t1, dt) for t0, t1 in zip(times[:-1], times[1:]))
    for _ in kernels.rk4(segments, z_all):
        cloud[:, live] = z_all
        yield cloud


# ---------------------------------------------------------------------------
# PlaneMap


class PlaneMap:
    """A grid-sampled area-preserving map of the plane, identity outside support."""

    def __init__(self, grid_x, grid_y, support_radius):
        self.grid_x = grid_x
        self.grid_y = grid_y
        self.support_radius = float(support_radius)
        self._jac_grids = None

    @property
    def template(self):
        return self.grid_x

    @classmethod
    def identity(cls, grid, support_radius=0.8):
        """The identity map sampled on grid."""
        qx, qy = grid.nodes()
        return cls(grid.with_values(qx), grid.with_values(qy), support_radius)

    @classmethod
    def from_node_images(cls, grid, img, support_radius):
        """The map sending the nodes of grid to img, shape (n, n, 2) or (n*n, 2)."""
        shape = grid.values.shape
        return cls(grid.with_values(img[..., 0].reshape(shape)),
                   grid.with_values(img[..., 1].reshape(shape)), support_radius)

    def __call__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        out = np.stack([self.grid_x(pts), self.grid_y(pts)], axis=-1)
        r = np.hypot(pts[..., 0], pts[..., 1])
        fixed = r >= self.support_radius
        return np.where(fixed[..., None], pts, out)

    def node_images(self):
        return self.grid_x.values, self.grid_y.values

    def displacement_norm(self):
        """Sup over grid nodes of |phi(x) - x|."""
        qx, qy = self.grid_x.nodes()
        return float(
            np.max(np.hypot(self.grid_x.values - qx, self.grid_y.values - qy))
        )

    # -- jacobian ----------------------------------------------------------

    def jacobian_at_nodes(self):
        """d(phi) at interior nodes by 4th-order centered differences.

        Returns arrays (J11, J12, J21, J22) on the full grid (2nd-order
        stencils fill the two-cell border, where the map is the identity
        for every built-in family anyway).
        """
        h = self.grid_x.spacing

        def deriv(vals, axis):
            d = np.gradient(vals, h, axis=axis, edge_order=2)
            core = centered_diff4(vals, h, axis)
            sl = [slice(None)] * 2
            sl[axis] = slice(2, -2)
            d[tuple(sl)] = core[tuple(sl)]
            return d

        j11 = deriv(self.grid_x.values, 0)
        j12 = deriv(self.grid_x.values, 1)
        j21 = deriv(self.grid_y.values, 0)
        j22 = deriv(self.grid_y.values, 1)
        return j11, j12, j21, j22

    def det_jacobian(self):
        j11, j12, j21, j22 = self.jacobian_at_nodes()
        return j11 * j22 - j12 * j21

    def interior_nodes(self, radius):
        """Mask of the nodes within radius of the origin, two cells from the border.

        Off that border, jacobian_at_nodes uses its 4th-order stencil.
        """
        qx, qy = self.grid_x.nodes()
        inside = np.hypot(qx, qy) <= radius
        inside[:2, :] = inside[-2:, :] = False
        inside[:, :2] = inside[:, -2:] = False
        return inside

    def jacobian_defect(self):
        """Max |det d(phi) - 1| over interior nodes inside the unit disc."""
        det = self.det_jacobian()[self.interior_nodes(1.0)]
        return float(np.max(np.abs(det - 1.0)))

    def _jacobian_grids(self):
        if self._jac_grids is None:
            j11, j12, j21, j22 = self.jacobian_at_nodes()
            mk = self.grid_x.with_values
            self._jac_grids = (mk(j11), mk(j12), mk(j21), mk(j22))
        return self._jac_grids

    # -- inversion ----------------------------------------------------------

    def newton_invert(self, targets):
        """Solve phi(y) = target for each target by damped Newton, seeded at the targets.

        targets has shape (..., 2); the preimages come back in that shape.
        Every iterate is clipped to the grid's extent, so a target with no
        preimage on the grid fails as a stalled Newton, not off the grid.
        """
        tgt = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
        y = tgt.copy()
        lo, hi = self.grid_x.extent
        g11, g12, g21, g22 = self._jacobian_grids()
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            res = self(y) - tgt
            err = np.hypot(res[:, 0], res[:, 1])
            active = err > NEWTON_TOL
            if not active.any():
                converged = True
                break
            ya = y[active]
            ra = res[active]
            a11 = g11(ya)
            a12 = g12(ya)
            a21 = g21(ya)
            a22 = g22(ya)
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
            # damp long steps to stay in the interpolation region
            norm = np.hypot(step[:, 0], step[:, 1])
            lam = np.where(norm > 0.25, 0.25 / np.maximum(norm, 1e-300), 1.0)
            y[active] = np.clip(ya - lam[:, None] * step, lo, hi)
        if not converged:
            res = self(y) - tgt
            err = np.hypot(res[:, 0], res[:, 1])
            if np.max(err) > 1e-8:
                idx = int(np.argmax(err))
                raise NewtonError(
                    f"Newton stalled at target {tgt[idx]} (residual {err[idx]:.3e})",
                    point=tgt[idx],
                )
        return y.reshape(np.shape(targets))

    def solve_at_nodes(self):
        """y with self(y) = q for every template node q inside the support.

        Nodes outside the support keep y = q.  Returns an (n*n, 2) array
        in node order.
        """
        nodes = self.template.node_points().reshape(-1, 2)
        inner = np.hypot(nodes[:, 0], nodes[:, 1]) < self.support_radius
        sol = nodes.copy()
        sol[inner] = self.newton_invert(nodes[inner])
        return sol

    # -- serialization -------------------------------------------------------

    def save(self, prefix):
        import json

        self.grid_x.to_csv(f"{prefix}_x.csv")
        self.grid_y.to_csv(f"{prefix}_y.csv")
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "support_radius": self.support_radius,
                    "n": self.grid_x.n,
                },
                fh,
            )

    @classmethod
    def load(cls, prefix):
        import json

        gx = GridField2D.from_csv(f"{prefix}_x.csv")
        gy = GridField2D.from_csv(f"{prefix}_y.csv")
        with open(f"{prefix}.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        # older sidecars also carry a "jacobian_tolerance" that nothing reads
        return cls(gx, gy, meta["support_radius"])


def flow_map(H, t, grid=None, dt=1e-3):
    """Sample x -> phi_H^t(x) on the grid as a PlaneMap."""
    if grid is None:
        grid = square_grid(257)
    support = H.support_radius if H.support_radius is not None else np.inf
    nodes = grid.node_points().reshape(-1, 2)
    return PlaneMap.from_node_images(grid, integrate_points(H, 0.0, t, nodes, dt), support)


@dataclass
class HamiltonianPath:
    """phi_H^t sampled at a list of times (maps[0] is the identity)."""

    hamiltonian: object
    time_samples: list
    maps: list


def sweep_nodes(sweeps, nt, grid, dt):
    """Step the grid nodes of several flows together through nt equi-spaced times.

    sweeps is a list of (H, backward) pairs.  A forward sweep carries the
    nodes to phi_H^t(nodes), a backward one to (phi_H^t)^{-1}(nodes).
    Yields, for t_k with k = 1, ..., nt - 1, the list of the sweeps'
    (n*n, 2) node images at t_k, fresh arrays each segment; nt must be at
    least 2, so that the last t_k is 1.

    When more than one Hamiltonian is swept, every one is an autonomous
    SeparableBump of one exponent m, and their live nodes fit in one
    kernel block, each segment is one kernels.rk4_bump_flow call on the
    concatenated clouds, with per-point amp, rho and support radius.  A
    backward sweep then runs forward in time with its amp negated, which
    flips X_H exactly.  Otherwise every sweep takes its own
    integrate_points per segment: for an autonomous H, (phi^t)^{-1} =
    phi^{-t}, so a backward sweep steps from t_{k+1} to t_k with the
    forward step count; for any other H it re-integrates from t_{k+1}
    back to 0.
    """
    _check_dt(dt)
    if nt < 2:
        raise ValueError(f"nt must be at least 2, got {nt}")
    times = np.linspace(0.0, 1.0, nt)
    nodes = grid.node_points().reshape(-1, 2)
    clouds = [nodes] * len(sweeps)
    bump = _batched_bumps(sweeps, nodes)
    for k in range(nt - 1):
        t0, t1 = times[k], times[k + 1]
        if bump is not None:
            clouds = _bump_segment(bump, clouds, t1 - t0, dt)
        else:
            clouds = [_segment(H, backward, cloud, nodes, t0, t1, dt)
                      for (H, backward), cloud in zip(sweeps, clouds)]
        yield clouds


def _batched_bumps(sweeps, nodes):
    """m and per-point amp, rho and support when the sweeps share kernel calls, else None.

    Per-point constants cost the kernel more per point-step than scalar
    ones, so a shared call pays only by saving the per-call work of small
    clouds: the sweeps' live points must fit in one kernel block.
    """
    hams = [H for H, _ in sweeps]
    # a lone Hamiltonian keeps a call per sweep, backward ones with dt < 0
    if (len({id(H) for H in hams}) < 2
            or not all(isinstance(H, SeparableBump) and H.is_autonomous for H in hams)
            or len({H.m for H in hams}) > 1):
        return None
    r2 = nodes[:, 0] * nodes[:, 0] + nodes[:, 1] * nodes[:, 1]
    if sum(np.count_nonzero(r2 < H.support_radius**2) for H in hams) > kernels.BLOCK:
        return None

    def per_point(values):
        return np.repeat(np.array(values, dtype=np.float64), len(nodes))

    return (hams[0].m,
            per_point([-H.amp if backward else H.amp for H, backward in sweeps]),
            per_point([H.rho for H in hams]),
            per_point([H.support_radius for H in hams]))


def _bump_segment(bump, clouds, span, dt):
    """One kernel call advancing every cloud of autonomous bumps by span."""
    m, amp, rho, support = bump
    nsteps, step = _steps(0.0, span, dt)
    pts = np.concatenate(clouds)
    tau = np.ones(2 * nsteps + 1)
    center = np.zeros_like(tau)
    kernels.rk4_bump_flow(pts, step, nsteps, None, amp, rho, m, tau, center, center, support)
    return np.split(pts, len(clouds))


def _segment(H, backward, cloud, nodes, t0, t1, dt):
    """Advance one sweep's cloud from its image at t0 to its image at t1."""
    if not backward:
        return integrate_points(H, t0, t1, cloud, dt)
    if H.is_autonomous:
        return integrate_points(H, t1, t0, cloud, dt)
    return integrate_points(H, t1, 0.0, nodes, dt)


def hamiltonian_path(H, nt=17, grid=None, dt=1e-3):
    """Integrate the whole path once, storing maps at nt equi-spaced times.

    One forward sweep of sweep_nodes runs segment by segment between the
    stored times.  Inverses come from a backward sweep of sweep_nodes, or
    from PlaneMap.newton_invert.
    """
    if grid is None:
        grid = square_grid(257)
    support = H.support_radius if H.support_radius is not None else np.inf
    maps = [PlaneMap.identity(grid, support)]
    for (img,) in sweep_nodes([(H, False)], nt, grid, dt):
        maps.append(PlaneMap.from_node_images(grid, img, support))
    return HamiltonianPath(H, list(np.linspace(0.0, 1.0, nt)), maps)


# ---------------------------------------------------------------------------
# metrics


def _simpson_weights(n):
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of samples >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def time_integral(H, g, nt, t1=1.0):
    """int_0^t1 g(t) dt for a g that depends on t only through H(t, .).

    An autonomous H gives a constant g, so the integral is t1 * g(0) from
    one sample.  Otherwise composite Simpson on nt equi-spaced samples.
    nt is checked either way.
    """
    w = _simpson_weights(nt)
    if H.is_autonomous:
        return float(t1 * g(0.0))
    times = np.linspace(0.0, t1, nt)
    vals = np.array([g(t) for t in times])
    return float(np.sum(w * vals) * (times[1] - times[0]))


def osc_on_grid(H, t, grid):
    """max - min of H(t, .) over grid nodes in the closed unit disc."""
    qx, qy = grid.nodes()
    pts = np.stack([qx, qy], axis=-1)
    vals = H(t, pts)
    inside = np.hypot(qx, qy) <= 1.0
    v = vals[inside]
    return float(np.max(v) - np.min(v))


def hofer_length(H, grid=None, nt=129):
    """Hofer length: time integral of the oscillation of H_t.

    Simpson on nt samples; an autonomous H takes the one slice at t = 0.
    """
    if grid is None:
        grid = square_grid(257)
    return time_integral(H, lambda t: osc_on_grid(H, t, grid), nt)
