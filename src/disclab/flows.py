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
kernels.rk4_points, the one runner of clouds and grid nodes.
_rk4_segment builds that segment for any span, and a list of them is one
stepper run.  A bump's segment can carry a third row, the value row
(alpha, beta) of kernels.bump_field, which the stepper integrates along
each trajectory (alexander.s_hamiltonian, and the action of
phase.basic_generating).
"""

import numpy as np

from . import kernels
from .fields import SeparableBump
from .grids import GridField2D, node_derivative, square_grid, values_at

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
        return kernels.rk4_bump_flow(pts, step, nsteps, None, H.amp, H.rho, H.m,
                                     *_bump_levels(H, t0, step, nsteps), H.support_radius)
    for z in kernels.rk4_points(pts, [_rk4_segment(H, t0, t1, dt)], H.support_radius):
        pts[:] = z.T
    return pts


def _rk4_segment(H, t0, t1, dt, value=None):
    """(field, step, nsteps): the kernels.rk4 segment that integrate_points steps from t0 to t1.

    value, a pair (alpha, beta), adds a third row to the stepped state: the
    value row -(alpha H + beta x . grad H) of kernels.bump_field, which
    only a SeparableBump has.
    """
    if t1 == t0:
        # a span of length zero takes no step
        return None, 0.0, 0
    nsteps, step = _steps(t0, t1, dt)
    if isinstance(H, SeparableBump):
        return (kernels.bump_field(H.amp, H.rho, H.m, *_bump_levels(H, t0, step, nsteps),
                                   value=value), step, nsteps)
    if value is not None:
        raise TypeError(f"a value row (alpha, beta) needs a SeparableBump, got {type(H).__name__}")
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
        """phi at points of shape (..., 2); points at or past support_radius stay fixed.

        Both coordinate grids are evaluated in one grids.values_at call,
        so they share its extent check and per-block spline plan.
        """
        pts = np.asarray(points, dtype=np.float64)
        out = np.stack(values_at([self.grid_x, self.grid_y], pts), axis=-1)
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
        """d(phi) at the nodes, each partial one grids.node_derivative pass.

        Returns arrays (J11, J12, J21, J22) = (dQ/dq, dQ/dp, dP/dq, dP/dp)
        on the full grid: 4th-order centered differences two or more nodes
        from the border, 2nd-order stencils on the two-node border, where
        the map is the identity for every built-in family anyway.
        """
        h = self.grid_x.spacing
        Q, P = self.grid_x.values, self.grid_y.values
        return (node_derivative(Q, h, 0), node_derivative(Q, h, 1),
                node_derivative(P, h, 0), node_derivative(P, h, 1))

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
        Each iteration evaluates the map once and its four Jacobian grids
        at the active iterates in one grids.values_at call.
        """
        tgt = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
        y = tgt.copy()
        lo, hi = self.grid_x.extent
        jac = self._jacobian_grids()
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
            a11, a12, a21, a22 = values_at(jac, ya)
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


def hamiltonian_path(H, nt=17, grid=None, dt=1e-3):
    """phi_H^t as a list of PlaneMaps on the grid at nt equi-spaced times in [0, 1].

    Each map is a flow_map from time 0.  Nothing in the package calls it;
    it is kept for the benchmark's tracer, which wraps it by name in
    flows, alexander and experiments.
    """
    if nt < 2:
        raise ValueError(f"nt must be at least 2, got {nt}")
    return [flow_map(H, t, grid, dt) for t in np.linspace(0.0, 1.0, nt)]


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
