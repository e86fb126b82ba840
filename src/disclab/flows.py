"""Hamiltonian flows on the disc and the path-space metrics.

Sign convention: Omega = dq^dp and i_{X_H} Omega = dH, so
X_H = (dH/dp, -dH/dq).  Every flow runs through the one classical RK4
stepper, disclab.kernels.rk4.  A separable bump hands it the closed-form
X_H of kernels.rk4_bump_flow.  Any other field hands it vector_field,
which takes the field's own gradient when it carries one (grid-backed
fields differentiate their cubic spline analytically) and 4th-order
centered differences of width FD_WIDTH otherwise.  Symplecticity is
monitored, not enforced.  Points starting outside the support radius
never move.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import SeparableBump
from .grids import GridField2D, centered_diff4, square_grid

# width of the finite-difference stencil for fields without a gradient
FD_WIDTH = 1e-4


class NewtonError(RuntimeError):
    """Newton inversion stalled; carries the offending target point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


# ---------------------------------------------------------------------------
# vector field and point integration


def vector_field(H, t, points):
    """X_H = (dH/dp, -dH/dq).

    Uses H.gradient when H carries one; a black-box field is
    differentiated by the 4th-order centered stencil (+-FD_WIDTH,
    +-2 FD_WIDTH), whose bias is O(FD_WIDTH^4).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if getattr(H, "has_gradient", False):
        grad = H.gradient(t, pts)
        return np.stack([grad[:, 1], -grad[:, 0]], axis=-1).reshape(np.shape(points))
    out = np.stack([_fd4_partial(H, t, pts, 1), -_fd4_partial(H, t, pts, 0)], axis=-1)
    return out.reshape(np.shape(points))


def _fd4_partial(H, t, pts, axis):
    """dH/dx_axis by the 4th-order centered stencil of width FD_WIDTH."""
    e = np.zeros(2)
    e[axis] = FD_WIDTH
    return (8.0 * (H(t, pts + e) - H(t, pts - e))
            - (H(t, pts + 2.0 * e) - H(t, pts - 2.0 * e))) / (12.0 * FD_WIDTH)


def _rk4_bump(H, pts, t0, dt, nsteps):
    """Run a separable bump through the closed-form kernel."""
    levels = t0 + 0.5 * dt * np.arange(2 * nsteps + 1)
    tau = np.array([H.tau_at(t) for t in levels])
    if H.center is None:
        cx = np.zeros_like(tau)
        cy = np.zeros_like(tau)
    else:
        centers = np.array([H.center_at(t) for t in levels])
        cx = np.ascontiguousarray(centers[:, 0])
        cy = np.ascontiguousarray(centers[:, 1])
    return kernels.rk4_bump_flow(
        pts, dt, nsteps, None, H.amp, H.rho, H.m, tau, cx, cy, H.support_radius
    )


def integrate_points(H, t0, t1, points, dt=1e-3):
    """Advance an (N, 2) cloud from time t0 to t1 (either direction)."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    pts = np.array(points, dtype=np.float64, order="C", ndmin=2, copy=True)
    if t1 == t0:
        return pts
    nsteps = max(1, round(abs(t1 - t0) / dt))
    step = (t1 - t0) / nsteps
    if isinstance(H, SeparableBump):
        return _rk4_bump(H, pts, t0, step, nsteps)
    offsets = (0.0, 0.5 * step, step)

    def field(x, y, k, j):
        v = vector_field(H, t0 + k * step + offsets[j], np.stack([x, y], axis=-1))
        return v[:, 0], v[:, 1]

    return kernels.rk4(field, pts, step, nsteps, H.support_radius)


# ---------------------------------------------------------------------------
# PlaneMap


def _node_grids(grid, img):
    """Component grid fields of node images img, shape (n, n, 2) or (n*n, 2)."""
    shape = grid.values.shape
    return (grid.with_values(img[..., 0].reshape(shape)),
            grid.with_values(img[..., 1].reshape(shape)))


class PlaneMap:
    """A grid-sampled area-preserving map of the plane, identity outside support."""

    def __init__(self, grid_x, grid_y, support_radius, inverse_grids=None):
        self.grid_x = grid_x
        self.grid_y = grid_y
        self.support_radius = float(support_radius)
        self._inverse_grids = inverse_grids
        self._jac_grids = None

    @property
    def template(self):
        return self.grid_x

    @classmethod
    def identity(cls, grid, support_radius=0.8):
        """The identity, stored as its own inverse."""
        qx, qy = grid.nodes()
        gx, gy = grid.with_values(qx), grid.with_values(qy)
        return cls(gx, gy, support_radius, inverse_grids=(gx, gy))

    @classmethod
    def from_node_images(cls, grid, img, support_radius, **kw):
        """The map sending the nodes of grid to img, shape (n, n, 2) or (n*n, 2)."""
        return cls(*_node_grids(grid, img), support_radius, **kw)

    @classmethod
    def from_function(cls, grid, fn, support_radius, **kw):
        return cls.from_node_images(grid, fn(np.stack(grid.nodes(), axis=-1)),
                                    support_radius, **kw)

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

    def newton_invert(self, targets, seeds=None, tol=1e-10, max_iter=50):
        """Solve phi(y) = target for each target by damped Newton."""
        tgt = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        y = np.array(tgt if seeds is None else np.atleast_2d(seeds), dtype=np.float64)
        g11, g12, g21, g22 = self._jacobian_grids()
        converged = False
        for _ in range(max_iter):
            res = self(y) - tgt
            err = np.hypot(res[:, 0], res[:, 1])
            active = err > tol
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
            y[active] = ya - lam[:, None] * step
        if not converged:
            res = self(y) - tgt
            err = np.hypot(res[:, 0], res[:, 1])
            if np.max(err) > max(tol, 1e-8):
                idx = int(np.argmax(err))
                raise NewtonError(
                    f"Newton stalled at target {tgt[idx]} (residual {err[idx]:.3e})",
                    point=tgt[idx],
                )
        return y.reshape(np.shape(targets))

    def inverse(self):
        """Inverse map, from stored backward-flow grids or Newton inversion."""
        if self._inverse_grids is not None:
            ix, iy = self._inverse_grids
        else:
            ix, iy = _node_grids(self.template, self.solve_at_nodes())
        return PlaneMap(ix, iy, self.support_radius,
                        inverse_grids=(self.grid_x, self.grid_y))

    def solve_at_nodes(self):
        """y with self(y) = q for every template node q inside the support.

        Nodes outside the support keep y = q.  Returns an (n*n, 2) array
        in node order.
        """
        qx, qy = self.template.nodes()
        nodes = np.stack([qx.ravel(), qy.ravel()], axis=-1)
        inner = np.hypot(nodes[:, 0], nodes[:, 1]) < self.support_radius
        sol = nodes.copy()
        sol[inner] = self.newton_invert(nodes[inner])
        return sol

    def compose(self, other):
        """self after other, sampled on other's grid."""
        grid = other.template
        img = self(other(np.stack(grid.nodes(), axis=-1)))
        support = max(self.support_radius, other.support_radius)
        return PlaneMap.from_node_images(grid, img, support)

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


def flow_map(H, t, grid=None, dt=1e-3, with_inverse=False):
    """Sample x -> phi_H^t(x) on the grid as a PlaneMap."""
    if grid is None:
        grid = square_grid(257)
    support = H.support_radius if H.support_radius is not None else np.inf
    qx, qy = grid.nodes()
    nodes = np.stack([qx.ravel(), qy.ravel()], axis=-1)
    img = integrate_points(H, 0.0, t, nodes, dt)
    inv_grids = None
    if with_inverse:
        inv_grids = _node_grids(grid, integrate_points(H, t, 0.0, nodes, dt))
    return PlaneMap.from_node_images(grid, img, support, inverse_grids=inv_grids)


@dataclass
class HamiltonianPath:
    """phi_H^t sampled at a list of times (maps[0] is the identity)."""

    hamiltonian: object
    time_samples: list
    maps: list

    def map_at(self, t):
        idx = int(np.argmin(np.abs(np.asarray(self.time_samples) - t)))
        if abs(self.time_samples[idx] - t) > 1e-12:
            raise KeyError(f"time {t} not among the stored samples")
        return self.maps[idx]


def hamiltonian_path(H, nt=17, grid=None, dt=1e-3, with_inverse=False):
    """Integrate the whole path once, storing maps at nt equi-spaced times.

    The forward sweep runs segment by segment between the stored times.
    With with_inverse=True each map also stores the node images of its
    inverse.  For an autonomous H, (phi^t)^{-1} = phi^{-t}, so one
    backward sweep over the same nt - 1 segments, with the same step
    count per segment, yields every inverse.  Otherwise the flow is
    re-integrated from each t_k back to 0.
    """
    if grid is None:
        grid = square_grid(257)
    support = H.support_radius if H.support_radius is not None else np.inf
    times = np.linspace(0.0, 1.0, nt)
    qx, qy = grid.nodes()
    nodes = np.stack([qx.ravel(), qy.ravel()], axis=-1)
    pts = nodes.copy()
    back = nodes
    maps = [PlaneMap.identity(grid, support)]
    for k in range(nt - 1):
        pts = integrate_points(H, times[k], times[k + 1], pts, dt)
        inv_grids = None
        if with_inverse:
            if H.is_autonomous:
                back = integrate_points(H, times[k + 1], times[k], back, dt)
            else:
                back = integrate_points(H, times[k + 1], 0.0, nodes, dt)
            inv_grids = _node_grids(grid, back)
        maps.append(PlaneMap.from_node_images(grid, pts, support, inverse_grids=inv_grids))
    return HamiltonianPath(H, list(times), maps)


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


def _c0_one_sided(phi, psi):
    grid = phi.template
    qx, qy = grid.nodes()
    inside = np.hypot(qx, qy) <= 1.0
    pxv, pyv = phi.node_images()
    pts = np.stack([qx, qy], axis=-1)
    qs = psi(pts)
    return float(
        np.max(np.hypot((pxv - qs[..., 0])[inside], (pyv - qs[..., 1])[inside]))
    )


def c0_distance(phi, psi, with_inverses=True):
    """Symmetrized sup distance max(d(phi,psi), d(phi^-1, psi^-1))."""
    d = max(_c0_one_sided(phi, psi), _c0_one_sided(psi, phi))
    if with_inverses:
        phi_inv = phi.inverse()
        psi_inv = psi.inverse()
        d = max(d, _c0_one_sided(phi_inv, psi_inv), _c0_one_sided(psi_inv, phi_inv))
    return d
