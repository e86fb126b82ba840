"""Grid-sampled scalar fields on the plane, disc quadrature, and the sphere model.

All fields live on uniform square grids.  A grid node (i, j) sits at
``origin + (i*spacing, j*spacing)`` and ``values[i, j]`` stores the sample
there (x-index first).  Interpolation is always by cubic spline; its
coefficients are prefiltered so the interpolant reproduces the stored
node values exactly.  Grid-backed fields differentiate that spline
analytically, from one gather of the 4x4 coefficient taps of each point:
``gradient_into`` writes both partials at (2, n) points, the RK4 loop's
layout, into a caller's buffer, and ``value_and_gradient`` returns the
value and gradient at (..., 2) points.  Both run the one B-spline
evaluation ``_spline_block`` and refuse points off the grid.  ``blend``
forms a linear combination of grid fields by combining their spline
coefficients, so the blend is evaluated once instead of term by term;
its node values are summed only if something reads them.
"""

import functools
import io
import math

import numpy as np
from scipy import ndimage

# The sphere model: the unit disc is the upper hemisphere of a sphere of
# area SPHERE_VOLUME; the lower hemisphere is an identity region, of area
# IDENTITY_AREA, on which a sphere-normalized Hamiltonian is constant.
SPHERE_VOLUME = 2.0 * math.pi
IDENTITY_AREA = SPHERE_VOLUME - math.pi


class GridField2D:
    """A scalar field sampled on a uniform n-by-n grid."""

    def __init__(self, origin, spacing, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"values must be square, got shape {values.shape}")
        if values.shape[0] < 16:
            raise ValueError(f"grid needs n >= 16, got n = {values.shape[0]}")
        if not (math.isfinite(spacing) and spacing > 0.0):
            raise ValueError(f"spacing must be positive and finite, got {spacing}")
        self.origin = np.asarray(origin, dtype=np.float64).reshape(2)
        if not (math.isfinite(self.origin[0]) and math.isfinite(self.origin[1])):
            raise ValueError(f"origin must be finite, got {self.origin}")
        self.spacing = float(spacing)
        self.values = values
        self._coeffs = None
        self._node_points = None

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def extent(self):
        """(min corner, max corner) of the sampled square."""
        top = self.origin + (self.n - 1) * self.spacing
        return self.origin.copy(), top

    def nodes(self):
        """Node coordinates as arrays qx, qy of shape (n, n)."""
        axis = self.origin[0] + self.spacing * np.arange(self.n)
        ayis = self.origin[1] + self.spacing * np.arange(self.n)
        return np.meshgrid(axis, ayis, indexing="ij")

    def node_points(self):
        """Node coordinates as one (n, n, 2) array, np.stack(self.nodes(), axis=-1).

        Built once per grid, like the spline coefficients, and returned
        read-only, since callers share it.
        """
        if self._node_points is None:
            pts = np.stack(self.nodes(), axis=-1)
            pts.setflags(write=False)
            self._node_points = pts
        return self._node_points

    def covers(self, points, margin=0.0):
        pts = np.asarray(points, dtype=np.float64)
        return self._covers(pts.reshape(-1, 2).T, margin)

    def _covers(self, z, margin=0.0):
        """Whether every point of z, shape (2, n), lies in the extent widened by margin.

        One min and one max per axis; a NaN coordinate fails the comparison.
        """
        if z.shape[1] == 0:
            return True
        lo, hi = self.extent
        zmin = z.min(axis=1)
        zmax = z.max(axis=1)
        return bool(
            zmin[0] >= lo[0] - margin and zmax[0] <= hi[0] + margin
            and zmin[1] >= lo[1] - margin and zmax[1] <= hi[1] + margin
        )

    def _spline_coeffs(self):
        if self._coeffs is None:
            self._coeffs = ndimage.spline_filter(self.values, order=3, mode="mirror")
        return self._coeffs

    def __call__(self, points):
        """Interpolate at points of shape (..., 2)."""
        pts = np.asarray(points, dtype=np.float64)
        shape = pts.shape[:-1]
        flat = pts.reshape(-1, 2)
        ix = (flat[:, 0] - self.origin[0]) / self.spacing
        iy = (flat[:, 1] - self.origin[1]) / self.spacing
        out = ndimage.map_coordinates(
            self._spline_coeffs(), [ix, iy], order=3, mode="mirror", prefilter=False
        )
        return out.reshape(shape)

    def value_and_gradient(self, points):
        """Value and gradient of the cubic spline at points of shape (..., 2).

        Returns (value, grad) with grad[..., 0] = df/dx and grad[..., 1] =
        df/dy, from the same evaluation as ``gradient_into``.  The value
        agrees with ``__call__`` up to rounding.  Points off the extent
        raise ValueError: the spline is not extrapolated.
        """
        pts = np.asarray(points, dtype=np.float64)
        shape = pts.shape[:-1]
        z = pts.reshape(-1, 2).T
        self._check_extent(z)
        value = np.empty(z.shape[1])
        grad = np.empty(z.shape)
        self._spline_blocks(z, grad, value)
        return value.reshape(shape), grad.T.reshape(shape + (2,))

    def gradient_into(self, z, out):
        """Write df/dx and df/dy of the cubic spline at points z, shape (2, n), into out.

        out has shape (2, n): out[0] = df/dx, out[1] = df/dy.  Points off
        the extent raise ValueError before anything is written.
        """
        self._check_extent(z)
        self._spline_blocks(z, out)

    def _check_extent(self, z):
        if not self._covers(z):
            lo, hi = self.extent
            raise ValueError(f"points leave the grid extent [{lo}, {hi}]")

    def _spline_blocks(self, z, grad, value=None):
        """Gradient (and value) at (2, n) points known to lie in the extent."""
        # blocks bound the 16-taps-per-point temporaries, which the
        # allocator then reuses instead of mapping fresh pages per call
        for start in range(0, z.shape[1], _BLOCK):
            block = slice(start, start + _BLOCK)
            m = self._spline_block(z[:, block])
            if value is not None:
                value[block] = m[0, 0]
            np.divide(m[1, 0], self.spacing, out=grad[0, block])
            np.divide(m[0, 1], self.spacing, out=grad[1, block])

    def _spline_block(self, z):
        """The spline sums m at (2, N) points known to lie in the extent.

        m[0, 0] is the value; m[1, 0] and m[0, 1] are d/dx and d/dy in grid units.
        """
        u = (z - self.origin[:, None]) / self.spacing
        # the last cell is closed: a point on the upper edge sits at t = 1
        cell = np.minimum(np.floor(u), self.n - 2)
        t = u - cell
        powers = np.empty((4,) + t.shape)
        powers[0] = 1.0
        powers[1] = t
        np.multiply(t, t, out=powers[2])
        np.multiply(powers[2], t, out=powers[3])
        # w[kind, tap, axis, point]: kind 0 weighs values, kind 1 d/dt
        w = (_BSPLINE3 @ powers.reshape(4, -1)).reshape((2, 4) + t.shape)
        c = cell.astype(np.intp)
        if c.min() >= 1 and c.max() <= self.n - 3:
            # every tap lies on the grid: flat index of tap (a, b) is
            # (cx + a) n + (cy + b)
            index = (c[0] * self.n + c[1]) + (_TAP_SHIFTS * self.n + _TAP_SHIFTS.T)[:, :, None]
        else:
            # a cell touches an edge: reflect its taps by scipy's mirror
            # rule, j -> -j below the grid, j -> 2(n-1) - j above it
            j = np.abs(c[:, None, :] + _TAP_SHIFTS)
            j = np.minimum(j, 2 * (self.n - 1) - j)
            index = j[0][:, None, :] * self.n + j[1][None, :, :]
        taps = np.take(self._spline_coeffs(), index)
        rows = np.einsum("abn,jbn->jan", taps, w[:, :, 1])
        return np.einsum("ian,jan->ijn", w[:, :, 0], rows)

    def gradient(self):
        """Centered-difference gradient as two grid fields (one-sided at edges)."""
        gq, gp = np.gradient(self.values, self.spacing, edge_order=2)
        return self.with_values(gq), self.with_values(gp)

    def with_values(self, values):
        return GridField2D(self.origin, self.spacing, values)

    # -- serialization ----------------------------------------------------

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# n = {self.n}\n")
            fh.write(f"# spacing = {self.spacing!r}\n")
            fh.write(f"# origin = {float(self.origin[0])!r} {float(self.origin[1])!r}\n")
            fh.write("# interpolation_order = 3\n")
            np.savetxt(fh, self.values, fmt="%.17e", delimiter=",")

    @classmethod
    def from_csv(cls, path):
        meta = {}
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        body = []
        for line in text.splitlines():
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            elif line.strip():
                body.append(line)
        order = int(meta.get("interpolation_order", 3))
        if order != 3:
            raise ValueError(f"{path}: grid fields are cubic, got interpolation_order {order}")
        values = np.loadtxt(io.StringIO("\n".join(body)), delimiter=",")
        origin = [float(tok) for tok in meta["origin"].split()]
        return cls(origin, float(meta["spacing"]), values)


# points per block of the spline evaluation in GridField2D._spline_blocks
_BLOCK = 1024

# Cubic B-spline weights of the taps -1, 0, 1, 2 of a cell as polynomials
# in the cell fraction t: row (kind, tap) holds the coefficients of
# 1, t, t^2, t^3 of the weight (kind 0) or of its t-derivative (kind 1).
_BSPLINE3 = np.array([
    [1.0, -3.0, 3.0, -1.0], [4.0, 0.0, -6.0, 3.0],
    [1.0, 3.0, 3.0, -3.0], [0.0, 0.0, 0.0, 1.0],
    [-3.0, 6.0, -3.0, 0.0], [0.0, -12.0, 9.0, 0.0],
    [3.0, 6.0, -9.0, 0.0], [0.0, 0.0, 3.0, 0.0],
]) / 6.0


# taps of a cell relative to its lower node, shaped to broadcast over (axis, tap, point)
_TAP_SHIFTS = np.arange(-1, 3)[:, None]


def blend(terms):
    """The grid field sum(c * f) of terms [(c, f), ...] on one template.

    spline_filter is linear, so the cubic coefficients of the blend are
    the same combination of the terms' coefficients; the blend therefore
    costs one spline evaluation however many terms it has.  Its node
    values are summed only when read: evaluation needs the coefficients
    alone.
    """
    f0 = terms[0][1]
    for _, f in terms[1:]:
        if (f.n != f0.n or f.spacing != f0.spacing
                or not np.array_equal(f.origin, f0.origin)):
            raise ValueError("blend needs fields on one grid template")
    return _Blend(terms)


class _Blend(GridField2D):
    """A blend of grid fields whose node values are summed on first read."""

    def __init__(self, terms):
        f0 = terms[0][1]
        self.origin = f0.origin
        self.spacing = f0.spacing
        self._terms = terms
        self._coeffs = sum(c * f._spline_coeffs() for c, f in terms)
        self._node_points = None

    @property
    def n(self):
        return self._coeffs.shape[0]

    @functools.cached_property
    def values(self):
        return sum(c * f.values for c, f in self._terms)


def square_grid(n=256, extent=1.05):
    """Empty grid field covering [-extent, extent]^2 with n nodes per side."""
    spacing = 2.0 * extent / (n - 1)
    return GridField2D((-extent, -extent), spacing, np.zeros((n, n)))


def centered_diff4(values, spacing, axis):
    """Derivative of node values along axis by the 4th-order centered stencil.

    The stencil wraps around the array ends, so only entries at least two
    nodes away from the border along axis are valid.
    """
    return (np.roll(values, -2, axis) - 8.0 * np.roll(values, -1, axis)
            + 8.0 * np.roll(values, 1, axis) - np.roll(values, 2, axis)) / (-12.0 * spacing)


def sample(grid, fn):
    """Grid field holding fn evaluated at the nodes of `grid`."""
    qx, qy = grid.nodes()
    pts = np.stack([qx, qy], axis=-1)
    return grid.with_values(np.asarray(fn(pts), dtype=np.float64))


def disc_weights(grid, radius=1.0, subsample=16):
    """Quadrature weights for integration over the disc |x| <= radius.

    Each node owns an h-by-h cell centered at the node; interior cells get
    weight h^2, cells crossing the circle get h^2 times the covered
    fraction, estimated on a subsample-by-subsample stencil.  The weights
    are cached per grid geometry and returned read-only, since callers
    share them.
    """
    return _disc_weights(grid.n, grid.spacing, tuple(grid.origin), radius, subsample)


@functools.lru_cache(maxsize=16)
def _disc_weights(n, h, origin, radius, subsample):
    qx, qy = GridField2D(origin, h, np.zeros((n, n))).nodes()
    r = np.hypot(qx, qy)
    half_diag = h * math.sqrt(0.5)
    inside = r <= radius - half_diag
    outside = r >= radius + half_diag
    weights = np.where(inside, h * h, 0.0)
    bx, by = np.nonzero(~inside & ~outside)
    if bx.size:
        offs = (np.arange(subsample) + 0.5) / subsample - 0.5
        sx = qx[bx, by][:, None, None] + h * offs[None, :, None]
        sy = qy[bx, by][:, None, None] + h * offs[None, None, :]
        frac = np.mean(np.hypot(sx, sy) <= radius, axis=(1, 2))
        weights[bx, by] = h * h * frac
    weights.setflags(write=False)
    return weights


def integrate_disc(f, radius=1.0):
    """Quadrature of a grid field over the disc of the given radius."""
    lo, hi = f.extent
    if lo[0] > -radius or lo[1] > -radius or hi[0] < radius or hi[1] < radius:
        raise ValueError(
            f"grid [{lo}, {hi}] does not cover the disc of radius {radius}"
        )
    return float(np.sum(disc_weights(f, radius) * f.values))
