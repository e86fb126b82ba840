"""Grid-sampled scalar fields on the plane, disc quadrature, and the domain model.

All fields live on uniform square grids.  A grid node (i, j) sits at
``origin + (i*spacing, j*spacing)`` and ``values[i, j]`` stores the sample
there (x-index first).  Interpolation is always by cubic spline; its
coefficients are prefiltered so the interpolant reproduces the stored
node values exactly.  Grid-backed fields differentiate that spline
analytically: ``value_and_gradient``
returns the value and both partials of the cubic interpolant from one
gather of its 4x4 coefficient taps.  ``blend`` forms a linear combination
of grid fields by combining their values and spline coefficients, so the
blend is evaluated once instead of term by term.
"""

import functools
import io
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DiscDomain:
    """Unit disc embedded as the upper hemisphere of a sphere model.

    ``support_radius`` is the radius inside which all Hamiltonians live
    (the margin to the boundary keeps every map the identity near the
    disc's edge).  ``sphere_volume`` is the total area of the sphere
    model; the lower hemisphere is an identity region of area
    ``sphere_volume - pi``.
    """

    support_radius: float = 0.8
    radius: float = 1.0
    sphere_volume: float = TWO_PI

    def __post_init__(self):
        if not 0.0 < self.support_radius < self.radius:
            raise ValueError(
                f"support_radius must lie in (0, {self.radius}), got {self.support_radius}"
            )
        disc_area = math.pi * self.radius**2
        if self.sphere_volume <= disc_area:
            raise ValueError(
                f"sphere_volume must exceed the disc area {disc_area}, got {self.sphere_volume}"
            )

    @property
    def disc_area(self):
        return math.pi * self.radius**2

    @property
    def identity_area(self):
        return self.sphere_volume - self.disc_area


class GridField2D:
    """A scalar field sampled on a uniform n-by-n grid."""

    def __init__(self, origin, spacing, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"values must be square, got shape {values.shape}")
        if values.shape[0] < 16:
            raise ValueError(f"grid needs n >= 16, got n = {values.shape[0]}")
        if spacing <= 0.0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        self.origin = np.asarray(origin, dtype=np.float64).reshape(2)
        self.spacing = float(spacing)
        self.values = values
        self._coeffs = None

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

    def axes(self):
        ax = self.origin[0] + self.spacing * np.arange(self.n)
        ay = self.origin[1] + self.spacing * np.arange(self.n)
        return ax, ay

    def covers(self, points, margin=0.0):
        pts = np.asarray(points, dtype=np.float64)
        lo, hi = self.extent
        return bool(
            np.all(pts[..., 0] >= lo[0] - margin)
            and np.all(pts[..., 0] <= hi[0] + margin)
            and np.all(pts[..., 1] >= lo[1] - margin)
            and np.all(pts[..., 1] <= hi[1] + margin)
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
        df/dy.  Both come from one gather of the 4x4 coefficient taps of
        each point, weighted by the cubic B-spline and its derivative.
        The value agrees with ``__call__`` up to rounding.  Points off the
        extent raise ValueError: the spline is not extrapolated.
        """
        pts = np.asarray(points, dtype=np.float64)
        shape = pts.shape[:-1]
        flat = pts.reshape(-1, 2)
        if not self.covers(flat):
            lo, hi = self.extent
            raise ValueError(f"points leave the grid extent [{lo}, {hi}]")
        value = np.empty(len(flat))
        grad = np.empty((len(flat), 2))
        # blocks bound the 16-taps-per-point temporaries, which the
        # allocator then reuses instead of mapping fresh pages per call
        for start in range(0, len(flat), _BLOCK):
            block = slice(start, start + _BLOCK)
            value[block], grad[block] = self._spline_block(flat[block])
        return value.reshape(shape), grad.reshape(shape + (2,))

    def _spline_block(self, flat):
        """value_and_gradient for an (N, 2) block already known to lie in the extent."""
        u = (flat.T - self.origin[:, None]) / self.spacing
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
        # tap j of each axis, reflected by scipy's mirror rule: j -> -j below
        # the grid, j -> 2(n-1) - j above it
        j = np.abs(cell.astype(np.intp)[:, None, :] + _TAP_SHIFTS)
        j = np.minimum(j, 2 * (self.n - 1) - j)
        taps = np.take(self._spline_coeffs(), j[0][:, None, :] * self.n + j[1][None, :, :])
        rows = np.einsum("abn,jbn->jan", taps, w[:, :, 1])
        m = np.einsum("ian,jan->ijn", w[:, :, 0], rows)
        return m[0, 0], np.stack([m[1, 0], m[0, 1]], axis=-1) / self.spacing

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


# points per block of GridField2D.value_and_gradient
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
    costs one spline evaluation however many terms it has.
    """
    f0 = terms[0][1]
    for _, f in terms[1:]:
        if (f.values.shape != f0.values.shape or f.spacing != f0.spacing
                or not np.array_equal(f.origin, f0.origin)):
            raise ValueError("blend needs fields on one grid template")

    out = f0.with_values(sum(c * f.values for c, f in terms))
    out._coeffs = sum(c * f._spline_coeffs() for c, f in terms)
    return out


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


def integrate_plane(f):
    """Plain cell-sum quadrature over the whole grid square."""
    return float(np.sum(f.values) * f.spacing**2)
