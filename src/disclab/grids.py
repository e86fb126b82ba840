"""Grid-sampled scalar fields on the plane, disc quadrature, and the sphere model.

All fields live on uniform square grids.  A grid node (i, j) sits at
``origin + (i*spacing, j*spacing)`` and ``values[i, j]`` stores the sample
there (x-index first).  Interpolation is always by cubic spline under the
mirror rule: the spline is even about every edge of the grid.  Its
coefficients solve the B-spline collocation system exactly, so the
interpolant reproduces the stored node values; the solve is one cached
inverse matrix applied along both axes.  A grid field answers only on its
grid: both entry points raise ValueError for a point off the closed extent
or not finite.  ``values_at`` is the one value path: it evaluates any
number of fields on one template at the same (..., 2) points, and
``GridField2D.__call__`` is ``values_at`` of one field.
``gradient_into`` writes both partials at (2, n) points, the RK4 loop's
layout, into a caller's buffer.  Both run blocks of points through the one
B-spline evaluation: a plan, ``_spline_plan``, holds each point's cell
weights and the flat index of its 4x4 coefficient taps, and depends only
on the template; ``_spline_sums`` then gathers one field's taps and
contracts them.  Fields that share a template and a point set share the
plan of each block.
``blend`` forms a linear combination of grid fields by combining their
spline coefficients, so the blend is evaluated once instead of term by
term; its node values are summed only if something reads them.
``node_derivative`` is the one stencil for derivatives of node values:
4th-order centered two or more nodes from the border, np.gradient's
2nd-order formulas on it; every Jacobian of a sampled map takes it.
``cumulative_trapezoid`` is the running trapezoid rule the time and ray
integrals share.
"""

import functools
import io
import math

import numpy as np

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

    def _spline_coeffs(self):
        """The n-by-n cubic B-spline coefficients of the node values."""
        return self._mirrored_coeffs()[1:-2, 1:-2]

    def _mirrored_coeffs(self):
        """The coefficients inside a border of the taps the mirror rule reflects.

        Coefficient j of an axis sits at index j + 1, for j = -1 .. n + 1,
        with c[-1] = c[1], c[n] = c[n-2] and c[n+1] = c[n-3]: every tap of
        a point in the extent is then read without reflecting its index.
        """
        if self._coeffs is None:
            inverse = _collocation_inverse(self.n)
            c = np.empty((self.n + 3, self.n + 3))
            c[1:-2, 1:-2] = inverse @ self.values @ inverse.T
            c[1:-2, [0, -2, -1]] = c[1:-2, [2, -4, -5]]
            c[[0, -2, -1]] = c[[2, -4, -5]]
            self._coeffs = c
        return self._coeffs

    def __call__(self, points):
        """The cubic spline's value at points of shape (..., 2).

        Points off the extent, or not finite, raise ValueError.
        """
        return values_at([self], points)[0]

    def gradient_into(self, z, out):
        """Write df/dx and df/dy of the cubic spline at points z, shape (2, n), into out.

        out has shape (2, n): out[0] = df/dx, out[1] = df/dy.  Points off
        the extent, or not finite, raise ValueError before anything is
        written.
        """
        self._check_extent(z)
        for block in _blocks(z.shape[1]):
            m = self._spline_sums(self._spline_plan(z[:, block], 2))
            np.divide(m[1, 0], self.spacing, out=out[0, block])
            np.divide(m[0, 1], self.spacing, out=out[1, block])

    def _check_extent(self, z):
        """Refuse points z, shape (2, n), unless all lie in the closed extent.

        One min and one max per axis, each over one row: z is often the
        transpose of (n, 2) points, whose reduction along axis 1 numpy runs
        two elements at a time.  A NaN coordinate fails the comparison.
        """
        if z.shape[1] == 0:
            return
        lo, hi = self.extent
        if not (z[0].min() >= lo[0] and z[0].max() <= hi[0]
                and z[1].min() >= lo[1] and z[1].max() <= hi[1]):
            raise ValueError(f"points must be finite and inside the grid extent [{lo}, {hi}]")

    def _spline_plan(self, z, kinds):
        """The field-free part of the spline sums at points z, shape (2, N), in the extent.

        Returns the B-spline weights w[kind, tap, axis, point] (kind 0
        weighs values; with kinds = 2, kind 1 weighs d/dt in grid units)
        and the flat index of each point's 4x4 coefficient taps.  Both
        depend only on the points and the grid template, so every field on
        the template shares them.
        """
        u = (z - self.origin[:, None]) / self.spacing
        # u >= 0, so truncation is the floor; the last cell is closed: a
        # point on the upper edge sits at t = 1
        c = u.astype(np.intp)
        np.minimum(c, self.n - 2, out=c)
        t = u - c
        powers = np.empty((4,) + t.shape)
        powers[0] = 1.0
        powers[1] = t
        np.multiply(t, t, out=powers[2])
        np.multiply(powers[2], t, out=powers[3])
        w = (_BSPLINE3[:4 * kinds] @ powers.reshape(4, -1)).reshape((kinds, 4) + t.shape)
        # tap (cx + a, cy + b) of cell (cx, cy), a, b = -1 .. 2, sits at flat
        # index (cx + a + 1)(n + 3) + (cy + b + 1) of the mirrored coefficients
        stride = self.n + 3
        index = (c[0] * stride + c[1]) + (_TAPS * stride + _TAPS.T)[:, :, None]
        return w, index

    def _spline_sums(self, plan):
        """This field's spline sums m under a plan of _spline_plan.

        m[0, 0] is the value; with kinds = 2, m[1, 0] and m[0, 1] are d/dx
        and d/dy in grid units.
        """
        w, index = plan
        taps = np.take(self._mirrored_coeffs(), index)
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


# points per block of the spline evaluation: blocks bound the
# 16-taps-per-point temporaries, which the allocator then reuses instead of
# mapping fresh pages per call
_BLOCK = 1024


def _blocks(count):
    """Slices of count points, _BLOCK at a time."""
    return (slice(start, start + _BLOCK) for start in range(0, count, _BLOCK))


# Cubic B-spline weights of the taps -1, 0, 1, 2 of a cell as polynomials
# in the cell fraction t: row (kind, tap) holds the coefficients of
# 1, t, t^2, t^3 of the weight (kind 0) or of its t-derivative (kind 1).
_BSPLINE3 = np.array([
    [1.0, -3.0, 3.0, -1.0], [4.0, 0.0, -6.0, 3.0],
    [1.0, 3.0, 3.0, -3.0], [0.0, 0.0, 0.0, 1.0],
    [-3.0, 6.0, -3.0, 0.0], [0.0, -12.0, 9.0, 0.0],
    [3.0, 6.0, -9.0, 0.0], [0.0, 0.0, 3.0, 0.0],
]) / 6.0


# the four taps of a cell along an axis, counted from the node below it
# in the mirrored coefficients
_TAPS = np.arange(4)[:, None]


@functools.lru_cache(maxsize=16)
def _collocation_inverse(n):
    """M^-1 of the cubic B-spline collocation system on n nodes, read-only.

    M c = v is (c[i-1] + 4 c[i] + c[i+1]) / 6 = v[i] under the mirror
    rule c[-1] = c[1], c[n] = c[n-2]; the coefficients of a grid field
    are M^-1 V M^-T.
    """
    m = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    m[0, 1] = m[-1, -2] = 2.0
    inverse = np.linalg.inv(m / 6.0)
    inverse.setflags(write=False)
    return inverse


def values_at(fields, points):
    """The values of grid fields on one template at points of shape (..., 2).

    Returns one array of shape (...) per field.  The extent is checked
    once, so a point off it or not finite raises ValueError before any
    field is evaluated.  Each block of points takes one plan, its cells,
    B-spline weights and tap index, which every field then contracts with
    its own coefficients; a field's values have the same bits as when it
    is evaluated alone.
    """
    template = _one_template(fields)
    pts = np.asarray(points, dtype=np.float64)
    shape = pts.shape[:-1]
    z = pts.reshape(-1, 2).T
    template._check_extent(z)
    values = [np.empty(z.shape[1]) for _ in fields]
    for block in _blocks(z.shape[1]):
        plan = template._spline_plan(z[:, block], 1)
        for f, value in zip(fields, values):
            value[block] = f._spline_sums(plan)[0, 0]
    return [value.reshape(shape) for value in values]


def _one_template(fields):
    """The first of fields, after checking that all share its grid template."""
    f0 = fields[0]
    for f in fields[1:]:
        if f.n != f0.n or f.spacing != f0.spacing or (f.origin != f0.origin).any():
            raise ValueError("grid fields must share one grid template")
    return f0


def blend(terms):
    """The grid field sum(c * f) of terms [(c, f), ...] on one template.

    The prefilter is linear, so the cubic coefficients of the blend are
    the same combination of the terms' coefficients; the blend therefore
    costs one spline evaluation however many terms it has.  Its node
    values are summed only when read: evaluation needs the coefficients
    alone.
    """
    _one_template([f for _, f in terms])
    return _Blend(terms)


class _Blend(GridField2D):
    """A blend of grid fields whose node values are summed on first read."""

    def __init__(self, terms):
        f0 = terms[0][1]
        self.origin = f0.origin
        self.spacing = f0.spacing
        self._terms = terms
        # summed in place, with one grid-sized temporary per term: a blended
        # flow makes a blend at every RK4 stage, and fresh arrays this large
        # can cost the allocator new pages each time
        coeffs = terms[0][0] * terms[0][1]._mirrored_coeffs()
        for c, f in terms[1:]:
            coeffs += c * f._mirrored_coeffs()
        self._coeffs = coeffs
        self._node_points = None

    @property
    def n(self):
        return self._coeffs.shape[0] - 3

    @functools.cached_property
    def values(self):
        return sum(c * f.values for c, f in self._terms)


def square_grid(n=256, extent=1.05):
    """Empty grid field covering [-extent, extent]^2 with n nodes per side."""
    spacing = 2.0 * extent / (n - 1)
    return GridField2D((-extent, -extent), spacing, np.zeros((n, n)))


def node_derivative(values, spacing, axis):
    """Derivative along axis of values sampled at uniformly spaced nodes.

    Nodes two or more steps from the border along axis take the 4th-order
    centered stencil (v[i+2] - 8 v[i+1] + 8 v[i-1] - v[i-2]) / (-12 h).
    The two border nodes on each side take np.gradient's edge_order=2
    formulas: the one-sided 3-point stencil at the end node and the 2nd-order
    centered difference next to it.  Each formula is evaluated in the order
    written here, so the bits match np.gradient with the 4th-order stencil
    patched into its interior.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    axis %= v.ndim
    n = v.shape[axis]
    if n < 5:
        raise ValueError(f"node_derivative needs 5 or more nodes along axis, got {n}")
    out = np.empty_like(v)
    # The stencil runs over the flattened array, in which neighbours along
    # axis lie `step` apart, so every operation has one contiguous inner
    # loop, whatever the axis.  Where the run crosses from one line along
    # axis into the next, it lands on the border nodes, rewritten below.
    step = math.prod(v.shape[axis + 1:])
    flat = v.reshape(-1)
    size = flat.size

    def shifted(k):
        return flat[(2 + k) * step:size - (2 - k) * step]

    core = out.reshape(-1)[2 * step:size - 2 * step]
    scratch = np.multiply(8.0, shifted(1))
    np.subtract(shifted(2), scratch, out=core)
    np.multiply(8.0, shifted(-1), out=scratch)
    core += scratch
    core -= shifted(-2)
    core /= -12.0 * spacing
    head = (slice(None),) * axis

    def at(index):
        return v[head + (index,)]

    h2 = 2.0 * spacing
    out[head + (1,)] = (at(2) - at(0)) / h2
    out[head + (n - 2,)] = (at(n - 1) - at(n - 3)) / h2
    out[head + (0,)] = (-1.5 / spacing) * at(0) + (2.0 / spacing) * at(1) + (-0.5 / spacing) * at(2)
    out[head + (n - 1,)] = ((0.5 / spacing) * at(n - 3) + (-2.0 / spacing) * at(n - 2)
                            + (1.5 / spacing) * at(n - 1))
    return out


def cumulative_trapezoid(y, x=None, dx=1.0, axis=0):
    """Running trapezoid integral of y along axis, 0 at the first sample.

    The steps are the differences of the 1-d sample points x, or dx if x
    is None.  Each step adds d * (y[k] + y[k+1]) / 2.0, summed in order.
    """
    y = np.asarray(y, dtype=np.float64)
    head = (slice(None),) * (axis % y.ndim)
    if x is not None:
        shape = [1] * y.ndim
        shape[axis] = -1
        dx = np.diff(np.asarray(x, dtype=np.float64)).reshape(shape)
    out = np.zeros(y.shape)
    np.cumsum(dx * (y[head + (np.s_[1:],)] + y[head + (np.s_[:-1],)]) / 2.0, axis=axis,
              out=out[head + (np.s_[1:],)])
    return out


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
