"""Shared fixtures: small grids and pre-integrated flows reused across tests."""

import numpy as np
import pytest

from disclab.fields import radial_bump
from disclab.flows import flow_map
from disclab.grids import square_grid


AMP, RHO, M = 0.05, 0.8, 4


@pytest.fixture(scope="session")
def bump():
    return radial_bump(amp=AMP, rho=RHO, m=M)


@pytest.fixture(scope="session")
def grid65():
    return square_grid(65)


@pytest.fixture(scope="session")
def grid129():
    return square_grid(129)


@pytest.fixture(scope="session")
def grid257():
    return square_grid(257)


@pytest.fixture(scope="session")
def bump_map_257(bump, grid257):
    """Time-1 map of the standard bump on the 257-node grid."""
    return flow_map(bump, 1.0, grid=grid257, dt=1e-3)


@pytest.fixture(scope="session")
def bump_map_129(bump, grid129):
    return flow_map(bump, 1.0, grid=grid129, dt=1e-3)


@pytest.fixture
def rng():
    # a fresh generator per test: its draws do not depend on what ran before
    return np.random.default_rng(12345)


def _fd4_x_h(H, t, points, width):
    """X_H = (dH/dp, -dH/dq) of H(t, .) at (..., 2) points by 4th-order centered differences.

    The stencil takes H at +-width and +-2 width along each axis; its bias
    is O(width^4) where H is smooth.  Within 2 width of a C^(m-1) bump's
    edge circle it straddles the kink and the bias is only O(width^(m-1)).
    """
    pts = np.asarray(points, dtype=np.float64)

    def partial(axis):
        e = np.zeros(2)
        e[axis] = width
        return (8.0 * (H(t, pts + e) - H(t, pts - e))
                - (H(t, pts + 2.0 * e) - H(t, pts - 2.0 * e))) / (12.0 * width)

    return np.stack([partial(1), -partial(0)], axis=-1)


@pytest.fixture(scope="session")
def fd4_x_h():
    """The finite-difference X_H oracle for fields the flows take X_H from in closed form."""
    return _fd4_x_h


# PlaneMap's node derivative as it stood before grids.node_derivative, kept
# verbatim: np.gradient's edge_order=2 pass with the 4th-order stencil, built
# from rolled copies, patched into the nodes two or more from the border.
# node_derivative keeps every per-element operation in this order, so its
# output bits match.

def _head_node_derivative(vals, h, axis):
    d = np.gradient(vals, h, axis=axis, edge_order=2)
    core = (np.roll(vals, -2, axis) - 8.0 * np.roll(vals, -1, axis)
            + 8.0 * np.roll(vals, 1, axis) - np.roll(vals, 2, axis)) / (-12.0 * h)
    sl = [slice(None)] * 2
    sl[axis] = slice(2, -2)
    d[tuple(sl)] = core[tuple(sl)]
    return d


@pytest.fixture(scope="session")
def head_node_derivative():
    """The reference the node derivative stencil must match bit for bit."""
    return _head_node_derivative


# GridField2D's value path as it stood before grids.values_at, kept verbatim
# but for `self` passed as an argument: one extent check, cell search,
# weight matmul and tap index per field and block.  values_at shares that
# plan among the fields of one template and keeps every per-element
# operation, so its output bits match.

_HEAD_BLOCK = 1024
_HEAD_BSPLINE3 = np.array([
    [1.0, -3.0, 3.0, -1.0], [4.0, 0.0, -6.0, 3.0],
    [1.0, 3.0, 3.0, -3.0], [0.0, 0.0, 0.0, 1.0],
    [-3.0, 6.0, -3.0, 0.0], [0.0, -12.0, 9.0, 0.0],
    [3.0, 6.0, -9.0, 0.0], [0.0, 0.0, 3.0, 0.0],
]) / 6.0
_HEAD_TAPS = np.arange(4)[:, None]


def _head_grid_call(self, points):
    pts = np.asarray(points, dtype=np.float64)
    shape = pts.shape[:-1]
    z = pts.reshape(-1, 2).T
    self._check_extent(z)
    value = np.empty(z.shape[1])
    _head_spline_blocks(self, z, value=value)
    return value.reshape(shape)


def _head_spline_blocks(self, z, grad=None, value=None):
    kinds = 1 if grad is None else 2
    for start in range(0, z.shape[1], _HEAD_BLOCK):
        block = slice(start, start + _HEAD_BLOCK)
        u = (z[:, block] - self.origin[:, None]) / self.spacing
        m = _head_spline_block(self, u, kinds)
        if value is not None:
            value[block] = m[0, 0]
        if grad is not None:
            np.divide(m[1, 0], self.spacing, out=grad[0, block])
            np.divide(m[0, 1], self.spacing, out=grad[1, block])


def _head_spline_block(self, u, kinds):
    c = u.astype(np.intp)
    np.minimum(c, self.n - 2, out=c)
    t = u - c
    powers = np.empty((4,) + t.shape)
    powers[0] = 1.0
    powers[1] = t
    np.multiply(t, t, out=powers[2])
    np.multiply(powers[2], t, out=powers[3])
    w = (_HEAD_BSPLINE3[:4 * kinds] @ powers.reshape(4, -1)).reshape((kinds, 4) + t.shape)
    stride = self.n + 3
    index = (c[0] * stride + c[1]) + (_HEAD_TAPS * stride + _HEAD_TAPS.T)[:, :, None]
    taps = np.take(self._mirrored_coeffs(), index)
    rows = np.einsum("abn,jbn->jan", taps, w[:, :, 1])
    return np.einsum("ian,jan->ijn", w[:, :, 0], rows)


def _head_plane_map_call(phi, points):
    # PlaneMap.__call__, one grid at a time
    pts = np.asarray(points, dtype=np.float64)
    out = np.stack([_head_grid_call(phi.grid_x, pts), _head_grid_call(phi.grid_y, pts)],
                   axis=-1)
    r = np.hypot(pts[..., 0], pts[..., 1])
    fixed = r >= phi.support_radius
    return np.where(fixed[..., None], pts, out)


@pytest.fixture(scope="session")
def head_grid_call():
    """The reference a grid field's values must match bit for bit."""
    return _head_grid_call


@pytest.fixture(scope="session")
def head_plane_map_call():
    """The reference a sampled map's values must match bit for bit."""
    return _head_plane_map_call
