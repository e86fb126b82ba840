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


@pytest.fixture(scope="session")
def rng():
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
