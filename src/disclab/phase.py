"""Generating functions of graphs, and phase functions.

In the flat chart the graph of the time-1 map of a Hamiltonian path is
parametrized over seeds y by

    q = (x + y) / 2,      p = -j(x - y),      x = phi^1(y),

and the action of the lifted trajectory,

    h = int p . dq - int (F(u, phi^u(y)) - c(u)) du,

is the generating function of the graph: dh = p . dq.  Along the lift
p . dq = 1/2 x . grad F du - 1/2 d(y_2 x_1 - y_1 x_2), so

    h = A(1) + int_0^1 c - 1/2 (y_2 x_1(1) - y_1 x_2(1)),
    A' = -F + 1/2 x . grad F,

and A is the value row (alpha, beta) = (1, -1/2) of kernels.bump_field,
integrated by the same RK4 steps as the seeds.  A seed outside the
support never moves, so it keeps q = y, p = 0 and h = int_0^1 c.  The
phase function of a graphical time-1 map is the ray-integrated potential
of the one-form that `graphical.recover_one_form` recovers (the one
graphicality gate of the map) plus the identity-region value
int_0^1 c(s) ds, where c is the offset that normalizes the Hamiltonian on
the sphere model.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .calabi import normalize_on_sphere
from .flows import _rk4_segment, flow_map
from .graphical import integrate_generating, recover_one_form
from .grids import SPHERE_VOLUME, square_grid


# ---------------------------------------------------------------------------
# basic generating function from lifted trajectories


@dataclass
class GraphSamples:
    """Scattered graph of the time-1 map with generating-function values."""

    seeds: np.ndarray        # (n, n, 2) grid seeds y
    q: np.ndarray            # (n, n, 2) chart base points at time 1
    p: np.ndarray            # (n, n, 2) fiber values at time 1
    h: np.ndarray            # (n, n) action values
    spacing: float


def basic_generating(F, grid=None, dt=1e-3):
    """Lift the grid seeds to time 1 with their action, and return the graph.

    The Hamiltonian in the action integrand is F - c(u) (sphere
    normalization on the same grid), which makes the value on the
    identity region equal int_0^1 c rather than 0.  The seeds the flow
    moves take one forward RK4 run with the action row A of the module
    docstring; every other seed keeps q = y, p = 0 and h = int_0^1 c.
    F must be a SeparableBump, the one field with that value row.
    """
    if grid is None:
        grid = square_grid(257)
    qx, qy = grid.nodes()
    seeds = np.stack([qx, qy], axis=-1)
    flat = seeds.reshape(-1, 2)
    live = kernels.live_points(flat, F.support_radius)
    y = flat[live].T
    z = np.zeros((3, y.shape[1]))
    z[:2] = y
    (z,) = kernels.rk4([_rk4_segment(F, 0.0, 1.0, dt, (1.0, -0.5))], z)
    x = z[:2]
    value = normalize_on_sphere(F, grid=grid).offset_integral()
    q = flat.copy()
    p = np.zeros_like(flat)
    h = np.full(len(flat), value)
    q[live] = (0.5 * (x + y)).T
    # -j(x - y) = (x_2 - y_2, -(x_1 - y_1))
    p[live, 0] = x[1] - y[1]
    p[live, 1] = y[0] - x[0]
    h[live] = z[2] + value - 0.5 * (y[1] * x[0] - y[0] * x[1])
    shape = qx.shape
    return GraphSamples(seeds, q.reshape(shape + (2,)), p.reshape(shape + (2,)),
                        h.reshape(shape), grid.spacing)


# ---------------------------------------------------------------------------
# phase functions of graphical slices


def phase_function_graphical(F, grid=None, dt=1e-3):
    """(f, value): the phase function of the time-1 graph on the chart grid, and its value.

    f = (ray-integrated potential of the recovered one-form)
        + int_0^1 c(s) ds,
    where c is the sphere-normalization offset of F.  The additive value
    is exactly the constant-chord action on the identity region and
    equals Cal / vol(sphere).  Rejects a non-graphical time-1 map, through
    the one graphicality scan of `recover_one_form`.
    """
    if grid is None:
        grid = square_grid(257)
    nf = normalize_on_sphere(F, grid=grid)
    alpha = recover_one_form(flow_map(F, 1.0, grid=grid, dt=dt))
    value = nf.offset_integral()
    return integrate_generating(alpha, base_value=value), value


# ---------------------------------------------------------------------------
# parameter families of phase functions


@dataclass
class PhaseFamily:
    """Phase functions along a parameter (t or a) with their chart grids."""

    parameter_samples: list
    fields: list                      # GridField2D per parameter
    normalization_value: list         # identity-region value per member


def phase_family(samples, members, grid, dt):
    """The PhaseFamily of the Hamiltonians members, one per parameter sample.

    Each member's phase function and identity-region value come from
    `phase_function_graphical` on the one chart grid, with RK4 step dt.
    """
    fields, values = [], []
    for H in members:
        f, v = phase_function_graphical(H, grid=grid, dt=dt)
        fields.append(f)
        values.append(v)
    return PhaseFamily(list(samples), fields, values)


def hj_residual(family, G):
    """Max |df/da + G(a, q, df)| over interior nodes and parameters, a float.

    G is called as G(a, q_points, p_points) with arrays of shape (..., 2),
    at the interior nodes only: those two cells or more from the border.
    Derivatives are centered differences in both the parameter and the
    grid; needs at least 3 parameter samples.
    """
    samples = np.asarray(family.parameter_samples, dtype=np.float64)
    if samples.size < 3:
        raise ValueError("Hamilton-Jacobi residual needs >= 3 parameter samples")
    steps = np.diff(samples)
    if np.max(np.abs(steps - steps[0])) > 1e-12:
        raise ValueError("parameter samples must be uniform")
    h_a = steps[0]
    core = np.s_[2:-2, 2:-2]
    worst = 0.0
    for i in range(1, samples.size - 1):
        f0 = family.fields[i]
        dfda = (family.fields[i + 1].values[core] - family.fields[i - 1].values[core]) / (2 * h_a)
        d1, d2 = np.gradient(f0.values, f0.spacing, edge_order=2)
        p = np.stack([d1[core], d2[core]], axis=-1)
        res = dfda + G(samples[i], f0.node_points()[core], p)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


# ---------------------------------------------------------------------------
# the phase integral over the sphere model


def phase_integral(family):
    """I(a) per member: chart integral extended over the identity region.

    I = int (f - value) over the chart + value * vol(sphere); the first
    term is supported in the chart grid, the second accounts for the
    constant value on the rest of the sphere model.
    """
    out = []
    for f, value in zip(family.fields, family.normalization_value):
        value = float(value)
        bulk = float(np.sum(f.values - value)) * f.spacing**2
        out.append(bulk + value * SPHERE_VOLUME)
    return out
