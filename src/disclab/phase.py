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
value row never feeds back into the seeds, so the lift's node images are
phi^1 on the seed grid bit for bit: `basic_generating` hands them back as
the PlaneMap `flow_map` would sample, and one forward run gives both the
graph's action and its time-1 map.

The phase function of a graphical time-1 map is the ray-integrated
potential of the one-form that `graphical.recover_one_form` recovers (the
one graphicality gate of the map) plus the identity-region value
int_0^1 c(s) ds, where c is the offset that normalizes the Hamiltonian on
the sphere model: `phase_function_of_map`.  `phase_function_graphical`
takes the map from a plain two-row flow, since its callers read no
action; E4, which checks the phase function against the action, takes
both from one `basic_generating` run.  `basic_generating` and
`phase_family` lift or flow a whole family of bumps as one stacked
kernels.rk4_points run, in which each member keeps the bits of its own.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .calabi import normalize_on_sphere
from .flows import PlaneMap, _rk4_segment, flow_map
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
    phi: PlaneMap            # the time-1 map, sampled on the seed grid
    value: float             # the identity-region value int_0^1 c


def basic_generating(members, grid=None, dt=1e-3):
    """Lift the grid seeds to time 1 with their action under each member: a GraphSamples each.

    The Hamiltonian in a member's action integrand is F - c(u) (sphere
    normalization on the same grid, checked for every member before any
    step is taken), which makes the value on the identity region equal
    int_0^1 c rather than 0.  The seeds take one forward
    kernels.rk4_points run for all members, with the action row A of the
    module docstring; q, p and h are computed on every seed, and a seed
    the run freezes (x = y, A = 0) gets q = y, p = 0 and h = int_0^1 c
    exactly.  The seeds' images make each member's time-1 map, equal to
    flow_map(F, 1, grid, dt) bit for bit.  The members must be
    SeparableBumps, the one field with that value row, with one m.
    """
    if grid is None:
        grid = square_grid(257)
    values = [normalize_on_sphere(F, grid=grid).offset_integral() for F in members]
    qx, qy = grid.nodes()
    seeds = np.stack([qx, qy], axis=-1)
    flat = seeds.reshape(-1, 2)
    (ends,) = kernels.rk4_points(
        flat, [([_rk4_segment(F, 0.0, 1.0, dt, (1.0, -0.5))], F.support_radius) for F in members],
        rows=3)
    y = flat.T
    shape = qx.shape
    out = []
    for F, z, value in zip(members, ends, values):
        x = z[:2]
        # -j(x - y) = (x_2 - y_2, -(x_1 - y_1))
        p = np.stack([x[1] - y[1], y[0] - x[0]], axis=-1)
        h = z[2] + value - 0.5 * (y[1] * x[0] - y[0] * x[1])
        phi = PlaneMap.from_node_images(grid, x.T, F.support_radius)
        out.append(GraphSamples(seeds, (0.5 * (x + y)).T.reshape(shape + (2,)),
                                p.reshape(shape + (2,)), h.reshape(shape), phi, value))
    return out


# ---------------------------------------------------------------------------
# phase functions of graphical slices


def phase_function_of_map(phi, value):
    """The phase function of the graphical time-1 map phi with identity-region value value.

    The ray-integrated potential of phi's recovered one-form, plus value
    (see the module docstring).  Rejects a non-graphical phi, through the
    one graphicality scan of `recover_one_form`.
    """
    return integrate_generating(recover_one_form(phi), base_value=value)


def phase_function_graphical(F, grid=None, dt=1e-3):
    """(f, value): the phase function of the time-1 graph on the chart grid, and its value.

    f = (ray-integrated potential of the recovered one-form)
        + int_0^1 c(s) ds,
    where c is the sphere-normalization offset of F.  The additive value
    is exactly the constant-chord action on the identity region and
    equals Cal / vol(sphere).  The time-1 map is one two-row flow_map;
    `phase_function_of_map` rejects it if it is not graphical.
    """
    if grid is None:
        grid = square_grid(257)
    value = normalize_on_sphere(F, grid=grid).offset_integral()
    return phase_function_of_map(flow_map(F, 1.0, grid=grid, dt=dt), value), value


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

    The members are SeparableBumps with one m.  Their time-1 maps on the
    chart grid come from one kernels.rk4_points run with RK4 step dt, each
    bit-equal to its own flow_map(H, 1, grid, dt), so each member's phase
    function and identity-region value are those of
    `phase_function_graphical`.
    """
    values = [normalize_on_sphere(H, grid=grid).offset_integral() for H in members]
    nodes = grid.node_points().reshape(-1, 2)
    (ends,) = kernels.rk4_points(
        nodes, [([_rk4_segment(H, 0.0, 1.0, dt)], H.support_radius) for H in members])
    fields = [phase_function_of_map(PlaneMap.from_node_images(grid, z.T, H.support_radius), v)
              for H, z, v in zip(members, ends, values)]
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
