"""Lifted actions, generating functions of graphs, and phase functions.

In the flat chart the graph of the time-t map of a Hamiltonian path is
parametrized over seeds y by

    q(u) = (phi^u(y) + y) / 2,      p(u) = -j(phi^u(y) - y),

and the action accumulated along the lifted trajectory,

    h = int p . dq - int F(u, phi^u(y)) du,

is the generating function of the graph: dh = p . dq.  The seeds are
lifted together in one RK4 run through every stored time.  A seed
outside the support never moves, and the sphere-normalized Hamiltonian
is -c(u) there, so all such frozen seeds share one action: the grid
lift steps only the seeds the flow moves, plus one frozen
representative.  The phase function
of a graphical time-1 map is the ray-integrated potential of the one-form
that `graphical.recover_one_form` recovers (the one graphicality gate of
the map) plus the identity-region value int_0^1 c(s) ds, where c is the
offset that normalizes the Hamiltonian on the sphere model.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .calabi import normalize_on_sphere
from .flows import flow_map, integrate_segments
from .graphical import integrate_generating, recover_one_form
from .grids import SPHERE_VOLUME, GridField2D, square_grid


# ---------------------------------------------------------------------------
# basic generating function from lifted trajectories


def lifted_action(F, ham, seeds, times, dt):
    """Lift seeds y along the flow of F; yield (q, p, f, h) at each time.

    q = (phi^u(y) + y) / 2 and p = -j(phi^u(y) - y) are the chart
    coordinates of the graph point, f = ham(u, phi^u(y)), and h is the
    action int p . dq - int ham du, both by the trapezoid rule.  seeds has
    shape (N, 2); times starts at 0.  The seeds take one RK4 run through
    every time (flows.integrate_segments), and the action is accumulated
    in the stepper's (2, N) layout; q and p are yielded as (N, 2) views.
    """
    seeds = np.asarray(seeds, dtype=np.float64)
    y = np.stack([seeds[:, 0], seeds[:, 1]])
    q = y.copy()
    p = np.zeros_like(y)
    f = ham(0.0, seeds)
    h = np.zeros(seeds.shape[0])
    yield q.T, p.T, f, h
    for k, x in enumerate(integrate_segments(F, times, seeds, dt), start=1):
        cur_q = 0.5 * (x + y)
        # -j(x - y) = (x_2 - y_2, -(x_1 - y_1))
        d = x - y
        cur_p = np.stack([d[1], -d[0]])
        cur_f = ham(times[k], x.T)
        du = times[k] - times[k - 1]
        pdq = (p + cur_p) * (cur_q - q)
        h = h + 0.5 * (pdq[0] + pdq[1])
        h = h - 0.5 * du * (f + cur_f)
        q, p, f = cur_q, cur_p, cur_f
        yield q.T, p.T, f, h


@dataclass
class GraphSamples:
    """Scattered graph of the time-t map with generating-function values."""

    seeds: np.ndarray        # (n, n, 2) grid seeds y
    q: np.ndarray            # (n, n, 2) chart base points at time t
    p: np.ndarray            # (n, n, 2) fiber values at time t
    h: np.ndarray            # (n, n) action values
    spacing: float


def _lift_order(seeds, support_radius):
    """The seeds (N, 2) to lift, and the mask of the frozen ones.

    A seed is frozen where the RK4 loop's test and the field's mask both
    put it outside the support.  The seeds the loop moves come first, in
    one run, then the others that are not frozen, then one frozen
    representative, if any.
    """
    x = seeds[:, 0]
    y = seeds[:, 1]
    out = x * x + y * y >= support_radius * support_radius
    frozen = out & (np.hypot(x, y) >= support_radius)
    lifted = np.concatenate([np.flatnonzero(~out), np.flatnonzero(out & ~frozen),
                             np.flatnonzero(frozen)[:1]])
    return lifted, frozen


def basic_generating(F, grid=None, dt=1e-3, nu=101):
    """Lift the grid seeds to time 1, accumulate the action, return the graph.

    The Hamiltonian in the action integrand is F - c(u) (sphere
    normalization on the same grid), which makes the value on the
    identity region equal int_0^1 c rather than 0.  A seed outside the
    support never moves and sees the one value -c(u) that the
    normalized field takes there, so every such frozen seed has q = y,
    p = 0 and the same action.  Only the other seeds and one frozen
    representative are lifted, in one RK4 run; the representative's p
    and h are copied to every frozen seed.
    """
    if grid is None:
        grid = square_grid(257)
    qx, qy = grid.nodes()
    seeds = np.stack([qx, qy], axis=-1)
    flat = seeds.reshape(-1, 2)
    ham = normalize_on_sphere(F, grid=grid)
    times = np.linspace(0.0, 1.0, nu)
    lifted, frozen = _lift_order(flat, F.support_radius)
    for q, p, _, h in lifted_action(F, ham, flat[lifted], times, dt):
        pass
    q_all = flat.copy()
    p_all = np.empty_like(flat)
    h_all = np.empty(len(flat))
    if frozen.any():
        p_all[frozen] = p[-1]
        h_all[frozen] = h[-1]
    q_all[lifted] = q
    p_all[lifted] = p
    h_all[lifted] = h
    shape = qx.shape
    return GraphSamples(
        seeds,
        q_all.reshape(shape + (2,)),
        p_all.reshape(shape + (2,)),
        h_all.reshape(shape),
        grid.spacing,
    )


# ---------------------------------------------------------------------------
# phase functions of graphical slices


def phase_function_graphical(F, grid=None, dt=1e-3):
    """The phase function f of the time-1 graph, on the chart grid.

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
    g = integrate_generating(alpha, base_value=value)
    return g, value, alpha


# ---------------------------------------------------------------------------
# parameter families of phase functions


@dataclass
class PhaseFamily:
    """Phase functions along a parameter (t or a) with their chart grids."""

    parameter_samples: list
    fields: list                      # GridField2D per parameter
    normalization_value: object       # scalar, or one value per member

    def value_at(self, idx):
        if np.isscalar(self.normalization_value):
            return float(self.normalization_value)
        return float(self.normalization_value[idx])

    # -- serialization -----------------------------------------------------

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        norm = self.normalization_value
        manifest = {
            "parameter_samples": [float(s) for s in self.parameter_samples],
            "normalization_value": norm if np.isscalar(norm) else list(norm),
        }
        with open(os.path.join(directory, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        for k, f in enumerate(self.fields):
            f.to_csv(os.path.join(directory, f"member_{k:03d}.csv"))

    @classmethod
    def load(cls, directory):
        with open(os.path.join(directory, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        samples = manifest["parameter_samples"]
        fields = [
            GridField2D.from_csv(os.path.join(directory, f"member_{k:03d}.csv"))
            for k in range(len(samples))
        ]
        return cls(samples, fields, manifest["normalization_value"])


@dataclass
class HJReport:
    residual: float
    grid_step: float
    parameter_step: float


def hj_residual(family, G):
    """Max |df/da + G(a, q, df)| over interior nodes and parameters.

    G is called as G(a, q_points, p_points) with arrays of shape (..., 2).
    Derivatives are centered differences in both the parameter and the
    grid; needs at least 3 parameter samples.  Interior nodes are those
    two cells or more from the border.
    """
    samples = np.asarray(family.parameter_samples, dtype=np.float64)
    if samples.size < 3:
        raise ValueError("Hamilton-Jacobi residual needs >= 3 parameter samples")
    steps = np.diff(samples)
    if np.max(np.abs(steps - steps[0])) > 1e-12:
        raise ValueError("parameter samples must be uniform")
    h_a = steps[0]
    worst = 0.0
    for i in range(1, samples.size - 1):
        f0 = family.fields[i]
        dfda = (family.fields[i + 1].values - family.fields[i - 1].values) / (2 * h_a)
        d1, d2 = np.gradient(f0.values, f0.spacing, edge_order=2)
        qx, qy = f0.nodes()
        q = np.stack([qx, qy], axis=-1)
        p = np.stack([d1, d2], axis=-1)
        res = dfda + G(samples[i], q, p)
        core = res[2:-2, 2:-2]
        worst = max(worst, float(np.max(np.abs(core))))
    return HJReport(worst, family.fields[0].spacing, h_a)


# ---------------------------------------------------------------------------
# the phase integral over the sphere model


def phase_integral(family):
    """I(a) per member: chart integral extended over the identity region.

    I = int (f - value) over the chart + value * vol(sphere); the first
    term is supported in the chart grid, the second accounts for the
    constant value on the rest of the sphere model.  Also returns the
    discrete derivative I'(a).
    """
    out = []
    for idx, f in enumerate(family.fields):
        value = family.value_at(idx)
        bulk = float(np.sum(f.values - value)) * f.spacing**2
        out.append(bulk + value * SPHERE_VOLUME)
    samples = np.asarray(family.parameter_samples, dtype=np.float64)
    if samples.size >= 2:
        deriv = list(np.gradient(np.asarray(out), samples))
    else:
        deriv = [0.0]
    return out, deriv
