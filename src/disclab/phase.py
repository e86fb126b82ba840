"""Classical actions, generating functions of graphs, and phase functions.

In the flat chart the graph of the time-t map of a Hamiltonian path is
parametrized over seeds y by

    q(u) = (phi^u(y) + y) / 2,      p(u) = -j(phi^u(y) - y),

and the action accumulated along the lifted trajectory,

    h = int p . dq - int F(u, phi^u(y)) du,

is the generating function of the graph: dh = p . dq.  The phase function
of a graphical time slice is the ray-integrated potential of the
recovered one-form plus the identity-region value int_0^t c(s) ds, where
c is the sphere-normalization offset of the Hamiltonian.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .calabi import normalize_on_sphere
from .chart import jmap
from .flows import flow_map, integrate_points, _simpson_weights
from .graphical import (OneFormField, integrate_generating, is_graphical,
                        recover_one_form)
from .grids import DiscDomain, GridField2D, square_grid


# ---------------------------------------------------------------------------
# classical action


@dataclass
class ActionRecord:
    """A sampled cotangent trajectory and its classical action."""

    times: np.ndarray
    trajectory: np.ndarray   # shape (nt, 4): (q1, q2, p1, p2) per sample
    action: float


def lift_to_chart(F):
    """F as a chart Hamiltonian: value at the x-point q + j(p)/2 of the pair."""

    def chart_eval(t, q, p):
        return F(t, q + 0.5 * jmap(p))

    return chart_eval


def classical_action(chart_hamiltonian, times, trajectory):
    """int p . dq (trapezoid) minus int H dt (Simpson) along the samples.

    times must be uniform with an odd sample count matching the
    trajectory; anything else is a sampling mismatch and is rejected.
    """
    times = np.asarray(times, dtype=np.float64)
    traj = np.asarray(trajectory, dtype=np.float64)
    if traj.ndim != 2 or traj.shape[1] != 4 or traj.shape[0] != times.size:
        raise ValueError(
            f"trajectory samples {traj.shape} do not match times {times.shape}"
        )
    if times.size < 3 or times.size % 2 == 0:
        raise ValueError("need an odd number of samples >= 3 for the quadrature")
    steps = np.diff(times)
    if np.max(np.abs(steps - steps[0])) > 1e-12:
        raise ValueError("time samples must be uniform")
    q = traj[:, :2]
    p = traj[:, 2:]
    pdq = float(np.sum(0.5 * np.sum((p[:-1] + p[1:]) * np.diff(q, axis=0), axis=1)))
    hvals = np.array(
        [chart_hamiltonian(t, q[k], p[k]) for k, t in enumerate(times)],
        dtype=np.float64,
    )
    w = _simpson_weights(times.size)
    hint = float(np.sum(w * hvals) * steps[0])
    return ActionRecord(times, traj, pdq - hint)


# ---------------------------------------------------------------------------
# basic generating function from lifted trajectories


def lifted_action(F, ham, seeds, times, dt):
    """Lift seeds y along the flow of F; yield (q, p, f, h) at each time.

    q = (phi^u(y) + y) / 2 and p = -j(phi^u(y) - y) are the chart
    coordinates of the graph point, f = ham(u, phi^u(y)), and h is the
    action int p . dq - int ham du, both by the trapezoid rule.  seeds has
    shape (N, 2); times starts at 0.
    """
    pts = seeds
    q = seeds.copy()
    p = np.zeros_like(seeds)
    f = ham(0.0, seeds)
    h = np.zeros(seeds.shape[0])
    yield q, p, f, h
    for k in range(len(times) - 1):
        pts = integrate_points(F, times[k], times[k + 1], pts, dt)
        cur_q = 0.5 * (pts + seeds)
        cur_p = -jmap(pts - seeds)
        cur_f = ham(times[k + 1], pts)
        du = times[k + 1] - times[k]
        h = h + 0.5 * np.sum((p + cur_p) * (cur_q - q), axis=1)
        h = h - 0.5 * du * (f + cur_f)
        q, p, f = cur_q, cur_p, cur_f
        yield q, p, f, h


@dataclass
class GraphSamples:
    """Scattered graph of the time-t map with generating-function values."""

    seeds: np.ndarray        # (n, n, 2) grid seeds y
    q: np.ndarray            # (n, n, 2) chart base points at time t
    p: np.ndarray            # (n, n, 2) fiber values at time t
    h: np.ndarray            # (n, n) action values
    spacing: float

    def exactness_defect(self):
        """Max |dh - p . dq| / |dq| over grid-neighbor seed pairs."""
        worst = 0.0
        for axis in (0, 1):
            dh = np.diff(self.h, axis=axis)
            dq = np.diff(self.q, axis=axis)
            pbar = 0.5 * (
                np.take(self.p, np.arange(self.p.shape[axis] - 1), axis=axis)
                + np.take(self.p, np.arange(1, self.p.shape[axis]), axis=axis)
            )
            pdq = np.sum(pbar * dq, axis=-1)
            norm = np.hypot(dq[..., 0], dq[..., 1])
            ok = norm > 1e-14
            worst = max(worst, float(np.max(np.abs(dh[ok] - pdq[ok]) / norm[ok])))
        return worst


def basic_generating(F, t=1.0, grid=None, dt=1e-3, nu=101, domain=None):
    """Lift every grid seed, accumulate the action, return the sampled graph.

    The Hamiltonian in the action integrand is F - c(u) (sphere
    normalization on the same grid), which makes the value on the
    identity region equal int_0^t c rather than 0.
    """
    if grid is None:
        grid = square_grid(257)
    qx, qy = grid.nodes()
    seeds = np.stack([qx, qy], axis=-1)
    flat = seeds.reshape(-1, 2)
    ham = normalize_on_sphere(F, domain, grid=grid)
    times = np.linspace(0.0, t, nu)
    for q, p, _, h in lifted_action(F, ham, flat, times, dt):
        pass
    shape = qx.shape
    return GraphSamples(
        seeds,
        q.reshape(shape + (2,)),
        p.reshape(shape + (2,)),
        h.reshape(shape),
        grid.spacing,
    )


# ---------------------------------------------------------------------------
# phase functions of graphical slices


def phase_function_graphical(F, domain=None, t=1.0, grid=None, dt=1e-3,
                             delta=1e-3):
    """The phase function f of the time-t graph, on the chart grid.

    f = (ray-integrated potential of the recovered one-form)
        + int_0^t c(s) ds,
    where c is the sphere-normalization offset of F.  The additive value
    is exactly the constant-chord action on the identity region; at t = 1
    it equals Cal / vol(sphere).  Rejects a non-graphical slice.
    """
    if domain is None:
        domain = DiscDomain(support_radius=F.support_radius or 0.8)
    if grid is None:
        grid = square_grid(257)
    phi = flow_map(F, t, grid=grid, dt=dt)
    ok, min_det = is_graphical(phi, delta)
    if not ok:
        raise ValueError(
            f"time-{t} slice is not graphical (min det = {min_det:.3e})"
        )
    alpha = recover_one_form(phi, delta)
    nf = normalize_on_sphere(F, domain, grid=grid)
    value = nf.offset_integral(t)
    g = integrate_generating(alpha, base_value=value)
    return g, value, alpha


def gradient_bound_defect(f, alpha):
    """max |df| minus max |p| over the graph; <= 0 when the Lipschitz bound holds."""
    d1, d2 = f.gradient()
    max_df = float(np.max(np.hypot(d1.values, d2.values)))
    pmax = float(np.max(np.hypot(alpha.a1.values, alpha.a2.values)))
    return max_df - pmax


def lagrangian_selector(f, support_radius):
    """sigma = df as a one-form field; its image lies on the current graph."""
    d1, d2 = f.gradient()
    return OneFormField(d1, d2, support_radius)


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

    def lipschitz_constants(self):
        """Max grid difference quotient of each member."""
        out = []
        for f in self.fields:
            q1 = np.max(np.abs(np.diff(f.values, axis=0))) / f.spacing
            q2 = np.max(np.abs(np.diff(f.values, axis=1))) / f.spacing
            out.append(float(max(q1, q2)))
        return out

    def normalization_defect(self, support_radius):
        """Max |member - its value| outside the support image."""
        worst = 0.0
        for idx, f in enumerate(self.fields):
            qx, qy = f.nodes()
            outside = np.hypot(qx, qy) >= support_radius
            if outside.any():
                worst = max(
                    worst,
                    float(np.max(np.abs(f.values[outside] - self.value_at(idx)))),
                )
        return worst

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


def hj_residual(family, G, interior_margin=2):
    """Max |df/da + G(a, q, df)| over interior nodes and parameters.

    G is called as G(a, q_points, p_points) with arrays of shape (..., 2).
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
    worst = 0.0
    m = interior_margin
    for i in range(1, samples.size - 1):
        f0 = family.fields[i]
        dfda = (family.fields[i + 1].values - family.fields[i - 1].values) / (2 * h_a)
        d1, d2 = np.gradient(f0.values, f0.spacing, edge_order=2)
        qx, qy = f0.nodes()
        q = np.stack([qx, qy], axis=-1)
        p = np.stack([d1, d2], axis=-1)
        res = dfda + G(samples[i], q, p)
        core = res[m:-m, m:-m]
        worst = max(worst, float(np.max(np.abs(core))))
    return HJReport(worst, family.fields[0].spacing, h_a)


# ---------------------------------------------------------------------------
# suspension identity


def suspension_check(F, probes=None, nt=41, dt=1e-3, h_q=1e-3, domain=None,
                     rng=None):
    """Max defect of d(h~) against the pulled-back form theta + a dt.

    The timewise generating function h~(t, q-seed) is accumulated along
    lifted trajectories from a stencil of seeds around each probe.  The
    q-components of the defect test dh = p . dq at fixed t; the
    t-component tests dh/dt = p . dq/dt - F(t, phi^t(y)), whose last term
    is the a-coordinate -F of the suspended graph.
    """
    if F.support_radius is None:
        raise ValueError("suspension check needs a compactly supported field")
    if probes is None:
        rng = np.random.default_rng(7) if rng is None else rng
        probes = rng.uniform(-0.6 * F.support_radius, 0.6 * F.support_radius,
                             size=(8, 2))
    probes = np.asarray(probes, dtype=np.float64)
    nf = normalize_on_sphere(F, domain)
    # stencil: center, +/- h_q in each axis
    offsets = np.array(
        [[0.0, 0.0], [h_q, 0.0], [-h_q, 0.0], [0.0, h_q], [0.0, -h_q]]
    )
    seeds = (probes[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    times = np.linspace(0.0, 1.0, nt)
    hist_q, hist_p, hist_f, hist_h = zip(*lifted_action(F, nf, seeds, times, dt))
    hq = np.array(hist_q).reshape(nt, -1, 5, 2)
    hp = np.array(hist_p).reshape(nt, -1, 5, 2)
    hh = np.array(hist_h).reshape(nt, -1, 5)
    hf = np.array(hist_f).reshape(nt, -1, 5)
    du = times[1] - times[0]
    worst_q = 0.0
    worst_t = 0.0
    # spatial components at each stored time
    for k in range(nt):
        for axis, (ip, im) in enumerate(((1, 2), (3, 4))):
            dh = (hh[k, :, ip] - hh[k, :, im]) / (2 * h_q)
            dq = (hq[k, :, ip] - hq[k, :, im]) / (2 * h_q)
            pdq = np.sum(hp[k, :, 0] * dq, axis=-1)
            worst_q = max(worst_q, float(np.max(np.abs(dh - pdq))))
    # time component at interior stored times (centered differences)
    dhdt = (hh[2:, :, 0] - hh[:-2, :, 0]) / (2 * du)
    dqdt = (hq[2:, :, 0] - hq[:-2, :, 0]) / (2 * du)
    pdqdt = np.sum(hp[1:-1, :, 0] * dqdt, axis=-1)
    defect_t = dhdt - (pdqdt - hf[1:-1, :, 0])
    worst_t = float(np.max(np.abs(defect_t)))
    return max(worst_q, worst_t)


# ---------------------------------------------------------------------------
# the phase integral over the sphere model


def phase_integral(family, domain=None):
    """I(a) per member: chart integral extended over the identity region.

    I = int (f - value) over the chart + value * vol(sphere); the first
    term is supported in the chart grid, the second accounts for the
    constant value on the rest of the sphere model.  Also returns the
    discrete derivative I'(a).
    """
    if domain is None:
        domain = DiscDomain()
    out = []
    for idx, f in enumerate(family.fields):
        value = family.value_at(idx)
        bulk = float(np.sum(f.values - value)) * f.spacing**2
        out.append(bulk + value * domain.sphere_volume)
    samples = np.asarray(family.parameter_samples, dtype=np.float64)
    if samples.size >= 2:
        deriv = list(np.gradient(np.asarray(out), samples))
    else:
        deriv = [0.0]
    return out, deriv
