#!/usr/bin/env python3
"""Benchmark the RK4 flows of a radial bump: closed-form and spline-backed.

The bump kernel (`disclab.kernels.rk4_bump_flow`) advances a radial bump's
time-one flow over three clouds: a uniform random cloud (30k points by
default), the 1,877 live nodes of a 65-node grid, the cloud size of an
s-Hamiltonian path, and the 119,521 live nodes of a 513-node grid, the
acceptance-size cloud that spans several of the kernel's blocks.  The
first two take --steps RK4 steps, the 513-node grid takes 100.

The spline rows flow the same bump through its cubic-spline gradient:
K(s, t, .) = t H stored on a 129-node spline grid, whose time-one field
K(., 1, .) (`SHamiltonian.time_one_field`) is flowed over s in [0, 1]
by `flows.integrate_points` with 500 steps (dt = 2e-3).  Its clouds are
the 1,000 points of the `spline_flow` benchmark workload (900 inside the
disc of radius 0.75, 100 in the annulus outside the support) and the
7,449 live nodes of a 129-node grid, the cloud of catalog E7.

The lift row steps the 7,449 live nodes of a 129-node grid, the seeds
that catalog E4's graph lift moves, to t = 1 in 100 RK4 steps, as
`phase.basic_generating` steps them: one (3, N) `kernels.rk4` run whose
third row is the action, the bump kernel's value row (1, -1/2).  Its
error is that of rows 0 and 1.

The stack row runs catalog E9's members, a loop of the same bump
rescaled by a = 1/4, 1/2, 3/4 and 1, over the nodes of a 65-node grid
as one `kernels.rk4_points` run, as `phase.phase_family` steps them: the
members' live nodes side by side in one state, each block of it
stepped once.  Set beside the grid-65 row, it shows what stacking saves
of the per-call overhead of small clouds.  A loop's time factor
integrates to 0, so each member's exact time-one map is the identity.

For each cloud the script prints the best wall time, M point-steps/s over
live points, and the maximum error against the exact rotation
(`SeparableBump.exact_flow`), so a change shows its accuracy next to its
speed.

Usage: PYTHONPATH=src python3 scripts/benchmark_kernels.py [--points N] [--steps M]
       [--repeats R]
"""

import argparse
import time

import numpy as np

from disclab.alexander import SHamiltonian, rescale
from disclab.fields import loop_bump, radial_bump
from disclab.flows import _rk4_segment, integrate_points
from disclab.grids import sample, square_grid
from disclab.kernels import rk4, rk4_bump_flow, rk4_points

AMP, RHO, M = 0.12, 0.8, 4
SPLINE_STEPS = 500
LIFT_STEPS = 100


def bump_flow(pts, nsteps):
    """The time-one flow of the bump by the closed-form kernel."""
    tau = np.ones(2 * nsteps + 1)
    cz = np.zeros_like(tau)
    return rk4_bump_flow(pts, 1.0 / nsteps, nsteps, None, AMP, RHO, M, tau, cz, cz, RHO)


def spline_flow(bump):
    """The time-one flow of the bump through the spline gradient of K(., 1, .) = H."""
    grid = square_grid(129)
    k = sample(grid, lambda pts: bump(0.0, pts))
    zero = grid.with_values(np.zeros_like(k.values))
    field = SHamiltonian(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                         [[zero, k], [zero, k]], RHO).time_one_field()
    return lambda pts, nsteps: integrate_points(field, 0.0, 1.0, pts, dt=1.0 / nsteps)


def lift(bump):
    """The time-one flow of the bump with the graph lift's action row."""
    def flow(pts, nsteps):
        z = np.zeros((3, len(pts)))
        z[:2] = pts.T
        (z,) = rk4([_rk4_segment(bump, 0.0, 1.0, 1.0 / nsteps, (1.0, -0.5))], z)
        return z[:2].T

    return flow


def stack(members):
    """The time-one flows of members in one stacked run, their images one after another."""
    def flow(pts, nsteps):
        run = [([_rk4_segment(H, 0.0, 1.0, 1.0 / nsteps)], H.support_radius) for H in members]
        (z,) = rk4_points(pts, run)
        return np.concatenate([zi.T for zi in z])

    return flow


def run(flow, pts, nsteps, repeats, live, exact):
    """Best wall time, live point-steps/s and max error of one time-one flow."""
    best = float("inf")
    for _ in range(repeats):
        work = np.ascontiguousarray(pts.copy())
        t0 = time.perf_counter()
        work = flow(work, nsteps)
        best = min(best, time.perf_counter() - t0)
    return best, live * nsteps / best, float(np.max(np.abs(work - exact)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=30_000)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(0)

    def grid_cloud(n):
        qx, qy = square_grid(n).nodes()
        return np.stack([qx.ravel(), qy.ravel()], axis=-1)

    random = rng.uniform(-0.75, 0.75, size=(args.points, 2))
    # the spline_flow workload's cloud: 900 points in the disc of radius
    # 0.75 and 100 in the annulus outside the support
    r = np.concatenate([0.75 * np.sqrt(rng.random(900)), RHO + (1.0 - RHO) * rng.random(100)])
    angle = 2.0 * np.pi * rng.random(r.size)
    workload = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)

    # (flow, cloud, RK4 steps to t = 1)
    bump = radial_bump(amp=AMP, rho=RHO, m=M)
    splines = spline_flow(bump)
    nodes = grid_cloud(129)
    seeds = nodes[np.hypot(nodes[:, 0], nodes[:, 1]) < RHO]
    scales = (0.25, 0.5, 0.75, 1.0)
    loops = [rescale(loop_bump(amp=AMP, rho=RHO, m=M), a) for a in scales]
    clouds = {
        "random": (bump_flow, random, args.steps),
        "grid-65": (bump_flow, grid_cloud(65), args.steps),
        "stack": (stack(loops), grid_cloud(65), args.steps),
        "grid-513": (bump_flow, grid_cloud(513), 100),
        "spline-1000": (splines, workload, SPLINE_STEPS),
        "spline-grid-129": (splines, nodes, SPLINE_STEPS),
        "lift": (lift(bump), seeds, LIFT_STEPS),
    }
    print(f"radial bump amp={AMP} rho={RHO} m={M}, time-one flows")
    for name, (flow, pts, steps) in clouds.items():
        r = np.hypot(pts[:, 0], pts[:, 1])
        if name == "stack":
            live = sum(np.count_nonzero(r < a * RHO) for a in scales)
            exact = np.tile(pts, (len(scales), 1))
        else:
            live = np.count_nonzero(r < RHO)
            exact = bump.exact_flow(0.0, 1.0, pts)
        best, rate, err = run(flow, pts, steps, args.repeats, live, exact)
        print(f"{name:>15} : {live:6d} live points  {steps:5d} steps  {best:8.3f} s  "
              f"{rate / 1e6:7.2f} M point-steps/s  max error vs exact {err:.3e}")


if __name__ == "__main__":
    main()
