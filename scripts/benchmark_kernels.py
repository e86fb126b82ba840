#!/usr/bin/env python3
"""Benchmark the bump-flow RK4 kernel on two radial-bump flows.

The kernel (`disclab.kernels.rk4_bump_flow`) advances a radial bump's
time-one flow over two clouds: a uniform random cloud (30k points by
default) and the 1,877 live nodes of a 65-node grid, the cloud size of an
s-Hamiltonian path.  For each cloud the script prints the best wall time,
M point-steps/s over live points, and the maximum error against the exact
rotation (`SeparableBump.exact_flow`), so a kernel change shows its
accuracy next to its speed.

Usage: PYTHONPATH=src python3 scripts/benchmark_kernels.py [--points N] [--steps M]
"""

import argparse
import time

import numpy as np

from disclab.fields import radial_bump
from disclab.grids import square_grid
from disclab.kernels import rk4_bump_flow

AMP, RHO, M = 0.12, 0.8, 4


def run(pts, nsteps, repeats):
    """Best wall time, live point-steps/s and max error of one time-one flow."""
    dt = 1.0 / nsteps
    tau = np.ones(2 * nsteps + 1)
    cz = np.zeros_like(tau)
    best = float("inf")
    for _ in range(repeats):
        work = np.ascontiguousarray(pts.copy())
        t0 = time.perf_counter()
        rk4_bump_flow(work, dt, nsteps, None, AMP, RHO, M, tau, cz, cz, RHO)
        best = min(best, time.perf_counter() - t0)
    live = np.count_nonzero(np.hypot(pts[:, 0], pts[:, 1]) < RHO)
    exact = radial_bump(amp=AMP, rho=RHO, m=M).exact_flow(0.0, 1.0, pts)
    return best, live, live * nsteps / best, float(np.max(np.abs(work - exact)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=30_000)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    qx, qy = square_grid(65).nodes()
    clouds = {
        "random": rng.uniform(-0.75, 0.75, size=(args.points, 2)),
        "grid-65": np.stack([qx.ravel(), qy.ravel()], axis=-1),
    }
    print(f"radial bump amp={AMP} rho={RHO} m={M}, {args.steps} RK4 steps to t = 1")
    for name, pts in clouds.items():
        best, live, rate, err = run(pts, args.steps, args.repeats)
        print(f"{name:>8} : {live:6d} live points  {best:8.3f} s  "
              f"{rate / 1e6:7.2f} M point-steps/s  max error vs exact {err:.3e}")


if __name__ == "__main__":
    main()
