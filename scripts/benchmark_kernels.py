#!/usr/bin/env python3
"""Benchmark every available flow-kernel lane on one radial-bump flow.

Each lane runs the same RK4 advance of a radial bump's time-one flow
over the same point cloud.  Per lane the script reports wall time,
point-steps per second and the maximum error against the exact rotation
(`SeparableBump.exact_flow`), so a kernel change shows its accuracy next
to its speed.  Every other lane is also compared with the numpy lane:
speedup and maximum deviation (rounding level, since the algorithms are
identical).

Usage: python3 scripts/benchmark_kernels.py [--points N] [--steps M]
"""

import argparse
import time

import numpy as np

from disclab import _kernels_py
from disclab.fields import radial_bump
from disclab.kernels import backends


def run_lane(impl, pts, dt, nsteps, h_d, amp, rho, m, tau, cx, cy, support):
    work = np.ascontiguousarray(pts.copy())
    t0 = time.perf_counter()
    impl.rk4_bump_flow(work, dt, nsteps, h_d, amp, rho, m, tau, cx, cy, support)
    return time.perf_counter() - t0, work


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=30_000)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.75, 0.75, size=(args.points, 2))
    dt = 1.0 / args.steps
    amp, rho, m, support = 0.12, 0.8, 4, 0.8
    levels = 2 * args.steps + 1
    tau = np.ones(levels)
    cx = np.zeros(levels)
    cy = np.zeros(levels)

    exact = radial_bump(amp=amp, rho=rho, m=m).exact_flow(0.0, 1.0, pts)
    lanes = backends()
    print(f"lanes available : {', '.join(sorted(lanes))}")
    print(f"workload        : {args.points} points x {args.steps} RK4 steps")
    results = {}
    for name in sorted(lanes):
        best = float("inf")
        for _ in range(args.repeats):
            elapsed, out = run_lane(
                lanes[name], pts, dt, args.steps, 1e-4, amp, rho, m,
                tau, cx, cy, support,
            )
            best = min(best, elapsed)
        results[name] = (best, out)
        rate = args.points * args.steps / best / 1e6
        err = float(np.max(np.abs(out - exact)))
        print(f"{name:>8} lane : {best:8.3f} s   ({rate:7.1f} M point-steps/s)"
              f"   max error vs exact {err:.3e}")
    base = _kernels_py.BACKEND
    t_base, out_base = results[base]
    for name, (elapsed, out) in sorted(results.items()):
        if name == base:
            continue
        dev = float(np.max(np.abs(out - out_base)))
        print(f"{name:>8} lane : {t_base / elapsed:.1f}x over {base}, "
              f"deviation {dev:.3e}")


if __name__ == "__main__":
    main()
