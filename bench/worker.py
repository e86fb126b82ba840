"""One workload process: build inputs from a seed, run timed passes, report.

run.py starts this file once per set-up probe and once for the measured
run, one process at a time, and reads the JSON object it prints.  The
set-up time runs from the moment run.py launched the process (the
``--launched`` CLOCK_MONOTONIC stamp, which Linux shares between
processes) until the inputs are built, so it covers interpreter start,
imports and input construction.

With ``--trace 1`` the process first runs untraced passes for half the
budget, then installs the tracer and runs traced passes for the other
half, so the per-layer metrics, the tracing overhead and the comparison
of check outcomes with tracing on and off come from one process.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _now_monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _no_span(name):
    return contextlib.nullcontext()


def run_passes(workload, inputs, span, budget_s, reference, tracer=None):
    """Run whole passes until budget_s has elapsed; at least one pass.

    ``reference`` holds the digests of the run's first pass; every later
    pass must reproduce them byte for byte.  Returns the pass wall times,
    the operations of every pass, and the span index range of each pass.
    """
    walls, passes, ranges = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < budget_s:
        lo = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        ops = workload.run(inputs, span)
        if not reference:
            reference.extend(op.digest for op in ops)
        for op, digest in zip(ops, reference):
            if op.error is None and op.digest != digest:
                op.holds("digest_matches_first_pass", False)
        walls.append(time.perf_counter() - t0)
        passes.append(ops)
        ranges.append((lo, len(tracer.spans) if tracer else 0))
    return walls, passes, ranges


def _outcomes(ops):
    return [(op.name, op.error is None, [(c["check"], c["ok"]) for c in op.checks])
            for op in ops]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy
    import scipy

    import disclab
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    result = {
        "setup_s": _now_monotonic() - args.launched,
        "meta": {
            "lane": disclab.kernel_backend,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    reference = []
    budget = args.seconds / 2.0 if args.trace else args.seconds
    walls, passes, _ = run_passes(workload, inputs, _no_span, budget, reference)
    result["walls"] = walls
    if args.trace:
        tracer = tracing.Tracer().install()
        try:
            t_walls, t_passes, ranges = run_passes(workload, inputs, tracer.span, budget,
                                                   reference, tracer)
        finally:
            tracer.uninstall()
        per_pass, coverage = [], []
        for (lo, hi), wall in zip(ranges, t_walls):
            stats, top = tracing.layer_stats(tracer.spans, lo, hi)
            per_pass.append(tracing.layer_metrics(stats))
            coverage.append(top / wall)
        layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        layers["trace.wall_s"] = statistics.median(t_walls)
        layers["trace.untraced_wall_s"] = statistics.median(walls)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["trace.coverage"] = statistics.median(coverage)
        layers["trace.spans"] = statistics.median(hi - lo for lo, hi in ranges)
        result["layers"] = {name: {"value": value, "unit": tracing.UNITS[name]}
                            for name, value in layers.items()}
        result["traced_walls"] = t_walls
        result["unwrapped"] = tracer.missing
        untraced = _outcomes(passes[0])
        result["trace_outcomes_match"] = all(_outcomes(ops) == untraced for ops in t_passes)
        if args.spans_out:
            names = sorted({rec[tracing.NAME] for rec in tracer.spans})
            ids = {n: i for i, n in enumerate(names)}
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({
                    "fields": ["name", "start", "end", "parent", "count", "aux", "nested"],
                    "names": names,
                    "passes": ranges,
                    "spans": [[ids[r[0]], *r[1:6], int(r[6])] for r in tracer.spans],
                }, fh)
        passes = passes + t_passes

    all_ops = [op for ops in passes for op in ops]
    bad = [op for op in all_ops if not op.checked_ok]
    result["attempted"] = len(all_ops)
    result["failed"] = len(bad)
    # A raised operation only fails; a completed one that misses a check
    # is a wrong result.
    result["correct"] = (all(op.error is not None for op in bad)
                         and result.get("trace_outcomes_match", True))
    result["failures"] = [op.as_dict() for op in bad[:5]]
    result["last_pass"] = [op.as_dict() for op in passes[-1]]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
